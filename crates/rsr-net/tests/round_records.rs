//! A continuous round is one `FRAME` each way: the client's delta, then
//! the server's reply, which is also the round's ack. Over loopback,
//! back-to-back rounds move exactly those two records and nothing else,
//! and every round settles both parties to the union.

mod support;

#[test]
fn a_continuous_round_is_one_frame_each_way() {
    support::run_rounds(200);
}
