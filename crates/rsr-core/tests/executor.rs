//! Executor behaviour under adversity: per-shard failure isolation,
//! two-choice balance at scale, and deterministic placement — with
//! synthetic sessions, so the properties under test are the executor's
//! alone, not any protocol's.

use rsr_core::channel::Frame;
use rsr_core::executor::{drive_batch, DynSession, Placement};
use rsr_iblt::bits::BitWriter;
use std::time::Duration;

fn frame(label: &'static str) -> Frame {
    let mut w = BitWriter::new();
    w.write(0xAB, 8);
    Frame::seal(label, w)
}

/// Sends `burst` frames, then expects `burst` echoes back.
struct Talker {
    to_send: usize,
    expect: usize,
}

impl DynSession for Talker {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.to_send > 0 {
            self.to_send -= 1;
            return Ok(Some(frame("talk")));
        }
        Ok(None)
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        self.expect -= 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.to_send == 0 && self.expect == 0
    }
}

/// Echoes every frame straight back.
struct Echo {
    expect: usize,
    queued: usize,
}

impl DynSession for Echo {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.queued > 0 {
            self.queued -= 1;
            return Ok(Some(frame("echo")));
        }
        Ok(None)
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        self.expect -= 1;
        self.queued += 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.expect == 0 && self.queued == 0
    }
}

/// Behaves like [`Echo`] until the `fail_on`-th frame, then errors
/// mid-stream.
struct FailsMidStream {
    seen: usize,
    fail_on: usize,
    queued: usize,
}

impl DynSession for FailsMidStream {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.queued > 0 {
            self.queued -= 1;
            return Ok(Some(frame("echo")));
        }
        Ok(None)
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        self.seen += 1;
        if self.seen == self.fail_on {
            return Err(format!("synthetic failure on frame {}", self.fail_on));
        }
        self.queued += 1;
        Ok(())
    }

    fn is_done(&self) -> bool {
        false
    }
}

fn healthy_pair(burst: usize) -> (Box<dyn DynSession>, Box<dyn DynSession>) {
    (
        Box::new(Talker {
            to_send: burst,
            expect: burst,
        }),
        Box::new(Echo {
            expect: burst,
            queued: 0,
        }),
    )
}

#[test]
fn bob_erroring_mid_stream_leaves_shard_mates_untouched() {
    // One shard, so every session shares a worker with the failing one:
    // the executor must isolate the failure, not wedge the shard.
    let mut pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> = Vec::new();
    for i in 0..16 {
        if i == 7 {
            pairs.push((
                Box::new(Talker {
                    to_send: 5,
                    expect: 5,
                }),
                Box::new(FailsMidStream {
                    seen: 0,
                    fail_on: 3,
                    queued: 0,
                }),
            ));
        } else {
            pairs.push(healthy_pair(2 + i % 3));
        }
    }
    let outcomes = drive_batch(1, 0xfa11, pairs, Duration::from_secs(5));
    for (i, out) in outcomes.iter().enumerate() {
        assert_eq!(out.shard, 0, "single shard");
        if i == 7 {
            assert_eq!(
                out.error.as_deref(),
                Some("synthetic failure on frame 3"),
                "the failing pair reports its own protocol error"
            );
        } else {
            assert!(
                out.is_ok(),
                "pair {i} on the same shard must still complete: {:?}",
                out.error
            );
            let burst = 2 + i % 3;
            assert_eq!(out.transcript.num_messages(), 2 * burst);
        }
    }
}

#[test]
fn two_choice_balance_holds_for_batch_placement() {
    let shards = 8;
    let pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> =
        (0..512).map(|_| healthy_pair(1)).collect();
    let outcomes = drive_batch(shards, 0xba1a, pairs, Duration::from_secs(10));
    let mut per_shard = vec![0usize; shards];
    for out in &outcomes {
        assert!(out.is_ok());
        per_shard[out.shard] += 1;
    }
    let mean = outcomes.len() / shards;
    for (shard, &count) in per_shard.iter().enumerate() {
        assert!(
            count <= 2 * mean,
            "shard {shard} received {count} sessions, over 2x the mean {mean} \
             (loads: {per_shard:?})"
        );
        assert!(
            count > 0,
            "shard {shard} received nothing (loads: {per_shard:?})"
        );
    }
}

#[test]
fn batch_placement_is_deterministic_across_runs() {
    let run = || {
        let pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> =
            (0..64).map(|_| healthy_pair(1)).collect();
        drive_batch(4, 0xd37e, pairs, Duration::from_secs(5))
            .iter()
            .map(|o| o.shard)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed and order place identically");
}

#[test]
fn placement_candidates_stay_in_range() {
    let placement = Placement::new(5, 99);
    for id in 0..1000 {
        let (a, b) = placement.candidates(id);
        assert!(a < 5 && b < 5);
    }
}

/// Takes one frame, spending `nap` inside `on_frame` on it.
struct Slow {
    nap: Duration,
    got: bool,
}

impl DynSession for Slow {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(None)
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        std::thread::sleep(self.nap);
        self.got = true;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got
    }
}

#[test]
fn a_half_still_inside_on_frame_past_two_stall_windows_ends_its_pair_stalled() {
    // Alice says her one frame and waits for an echo that never comes;
    // Bob spends eight stall windows inside `on_frame`. The pair never
    // finished, so it must not read as OK.
    let pairs: Vec<(Box<dyn DynSession>, Box<dyn DynSession>)> = vec![(
        Box::new(Talker {
            to_send: 1,
            expect: 1,
        }),
        Box::new(Slow {
            nap: Duration::from_millis(400),
            got: false,
        }),
    )];
    let outcomes = drive_batch(1, 0x57a1, pairs, Duration::from_millis(50));
    assert_eq!(outcomes[0].shard, 0);
    assert_eq!(
        outcomes[0].error.as_deref(),
        Some(rsr_core::executor::STALLED)
    );
}
