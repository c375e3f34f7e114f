//! `drive_batch` under adversity: failure isolation, threads that leave
//! no pair waiting while one is free, and stall handling — with
//! synthetic sessions, so the properties under test are the driver's
//! alone, not any protocol's.

use rsr_core::channel::Frame;
use rsr_core::executor::{drive_batch, DynSession};
use rsr_iblt::bits::BitWriter;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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
    // Bob spends a long while inside `on_frame`, then says nothing. Two
    // silent turns in a row are a stall: the pair never finished, so it
    // must not read as OK.
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
    assert_eq!(
        outcomes[0].error.as_deref(),
        Some(rsr_core::executor::STALLED)
    );
}

/// When each quick pair's frame arrived, since the batch began.
struct Arrivals {
    start: Instant,
    times: Mutex<Vec<Duration>>,
    changed: Condvar,
}

/// Says one frame, after waiting inside its first `poll_send` until
/// `quick` frames have arrived elsewhere, or `nap` has passed.
struct Napper<'a> {
    nap: Duration,
    quick: usize,
    arrivals: &'a Arrivals,
    said: bool,
}

impl DynSession for Napper<'_> {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        if self.said {
            return Ok(None);
        }
        let times = self.arrivals.times.lock().unwrap();
        let _ = self
            .arrivals
            .changed
            .wait_timeout_while(times, self.nap, |t| t.len() < self.quick)
            .unwrap();
        self.said = true;
        Ok(Some(frame("slow")))
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        Err("a one-way talker hears nothing".into())
    }

    fn is_done(&self) -> bool {
        self.said
    }
}

/// Takes one frame and notes when it arrived.
struct Stamp<'a> {
    arrivals: &'a Arrivals,
    got: bool,
}

impl DynSession for Stamp<'_> {
    fn poll_send(&mut self) -> Result<Option<Frame>, String> {
        Ok(None)
    }

    fn on_frame(&mut self, _frame: Frame) -> Result<(), String> {
        let mut times = self.arrivals.times.lock().unwrap();
        times.push(self.arrivals.start.elapsed());
        self.arrivals.changed.notify_all();
        self.got = true;
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.got
    }
}

#[test]
fn no_worker_idles_while_a_wake_waits() {
    // Pair 0's Alice holds one of two workers in her opening wake until
    // the six quick pairs are done, or for 600 ms. Every quick wake must
    // go to the other worker at once, not queue behind her.
    let quick = 6;
    let arrivals = Arrivals {
        start: Instant::now(),
        times: Mutex::new(Vec::new()),
        changed: Condvar::new(),
    };
    let mut pairs: Vec<(Box<dyn DynSession + '_>, Box<dyn DynSession + '_>)> = vec![(
        Box::new(Napper {
            nap: Duration::from_millis(600),
            quick,
            arrivals: &arrivals,
            said: false,
        }),
        Box::new(Slow {
            nap: Duration::ZERO,
            got: false,
        }),
    )];
    for _ in 0..quick {
        pairs.push((
            Box::new(Talker {
                to_send: 1,
                expect: 0,
            }),
            Box::new(Stamp {
                arrivals: &arrivals,
                got: false,
            }),
        ));
    }
    let outcomes = drive_batch(2, 0x1d1e, pairs, Duration::from_secs(5));
    for (i, out) in outcomes.iter().enumerate() {
        assert!(out.is_ok(), "pair {i}: {:?}", out.error);
    }
    let times = arrivals.times.into_inner().unwrap();
    assert_eq!(times.len(), quick);
    for at in times {
        assert!(
            at < Duration::from_millis(300),
            "a quick pair finished after {at:.2?}"
        );
    }
}
