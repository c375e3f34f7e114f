//! A minimal readiness shim for nonblocking sockets: `poll(2)`, with no
//! dependencies outside `std`.
//!
//! The build environment has no crates.io access, so the usual readiness
//! crates (`mio`, `polling`) are out of reach; this stand-in covers the
//! narrow slice `rsr-net`'s reactor needs:
//!
//! * [`PollFd`] — one registered descriptor with an interest set,
//!   `#[repr(C)]`-compatible with the platform's `struct pollfd` so the
//!   slice can be handed to `poll(2)` directly.
//! * [`wait`] — blocks until a registered descriptor is ready or the
//!   timeout elapses. Nothing else interrupts it: a reactor that waits
//!   here does all of its own work, so no other thread has news for it.
//!
//! On Unix this is the real `poll(2)` via a direct `extern "C"`
//! declaration (the symbol lives in the platform libc every Rust binary
//! already links; no `libc` crate needed). On other platforms the
//! fallback is a bounded sleep that reports every descriptor ready —
//! level-triggered emulation that is correct (callers must handle
//! `WouldBlock` anyway) but burns a syscall per millisecond; the only
//! tier-1 target is Linux.
//!
//! ```
//! use netpoll::wait;
//! use std::time::Duration;
//!
//! // No descriptors registered: the wait runs out its timeout.
//! let n = wait(&mut [], Some(Duration::from_millis(5))).unwrap();
//! assert_eq!(n, 0);
//! ```

use std::io;
use std::time::Duration;

/// Interest / readiness: data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Interest / readiness: data may be written without blocking.
pub const POLLOUT: i16 = 0x004;
/// Readiness only: the descriptor is in an error state.
pub const POLLERR: i16 = 0x008;
/// Readiness only: the peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Readiness only: the descriptor is not open.
pub const POLLNVAL: i16 = 0x020;

/// One registered descriptor: layout-identical to the platform
/// `struct pollfd` (fd, events, revents — all that `poll(2)` defines).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Registers `fd` with an interest mask built from [`POLLIN`] and/or
    /// [`POLLOUT`].
    pub fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Readable — or hung up / errored, which a reader must also observe
    /// (the read will return 0 or the error).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Writable — or errored, which the write will surface.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// The descriptor of a `TcpStream`, for registering it in a [`PollFd`].
/// (Platform gating lives here so callers stay cfg-free; the non-Unix
/// fallback returns `-1`, which its emulated wait never inspects.)
pub fn stream_fd(stream: &std::net::TcpStream) -> i32 {
    #[cfg(unix)]
    {
        std::os::fd::AsRawFd::as_raw_fd(stream)
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

/// The descriptor of a `TcpListener` — see [`stream_fd`].
pub fn listener_fd(listener: &std::net::TcpListener) -> i32 {
    #[cfg(unix)]
    {
        std::os::fd::AsRawFd::as_raw_fd(listener)
    }
    #[cfg(not(unix))]
    {
        let _ = listener;
        -1
    }
}

/// Blocks until at least one of `fds` is ready or `timeout` elapses
/// (`None` = no limit). Fills in each entry's readiness and returns how
/// many descriptors are ready.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    #[cfg(unix)]
    {
        let ms = match timeout {
            None => -1i32,
            // Round up so a sub-millisecond deadline sleeps one tick
            // instead of degenerating into a zero-timeout spin.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `PollFd`s, which are layout-identical to `struct pollfd`,
            // and `poll(2)` reads and writes exactly `fds.len()` entries.
            let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // EINTR: retry with the original timeout (a rare, bounded
            // over-wait beats tracking a deadline here).
        }
    }
    #[cfg(not(unix))]
    {
        // No readiness API: sleep a bounded tick (cut short only by the
        // deadline), then conservatively report everything ready —
        // callers treat WouldBlock as "not actually ready".
        const TICK: Duration = Duration::from_millis(1);
        std::thread::sleep(timeout.unwrap_or(TICK).min(TICK));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use std::os::raw::c_int;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub type NfdsT = std::os::raw::c_uint;

    extern "C" {
        /// `poll(2)` from the platform libc (already linked into every
        /// Rust binary); [`PollFd`] is `#[repr(C)]`-identical to the
        /// platform's `struct pollfd`.
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn timeout_elapses_without_activity() {
        let t0 = Instant::now();
        let n = wait(&mut [], Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn socket_readiness_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        let mut fds = [PollFd::new(stream_fd(&server), POLLIN)];
        // Nothing written yet: not readable within a short wait.
        let n = wait(&mut fds, Some(Duration::from_millis(10))).unwrap();
        if cfg!(unix) {
            assert_eq!(n, 0);
            assert!(!fds[0].readable());
        }

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let n = wait(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable());
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn hangup_counts_as_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        drop(client);

        let mut fds = [PollFd::new(stream_fd(&server), POLLIN)];
        let n = wait(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable(), "EOF must surface as read-readiness");
    }
}
