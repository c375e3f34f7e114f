//! Registry handles for the transport layer's metrics, resolved once.
//!
//! Both reactor loops (the server's in [`crate::reactor`], the client's
//! in [`crate::client`]) and the shared [`crate::reactor::ConnIo`]
//! record through these. Every record site is gated on
//! [`rsr_obs::enabled`], so with metrics off the transport pays one
//! relaxed load per site. Key inventory and semantics are documented in
//! docs/observability.md.

use rsr_obs::{Counter, Gauge};
use std::sync::{Arc, OnceLock};

pub(crate) struct NetMetrics {
    /// Server reactor loop iterations (`net_reactor_polls`).
    pub polls: Arc<Counter>,
    /// Poll returns with ≥ 1 readable connection
    /// (`net_reactor_wakes_readable`).
    pub wakes_readable: Arc<Counter>,
    /// Poll returns with ≥ 1 writable connection
    /// (`net_reactor_wakes_writable`).
    pub wakes_writable: Arc<Counter>,
    /// Poll returns with the listener ready (`net_reactor_wakes_accept`).
    pub wakes_accept: Arc<Counter>,
    /// Poll returns with no registered fd ready: the executor's waker
    /// fired or the idle-sweep timer expired — `poll(2)` cannot say
    /// which (`net_reactor_wakes_other`).
    pub wakes_other: Arc<Counter>,
    /// Client round-driver loop iterations (`net_client_polls`).
    pub client_polls: Arc<Counter>,
    /// Bytes read off sockets, both endpoints (`net_wire_bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Bytes the kernel accepted for write, both endpoints
    /// (`net_wire_bytes_out`). Trails the per-connection
    /// `wire_bytes_out` accounting, which counts at queue time.
    pub bytes_out: Arc<Counter>,
    /// Pending output-buffer bytes at queue time; its high-water mark is
    /// the backpressure indicator (`net_writebuf_bytes`).
    pub writebuf: Arc<Gauge>,
    /// Connections the server reactor accepted (`net_conns_accepted`).
    pub conns_accepted: Arc<Counter>,
    /// Server connections currently being served (`net_conns_live`).
    pub conns_live: Arc<Gauge>,
    /// Connections torn down by the idle sweep (`net_conns_idle_closed`).
    pub conns_idle_closed: Arc<Counter>,
    /// Connections that died of a transport error, idle teardowns
    /// included (`net_conns_failed`).
    pub conns_failed: Arc<Counter>,
}

pub(crate) fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rsr_obs::global();
        NetMetrics {
            polls: reg.counter("net_reactor_polls"),
            wakes_readable: reg.counter("net_reactor_wakes_readable"),
            wakes_writable: reg.counter("net_reactor_wakes_writable"),
            wakes_accept: reg.counter("net_reactor_wakes_accept"),
            wakes_other: reg.counter("net_reactor_wakes_other"),
            client_polls: reg.counter("net_client_polls"),
            bytes_in: reg.counter("net_wire_bytes_in"),
            bytes_out: reg.counter("net_wire_bytes_out"),
            writebuf: reg.gauge("net_writebuf_bytes"),
            conns_accepted: reg.counter("net_conns_accepted"),
            conns_live: reg.gauge("net_conns_live"),
            conns_idle_closed: reg.counter("net_conns_idle_closed"),
            conns_failed: reg.counter("net_conns_failed"),
        }
    })
}
