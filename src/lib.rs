//! # robust-set-recon
//!
//! A Rust implementation of **"Robust Set Reconciliation via Locality
//! Sensitive Hashing"** (Michael Mitzenmacher & Tom Morgan, PODS 2019).
//!
//! Two parties, Alice and Bob, hold sets of points in a discretized metric
//! space. Classic set reconciliation synchronizes *identical* elements with
//! communication proportional to the symmetric difference; *robust* set
//! reconciliation treats *sufficiently close* points as equal — the right
//! notion when the data are noisy sensor readings, lossily compressed
//! features, or rounded floating-point measurements.
//!
//! This facade crate re-exports the full public API of the workspace:
//!
//! * [`metric`] — discretized metric spaces `([Δ]^d, ℓ1/ℓ2)` / Hamming.
//! * [`hash`] — pairwise-independent hashing and the paper's LSH / multi-
//!   scale LSH families.
//! * [`iblt`] — Invertible Bloom Lookup Tables, including the paper's
//!   *Robust* IBLT with sum cells and breadth-first peeling.
//! * [`emd`] — exact earth mover's distance (Hungarian) and `EMD_k`.
//! * [`setsofsets`] — the sets-of-sets reconciliation substrate.
//! * [`core`] — the paper's protocols: the EMD-model protocol
//!   (Algorithm 1), the Gap-Guarantee protocol (Theorem 4.2) and its
//!   low-dimension variant (Theorem 4.5), plus exact set reconciliation
//!   and the one-round lower-bound reduction (Theorem 4.6).
//! * [`net`] — the TCP transport for the session layer: the
//!   multi-session reconciliation server and the one client driver.
//! * [`obs`] — process-wide metrics registry, span timers, and the
//!   post-mortem event ring the reactor/executor layers record into.
//! * [`workloads`] — synthetic workload generators for the experiments,
//!   and the replayable session-trace format.
//!
//! ## Quickstart
//!
//! ```
//! use robust_set_recon::core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
//! use robust_set_recon::metric::MetricSpace;
//! use robust_set_recon::workloads::planted_emd;
//!
//! // A 64-dimensional Hamming space; Alice and Bob share 200 points up to
//! // 1 bit of noise, and k = 4 points differ arbitrarily.
//! let space = MetricSpace::hamming(64);
//! let wl = planted_emd(space, 200, 4, 1, 0xC0FFEE);
//!
//! let cfg = EmdProtocolConfig::for_space(&space, wl.alice.len(), 4);
//! let proto = EmdProtocol::new(space, cfg, 0xC0FFEE);
//! let msg = proto.alice_encode(&wl.alice);
//! let out = proto.bob_decode(&msg, &wl.bob).expect("decodable");
//! assert_eq!(out.reconciled.len(), wl.bob.len());
//! ```

pub use rsr_core as core;
pub use rsr_emd as emd;
pub use rsr_hash as hash;
pub use rsr_iblt as iblt;
pub use rsr_metric as metric;
pub use rsr_net as net;
pub use rsr_obs as obs;
pub use rsr_setsofsets as setsofsets;
pub use rsr_workloads as workloads;
