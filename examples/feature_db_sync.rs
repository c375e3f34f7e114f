//! Synchronizing feature databases: our protocol vs the quadtree baseline.
//!
//! Two machine-learning serving nodes hold the same database of 2-d image
//! feature summaries (e.g. PCA-projected embeddings quantized to a grid).
//! One node's copies went through a lossy re-compression (small coordinate
//! noise), and a few entries were replaced entirely. We reconcile with
//! (a) the paper's interval-scaled EMD protocol (Corollary 3.6) and
//! (b) the Chen et al. quadtree baseline, comparing bits and final EMD.
//!
//! Run with: `cargo run --release --example feature_db_sync`

use robust_set_recon::core::ScaledEmdProtocol;
use robust_set_recon::emd::{emd, emd_k};
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::quadtree::{QuadtreeConfig, QuadtreeProtocol};
use robust_set_recon::workloads::planted_emd;

fn main() {
    let space = MetricSpace::l2(1024, 2);
    let n = 400;
    let k = 4;
    let w = planted_emd(space, n, k, 1, 7);

    let before = emd(space.metric(), &w.alice, &w.bob);
    let floor = emd_k(space.metric(), &w.alice, &w.bob, k);
    println!("initial EMD = {before:.1}, EMD_k floor = {floor:.1}\n");

    // (a) Paper protocol (Corollary 3.6).
    let ours = ScaledEmdProtocol::new(space, n, k, 99);
    let msg = ours.alice_encode(&w.alice);
    match ours.bob_decode(&msg, &w.bob) {
        Ok(out) => {
            let after = emd(space.metric(), &w.alice, &out.inner.reconciled);
            println!(
                "LSH+RIBLT (ours)  : {:>9} bits, EMD after = {after:.1} (interval {} of {})",
                out.total_bits,
                out.interval,
                ours.num_intervals()
            );
        }
        Err(e) => println!("LSH+RIBLT (ours)  : failed ({e})"),
    }

    // (b) Quadtree baseline.
    let base = QuadtreeProtocol::new(space, QuadtreeConfig { k, q: 3 }, 99);
    let qmsg = base.alice_encode(&w.alice);
    match base.bob_decode(&qmsg, &w.bob) {
        Ok(out) => {
            let after = emd(space.metric(), &w.alice, &out.reconciled);
            println!(
                "quadtree baseline : {:>9} bits, EMD after = {after:.1} (level {} of {})",
                qmsg.wire_bits(),
                out.level,
                base.num_levels()
            );
        }
        Err(_) => println!("quadtree baseline : failed"),
    }

    // (c) Naive full transfer reference.
    let naive_bits = n as u64 * space.universe().point_wire_bits();
    println!("naive transfer    : {naive_bits:>9} bits, EMD after = 0.0");
    println!(
        "\n(the paper's win is the approximation *guarantee*: O(log n) \
         independent of dimension, vs O(d) for the quadtree — the last \
         d-sweep where the quadtree degrades is in docs/architecture.md)"
    );
}
