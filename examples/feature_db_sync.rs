//! Synchronizing feature databases: our protocol vs a naive transfer.
//!
//! Two machine-learning serving nodes hold the same database of 2-d image
//! feature summaries (e.g. PCA-projected embeddings quantized to a grid).
//! One node's copies went through a lossy re-compression (small coordinate
//! noise), and a few entries were replaced entirely. We reconcile with
//! the paper's interval-scaled EMD protocol (Corollary 3.6) and compare
//! its bits and final EMD with sending the whole set. At this size
//! (d = 2, n = 400) sending the set is the cheaper choice; the example
//! prints by how much.
//!
//! Run with: `cargo run --release --example feature_db_sync`

use robust_set_recon::core::ScaledEmdProtocol;
use robust_set_recon::emd::{emd, emd_k};
use robust_set_recon::metric::MetricSpace;
use robust_set_recon::workloads::planted_emd;

fn main() {
    let space = MetricSpace::l2(1024, 2);
    let n = 400;
    let k = 4;
    let w = planted_emd(space, n, k, 1, 7);

    let before = emd(space.metric(), &w.alice, &w.bob);
    let floor = emd_k(space.metric(), &w.alice, &w.bob, k);
    println!("initial EMD = {before:.1}, EMD_k floor = {floor:.1}\n");

    // (a) Naive full transfer reference.
    let naive_bits = n as u64 * space.universe().point_wire_bits();

    // (b) Paper protocol (Corollary 3.6).
    let ours = ScaledEmdProtocol::new(space, n, k, 99);
    let msg = ours.alice_encode(&w.alice);
    match ours.bob_decode(&msg, &w.bob) {
        Ok(out) => {
            let after = emd(space.metric(), &w.alice, &out.inner.reconciled);
            println!(
                "LSH+RIBLT (ours)  : {:>9} bits ({:.0}x the naive transfer), EMD after = {after:.1} \
                 (interval {} of {})",
                out.total_bits,
                out.total_bits as f64 / naive_bits as f64,
                out.interval,
                ours.num_intervals()
            );
        }
        Err(e) => println!("LSH+RIBLT (ours)  : failed ({e})"),
    }
    println!("naive transfer    : {naive_bits:>9} bits, EMD after = 0.0");
    println!(
        "\nAt d = {} and n = {n}, sending the whole set is cheaper, and exact. \
         The sketch's case is high dimension, where its EMD guarantee stays \
         O(log n) while a quadtree's grows as O(d): see T6 in \
         docs/architecture.md.",
        space.dim()
    );
}
