//! The paper's statistical claims as gated keys (`BENCH_paper.json`).
//!
//! Every key is a number a table of the evaluation computes, from seeded
//! trials of the protocols the system ships, so CI reruns them exactly
//! and a change that trades a guarantee away fails `bench_check`:
//!
//! * **EMD quality** (Corollaries 3.5 and 3.6, Theorem 3.4): Algorithm 1
//!   on Hamming space and the interval-scaled protocol on ℓ2, over
//!   planted workloads with `k` outliers per side. Per cell,
//!   `_ratio_p50`/`_ratio_p90` of `EMD(S_A, S'_B) / EMD_k` over the trials
//!   that decoded, `_success_rate` over all trials, and `_bits` of
//!   Alice's message. The d ∈ {32, 64, 128} cells at n = 200 carry the
//!   claim that the ratio grows with n, not d.
//! * **Low-dimension Gap** (Theorem 4.5): the one-sided variant's
//!   guarantee rate, and its bits against the general protocol's.
//! * **Index instances** (Theorem 4.6): the four-round Gap protocol's
//!   success and bits on the instances no one-round O(n)-bit protocol
//!   solves.
//! * **Sets-of-sets** (Theorem E.1): bits per (parent size, differing
//!   children).
//! * **Exact reconciliation** (§3, the `EMD_k = 0` fallback): success and
//!   bits within the bound; past it the run asserts a reported failure,
//!   and a wrong answer anywhere panics.
//! * **RIBLT error** (Lemma 3.10): the median extracted-value error over
//!   the planted error mass µ.
//!
//! Every `_success_rate` counts a failed run as a failure over all
//! trials; a cell with no successful trial has no ratio sample and emits
//! no `_ratio_*` key, which the gate's missing-key rule fails.

use crate::benchjson::BenchReport;
use crate::table::{f, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::emd_protocol::{EmdProtocol, EmdProtocolConfig};
use rsr_core::gap_protocol::{verify_gap_guarantee, GapConfig, GapProtocol};
use rsr_core::lower_bound::IndexInstance;
use rsr_core::set_recon::exact_reconcile;
use rsr_core::{low_dim_gap_config, ScaledEmdProtocol};
use rsr_emd::{emd, emd_k};
use rsr_hash::lsh::LshParams;
use rsr_hash::{BitSamplingFamily, GridFamily};
use rsr_iblt::riblt::RibltConfig;
use rsr_iblt::Riblt;
use rsr_metric::{MetricSpace, Point};
use rsr_setsofsets::{estimate_fp_cells, reconcile, ChildSet, SosConfig};
use rsr_workloads::{planted_emd_sparse, sensor_pairs, stats};
use std::collections::HashMap;

/// Runs every section; returns the markdown section and the
/// `BENCH_paper.json` report.
pub fn run(quick: bool) -> (String, BenchReport) {
    let mut bench = BenchReport::new("paper", quick);
    let sections = [
        emd_quality(&mut bench, quick),
        low_dim_gap(&mut bench, quick),
        index_instances(&mut bench, quick),
        sets_of_sets(&mut bench, quick),
        exact_recon(&mut bench, quick),
        riblt_error(&mut bench, quick),
    ];
    (sections.join("\n"), bench)
}

/// `f` of an optional value, `-` for none.
fn opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".into(), f)
}

/// One EMD-quality cell: a planted workload of `n` points, `n/10` of them
/// noisy and `k` outliers per side, in `space`.
struct EmdCell {
    /// The key prefix.
    key: String,
    space: MetricSpace,
    n: usize,
    k: usize,
    /// Whether the cell runs the interval-scaled protocol (Corollary 3.6)
    /// rather than Algorithm 1 at its default scale.
    scaled: bool,
    /// Trial `t`'s workload and protocol seeds are these plus `t`.
    seeds: (u64, u64),
}

/// T3's Hamming cells (Algorithm 1) and T4's ℓ2 cells (the scaled
/// protocol).
fn emd_cells(quick: bool) -> Vec<EmdCell> {
    let hamming: &[(usize, usize, usize)] = if quick {
        &[(100, 64, 4), (200, 64, 4)]
    } else {
        &[
            (100, 64, 4),
            (200, 64, 4),
            (400, 64, 4),
            (200, 32, 4),
            (200, 128, 4),
            (200, 64, 2),
            (200, 64, 8),
        ]
    };
    let l2: &[(usize, i64, usize)] = if quick {
        &[(100, 1024, 3)]
    } else {
        &[
            (100, 1024, 3),
            (200, 1024, 3),
            (100, 4096, 3),
            (100, 1024, 6),
        ]
    };
    let hamming = hamming.iter().map(|&(n, d, k)| EmdCell {
        key: format!("hamming_n{n}_d{d}_k{k}"),
        space: MetricSpace::hamming(d),
        n,
        k,
        scaled: false,
        seeds: (0x3000, 0x4000),
    });
    let l2 = l2.iter().map(|&(n, delta, k)| EmdCell {
        key: format!("l2_n{n}_delta{delta}_k{k}"),
        space: MetricSpace::l2(delta, 2),
        n,
        k,
        scaled: true,
        seeds: (0x5000, 0x6000),
    });
    hamming.chain(l2).collect()
}

/// One cell's trials: how many ran, Alice's message bits, and the
/// approximation ratio of each trial that decoded.
struct EmdTally {
    trials: usize,
    bits: u64,
    ratios: Vec<f64>,
}

impl EmdTally {
    /// Pushes the cell's keys under `key`: the success rate over all
    /// trials, the bits, and the ratio quantiles — none if no trial
    /// decoded. Returns the table row's success, p50 and p90.
    fn push(&self, bench: &mut BenchReport, key: &str) -> (f64, Option<f64>, Option<f64>) {
        let success = self.ratios.len() as f64 / self.trials as f64;
        bench.push(format!("{key}_success_rate"), success);
        bench.push(format!("{key}_bits"), self.bits as f64);
        let p50 = stats::quantile(&self.ratios, 0.5);
        let p90 = stats::quantile(&self.ratios, 0.9);
        for (suffix, value) in [("p50", p50), ("p90", p90)] {
            if let Some(v) = value {
                bench.push(format!("{key}_ratio_{suffix}"), v);
            }
        }
        (success, p50, p90)
    }
}

/// Runs `cell`'s trials.
fn run_emd_cell(cell: &EmdCell, trials: usize) -> EmdTally {
    let (space, n, k) = (cell.space, cell.n, cell.k);
    let mut tally = EmdTally {
        trials,
        bits: 0,
        ratios: Vec::new(),
    };
    for t in 0..trials as u64 {
        let w = planted_emd_sparse(space, n, k, 1, n / 10, cell.seeds.0 + t);
        let seed = cell.seeds.1 + t;
        let reconciled = if cell.scaled {
            let proto = ScaledEmdProtocol::new(space, n, k, seed);
            let msg = proto.alice_encode(&w.alice);
            tally.bits = msg.wire_bits();
            proto
                .bob_decode(&msg, &w.bob)
                .map(|out| out.inner.reconciled)
        } else {
            let proto = EmdProtocol::new(space, EmdProtocolConfig::for_space(&space, n, k), seed);
            let msg = proto.alice_encode(&w.alice);
            tally.bits = msg.wire_bits();
            proto.bob_decode(&msg, &w.bob).map(|out| out.reconciled)
        };
        if let Ok(reconciled) = reconciled {
            let floor = emd_k(space.metric(), &w.alice, &w.bob, k).max(1.0);
            tally
                .ratios
                .push(emd(space.metric(), &w.alice, &reconciled) / floor);
        }
    }
    tally
}

/// EMD quality: every cell of [`emd_cells`], one loop.
fn emd_quality(bench: &mut BenchReport, quick: bool) -> String {
    let trials = if quick { 4 } else { 12 };
    let mut table = Table::new(&["cell", "bits", "success", "p50 ratio", "p90 ratio", "ln n"]);
    for cell in emd_cells(quick) {
        let tally = run_emd_cell(&cell, trials);
        let (success, p50, p90) = tally.push(bench, &cell.key);
        table.row(vec![
            cell.key,
            tally.bits.to_string(),
            f(success),
            opt(p50),
            opt(p90),
            f((cell.n as f64).ln()),
        ]);
    }
    format!(
        "## EMD quality (Corollaries 3.5, 3.6; Theorem 3.4)\n\n\
         n points, n/10 carry unit noise, k outliers per side; {trials} \
         seeds per cell. Hamming cells run Algorithm 1, ℓ2 cells ([Δ]²) the \
         interval-scaled protocol. Ratio = EMD(S_A, S'_B) / EMD_k over the \
         trials that decoded. Expected: success ≥ 5/8, ratios ≪ ln n, and \
         no growth with d at n = 200.\n\n{}",
        table.render()
    )
}

/// T8: the one-sided low-dimension variant against the general protocol
/// on `([10⁶]², ℓ1)`.
fn low_dim_gap(bench: &mut BenchReport, quick: bool) -> String {
    let trials = if quick { 3 } else { 8 };
    let (k, r1) = (3, 4.0);
    let configs: &[(usize, f64)] = if quick {
        &[(100, 25_000.0)]
    } else {
        &[
            (100, 25_000.0),
            (200, 25_000.0),
            (400, 25_000.0),
            (200, 100_000.0),
        ]
    };
    let space = MetricSpace::l1(1_000_000, 2);
    let mut table = Table::new(&["cell", "guarantee", "one-sided bits", "general bits"]);
    for &(n, r2) in configs {
        let key = format!("lowdim_n{n}_r{r2}");
        let (mut ok, mut low_bits, mut gen_bits) = (0usize, None, None);
        for t in 0..trials as u64 {
            let w = sensor_pairs(space, n, k, r1, r2, 0xd000 + t);
            let (fam_low, cfg_low) = low_dim_gap_config(&space, n, k, r1, r2);
            let low = GapProtocol::new(space, &fam_low, cfg_low, 0xe000 + t);
            if let Ok(out) = low.run(&w.alice, &w.bob) {
                low_bits = Some(out.transcript.total_bits() as f64);
                ok += usize::from(verify_gap_guarantee(&space, &w.alice, &out.reconciled, r2));
            }
            // A conservative parameterization of the general protocol.
            let fam_gen = GridFamily::new(2, r2 / 2.0);
            let params = LshParams::new(r1, r2, (1.0 - 4.0 * r1 / r2).max(0.5), 0.6);
            let gen = GapProtocol::new(
                space,
                &fam_gen,
                GapConfig::for_params(params, n, k),
                0xf000 + t,
            );
            if let Ok(out) = gen.run(&w.alice, &w.bob) {
                gen_bits = Some(out.transcript.total_bits() as f64);
            }
        }
        let rate = ok as f64 / trials as f64;
        bench.push(format!("{key}_guarantee_success_rate"), rate);
        for (side, bits) in [("onesided", low_bits), ("general", gen_bits)] {
            if let Some(b) = bits {
                bench.push(format!("{key}_{side}_bits"), b);
            }
        }
        table.row(vec![key, f(rate), opt(low_bits), opt(gen_bits)]);
    }
    format!(
        "## Low-dimension Gap (Theorem 4.5)\n\n\
         ([10⁶]², ℓ1), r1 = {r1}, k = {k}, {trials} seeds per cell; bits are \
         the last successful run's. Expected: the guarantee holds in every \
         trial and the one-sided variant sends fewer bits.\n\n{}",
        table.render()
    )
}

/// T9: the four-round Gap protocol on Theorem 4.6's index instances.
fn index_instances(bench: &mut BenchReport, quick: bool) -> String {
    let trials = if quick { 8 } else { 25 };
    let r2 = 8;
    let ns: &[usize] = if quick { &[24] } else { &[16, 24, 32, 48] };
    let mut table = Table::new(&["cell", "success", "bits"]);
    for &n in ns {
        let key = format!("index_n{n}");
        let (mut ok, mut bits) = (0usize, None);
        for t in 0..trials as u64 {
            let inst = IndexInstance::build(n, r2, 0x1_0000 + t).expect("feasible");
            let dim = inst.space.dim();
            let fam = BitSamplingFamily::new(dim, dim as f64);
            let params = LshParams::new(
                1.0,
                r2 as f64,
                1.0 - 1.0 / dim as f64,
                1.0 - r2 as f64 / dim as f64,
            );
            let cfg = GapConfig::for_params(params, n, 1);
            let proto = GapProtocol::new(inst.space, &fam, cfg, 0x3_0000 + t);
            let Ok(out) = proto.run(&inst.alice, &inst.bob) else {
                continue;
            };
            bits = Some(out.transcript.total_bits() as f64);
            ok += usize::from(inst.extract_answer(&out.reconciled) == Some(inst.x[inst.i]));
        }
        let rate = ok as f64 / trials as f64;
        bench.push(format!("{key}_success_rate"), rate);
        if let Some(b) = bits {
            bench.push(format!("{key}_bits"), b);
        }
        table.row(vec![key, f(rate), opt(bits)]);
    }
    format!(
        "## Gap protocol on index instances (Theorem 4.6)\n\n\
         r1 = 1, r2 = {r2}, k = 1, GV codewords; {trials} instances per \
         cell, success = Bob recovers x_i. Expected: the four-round \
         protocol clears the 2/3 bar no one-round O(n)-bit protocol \
         reaches.\n\n{}",
        table.render()
    )
}

/// T10: sets-of-sets bits track the differing children, not the parent.
fn sets_of_sets(bench: &mut BenchReport, quick: bool) -> String {
    let h = 16;
    let sizes: &[usize] = if quick {
        &[100, 1000]
    } else {
        &[100, 1000, 10_000]
    };
    let child = |tag: u64| -> ChildSet { (0..h as u64).map(|j| tag * 1000 + j).collect() };
    let mut table = Table::new(&["cell", "bits", "bits / z"]);
    for &shared in sizes {
        for z in [2usize, 8, 32] {
            let alice: Vec<ChildSet> = (0..shared as u64).map(child).collect();
            let mut bob = alice.clone();
            bob.extend((0..z as u64).map(|i| child(1_000_000 + i)));
            let cfg = SosConfig {
                fp_cells: estimate_fp_cells(z),
                q: 3,
                seed: 0x505,
                entry_bits: 24,
            };
            let out = reconcile(&alice, &bob, &cfg).expect("within sizing");
            assert_eq!(out.bob_only_children.len(), z);
            let key = format!("sos_parent{shared}_z{z}");
            let bits = out.total_bits();
            bench.push(format!("{key}_bits"), bits as f64);
            table.row(vec![key, bits.to_string(), f(bits as f64 / z as f64)]);
        }
    }
    format!(
        "## Sets-of-sets (Theorem E.1)\n\n\
         Child sets of h = {h} entries; Bob holds z extra children. \
         Expected: bits grow with z and stay flat (up to the count-width \
         log factor) as the parent grows.\n\n{}",
        table.render()
    )
}

/// T12: exact reconciliation within and past its difference bound.
fn exact_recon(bench: &mut BenchReport, quick: bool) -> String {
    let n = if quick { 2_000 } else { 20_000 };
    let space = MetricSpace::l1(1_000_000, 2);
    let shared: Vec<Point> = (0..n as i64)
        .map(|i| Point::new(vec![i % 1000, i / 1000 + 7]))
        .collect();
    let mut table = Table::new(&["cell", "result", "bits"]);
    // The RIBLT decodes well past its nominal bound (the peeling
    // threshold is far above the 4k sizing), so the over-bound row plants
    // a difference beyond even that capacity.
    for (diff, bound) in [(2usize, 4usize), (8, 16), (32, 64), (300, 16)] {
        let mut alice = shared.clone();
        let mut bob = shared.clone();
        for j in 0..diff as i64 {
            alice.push(Point::new(vec![900_000 + j, 1]));
            bob.push(Point::new(vec![800_000 + j, 2]));
        }
        let key = format!("exact_diff{}_bound{bound}", 2 * diff);
        let outcome = exact_reconcile(&space, &alice, &bob, bound, 0x12);
        if let Ok(out) = &outcome {
            let mut got = out.alice_set.clone();
            got.sort();
            alice.sort();
            assert_eq!(got, alice, "{key}: a decode returned a wrong set");
        }
        let bits = outcome
            .as_ref()
            .ok()
            .map(|out| out.transcript.total_bits() as f64);
        if 2 * diff > bound {
            assert!(bits.is_none(), "{key}: an over-bound difference decoded");
        } else {
            let success = if bits.is_some() { 1.0 } else { 0.0 };
            bench.push(format!("{key}_success_rate"), success);
            if let Some(b) = bits {
                bench.push(format!("{key}_bits"), b);
            }
        }
        let result = if bits.is_some() {
            "exact"
        } else {
            "failure reported"
        };
        table.row(vec![key, result.into(), opt(bits)]);
    }
    format!(
        "## Exact reconciliation (§3, EMD_k = 0)\n\n\
         {n} shared records, planted whole-record differences. Expected: \
         exact recovery within the bound, bits ∝ bound, and a reported \
         failure — never a wrong set — past it.\n\n{}",
        table.render()
    )
}

/// F1: end-to-end RIBLT error. Cancelled near-pairs (one key, values off
/// by 1) plant error mass µ; the error the clean survivors' extracted
/// values pick up stays a small multiple of µ (Theorem 3.4's O(1)·µ).
fn riblt_error(bench: &mut BenchReport, quick: bool) -> String {
    let trials = if quick { 10 } else { 50 };
    let k = 8; // clean survivors
    let mut table = Table::new(&["cell", "µ", "mean error / µ", "p50 error / µ"]);
    for pairs in [20usize, 60, 150] {
        let mu = pairs as f64;
        let mut ratios = Vec::with_capacity(trials);
        for t in 0..trials as u64 {
            let seed = 0x2000 + t;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut riblt = Riblt::new(RibltConfig::for_pairs(k, 3, 1, 10_000, seed));
            for i in 0..pairs as u64 {
                let v = rng.gen_range(0..9_000);
                riblt.insert(i, &Point::new(vec![v]));
                riblt.delete(i, &Point::new(vec![v + 1]));
            }
            let mut truth = HashMap::new();
            for i in 0..k as u64 {
                let v = rng.gen_range(0..9_000);
                riblt.insert(1_000_000 + i, &Point::new(vec![v]));
                truth.insert(1_000_000 + i, v);
            }
            let d = riblt.decode(&mut rng);
            let error: i64 = d
                .inserted
                .iter()
                .filter_map(|pair| Some((pair.value.coord(0) - truth.get(&pair.key)?).abs()))
                .sum();
            ratios.push(error as f64 / mu);
        }
        let key = format!("riblt_mu{pairs}_error");
        let p50 = stats::quantile(&ratios, 0.5).expect("every trial has a ratio");
        bench.push(format!("{key}_ratio_p50"), p50);
        let mean = ratios.iter().sum::<f64>() / trials as f64;
        table.row(vec![key, f(mu), f(mean), f(p50)]);
    }
    format!(
        "## RIBLT error propagation (Lemma 3.10)\n\n\
         q = 3, {k} clean survivors in m = 4q²k cells, {trials} seeds per \
         cell: the survivors' total extracted-value error over the planted \
         error mass µ. Expected: a small constant fraction of µ.\n\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every key of a quick report, in emission order.
    const QUICK_KEYS: &[&str] = &[
        "hamming_n100_d64_k4_success_rate",
        "hamming_n100_d64_k4_bits",
        "hamming_n100_d64_k4_ratio_p50",
        "hamming_n100_d64_k4_ratio_p90",
        "hamming_n200_d64_k4_success_rate",
        "hamming_n200_d64_k4_bits",
        "hamming_n200_d64_k4_ratio_p50",
        "hamming_n200_d64_k4_ratio_p90",
        "l2_n100_delta1024_k3_success_rate",
        "l2_n100_delta1024_k3_bits",
        "l2_n100_delta1024_k3_ratio_p50",
        "l2_n100_delta1024_k3_ratio_p90",
        "lowdim_n100_r25000_guarantee_success_rate",
        "lowdim_n100_r25000_onesided_bits",
        "lowdim_n100_r25000_general_bits",
        "index_n24_success_rate",
        "index_n24_bits",
        "sos_parent100_z2_bits",
        "sos_parent100_z8_bits",
        "sos_parent100_z32_bits",
        "sos_parent1000_z2_bits",
        "sos_parent1000_z8_bits",
        "sos_parent1000_z32_bits",
        "exact_diff4_bound4_success_rate",
        "exact_diff4_bound4_bits",
        "exact_diff16_bound16_success_rate",
        "exact_diff16_bound16_bits",
        "exact_diff64_bound64_success_rate",
        "exact_diff64_bound64_bits",
        "riblt_mu20_error_ratio_p50",
        "riblt_mu60_error_ratio_p50",
        "riblt_mu150_error_ratio_p50",
    ];

    #[test]
    fn a_quick_report_repeats_exactly_and_pins_its_keys() {
        let (section, a) = run(true);
        let keys: Vec<&str> = a.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, QUICK_KEYS);
        assert!(section.contains("failure reported"));
        let (_, b) = run(true);
        assert_eq!(a, b, "every key is seeded, so a rerun repeats it");
        // The claims the keys carry hold at quick scale too.
        for (key, value) in &a.metrics {
            if key.ends_with("_success_rate") {
                assert!(*value >= 0.625, "{key}: {value} below 5/8");
            }
        }
        let sos = |key: &str| a.metric(key).expect(key);
        assert!(sos("sos_parent1000_z8_bits") / sos("sos_parent100_z8_bits") < 1.3);
    }

    #[test]
    fn a_cell_with_no_decode_has_no_ratio_keys() {
        let failed = EmdTally {
            trials: 4,
            bits: 1234,
            ratios: Vec::new(),
        };
        let mut bench = BenchReport::new("paper", true);
        assert_eq!(failed.push(&mut bench, "cell"), (0.0, None, None));
        assert_eq!(
            bench.metrics,
            [
                ("cell_success_rate".to_owned(), 0.0),
                ("cell_bits".to_owned(), 1234.0)
            ]
        );
    }
}
