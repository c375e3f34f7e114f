//! The metric tables: every end-to-end metric with unit, direction and
//! bound, every per-layer metric with unit and direction. `BENCHMARK.json`
//! at the repo root lists the same names; a test keeps the two in step.

use crate::stats::Better;
use Better::{Higher, Lower};

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEndMetric {
    EndToEndMetric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports all of these from its untraced run. A bound
/// is three times the widest ten-seed spread (quartile distance ÷
/// median) the metric showed on any workload, rounded up, and at most
/// the 25 % the benchmark's contract allows. The timing metrics hit the
/// cap: in a noisy hour of the defining host they spread up to 8 % on
/// the local workloads, 12 % on `serve_mix` and 12–20 % on
/// `serve_churn`, whole runs then differ by 20–30 % end to end, and one
/// bound covers all four workloads.
/// The wire metrics spread 0.7 % across `local_gap` seeds, the quality
/// ratio 3.9 % across `local_emd` seeds.
pub const END_TO_END: [EndToEndMetric; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("settles_per_s", "1/s", Higher, 0.25),
    e2e("settle_p50_ms", "ms", Lower, 0.25),
    e2e("settle_p99_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_settle", "ms", Lower, 0.25),
    e2e("wire_bytes_per_settle", "B", Lower, 0.025),
    e2e("bits_per_diff_key", "bit", Lower, 0.025),
    e2e("quality_ratio_p50", "ratio", Lower, 0.12),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("success_share", "ratio", Higher, 0.01),
];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Every workload's traced run reports all of these; a layer the
/// workload never enters reports 0.
pub const PER_LAYER: [LayerMetric; 58] = [
    // rsr-hash
    layer("hash.emd_key_us_per_point", "us", Lower),
    layer("hash.gap_key_us_per_point", "us", Lower),
    layer("hash.draws_per_point", "count", Lower),
    layer("hash.proto_new_us", "us", Lower),
    // rsr-iblt
    layer("iblt.riblt_build_us_per_pair", "us", Lower),
    layer("iblt.riblt_decode_us_per_pair", "us", Lower),
    layer("iblt.riblt_recovered_share", "ratio", Higher),
    layer("iblt.xor_insert_ns_per_key", "ns", Lower),
    layer("iblt.xor_decode_us_per_key", "us", Lower),
    layer("iblt.decode_solved_share", "ratio", Lower),
    layer("iblt.decode_fail_share", "ratio", Lower),
    layer("iblt.delta_since_us", "us", Lower),
    layer("iblt.codec_ns_per_cell", "ns", Lower),
    layer("iblt.cells_per_diff_key", "count", Lower),
    // rsr-emd, rsr-metric
    layer("emd.assign_us_per_call", "us", Lower),
    layer("emd.repair_us_per_call", "us", Lower),
    layer("emd.cost_evals_per_call", "count", Lower),
    layer("metric.dist_ns_per_call", "ns", Lower),
    // rsr-setsofsets
    layer("sos.reconcile_us_per_call", "us", Lower),
    layer("sos.bits_per_call", "bit", Lower),
    layer("sos.rounds_per_call", "count", Lower),
    // rsr-core
    layer("core.emd_alice_busy_us", "us", Lower),
    layer("core.emd_bob_busy_us", "us", Lower),
    layer("core.semd_alice_busy_us", "us", Lower),
    layer("core.semd_bob_busy_us", "us", Lower),
    layer("core.gap_alice_busy_us", "us", Lower),
    layer("core.gap_bob_busy_us", "us", Lower),
    layer("core.cont_alice_busy_us", "us", Lower),
    layer("core.cont_bob_busy_us", "us", Lower),
    layer("core.emd_alice_encode_us", "us", Lower),
    layer("core.emd_bob_decode_us", "us", Lower),
    layer("core.session_overhead_us", "us", Lower),
    layer("core.frame_codec_us_per_frame", "us", Lower),
    layer("core.exec_dispatch_us_per_settle", "us", Lower),
    layer("core.exec_mailbox_hwm", "count", Lower),
    layer("core.exec_first_frame_us_p50", "us", Lower),
    layer("core.exec_on_frame_us_p50", "us", Lower),
    layer("core.cont_round_us", "us", Lower),
    layer("core.cont_apply_us_per_op", "us", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    // rsr-net
    layer("net.record_encode_ns_per_byte", "ns", Lower),
    layer("net.record_decode_ns_per_byte", "ns", Lower),
    layer("net.transport_tax_us_per_settle", "us", Lower),
    layer("net.churn_transport_tax_us", "us", Lower),
    layer("net.empty_round_us", "us", Lower),
    layer("net.framing_overhead_share", "ratio", Lower),
    layer("net.records_per_settle", "count", Lower),
    layer("net.polls_per_settle", "count", Lower),
    layer("net.wakes_per_settle", "count", Lower),
    layer("net.writebuf_hwm_bytes", "B", Lower),
    layer("net.threads_peak", "count", Lower),
    layer("net.connect_ms", "ms", Lower),
    layer("net.open_r100_p50_ms", "ms", Lower),
    layer("net.open_r100_p99_ms", "ms", Lower),
    layer("net.open_inject_lag_ms", "ms", Lower),
    // rsr-workloads, rsr-obs, the harness itself
    layer("workloads.gen_ms", "ms", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("harness.between_settles_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{WorkloadKind, REFERENCE_SECONDS};

    /// Every `{"name": …}` object of the array under `key` in the text of
    /// BENCHMARK.json, as its raw `{…}` text.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[body.find('[').expect("array opens")..];
        let end = body.find(']').expect("array closes");
        body[1..end]
            .split('}')
            .filter_map(|chunk| chunk.find('{').map(|i| &chunk[i..]))
            .collect()
    }

    fn field(object: &str, key: &str) -> String {
        let at = object
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} in {object}"));
        let rest = object[at + key.len() + 2..]
            .trim_start()
            .trim_start_matches(':')
            .trim_start();
        let end = rest.find([',', '\n']).unwrap_or(rest.len());
        rest[..end].trim().trim_matches('"').to_owned()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let e2e = objects(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (object, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(object, "name"), m.name);
            assert_eq!(field(object, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(object, "better"), m.better.token(), "{}", m.name);
            assert_eq!(
                field(object, "bound").parse::<f64>().unwrap(),
                m.bound,
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let layers = objects(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (object, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(object, "name"), m.name);
            assert_eq!(field(object, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(object, "better"), m.better.token(), "{}", m.name);
        }
        let workloads = objects(&json, "workloads");
        assert_eq!(workloads.len(), WorkloadKind::ALL.len());
        for (object, kind) in workloads.iter().zip(WorkloadKind::ALL) {
            assert_eq!(field(object, "name"), kind.name());
        }
        assert!(json.contains(&format!("\"run_seconds\": {REFERENCE_SECONDS}")));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        assert!(END_TO_END.iter().all(|m| ok_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
