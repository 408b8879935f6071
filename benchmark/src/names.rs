//! Every metric the benchmark emits, by name, unit and direction. The
//! tests hold this table and `BENCHMARK.json` to each other, and the
//! emitters to this table.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees; measured with tracing and allocation
/// counting off. Bounds live in `BENCHMARK.json` alone.
pub const END_TO_END: [Metric; 3] = [
    lower("setup_s", "s"),
    lower("op_p50_us", "us"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics that depend on the workload run: counter deltas read
/// through public accessors, the generator's ungated view, allocations.
pub const WORKLOAD_METRICS: [Metric; 36] = [
    higher("transport.frames_per_syscall", "ratio"),
    lower("transport.flush_syscalls_per_op", "count"),
    lower("transport.readiness_high_water", "count"),
    lower("transport.pool_connections", "count"),
    lower("rpc.queue_high_water", "count"),
    lower("rpc.shed_per_kop", "count"),
    lower("rpc.rejected_per_kop", "count"),
    lower("rpc.retries_per_kop", "count"),
    lower("core.calls_served_per_op", "count"),
    lower("core.dirty_per_op", "count"),
    lower("core.clean_per_op", "count"),
    lower("core.clean_batches_per_op", "count"),
    lower("core.gc_msgs_per_op", "count"),
    lower("core.surrogates_per_op", "count"),
    lower("core.blocked_us_per_op", "us"),
    lower("core.exports_backlog_peak", "count"),
    lower("core.reclaim_lag_ms", "ms"),
    lower("core.leaked_exports", "count"),
    higher("gen.ops_per_s", "1/s"),
    higher("gen.window_ops_per_s", "1/s"),
    lower("gen.window_op_p50_us", "us"),
    lower("gen.window_op_p90_us", "us"),
    lower("gen.cpu_us_per_op", "us"),
    lower("gen.op_p90_us", "us"),
    lower("gen.op_p99_us", "us"),
    lower("gen.op_p999_us", "us"),
    lower("gen.op_max_us", "us"),
    lower("gen.rep_spread_pct", "%"),
    higher("gen.samples", "count"),
    higher("gen.payload_mb_per_s", "MB/s"),
    lower("gen.put_p50_us", "us"),
    lower("gen.get_p50_us", "us"),
    lower("gen.import_p50_us", "us"),
    lower("gen.export_p50_us", "us"),
    lower("gen.allocs_per_op", "count"),
    lower("gen.alloc_bytes_per_op", "B"),
];

/// Per-layer metrics of the ladder, the pure functions and the spanned
/// calls: the same whatever workload the traced run was asked for.
pub const LAYER_METRICS: [Metric; 47] = [
    lower("host.tcp_rtt_p50_us", "us"),
    lower("host.spin_ms", "ms"),
    lower("wire.pickle_enc_ten_ints_ns", "ns"),
    lower("wire.pickle_dec_ten_ints_ns", "ns"),
    lower("wire.pickle_enc_wirerep_ns", "ns"),
    lower("wire.pickle_dec_wirerep_ns", "ns"),
    lower("wire.pickle_enc_blob64k_ns", "ns"),
    lower("wire.pickle_dec_blob64k_ns", "ns"),
    lower("wire.frame_enc_64b_ns", "ns"),
    lower("wire.frame_dec_64b_ns", "ns"),
    lower("wire.frame_enc_64k_ns", "ns"),
    lower("wire.frame_dec_64k_ns", "ns"),
    lower("rpc.msg_enc_null_ns", "ns"),
    lower("rpc.msg_dec_null_ns", "ns"),
    lower("rpc.msg_enc_blob64k_ns", "ns"),
    lower("rpc.msg_dec_blob64k_ns", "ns"),
    lower("rpc.server_rtt_p50_us", "us"),
    lower("rpc.client_rtt_p50_us", "us"),
    lower("core.stub_rtt_p50_us", "us"),
    lower("rpc.server_tax_us", "us"),
    lower("rpc.client_tax_us", "us"),
    lower("core.tax_us", "us"),
    lower("rpc.server_rtt_64k_p50_us", "us"),
    lower("rpc.client_rtt_64k_p50_us", "us"),
    lower("core.stub_rtt_64k_p50_us", "us"),
    lower("transport.wakeups_per_frame_depth1", "count"),
    lower("transport.wakeups_per_frame_depth16", "count"),
    lower("rpc.conn_setup_p50_us", "us"),
    lower("agent.bind_p50_us", "us"),
    lower("core.local_dispatch_ns", "ns"),
    lower("trace.null.wire_marshal_self_ns", "ns"),
    lower("trace.null.rpc_encode_self_ns", "ns"),
    lower("trace.null.transport_send_self_ns", "ns"),
    lower("trace.null.wait_self_ns", "ns"),
    lower("trace.null.server_dispatch_self_ns", "ns"),
    lower("trace.null.rpc_decode_self_ns", "ns"),
    lower("trace.null.wire_unmarshal_self_ns", "ns"),
    higher("trace.null.sum_vs_call_pct", "%"),
    lower("trace.blob.wire_marshal_self_ns", "ns"),
    lower("trace.blob.rpc_encode_self_ns", "ns"),
    lower("trace.blob.transport_send_self_ns", "ns"),
    lower("trace.blob.wait_self_ns", "ns"),
    lower("trace.blob.server_dispatch_self_ns", "ns"),
    lower("trace.blob.rpc_decode_self_ns", "ns"),
    lower("trace.blob.wire_unmarshal_self_ns", "ns"),
    higher("trace.blob.sum_vs_call_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&WORKLOAD_METRICS)
        .chain(&LAYER_METRICS)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn declared() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn rows(section: &Json) -> Vec<(String, String, String)> {
        section
            .items()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn expected<'a>(
        metrics: impl IntoIterator<Item = &'a Metric>,
    ) -> Vec<(String, String, String)> {
        metrics
            .into_iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn table_and_benchmark_json_agree() {
        let file = declared();
        assert_eq!(
            rows(file.get("end_to_end").unwrap()),
            expected(&END_TO_END),
            "end_to_end"
        );
        assert_eq!(
            rows(file.get("per_layer").unwrap()),
            expected(WORKLOAD_METRICS.iter().chain(&LAYER_METRICS)),
            "per_layer"
        );
        let workloads: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        // A run without `--seconds` measures as long as the driver's runs.
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let all: Vec<&Metric> = END_TO_END
            .iter()
            .chain(&WORKLOAD_METRICS)
            .chain(&LAYER_METRICS)
            .collect();
        for m in &all {
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "unit {} of {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a name is used twice");
        assert!(WORKLOAD_METRICS.len() + LAYER_METRICS.len() <= 128);
    }

    #[test]
    fn a_repetition_emits_exactly_the_declared_names() {
        use crate::workloads::{run_rep, Workload};
        use std::time::{Duration, Instant};
        let rep = run_rep(
            Workload::NullTcp,
            1,
            Duration::from_millis(50),
            false,
            Instant::now(),
        )
        .unwrap();
        let mut emitted: Vec<&str> = rep.values.keys().map(String::as_str).collect();
        // The one per-workload metric only the parent of the repetitions
        // can compute.
        emitted.push("gen.rep_spread_pct");
        emitted.sort_unstable();
        let mut want: Vec<&str> = END_TO_END
            .iter()
            .chain(&WORKLOAD_METRICS)
            .map(|m| m.name)
            .collect();
        want.sort_unstable();
        assert_eq!(emitted, want);
    }
}
