//! Every metric the benchmark reports: name, unit, direction, and — for
//! per-layer metrics — how it is measured, on which workload, and which
//! end-to-end metric it should move.

/// An end-to-end metric (untraced run).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// A per-layer metric (traced run).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<what>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// How it is measured.
    pub how: &'static str,
    /// Workloads it is chosen to watch (it may read non-zero elsewhere;
    /// a layer off a workload's path reads 0).
    pub workloads: &'static [&'static str],
    /// The end-to-end metric it should move.
    pub moves: &'static str,
}

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["remote_vmd", "sampling_local", "ingest_local"];

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "op_p99_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "mib_per_s",
        unit: "MiB/s",
        better: "higher",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "client_cpu_ms_per_op",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
    },
];

const RV: &[&str] = &["remote_vmd"];
const SL: &[&str] = &["sampling_local"];
const IL: &[&str] = &["ingest_local"];
const RV_SL: &[&str] = &["remote_vmd", "sampling_local"];
const ALL: &[&str] = &["remote_vmd", "sampling_local", "ingest_local"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    workloads: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        workloads,
        moves,
    }
}

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 33] = [
    layer("client.round_trip_ms_p50", "ms", "lower", "Client::query", RV, "op_p50_ms"),
    layer("client.connect_ms_max", "ms", "lower", "dial + first Client::ping, max over the run's set-ups", RV, "setup_s"),
    layer("proto.payload_decode_ms_p50", "ms", "lower", "WireQueryReport::trajectory", RV, "client_cpu_ms_per_op"),
    layer("proto.payload_encode_ms_p50", "ms", "lower", "replayed WireQueryReport::from_report", RV, "cpu_ms_per_op"),
    layer("proto.frame_codec_ms_p50", "ms", "lower", "replayed ResponseEnvelope::encode, write_frame, parse_header, verify_payload, ResponseEnvelope::decode", RV, "op_p50_ms"),
    layer("proto.wire_bytes_per_decoded_byte", "ratio", "lower", "server.bytes.written delta / decoded frame bytes", RV, "mib_per_s"),
    layer("server.service_ms_p50", "ms", "lower", "server.request.ns histogram of the instance", RV, "op_p50_ms"),
    layer("server.residual_ms_p50", "ms", "lower", "client round-trip median minus server service median", RV, "op_p99_ms"),
    layer("frontend.admission_wait_ms_p99", "ms", "lower", "frontend.wait_ns.query histogram of the instance", RV, "op_p99_ms"),
    layer("frontend.shed_ops", "count", "lower", "frontend.query.rejected + frontend.query.deadline_exceeded delta", RV, "error_rate"),
    layer("frontend.query_ms_p50", "ms", "lower", "replayed Frontend::query", RV, "op_p50_ms"),
    layer("core.query_ms_p50", "ms", "lower", "replayed Ada::query (ingest_local: the spot-check query)", &["remote_vmd", "ingest_local"], "op_p50_ms"),
    layer("core.range_hit_ms_p50", "ms", "lower", "Ada::query_range windows that decoded nothing (cache_stats delta)", SL, "op_p50_ms"),
    layer("core.range_miss_ms_p50", "ms", "lower", "Ada::query_range windows that decoded chunks (cache_stats delta)", SL, "op_p99_ms"),
    layer("core.categorize_ms_p50", "ms", "lower", "replayed parse_structure + categorize_algo1", IL, "op_p50_ms"),
    layer("core.split_ms_p50", "ms", "lower", "replayed split_trajectory_opts", IL, "op_p50_ms"),
    layer("core.delete_ms_p50", "ms", "lower", "Ada::delete_dataset of the ring slot", IL, "mib_per_s"),
    layer("cache.hit_ratio", "ratio", "higher", "Ada::cache_stats hits / (hits + misses) delta", SL, "cpu_ms_per_op"),
    layer("cache.decoded_mib_per_op", "MiB", "lower", "Ada::cache_stats bytes_decoded delta per op", SL, "cpu_ms_per_op"),
    layer("cache.served_mib_per_op", "MiB", "higher", "Ada::cache_stats bytes_served_from_cache delta per op", SL, "mib_per_s"),
    layer("cache.evictions_per_op", "count", "lower", "Ada::cache_stats evictions delta per op", SL, "op_p99_ms"),
    layer("cache.resident_hwm_mib", "MiB", "lower", "Ada::cache_stats resident_hwm", SL, "peak_rss_mib"),
    layer("mdformats.crc32_mib_per_s", "MiB/s", "higher", "crc32 over the droppings the op read or wrote", ALL, "cpu_ms_per_op"),
    layer("mdformats.decode_chunk_ms_p50", "ms", "lower", "replayed parse_directory + decode_chunk, per op", RV_SL, "cpu_ms_per_op"),
    layer("mdformats.chunk_decode_ratio", "ratio", "lower", "xtcf.chunk.decoded / (decoded + skipped) delta", SL, "cpu_ms_per_op"),
    layer("mdformats.xtc_decode_ms_p50", "ms", "lower", "replayed decode_frames_parallel at the instance's decode_threads", IL, "op_p50_ms"),
    layer("mdformats.seal_v2_ms_p50", "ms", "lower", "replayed seal_v2 of every split subset", IL, "cpu_ms_per_op"),
    layer("plfs.index_ms_p50", "ms", "lower", "replayed ContainerSet::index", RV, "op_p50_ms"),
    layer("plfs.read_dropping_ms_p50", "ms", "lower", "replayed ContainerSet::read_dropping of the droppings the op read", RV_SL, "op_p50_ms"),
    layer("plfs.stored_bytes_per_raw_byte", "ratio", "lower", "ContainerSet::bytes_by_backend / raw bytes", IL, "mib_per_s"),
    layer("storagesim.sim_ms_per_op", "sim_ms", "lower", "IngestReport::total / QueryReport::total: simulated paper time, not wall time", ALL, "none"),
    layer("bench.residual_pct", "%", "lower", "share of op time no layer span covers (ratio of sums)", ALL, "none"),
    layer("bench.trace_overhead_pct", "%", "lower", "traced op_p50_ms / untraced op_p50_ms - 1, same run", ALL, "none"),
];

/// Unit of the end-to-end or per-layer metric `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(seen.insert(n), "duplicate metric {}", n);
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        for l in &PER_LAYER {
            assert!(
                l.workloads.iter().all(|w| WORKLOADS.contains(w)),
                "{}",
                l.name
            );
            assert!(l.better == "lower" || l.better == "higher");
        }
        assert_eq!(unit_of("setup_s"), Some("s"));
        assert_eq!(unit_of("bench.residual_pct"), Some("%"));
        assert_eq!(unit_of("nope"), None);
    }
}
