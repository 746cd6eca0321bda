//! Pieces every workload shares: input generation, the `Ada` instance,
//! output checks, per-layer accumulators and program counter deltas.

use crate::harness::{nproc, RunOutput};
use crate::spans::SpanBuf;
use crate::stats;
use ada_core::{Ada, AdaConfig, IngestInput};
use ada_mdformats::xtc::{write_xtc, DEFAULT_PRECISION};
use ada_mdformats::{write_pdb, Trajectory};
use ada_plfs::ContainerSet;
use ada_simfs::{LocalFs, SimFileSystem};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A (`.pdb`, `.xtc`) pair generated from the seed.
#[derive(Debug, Clone)]
pub struct PdbXtc {
    /// Structure text.
    pub pdb: String,
    /// Compressed trajectory.
    pub xtc: Vec<u8>,
    /// The trajectory the `.xtc` encodes, decoded back (what ADA stores).
    pub frames: Trajectory,
}

/// A GPCR-like system of about `natoms` atoms and `nframes` frames. The
/// topology depends only on `natoms`; `seed` moves the coordinates.
pub fn gpcr_input(natoms: usize, nframes: usize, seed: u64) -> PdbXtc {
    let w = ada_workload::gpcr_workload(natoms, nframes, seed);
    let xtc = write_xtc(&w.trajectory, DEFAULT_PRECISION).expect("xtc encode");
    let frames = ada_mdformats::read_xtc(&xtc).expect("xtc decode");
    PdbXtc {
        pdb: write_pdb(&w.system),
        xtc,
        frames,
    }
}

impl PdbXtc {
    /// The pair as an ingest input (copies the buffers).
    pub fn ingest_input(&self) -> IngestInput {
        IngestInput::Real {
            pdb_text: self.pdb.clone(),
            xtc_bytes: self.xtc.clone(),
        }
    }
}

/// The paper's prototype configuration with the decode and query pools
/// capped at the host's core count (the defaults of 4 oversubscribe a
/// 2-core host).
pub fn capped_config() -> AdaConfig {
    let base = AdaConfig::paper_prototype("ssd", "hdd");
    AdaConfig {
        decode_threads: base.decode_threads.min(nproc()),
        query_threads: base.query_threads.min(nproc()),
        ..base
    }
}

/// Record the thread values and data layout of `c` in the run's notes.
pub fn note_config(out: &mut RunOutput, c: &AdaConfig) {
    let split = if c.split_threads == 0 {
        nproc()
    } else {
        c.split_threads
    };
    out.note(format!(
        "AdaConfig: decode_threads={} query_threads={} split_threads={} (0 = {}) \
         frames_per_dropping={} chunk_frames={} cache_bytes={} cache_shards={}; nproc={}",
        c.decode_threads,
        c.query_threads,
        c.split_threads,
        split,
        c.frames_per_dropping,
        c.chunk_frames,
        c.cache.capacity_bytes,
        c.cache.shards,
        nproc()
    ));
}

/// A fresh `Ada` over in-memory SSD and HDD backends. Resets the global
/// telemetry registry first, so the program's own histograms and counters
/// cover this instance only.
pub fn new_ada(config: AdaConfig) -> Ada {
    ada_telemetry::global().reset();
    let ssd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_nvme());
    let hdd: Arc<dyn SimFileSystem> = Arc::new(LocalFs::ext4_on_hdd());
    let containers = Arc::new(ContainerSet::new(vec![
        ("ssd".into(), ssd.clone()),
        ("hdd".into(), hdd),
    ]));
    Ada::new(config, containers, ssd)
}

/// Frames equal within `tol` per coordinate (same count, atoms, steps).
pub fn frames_close(got: &Trajectory, want: &Trajectory, tol: f32) -> bool {
    got.len() == want.len()
        && got.frames.iter().zip(&want.frames).all(|(a, b)| {
            a.step == b.step
                && (a.time - b.time).abs() <= tol
                && a.coords.len() == b.coords.len()
                && a.coords.iter().zip(&b.coords).all(|(p, q)| {
                    (p[0] - q[0]).abs() <= tol
                        && (p[1] - q[1]).abs() <= tol
                        && (p[2] - q[2]).abs() <= tol
                })
        })
}

/// Stored bytes of `dataset` over raw bytes, from the PLFS index.
pub fn stored_bytes(ada: &Ada, dataset: &str) -> u64 {
    ada.containers()
        .bytes_by_backend(dataset)
        .map(|m| m.values().sum())
        .unwrap_or(0)
}

/// Per-layer samples and sums gathered by one load thread.
#[derive(Debug)]
pub struct LayerAcc {
    /// Span buffer.
    pub spans: SpanBuf,
    /// Per-op nanosecond samples by metric name.
    pub ns: BTreeMap<&'static str, Vec<u64>>,
    /// Sum of op latencies.
    pub op_ns: u64,
    /// Sum of the layer time covering those ops.
    pub covered_ns: u64,
    /// Bytes checksummed by the crc32 replay, and the time it took.
    pub crc_bytes: u64,
    /// See `crc_bytes`.
    pub crc_ns: u64,
    /// Simulated paper time of every op, ns.
    pub sim_ns: u128,
    /// Bytes stored and raw bytes of the datasets the ops wrote.
    pub stored: u64,
    /// See `stored`.
    pub raw: u64,
    /// Traced ops.
    pub ops: u64,
    /// Latencies of the traced ops.
    pub lat_ns: Vec<u64>,
}

impl LayerAcc {
    /// An empty accumulator recording spans from `spans`.
    pub fn new(spans: SpanBuf) -> LayerAcc {
        LayerAcc {
            spans,
            ns: BTreeMap::new(),
            op_ns: 0,
            covered_ns: 0,
            crc_bytes: 0,
            crc_ns: 0,
            sim_ns: 0,
            stored: 0,
            raw: 0,
            ops: 0,
            lat_ns: Vec::new(),
        }
    }

    /// Record one nanosecond sample of `name`.
    pub fn push(&mut self, name: &'static str, ns: u64) {
        self.ns.entry(name).or_default().push(ns);
    }

    /// Time a crc32 over `bytes` as a span under `parent`.
    pub fn crc(&mut self, parent: u32, bytes: &[u8]) {
        let (_, ns) = self.spans.time(parent, "mdformats.crc32", || {
            std::hint::black_box(ada_mdformats::xtcf::crc32(bytes))
        });
        self.crc_bytes += bytes.len() as u64;
        self.crc_ns += ns;
    }

    /// Fold several threads' accumulators into one.
    pub fn merge(accs: Vec<LayerAcc>) -> Option<LayerAcc> {
        let mut it = accs.into_iter();
        let mut first = it.next()?;
        for a in it {
            for (k, v) in a.ns {
                first.ns.entry(k).or_default().extend(v);
            }
            first.spans.spans.extend(a.spans.spans);
            first.op_ns += a.op_ns;
            first.covered_ns += a.covered_ns;
            first.crc_bytes += a.crc_bytes;
            first.crc_ns += a.crc_ns;
            first.sim_ns += a.sim_ns;
            first.stored += a.stored;
            first.raw += a.raw;
            first.ops += a.ops;
            first.lat_ns.extend(a.lat_ns);
        }
        Some(first)
    }

    /// Emit `metric` as the median of the samples recorded under `name`.
    pub fn emit_p50(&self, out: &mut RunOutput, metric: &'static str) {
        if let Some(v) = self.ns.get(metric) {
            out.set_n(metric, stats::median_ms(v), v.len());
        }
    }

    /// Emit the metrics every traced workload shares: crc32 throughput,
    /// simulated time per op, residual and tracing overhead.
    pub fn emit_common(&self, out: &mut RunOutput, untraced_p50_ms: f64) {
        let traced_p50 = stats::median_ms(&self.lat_ns);
        out.set(
            "mdformats.crc32_mib_per_s",
            crate::harness::ratio(
                self.crc_bytes as f64 / crate::harness::MIB,
                self.crc_ns as f64 / 1e9,
            ),
        );
        out.set_n(
            "storagesim.sim_ms_per_op",
            crate::harness::ratio(self.sim_ns as f64 / 1e6, self.ops as f64),
            self.ops as usize,
        );
        out.set_n(
            "bench.residual_pct",
            crate::harness::residual_pct(self.op_ns, self.covered_ns),
            self.ops as usize,
        );
        out.set_n(
            "bench.trace_overhead_pct",
            crate::harness::trace_overhead_pct(traced_p50, untraced_p50_ms),
            self.lat_ns.len(),
        );
        out.note(format!(
            "traced op p50 {} ms vs untraced {} ms; {} spans recorded",
            traced_p50,
            untraced_p50_ms,
            self.spans.spans.len()
        ));
    }
}

/// Counter values of the global telemetry registry.
pub fn counters() -> BTreeMap<String, u64> {
    ada_telemetry::global().snapshot().counters
}

/// Delta of counter `name` between two snapshots.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after
        .get(name)
        .copied()
        .unwrap_or(0)
        .saturating_sub(before.get(name).copied().unwrap_or(0))
}

/// Emit the cache-layer deltas between two `cache_stats` snapshots.
pub fn emit_cache(
    out: &mut RunOutput,
    before: &ada_cache::CacheStats,
    after: &ada_cache::CacheStats,
    ops: u64,
) {
    use crate::harness::{ratio, MIB};
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let ops = ops as f64;
    out.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set(
        "cache.decoded_mib_per_op",
        ratio(
            (after.bytes_decoded - before.bytes_decoded) as f64 / MIB,
            ops,
        ),
    );
    out.set(
        "cache.served_mib_per_op",
        ratio(
            (after.bytes_served_from_cache - before.bytes_served_from_cache) as f64 / MIB,
            ops,
        ),
    );
    out.set(
        "cache.evictions_per_op",
        ratio((after.evictions - before.evictions) as f64, ops),
    );
    out.set("cache.resident_hwm_mib", after.resident_hwm as f64 / MIB);
}

/// Emit the chunk decode ratio from `xtcf.chunk.*` counter deltas.
pub fn emit_chunk_ratio(
    out: &mut RunOutput,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    let decoded = delta(before, after, "xtcf.chunk.decoded") as f64;
    let skipped = delta(before, after, "xtcf.chunk.skipped") as f64;
    out.set(
        "mdformats.chunk_decode_ratio",
        crate::harness::ratio(decoded, decoded + skipped),
    );
}

/// Write the traced run's spans to `.bench_out/` under the working
/// directory and note where.
pub fn write_spans(out: &mut RunOutput, workload: &str, seed: u64, acc: &LayerAcc) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", workload, seed));
    let res = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, crate::spans::chrome_json(&acc.spans.spans)));
    match res {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written ({})", e)),
    }
}

/// A deterministic stream of indices in `0..n` from `seed` (splitmix64).
pub fn schedule(seed: u64, n: usize, len: usize) -> Vec<usize> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_in_range() {
        let a = schedule(7, 4, 1000);
        assert_eq!(a, schedule(7, 4, 1000));
        assert_ne!(a, schedule(8, 4, 1000));
        assert!(a.iter().all(|&i| i < 4));
        for k in 0..4 {
            assert!(a.iter().filter(|&&i| i == k).count() > 150);
        }
    }

    #[test]
    fn frames_close_honours_the_tolerance() {
        let a = gpcr_input(300, 2, 1).frames;
        let mut b = a.clone();
        assert!(frames_close(&a, &b, 0.0));
        b.frames[1].coords[5][2] += 0.0004;
        assert!(frames_close(&a, &b, 0.001));
        assert!(!frames_close(&a, &b, 0.0001));
        b.frames.pop();
        assert!(!frames_close(&a, &b, 1.0));
    }
}
