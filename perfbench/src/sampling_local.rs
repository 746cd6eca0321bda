//! `sampling_local`: the ML-training reader. One load thread reads
//! training batches: consecutive `Ada::query_range` windows of
//! `ada_workload::shuffled_epochs`, strided over both tags of v2 droppings
//! with several chunks each. The decoded-dropping cache holds about half
//! the decoded hot set, so hits, misses, partial-chunk upgrades and CLOCK
//! evictions happen every epoch.

use crate::common::{self, LayerAcc};
use crate::harness::{self, Args, LoopSpec, OpResult, RunOutput, MIB};
use crate::procfs::ThreadCpu;
use crate::spans::{SpanBuf, ROOT};
use ada_core::{Ada, AdaConfig, RetrievedData};
use ada_mdformats::xtcf::{decode_chunk, parse_directory};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_workload::{shuffled_epochs, Sample, SamplingConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const DATASET: &str = "train";
/// Atoms in the sampled system.
const NATOMS: usize = 2_000;
/// Frames in the sampled trajectory.
const FRAMES: usize = 512;
/// Frames per dropping and per chunk: 8 droppings per tag, 4 chunks each.
const FRAMES_PER_DROPPING: usize = 64;
const CHUNK_FRAMES: usize = 16;
/// Sample window and stride.
const WINDOW: usize = 16;
const STRIDE: usize = 2;
/// Epochs generated; the timed phase cycles through epochs `1..`.
const EPOCHS: usize = 256;
/// Windows per op: a training step waits for a whole batch.
const BATCH: usize = 12;
/// Cache shards: few enough that one dropping fits a shard's budget.
const CACHE_SHARDS: usize = 4;

fn tags() -> Vec<String> {
    vec!["p".to_string(), "m".to_string()]
}

fn config(cache_bytes: u64) -> AdaConfig {
    let base = common::capped_config();
    AdaConfig {
        frames_per_dropping: FRAMES_PER_DROPPING,
        chunk_frames: CHUNK_FRAMES,
        cache: ada_cache::CacheConfig {
            capacity_bytes: cache_bytes,
            shards: CACHE_SHARDS,
            ..base.cache.clone()
        },
        ..base
    }
}

type Key = (String, usize);

fn key(s: &Sample) -> Key {
    (s.tag.clone(), s.start)
}

fn range(ada: &Ada, s: &Sample) -> Result<Trajectory, String> {
    let q = ada
        .query_range(DATASET, &Tag::new(s.tag.clone()), s.start..s.end, s.stride)
        .map_err(|e| e.to_string())?;
    match q.data {
        RetrievedData::Real(t) => Ok(t),
        RetrievedData::Synthetic { .. } => Err("synthetic payload".to_string()),
    }
}

struct Instance {
    ada: Ada,
    warm_attempted: u64,
    warm_failed: u64,
}

fn setup(
    input: &common::PdbXtc,
    cache_bytes: u64,
    first_epoch: &[Sample],
    refs: &BTreeMap<Key, Trajectory>,
) -> Result<Instance, String> {
    let ada = common::new_ada(config(cache_bytes));
    ada.ingest(DATASET, input.ingest_input())
        .map_err(|e| format!("seed ingest: {}", e))?;
    let mut warm_failed = 0;
    for s in first_epoch {
        let ok = range(&ada, s).is_ok_and(|t| refs.get(&key(s)) == Some(&t));
        warm_failed += u64::from(!ok);
    }
    Ok(Instance {
        ada,
        warm_attempted: first_epoch.len() as u64,
        warm_failed,
    })
}

/// Per-dataset layout the replay needs: index records per tag.
struct Layout {
    records: BTreeMap<String, Vec<ada_plfs::IndexRecord>>,
}

fn op(
    inst: &Instance,
    samples: &[Sample],
    refs: &BTreeMap<Key, Trajectory>,
    layout: &Layout,
    acc: &mut Option<LayerAcc>,
    cpu: &ThreadCpu,
    i: u64,
) -> OpResult {
    let first = i as usize * BATCH;
    let batch: Vec<&Sample> = (first..first + BATCH)
        .map(|k| &samples[k % samples.len()])
        .collect();
    if let Some(acc) = acc.as_mut() {
        return traced(inst, refs, layout, acc, cpu, i, &batch);
    }
    let t0 = Instant::now();
    let got: Vec<_> = batch.iter().map(|s| range(&inst.ada, s)).collect();
    let lat = t0.elapsed().as_nanos() as u64;
    check(refs, &batch, &got, lat, cpu)
}

/// Compare every window of a batch with the cache-off reference.
fn check(
    refs: &BTreeMap<Key, Trajectory>,
    batch: &[&Sample],
    got: &[Result<Trajectory, String>],
    lat: u64,
    cpu: &ThreadCpu,
) -> OpResult {
    let c0 = cpu.now_ns();
    let mut bytes = 0;
    let mut ok = true;
    for (s, t) in batch.iter().zip(got) {
        match t {
            Ok(t) => {
                bytes += t.nbytes() as u64;
                ok &= refs.get(&key(s)) == Some(t);
            }
            Err(_) => ok = false,
        }
    }
    OpResult {
        lat_ns: Some(lat),
        bytes,
        ok,
        check_cpu_ns: cpu.now_ns().saturating_sub(c0),
    }
}

/// A traced batch: a span per window, each classified as a cache hit or
/// miss by its decode delta; then the storage layers every miss ran are
/// replayed.
fn traced(
    inst: &Instance,
    refs: &BTreeMap<Key, Trajectory>,
    layout: &Layout,
    acc: &mut LayerAcc,
    cpu: &ThreadCpu,
    i: u64,
    batch: &[&Sample],
) -> OpResult {
    acc.spans.begin_op(i);
    let mut got = Vec::with_capacity(batch.len());
    let mut misses = Vec::new();
    let t0 = Instant::now();
    for s in batch {
        let before = inst.ada.cache_stats().bytes_decoded;
        let id = acc.spans.reserve();
        let w0 = Instant::now();
        let q = inst
            .ada
            .query_range(DATASET, &Tag::new(s.tag.clone()), s.start..s.end, s.stride);
        let ns = acc
            .spans
            .record(id, ROOT, "core.query_range", w0, Instant::now());
        let decoded = inst.ada.cache_stats().bytes_decoded - before;
        if decoded == 0 {
            acc.push("core.range_hit_ms_p50", ns);
        } else {
            acc.push("core.range_miss_ms_p50", ns);
            misses.push((*s, decoded));
        }
        got.push(q.map_err(|e| e.to_string()).and_then(|q| {
            acc.sim_ns += q.total().0;
            match q.data {
                RetrievedData::Real(t) => Ok(t),
                RetrievedData::Synthetic { .. } => Err("synthetic payload".to_string()),
            }
        }));
    }
    let t1 = Instant::now();
    acc.spans.root("op", t0, t1);
    let lat = (t1 - t0).as_nanos() as u64;
    acc.lat_ns.push(lat);
    acc.op_ns += lat;
    acc.ops += 1;

    let replay = acc.spans.reserve();
    let r0 = Instant::now();
    for (s, decoded) in misses {
        replay_miss(inst, layout, acc, replay, s, decoded);
    }
    acc.spans.record(replay, ROOT, "replay", r0, Instant::now());
    check(refs, batch, &got, lat, cpu)
}

/// Replay one missed window's storage layers: read the droppings it
/// touches and decode the chunks it touches. The window decoded `decoded`
/// bytes of those chunks (the rest was resident), so the decode replay
/// covers the op in that share.
fn replay_miss(
    inst: &Instance,
    layout: &Layout,
    acc: &mut LayerAcc,
    replay: u32,
    s: &Sample,
    decoded: u64,
) {
    let containers = inst.ada.containers();
    let (mut read_ns, mut decode_ns, mut replay_bytes) = (0, 0, 0u64);
    let mut first = 0usize;
    for rec in layout.records.get(&s.tag).into_iter().flatten() {
        let (lo, hi) = (first, first + rec.frames as usize);
        first = hi;
        let locals: Vec<usize> = (s.start..s.end)
            .step_by(s.stride.max(1))
            .filter(|f| (lo..hi).contains(f))
            .map(|f| f - lo)
            .collect();
        if locals.is_empty() {
            continue;
        }
        let (content, rd) = acc.spans.time(replay, "plfs.read_dropping", || {
            containers.read_dropping(rec)
        });
        read_ns += rd;
        let Some(bytes) = content.ok().and_then(|(c, _)| c.as_real().cloned()) else {
            continue;
        };
        let ((), dc) = acc.spans.time(replay, "mdformats.decode_chunk", || {
            let Ok(Some(dir)) = parse_directory(&bytes) else {
                return;
            };
            let mut chunks: Vec<usize> = locals
                .iter()
                .filter_map(|&f| dir.chunk_of_frame(f))
                .collect();
            chunks.dedup();
            for c in chunks {
                if let Ok(frames) = decode_chunk(&bytes, &dir, c) {
                    replay_bytes += frames.iter().map(|f| f.nbytes() as u64).sum::<u64>();
                }
            }
        });
        decode_ns += dc;
        acc.crc(replay, &bytes);
    }
    let share = harness::ratio(decoded as f64, replay_bytes as f64).min(1.0);
    acc.push("plfs.read_dropping_ms_p50", read_ns);
    acc.push("mdformats.decode_chunk_ms_p50", decode_ns);
    acc.covered_ns += read_ns + (decode_ns as f64 * share) as u64;
}

/// Run the workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let input = common::gpcr_input(NATOMS, FRAMES, args.seed);
    let epochs = shuffled_epochs(&SamplingConfig {
        nframes: FRAMES,
        window: WINDOW,
        stride: STRIDE,
        epochs: EPOCHS,
        tags: tags(),
        seed: args.seed,
    });
    let timed: Vec<Sample> = epochs[1..].iter().flatten().cloned().collect();

    // The check's reference: every window from a cache-off instance.
    let t = Instant::now();
    let reference = common::new_ada(config(0));
    let raw = reference
        .ingest(DATASET, input.ingest_input())
        .map_err(|e| format!("reference ingest: {}", e))?
        .raw_bytes;
    let mut refs = BTreeMap::new();
    for s in &epochs[0] {
        refs.insert(key(s), range(&reference, s)?);
    }
    let stored = common::stored_bytes(&reference, DATASET);
    drop(reference);
    let ref_s = t.elapsed().as_secs_f64();
    let cache_bytes = raw / 2;

    let (inst, setup_times) =
        harness::repeat_setup(|| setup(&input, cache_bytes, &epochs[0], &refs))?;
    common::note_config(&mut out, &config(cache_bytes));
    out.note(format!(
        "seed={}; closed loop, 1 caller thread, one op = a batch of {} windows; {} frames x {} atoms, \
         tags p+m, window {} stride {}, {} windows/epoch; decoded hot set {:.2} MiB, cache budget {:.2} MiB ({:.2} of it); \
         epoch 0 runs in set-up; cache-off reference built in {:.3} s (not in setup_s)",
        args.seed,
        BATCH,
        FRAMES,
        NATOMS,
        WINDOW,
        STRIDE,
        epochs[0].len(),
        raw as f64 / MIB,
        cache_bytes as f64 / MIB,
        harness::ratio(cache_bytes as f64, raw as f64),
        ref_s
    ));
    out.attempted += inst.warm_attempted;
    out.failed += inst.warm_failed;
    let layout = Layout {
        records: {
            let mut m: BTreeMap<String, Vec<ada_plfs::IndexRecord>> = BTreeMap::new();
            for r in inst.ada.containers().index(DATASET).unwrap_or_default() {
                m.entry(r.tag.clone()).or_default().push(r);
            }
            m
        },
    };

    let spec = LoopSpec {
        threads: 1,
        seconds: args.seconds,
        min_ops: args.child_min_ops.unwrap_or(0),
    };
    let run_op = |acc: &mut Option<LayerAcc>, cpu: &ThreadCpu, i: u64| {
        op(&inst, &timed, &refs, &layout, acc, cpu, i)
    };
    if !args.trace {
        let phase = harness::closed_loop(spec, vec![None], run_op);
        out.untraced(&setup_times, &phase);
        let st = inst.ada.cache_stats();
        out.note(format!(
            "cache: hit rate {:.3}, {} evictions, resident hwm {:.2} MiB",
            st.hit_rate(),
            st.evictions,
            st.resident_hwm as f64 / MIB
        ));
        return Ok(out);
    }

    let (c0, s0) = (common::counters(), inst.ada.cache_stats());
    let acc0 = LayerAcc::new(SpanBuf::new(Instant::now(), 0));
    let traced = harness::closed_loop(spec.half(), vec![Some(acc0)], run_op);
    let (c1, s1) = (common::counters(), inst.ada.cache_stats());
    let untraced = harness::closed_loop(spec.half(), vec![None], run_op);
    out.attempted += traced.attempted + untraced.attempted;
    out.failed += traced.failed + untraced.failed;
    let untraced_p50 = untraced.p50_ms();
    let acc = LayerAcc::merge(traced.states.into_iter().flatten().collect())
        .ok_or("no traced load thread")?;
    for m in [
        "core.range_hit_ms_p50",
        "core.range_miss_ms_p50",
        "plfs.read_dropping_ms_p50",
        "mdformats.decode_chunk_ms_p50",
    ] {
        acc.emit_p50(&mut out, m);
    }
    common::emit_cache(&mut out, &s0, &s1, acc.ops);
    common::emit_chunk_ratio(&mut out, &c0, &c1);
    out.set(
        "plfs.stored_bytes_per_raw_byte",
        harness::ratio(stored as f64, raw as f64),
    );
    acc.emit_common(&mut out, untraced_p50);
    common::write_spans(&mut out, "sampling_local", args.seed, &acc);
    Ok(out)
}
