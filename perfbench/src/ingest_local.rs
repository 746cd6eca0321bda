//! `ingest_local`: the write side of the same format layers. One load
//! thread runs `Ada::ingest(IngestInput::Real)` on short GPCR trajectory
//! segments generated from the seed before timing; datasets are deleted
//! in a fixed ring so memory stays flat.

use crate::common::{self, LayerAcc, PdbXtc};
use crate::harness::{self, Args, LoopSpec, OpResult, RunOutput, MIB};
use crate::procfs::ThreadCpu;
use crate::spans::{SpanBuf, ROOT};
use ada_core::{categorize_algo1, split_trajectory_opts, Ada, IngestReport, SplitOptions};
use ada_core::{AdaConfig, RetrievedData};
use ada_mdformats::xtc::decode_frames_parallel;
use ada_mdformats::xtcf::{
    frame_record_len, seal_v2, XTCF_DIR_ENTRY_LEN, XTCF_HEADER_LEN, XTCF_TRAILER_LEN,
};
use ada_mdformats::{parse_structure, Frame};
use std::collections::BTreeMap;
use std::time::Instant;

/// Atoms per segment.
const NATOMS: usize = 2_000;
/// Frames per segment.
const FRAMES: usize = 64;
/// Distinct segments generated from the seed; ops cycle through them.
const SEGMENTS: usize = 8;
/// Dataset slots; ingesting into an occupied slot deletes its dataset.
const RING: usize = 8;
/// Every this many ops, an untimed query checks the stored frame count.
const SPOT_CHECK_EVERY: u64 = 8;

fn slot(i: u64) -> String {
    format!("seg-{}", i % RING as u64)
}

/// A segment with what its ingest must report.
struct Segment {
    input: PdbXtc,
    /// Atoms per tag, from the categorizer.
    natoms_by_tag: BTreeMap<String, usize>,
}

impl Segment {
    fn new(input: PdbXtc, config: &AdaConfig) -> Result<Segment, String> {
        let system = parse_structure(&input.pdb).map_err(|e| e.to_string())?;
        let natoms_by_tag = categorize_algo1(&system, &config.taxonomy)
            .into_iter()
            .map(|(t, r)| (t.as_str().to_string(), r.count()))
            .collect();
        Ok(Segment {
            input,
            natoms_by_tag,
        })
    }

    /// True when the report accounts for every raw byte: raw bytes equal
    /// the decoded trajectory's, and the stored bytes of every tag, minus
    /// the XTCF v2 framing of its droppings, sum to the coordinate bytes.
    fn report_adds_up(&self, rep: &IngestReport, config: &AdaConfig) -> bool {
        let frames = self.input.frames.len();
        let raw = self.input.frames.nbytes() as u64;
        let coords = (frames * self.input.frames.natoms() * 12) as u64;
        let mut payload = 0u64;
        for (tag, &stored) in &rep.bytes_by_tag {
            let Some(&natoms) = self.natoms_by_tag.get(tag.as_str()) else {
                return false;
            };
            let framing = xtcf_framing(frames, natoms, config);
            payload += stored.saturating_sub(framing);
        }
        rep.raw_bytes == raw
            && raw == coords + (frames * std::mem::size_of::<Frame>()) as u64
            && payload == coords
            && rep.bytes_by_tag.len() == self.natoms_by_tag.len()
    }
}

/// Bytes an XTCF v2 dropping set adds around `frames × natoms`
/// coordinates: per dropping a header, a directory and a trailer; per
/// frame the record header.
fn xtcf_framing(frames: usize, natoms: usize, config: &AdaConfig) -> u64 {
    let per_dropping = config.frames_per_dropping.max(1);
    let mut framing = 0;
    let mut left = frames;
    while left > 0 {
        let nf = left.min(per_dropping);
        let chunks = if config.chunk_frames == 0 {
            1
        } else {
            nf.div_ceil(config.chunk_frames)
        };
        framing += XTCF_HEADER_LEN + chunks * XTCF_DIR_ENTRY_LEN + XTCF_TRAILER_LEN;
        framing += nf * (frame_record_len(natoms) - natoms * 12);
        left -= nf;
    }
    framing as u64
}

struct Instance {
    ada: Ada,
    warm_attempted: u64,
    warm_failed: u64,
}

/// Ingest `seg` into ring slot `i`, deleting the slot's previous dataset
/// first. Returns the report, when the ingest call started and ended, and
/// the delete time.
fn ingest_slot(
    ada: &Ada,
    seg: &Segment,
    i: u64,
) -> (Option<IngestReport>, [Instant; 2], Option<u64>) {
    let name = slot(i);
    let del = (i >= RING as u64).then(|| {
        let t = Instant::now();
        let _ = ada.delete_dataset(&name);
        t.elapsed().as_nanos() as u64
    });
    let input = seg.input.ingest_input();
    let t = Instant::now();
    let rep = ada.ingest(&name, input).ok();
    (rep, [t, Instant::now()], del)
}

/// The untimed spot check: the stored dataset returns the segment's
/// frames. Returns the check's verdict and the query's duration.
fn spot_check(ada: &Ada, seg: &Segment, i: u64) -> (bool, u64) {
    let t = Instant::now();
    let q = ada.query(&slot(i), None);
    let ns = t.elapsed().as_nanos() as u64;
    let ok = matches!(q.map(|q| q.data), Ok(RetrievedData::Real(t))
        if t.len() == seg.input.frames.len() && t.natoms() == seg.input.frames.natoms());
    (ok, ns)
}

fn setup(segments: &[Segment], config: &AdaConfig) -> Result<Instance, String> {
    let ada = common::new_ada(config.clone());
    // Seed ingests fill the ring; a second pass warms the delete path.
    let mut warm_failed = 0;
    for i in 0..(2 * RING) as u64 {
        let seg = &segments[i as usize % segments.len()];
        let (rep, _, _) = ingest_slot(&ada, seg, i);
        let ok = rep.is_some_and(|r| seg.report_adds_up(&r, config)) && spot_check(&ada, seg, i).0;
        warm_failed += u64::from(!ok);
    }
    Ok(Instance {
        ada,
        warm_attempted: 2 * RING as u64,
        warm_failed,
    })
}

fn op(
    inst: &Instance,
    segments: &[Segment],
    config: &AdaConfig,
    acc: &mut Option<LayerAcc>,
    cpu: &ThreadCpu,
    i: u64,
) -> OpResult {
    // Continue the ring where set-up left it, so every op deletes.
    let i = i + 2 * RING as u64;
    let seg = &segments[i as usize % segments.len()];
    let (rep, [t0, t1], del) = ingest_slot(&inst.ada, seg, i);
    let lat = (t1 - t0).as_nanos() as u64;
    let Some(rep) = rep else {
        return OpResult::default();
    };
    let c0 = cpu.now_ns();
    let mut ok = seg.report_adds_up(&rep, config);
    let mut query_ns = None;
    if i.is_multiple_of(SPOT_CHECK_EVERY) {
        let (spot, ns) = spot_check(&inst.ada, seg, i);
        ok &= spot;
        query_ns = Some(ns);
    }
    let check_cpu_ns = cpu.now_ns().saturating_sub(c0);
    if let Some(acc) = acc.as_mut() {
        traced(inst, seg, config, acc, i, &rep, [t0, t1], del, query_ns);
    }
    OpResult {
        lat_ns: Some(lat),
        bytes: rep.raw_bytes,
        ok,
        check_cpu_ns,
    }
}

/// Record the op's spans and replay its pre-processing stages one layer
/// at a time on the same input.
#[allow(clippy::too_many_arguments)]
fn traced(
    inst: &Instance,
    seg: &Segment,
    config: &AdaConfig,
    acc: &mut LayerAcc,
    i: u64,
    rep: &IngestReport,
    [start, end]: [Instant; 2],
    del: Option<u64>,
    query_ns: Option<u64>,
) {
    let lat = (end - start).as_nanos() as u64;
    acc.spans.begin_op(i);
    acc.spans.root("op", start, end);
    let id = acc.spans.reserve();
    acc.spans.record(id, ROOT, "core.ingest", start, end);
    acc.lat_ns.push(lat);
    acc.op_ns += lat;
    acc.ops += 1;
    acc.sim_ns += rep.total().0;
    if let Some(d) = del {
        acc.push("core.delete_ms_p50", d);
    }
    if let Some(q) = query_ns {
        acc.push("core.query_ms_p50", q);
    }
    acc.stored += common::stored_bytes(&inst.ada, &slot(i));
    acc.raw += rep.raw_bytes;

    let replay = acc.spans.reserve();
    let r0 = Instant::now();
    let xtc = &seg.input.xtc;
    let (traj, dec) = acc.spans.time(replay, "mdformats.xtc_decode", || {
        decode_frames_parallel(xtc, config.decode_threads)
    });
    let pdb = &seg.input.pdb;
    let (labeler, cat) = acc.spans.time(replay, "core.categorize", || {
        parse_structure(pdb)
            .ok()
            .map(|s| categorize_algo1(&s, &config.taxonomy))
    });
    let mut covered = dec + cat;
    if let (Ok(traj), Some(labeler)) = (traj, labeler) {
        let opts = SplitOptions::with_threads(config.split_threads);
        let (split, sp) = acc.spans.time(replay, "core.split", || {
            split_trajectory_opts(&traj, &labeler, opts)
        });
        covered += sp;
        acc.push("core.split_ms_p50", sp);
        if let Ok(split) = split {
            // The op seals each backend's tags on its own thread, so the
            // slowest tag's seal is what covers the op.
            let (mut seal_ns, mut seal_max) = (0, 0);
            for (tag, payload) in split.subsets {
                let natoms = labeler.get(&tag).map_or(0, |r| r.count());
                let (sealed, ns) = acc.spans.time(replay, "mdformats.seal_v2", || {
                    seal_v2(payload, natoms, config.chunk_frames)
                });
                seal_ns += ns;
                seal_max = seal_max.max(ns);
                if let Ok(sealed) = sealed {
                    acc.crc(replay, &sealed);
                }
            }
            covered += seal_max;
            acc.push("mdformats.seal_v2_ms_p50", seal_ns);
        }
    }
    acc.push("mdformats.xtc_decode_ms_p50", dec);
    acc.push("core.categorize_ms_p50", cat);
    acc.covered_ns += covered;
    acc.spans.record(replay, ROOT, "replay", r0, Instant::now());
}

/// Run the workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let config = common::capped_config();
    let segments: Vec<Segment> = (0..SEGMENTS)
        .map(|k| {
            let input = common::gpcr_input(NATOMS, FRAMES, args.seed.wrapping_add(k as u64));
            Segment::new(input, &config)
        })
        .collect::<Result<_, _>>()?;
    let seg_bytes = segments[0].input.frames.nbytes() as f64;
    let (inst, setup_times) = harness::repeat_setup(|| setup(&segments, &config))?;
    common::note_config(&mut out, &config);
    out.note(format!(
        "seed={}; closed loop, 1 caller thread; {} segments of {} frames x {} atoms \
         ({:.2} MiB raw each) cycled into a ring of {} datasets, cache off; \
         every {}th op is spot-checked by an untimed query",
        args.seed,
        SEGMENTS,
        FRAMES,
        NATOMS,
        seg_bytes / MIB,
        RING,
        SPOT_CHECK_EVERY
    ));
    out.attempted += inst.warm_attempted;
    out.failed += inst.warm_failed;

    let spec = LoopSpec {
        threads: 1,
        seconds: args.seconds,
        min_ops: args.child_min_ops.unwrap_or(0),
    };
    let run_op = |acc: &mut Option<LayerAcc>, cpu: &ThreadCpu, i: u64| {
        op(&inst, &segments, &config, acc, cpu, i)
    };
    if !args.trace {
        let phase = harness::closed_loop(spec, vec![None], run_op);
        out.untraced(&setup_times, &phase);
        return Ok(out);
    }

    let s0 = inst.ada.cache_stats();
    let acc0 = LayerAcc::new(SpanBuf::new(Instant::now(), 0));
    let traced = harness::closed_loop(spec.half(), vec![Some(acc0)], run_op);
    let s1 = inst.ada.cache_stats();
    let untraced = harness::closed_loop(spec.half(), vec![None], run_op);
    out.attempted += traced.attempted + untraced.attempted;
    out.failed += traced.failed + untraced.failed;
    let untraced_p50 = untraced.p50_ms();
    let acc = LayerAcc::merge(traced.states.into_iter().flatten().collect())
        .ok_or("no traced load thread")?;
    for m in [
        "core.categorize_ms_p50",
        "core.split_ms_p50",
        "core.delete_ms_p50",
        "core.query_ms_p50",
        "mdformats.xtc_decode_ms_p50",
        "mdformats.seal_v2_ms_p50",
    ] {
        acc.emit_p50(&mut out, m);
    }
    common::emit_cache(&mut out, &s0, &s1, acc.ops);
    out.set(
        "plfs.stored_bytes_per_raw_byte",
        harness::ratio(acc.stored as f64, acc.raw as f64),
    );
    acc.emit_common(&mut out, untraced_p50);
    common::write_spans(&mut out, "ingest_local", args.seed, &acc);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_ingest_report_adds_up() {
        let config = common::capped_config();
        let seg = Segment::new(common::gpcr_input(600, 5, 3), &config).unwrap();
        let ada = common::new_ada(config.clone());
        let (rep, _, del) = ingest_slot(&ada, &seg, 0);
        let rep = rep.unwrap();
        assert!(del.is_none());
        assert!(seg.report_adds_up(&rep, &config));
        assert!(spot_check(&ada, &seg, 0).0);
        let mut short = rep.clone();
        if let Some(v) = short.bytes_by_tag.values_mut().next() {
            *v -= 12;
        }
        assert!(!seg.report_adds_up(&short, &config));
        // Slot 1 holds nothing yet.
        assert!(!spot_check(&ada, &seg, 1).0);
    }
}
