//! `remote_vmd`: the paper's remote VMD consumer loading the protein
//! subset. Two load threads, each with its own `ada_client::Client`
//! connection to one in-process `ada-server` (loopback → `Frontend` →
//! `Ada`, cache off), run a closed loop of `Client::query(ds, "p")` +
//! `WireQueryReport::trajectory()` over several GPCR datasets.

use crate::common::{self, LayerAcc, PdbXtc};
use crate::harness::{self, Args, LoopSpec, OpResult, RunOutput, MIB};
use crate::procfs::ThreadCpu;
use crate::spans::{SpanBuf, ROOT};
use crate::stats;
use ada_client::{Client, ClientConfig};
use ada_core::{Ada, RetrievedData};
use ada_frontend::{Frontend, FrontendConfig};
use ada_mdformats::xtc::DEFAULT_PRECISION;
use ada_mdformats::xtcf::{decode_chunk, parse_directory};
use ada_mdformats::Trajectory;
use ada_mdmodel::Tag;
use ada_proto::{
    parse_header, verify_payload, write_frame, ResponseBody, ResponseEnvelope, WireQueryReport,
    DEFAULT_MAX_FRAME, HEADER_LEN,
};
use ada_server::{Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

/// Datasets the set-up ingests.
const DATASETS: usize = 4;
/// Atoms per dataset.
const NATOMS: usize = 2_000;
/// Frames per dataset.
const FRAMES: usize = 64;
/// Load threads, one connection each.
const CLIENTS: usize = 2;
/// Set-up warm-up passes over every (client, dataset) pair.
const WARMUP_PASSES: usize = 2;
/// Wire frames come back from XTC at `DEFAULT_PRECISION`; allow one
/// quantum of rounding.
const TOLERANCE: f32 = 1.0 / DEFAULT_PRECISION;

fn name(i: usize) -> String {
    format!("gpcr-{}", i)
}

/// A running server with its connected clients. Fields drop in order:
/// clients hang up before the server shuts down.
struct Instance {
    clients: Vec<Client>,
    _server: Server,
    frontend: Arc<Frontend>,
    ada: Arc<Ada>,
    /// In-process `Ada::query(ds, p)` of every dataset, taken in set-up.
    refs: Vec<Trajectory>,
    raw_bytes: u64,
    connect_ns: Vec<u64>,
    warm_attempted: u64,
    warm_failed: u64,
}

fn setup(inputs: &[PdbXtc]) -> Result<Instance, String> {
    let ada = Arc::new(common::new_ada(common::capped_config()));
    let mut raw_bytes = 0;
    for (i, input) in inputs.iter().enumerate() {
        let rep = ada
            .ingest(&name(i), input.ingest_input())
            .map_err(|e| format!("seed ingest: {}", e))?;
        raw_bytes += rep.raw_bytes;
    }
    let frontend = Arc::new(Frontend::new(Arc::clone(&ada), FrontendConfig::default()));
    let server = Server::start(Arc::clone(&frontend), ServerConfig::default())
        .map_err(|e| format!("server start: {}", e))?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut connect_ns = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let client = Client::new(
            addr.clone(),
            ClientConfig {
                name: format!("vmd-{}", c),
                ..ClientConfig::default()
            },
        );
        let t = Instant::now();
        client.ping().map_err(|e| format!("dial + ping: {}", e))?;
        connect_ns.push(t.elapsed().as_nanos() as u64);
        clients.push(client);
    }
    let mut refs = Vec::with_capacity(inputs.len());
    for i in 0..inputs.len() {
        match ada.query(&name(i), Some(&Tag::protein())) {
            Ok(q) => match q.data {
                RetrievedData::Real(t) => refs.push(t),
                RetrievedData::Synthetic { .. } => return Err("synthetic reference".into()),
            },
            Err(e) => return Err(format!("reference query: {}", e)),
        }
    }
    let (mut warm_attempted, mut warm_failed) = (0, 0);
    for _ in 0..WARMUP_PASSES {
        for client in &clients {
            for (i, want) in refs.iter().enumerate() {
                warm_attempted += 1;
                let ok = client
                    .query(&name(i), Some("p"))
                    .and_then(|r| r.trajectory())
                    .is_ok_and(|t| common::frames_close(&t, want, TOLERANCE));
                warm_failed += u64::from(!ok);
            }
        }
    }
    Ok(Instance {
        clients,
        _server: server,
        frontend,
        ada,
        refs,
        raw_bytes,
        connect_ns,
        warm_attempted,
        warm_failed,
    })
}

/// Per-load-thread state.
struct Load {
    client: usize,
    acc: Option<LayerAcc>,
}

/// One op: query + decode, then the output check. In a traced run the op
/// is wrapped in spans and replayed layer by layer.
fn op(inst: &Instance, order: &[usize], st: &mut Load, cpu: &ThreadCpu, i: u64) -> OpResult {
    let ds = order[i as usize % order.len()];
    let dataset = name(ds);
    let client = &inst.clients[st.client];
    let t0 = Instant::now();
    let rep = client.query(&dataset, Some("p"));
    let t1 = Instant::now();
    let Ok(rep) = rep else {
        return OpResult::default();
    };
    let traj = rep.trajectory();
    let t2 = Instant::now();
    let Ok(traj) = traj else {
        return OpResult::default();
    };
    let c0 = cpu.now_ns();
    let ok = common::frames_close(&traj, &inst.refs[ds], TOLERANCE);
    let check_cpu_ns = cpu.now_ns().saturating_sub(c0);
    let lat = (t2 - t0).as_nanos() as u64;
    if let Some(acc) = st.acc.as_mut() {
        traced(inst, acc, i, &dataset, &rep, [t0, t1, t2]);
    }
    OpResult {
        lat_ns: Some(lat),
        bytes: traj.nbytes() as u64,
        ok,
        check_cpu_ns,
    }
}

/// Record the op's spans, then replay it in-process one layer at a time.
fn traced(
    inst: &Instance,
    acc: &mut LayerAcc,
    i: u64,
    dataset: &str,
    rep: &WireQueryReport,
    [t0, t1, t2]: [Instant; 3],
) {
    let sb = &mut acc.spans;
    sb.begin_op(i);
    sb.root("op", t0, t2);
    let id = sb.reserve();
    let round_trip = sb.record(id, ROOT, "client.query", t0, t1);
    let id = sb.reserve();
    let decode = sb.record(id, ROOT, "proto.payload_decode", t1, t2);
    acc.push("client.round_trip_ms_p50", round_trip);
    acc.push("proto.payload_decode_ms_p50", decode);
    acc.lat_ns.push(round_trip + decode);
    acc.op_ns += round_trip + decode;
    acc.sim_ns += rep.indexer_ns + rep.read_ns;
    acc.ops += 1;

    let replay = acc.spans.reserve();
    let r0 = Instant::now();
    let tag = Tag::protein();
    let (_, fe) = acc.spans.time(replay, "frontend.query", || {
        inst.frontend.query("replay", dataset, Some(&tag))
    });
    let (core, cq) = acc
        .spans
        .time(replay, "core.query", || inst.ada.query(dataset, Some(&tag)));
    let mut covered = fe + decode;
    if let Ok(core) = core {
        let (wire, enc) = acc.spans.time(replay, "proto.payload_encode", || {
            WireQueryReport::from_report(&core)
        });
        acc.push("proto.payload_encode_ms_p50", enc);
        covered += enc;
        if let Ok(wire) = wire {
            let (_, codec) = acc
                .spans
                .time(replay, "proto.frame_codec", || frame_codec(i, wire));
            acc.push("proto.frame_codec_ms_p50", codec);
            covered += codec;
        }
    }
    acc.push("frontend.query_ms_p50", fe);
    acc.push("core.query_ms_p50", cq);
    acc.covered_ns += covered;

    let containers = inst.ada.containers();
    let (index, ix) = acc
        .spans
        .time(replay, "plfs.index", || containers.index(dataset));
    acc.push("plfs.index_ms_p50", ix);
    let (mut read_ns, mut decode_ns) = (0, 0);
    for rec in index.unwrap_or_default().iter().filter(|r| r.tag == "p") {
        let (content, rd) = acc.spans.time(replay, "plfs.read_dropping", || {
            containers.read_dropping(rec)
        });
        read_ns += rd;
        let Some(bytes) = content.ok().and_then(|(c, _)| c.as_real().cloned()) else {
            continue;
        };
        let (_, dc) = acc.spans.time(replay, "mdformats.decode_chunk", || {
            if let Ok(Some(dir)) = parse_directory(&bytes) {
                for c in 0..dir.nchunks() {
                    let _ = std::hint::black_box(decode_chunk(&bytes, &dir, c));
                }
            }
        });
        decode_ns += dc;
        acc.crc(replay, &bytes);
    }
    acc.push("plfs.read_dropping_ms_p50", read_ns);
    acc.push("mdformats.decode_chunk_ms_p50", decode_ns);
    acc.spans.record(replay, ROOT, "replay", r0, Instant::now());
}

/// The response path's framing, as client and server run it: encode the
/// envelope, frame it, then parse the header, verify the CRC and decode.
fn frame_codec(id: u64, wire: WireQueryReport) -> bool {
    let payload = ResponseEnvelope {
        id,
        body: ResponseBody::Query(wire),
    }
    .encode();
    let mut buf = Vec::with_capacity(payload.len() + HEADER_LEN);
    if write_frame(&mut buf, &payload).is_err() || buf.len() < HEADER_LEN {
        return false;
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    parse_header(&header, DEFAULT_MAX_FRAME)
        .and_then(|h| verify_payload(&h, &buf[HEADER_LEN..]))
        .and_then(|_| ResponseEnvelope::decode(&buf[HEADER_LEN..]))
        .is_ok()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let inputs: Vec<PdbXtc> = (0..DATASETS)
        .map(|i| common::gpcr_input(NATOMS, FRAMES, args.seed.wrapping_add(i as u64)))
        .collect();
    let order = common::schedule(args.seed, DATASETS, 1 << 16);
    let (inst, setup_times) = harness::repeat_setup(|| setup(&inputs))?;
    common::note_config(&mut out, &common::capped_config());
    out.note(format!(
        "seed={}; closed loop, {} clients over loopback TCP; {} datasets x {} frames x {} atoms \
         ({:.1} MiB decoded), cache off; FrontendConfig::default, ServerConfig::default",
        args.seed,
        CLIENTS,
        DATASETS,
        FRAMES,
        NATOMS,
        inst.raw_bytes as f64 / MIB
    ));
    out.attempted += inst.warm_attempted;
    out.failed += inst.warm_failed;

    let loads = |traced: bool| -> Vec<Load> {
        let epoch = Instant::now();
        (0..CLIENTS)
            .map(|c| Load {
                client: c,
                acc: traced.then(|| LayerAcc::new(SpanBuf::new(epoch, c as u32))),
            })
            .collect()
    };
    let untraced_spec = LoopSpec {
        threads: CLIENTS,
        seconds: args.seconds,
        min_ops: args.child_min_ops.unwrap_or(0),
    };
    let run_op = |st: &mut Load, cpu: &ThreadCpu, i: u64| op(&inst, &order, st, cpu, i);

    if !args.trace {
        let phase = harness::closed_loop(untraced_spec, loads(false), run_op);
        out.untraced(&setup_times, &phase);
        return Ok(out);
    }

    let (c0, s0) = (common::counters(), inst.ada.cache_stats());
    let traced = harness::closed_loop(untraced_spec.half(), loads(true), run_op);
    let (c1, s1) = (common::counters(), inst.ada.cache_stats());
    let untraced = harness::closed_loop(untraced_spec.half(), loads(false), run_op);
    for p in [traced.attempted, untraced.attempted] {
        out.attempted += p;
    }
    out.failed += traced.failed + untraced.failed;
    let untraced_p50 = untraced.p50_ms();
    let accs: Vec<LayerAcc> = traced.states.into_iter().filter_map(|s| s.acc).collect();
    let acc = LayerAcc::merge(accs).ok_or("no traced load thread")?;

    for m in [
        "client.round_trip_ms_p50",
        "proto.payload_decode_ms_p50",
        "proto.payload_encode_ms_p50",
        "proto.frame_codec_ms_p50",
        "frontend.query_ms_p50",
        "core.query_ms_p50",
        "plfs.index_ms_p50",
        "plfs.read_dropping_ms_p50",
        "mdformats.decode_chunk_ms_p50",
    ] {
        acc.emit_p50(&mut out, m);
    }
    out.set_n(
        "client.connect_ms_max",
        inst.connect_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        inst.connect_ns.len(),
    );
    out.set(
        "proto.wire_bytes_per_decoded_byte",
        harness::ratio(
            common::delta(&c0, &c1, "server.bytes.written") as f64,
            traced.bytes as f64,
        ),
    );
    let hist = ada_telemetry::global().snapshot().histograms;
    let service = hist.get("server.request.ns").map_or(0.0, |h| h.p50 / 1e6);
    out.set_n(
        "server.service_ms_p50",
        service,
        hist.get("server.request.ns")
            .map_or(0, |h| h.count as usize),
    );
    let rt = acc
        .ns
        .get("client.round_trip_ms_p50")
        .map_or(0.0, |v| stats::median_ms(v));
    out.set("server.residual_ms_p50", rt - service);
    if let Some(h) = hist.get("frontend.wait_ns.query") {
        out.set_n(
            "frontend.admission_wait_ms_p99",
            h.p99 / 1e6,
            h.count as usize,
        );
    }
    out.set(
        "frontend.shed_ops",
        (common::delta(&c0, &c1, "frontend.query.rejected")
            + common::delta(&c0, &c1, "frontend.query.deadline_exceeded")) as f64,
    );
    common::emit_cache(&mut out, &s0, &s1, acc.ops);
    common::emit_chunk_ratio(&mut out, &c0, &c1);
    let stored: u64 = (0..DATASETS)
        .map(|i| common::stored_bytes(&inst.ada, &name(i)))
        .sum();
    out.set(
        "plfs.stored_bytes_per_raw_byte",
        harness::ratio(stored as f64, inst.raw_bytes as f64),
    );
    acc.emit_common(&mut out, untraced_p50);
    out.note(
        "server/frontend histograms cover the instance since it was built \
         (set-up pings and warm-up included); counters are traced-phase deltas",
    );
    common::write_spans(&mut out, "remote_vmd", args.seed, &acc);
    Ok(out)
}
