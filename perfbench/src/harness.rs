//! Shared harness: arguments, repeated set-up, the closed-loop timed
//! phase, the end-to-end metric arithmetic and the result line.

use crate::catalog::{unit_of, END_TO_END, PER_LAYER};
use crate::procfs::{peak_rss_mib, process_cpu_ns, steal_ns, ThreadCpu};
use crate::stats;
use ada_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// MiB in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of one timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Set in the child processes of an untraced run (`--child <n>`):
    /// measure in this process for at least `n` ops and print the raw
    /// measurements for the parent to pool.
    pub child_min_ops: Option<usize>,
}

/// Child processes an untraced run splits `--seconds` over. Their
/// measurements are pooled, which evens out the per-process differences
/// (memory layout, allocator state) that stay fixed for a process's
/// lifetime.
pub const PROCESSES: usize = 3;

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <remote_vmd|sampling_local|ingest_local|all> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// Parse `--workload --seed --seconds --trace` (all required) and the
/// internal `--child`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = match k.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--child" => k.as_str(),
            other => return Err(format!("unknown argument '{}'", other)),
        };
        let v = it.next().ok_or_else(|| format!("{} needs a value", key))?;
        kv.insert(key, v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {}", k));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let child_min_ops = kv
        .get("--child")
        .map(|n| {
            n.parse()
                .map_err(|_| "--child must be an op count".to_string())
        })
        .transpose()?;
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer".to_string())?,
        seconds,
        trace,
        child_min_ops,
    })
}

/// Worker threads the program may use: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build an instance `SETUP_REPEATS` times, timing each build; earlier
/// instances are dropped before the next is built, so only one is ever
/// alive. Returns the last instance and every set-up time in seconds.
pub fn repeat_setup<I>(
    mut build: impl FnMut() -> Result<I, String>,
) -> Result<(I, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut inst: Option<I> = None;
    for _ in 0..SETUP_REPEATS {
        drop(inst.take());
        let t = Instant::now();
        inst = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    inst.map(|i| (i, times))
        .ok_or_else(|| "no set-up ran".to_string())
}

/// Outcome of one op, as the op closure reports it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpResult {
    /// Latency from the call until the caller holds the result; `None`
    /// when the call failed.
    pub lat_ns: Option<u64>,
    /// Decoded bytes delivered (raw bytes ingested for ingest).
    pub bytes: u64,
    /// The call succeeded and its output passed the check.
    pub ok: bool,
    /// CPU the load thread spent checking the output (excluded from the
    /// CPU metrics).
    pub check_cpu_ns: u64,
}

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    /// Load threads (closed loop: one outstanding op each).
    pub threads: usize,
    /// Minimum wall time.
    pub seconds: f64,
    /// Minimum completed ops (the phase runs past `seconds` until it has
    /// them, up to four times `seconds`).
    pub min_ops: usize,
}

impl LoopSpec {
    /// Each phase of a traced run: the traced phase and the untraced one
    /// it is compared with get half the time each, with no minimum op
    /// count (only medians are taken from them).
    pub fn half(self) -> LoopSpec {
        LoopSpec {
            seconds: self.seconds / 2.0,
            min_ops: 0,
            ..self
        }
    }
}

/// What a timed phase measured.
#[derive(Debug)]
pub struct Phase<S> {
    /// Per-thread state, returned for per-layer aggregation.
    pub states: Vec<S>,
    /// Latencies of the ops that succeeded.
    pub lat_ns: Vec<u64>,
    /// Bytes those ops delivered.
    pub bytes: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or produced wrong output.
    pub failed: u64,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Process CPU over the phase minus output checks.
    pub cpu_ns: u64,
    /// Load-thread CPU over the phase minus output checks.
    pub client_cpu_ns: u64,
    /// Host-wide hypervisor steal time over the phase.
    pub steal_ns: u64,
}

impl<S> Phase<S> {
    /// Median op latency in ms.
    pub fn p50_ms(&self) -> f64 {
        stats::median_ms(&self.lat_ns)
    }
}

/// The end-to-end measurements of one process: what a multi-process run
/// pools.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Raw {
    /// Every set-up time, s.
    pub setup_s: Vec<f64>,
    /// Latencies of the ops that succeeded.
    pub lat_ns: Vec<u64>,
    /// Bytes delivered.
    pub bytes: u64,
    /// Timed wall time, s.
    pub wall_s: f64,
    /// Process CPU minus output checks.
    pub cpu_ns: u64,
    /// Load-thread CPU minus output checks.
    pub client_cpu_ns: u64,
    /// VmHWM at the end, MiB.
    pub peak_rss_mib: f64,
    /// Host-wide hypervisor steal time over the timed phase.
    pub steal_ns: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

impl Raw {
    /// The measurements of a process that set up `setup_s` times and then
    /// ran `phase`.
    pub fn new<S>(setup_s: &[f64], phase: &Phase<S>) -> Raw {
        Raw {
            setup_s: setup_s.to_vec(),
            lat_ns: phase.lat_ns.clone(),
            bytes: phase.bytes,
            wall_s: phase.wall_s,
            cpu_ns: phase.cpu_ns,
            client_cpu_ns: phase.client_cpu_ns,
            peak_rss_mib: peak_rss_mib().unwrap_or(0.0),
            steal_ns: phase.steal_ns,
            attempted: phase.attempted,
            failed: phase.failed,
        }
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        let nums = |v: Vec<Value>| Value::Arr(v);
        Value::obj(vec![
            (
                "setup_s",
                nums(self.setup_s.iter().map(|&s| Value::Num(s)).collect()),
            ),
            (
                "lat_ns",
                nums(self.lat_ns.iter().map(|&l| Value::num_u(l)).collect()),
            ),
            ("bytes", Value::num_u(self.bytes)),
            ("wall_s", Value::Num(self.wall_s)),
            ("cpu_ns", Value::num_u(self.cpu_ns)),
            ("client_cpu_ns", Value::num_u(self.client_cpu_ns)),
            ("peak_rss_mib", Value::Num(self.peak_rss_mib)),
            ("steal_ns", Value::num_u(self.steal_ns)),
            ("attempted", Value::num_u(self.attempted)),
            ("failed", Value::num_u(self.failed)),
        ])
        .to_json()
    }

    /// Parse [`Raw::to_json`] output.
    pub fn from_json(text: &str) -> Result<Raw, String> {
        let v = ada_json::parse(text.as_bytes()).map_err(|e| e.to_string())?;
        let num = |k: &str| match v.get(k) {
            Some(Value::Num(x)) => Ok(*x),
            _ => Err(format!("raw result lacks {}", k)),
        };
        let arr = |k: &str| -> Result<Vec<f64>, String> {
            v.get(k)
                .and_then(|a| a.as_arr().ok())
                .ok_or(format!("raw result lacks {}", k))?
                .iter()
                .map(|x| match x {
                    Value::Num(x) => Ok(*x),
                    _ => Err(format!("non-number in {}", k)),
                })
                .collect()
        };
        Ok(Raw {
            setup_s: arr("setup_s")?,
            lat_ns: arr("lat_ns")?.into_iter().map(|x| x as u64).collect(),
            bytes: num("bytes")? as u64,
            wall_s: num("wall_s")?,
            cpu_ns: num("cpu_ns")? as u64,
            client_cpu_ns: num("client_cpu_ns")? as u64,
            peak_rss_mib: num("peak_rss_mib")?,
            steal_ns: num("steal_ns")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
        })
    }
}

/// Run `op` in a closed loop on `spec.threads` threads, each owning one
/// state from `states`. `op` gets the thread's state, its CPU clock and a
/// process-wide op index.
pub fn closed_loop<S: Send>(
    spec: LoopSpec,
    states: Vec<S>,
    op: impl Fn(&mut S, &ThreadCpu, u64) -> OpResult + Sync,
) -> Phase<S> {
    assert_eq!(states.len(), spec.threads, "one state per load thread");
    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let (cpu0, steal0) = (process_cpu_ns().unwrap_or(0), steal_ns());
    let t0 = Instant::now();
    let max_s = spec.seconds * 4.0;
    struct Out<S> {
        state: S,
        lat_ns: Vec<u64>,
        bytes: u64,
        attempted: u64,
        failed: u64,
        cpu_ns: u64,
        check_ns: u64,
    }
    let outs: Vec<Out<S>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut state| {
                let (next, done, op) = (&next, &done, &op);
                scope.spawn(move || {
                    let cpu = ThreadCpu::open();
                    let c0 = cpu.now_ns();
                    let (mut lat_ns, mut bytes) = (Vec::new(), 0u64);
                    let (mut attempted, mut failed, mut check_ns) = (0u64, 0u64, 0u64);
                    loop {
                        let el = t0.elapsed().as_secs_f64();
                        let enough = done.load(Ordering::Relaxed) >= spec.min_ops as u64;
                        if (el >= spec.seconds && enough) || el >= max_s {
                            break;
                        }
                        let r = op(&mut state, &cpu, next.fetch_add(1, Ordering::Relaxed));
                        attempted += 1;
                        check_ns += r.check_cpu_ns;
                        if let (Some(lat), true) = (r.lat_ns, r.ok) {
                            lat_ns.push(lat);
                            bytes += r.bytes;
                        } else {
                            failed += 1;
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    Out {
                        cpu_ns: cpu.now_ns().saturating_sub(c0),
                        state,
                        lat_ns,
                        bytes,
                        attempted,
                        failed,
                        check_ns,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
    let steal = steal_ns().saturating_sub(steal0);
    let check_ns: u64 = outs.iter().map(|o| o.check_ns).sum();
    let mut phase = Phase {
        states: Vec::with_capacity(outs.len()),
        lat_ns: Vec::new(),
        bytes: 0,
        attempted: 0,
        failed: 0,
        wall_s,
        cpu_ns: cpu_ns.saturating_sub(check_ns),
        steal_ns: steal,
        client_cpu_ns: outs
            .iter()
            .map(|o| o.cpu_ns)
            .sum::<u64>()
            .saturating_sub(check_ns),
    };
    for o in outs {
        phase.lat_ns.extend(o.lat_ns);
        phase.bytes += o.bytes;
        phase.attempted += o.attempted;
        phase.failed += o.failed;
        phase.states.push(o.state);
    }
    phase
}

/// `(op − covered) / op` as a percentage: the share of op time that no
/// layer span covers (0 when there were no ops).
pub fn residual_pct(op_ns: u64, covered_ns: u64) -> f64 {
    if op_ns == 0 {
        return 0.0;
    }
    (op_ns as f64 - covered_ns as f64) / op_ns as f64 * 100.0
}

/// How much slower the traced op median is than the untraced one, in
/// percent.
pub fn trace_overhead_pct(traced_p50_ms: f64, untraced_p50_ms: f64) -> f64 {
    if untraced_p50_ms <= 0.0 {
        return 0.0;
    }
    (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0
}

/// `num / den`, 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result of one run: metrics plus human-readable notes.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Ops attempted (set-up checks included).
    pub attempted: u64,
    /// Ops that failed or produced wrong output.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind a metric, where it has one.
    pub samples: BTreeMap<&'static str, usize>,
    /// Context lines printed before the result (seed, config, counts).
    pub notes: Vec<String>,
    /// This process's raw end-to-end measurements (untraced runs).
    pub raw: Option<Raw>,
}

impl RunOutput {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {}", name);
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Set a metric with its sample count.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.set(name, value);
        self.samples.insert(name, n);
    }

    /// Add a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Account an untraced phase: its op counts, its raw measurements and
    /// the end-to-end metrics they give.
    pub fn untraced<S>(&mut self, setup_s: &[f64], phase: &Phase<S>) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        let raw = Raw::new(setup_s, phase);
        self.end_to_end(std::slice::from_ref(&raw));
        self.raw = Some(raw);
    }

    /// Fill in the end-to-end metrics from the raw measurements of one or
    /// more processes: pooled, except `op_p99_ms`, which is the median of
    /// the processes' own p99s, so a stall that hits one process's tail
    /// does not decide the run's.
    pub fn end_to_end(&mut self, parts: &[Raw]) {
        let mut lat: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.lat_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        let n = lat.len();
        let sum = |f: fn(&Raw) -> f64| parts.iter().map(f).sum::<f64>();
        let ops = n.max(1) as f64;
        let setups: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mib).collect();
        self.set_n("setup_s", stats::median(&setups), setups.len());
        self.set_n(
            "op_p50_ms",
            stats::percentile_sorted(&lat, 50.0) as f64 / 1e6,
            n,
        );
        let p99s: Vec<f64> = parts
            .iter()
            .map(|p| {
                let mut own = p.lat_ns.clone();
                own.sort_unstable();
                stats::percentile_sorted(&own, 99.0) as f64 / 1e6
            })
            .collect();
        self.set_n("op_p99_ms", stats::median(&p99s), n);
        self.set_n(
            "mib_per_s",
            ratio(sum(|p| p.bytes as f64) / MIB, sum(|p| p.wall_s)),
            n,
        );
        self.set_n("cpu_ms_per_op", sum(|p| p.cpu_ns as f64) / 1e6 / ops, n);
        self.set_n(
            "client_cpu_ms_per_op",
            sum(|p| p.client_cpu_ns as f64) / 1e6 / ops,
            n,
        );
        self.set_n(
            "peak_rss_mib",
            rss.iter().copied().fold(0.0, f64::max),
            rss.len(),
        );
        let fewest = parts.iter().map(|p| p.lat_ns.len()).min().unwrap_or(0);
        self.note(format!(
            "{} ops from {} process(es), {:.2} s timed; op_p99_ms is the median of the \
             processes' p99s {:?} ms, each with >= {} samples beyond it; highest percentile \
             with {} beyond in every process: {}",
            n,
            parts.len(),
            sum(|p| p.wall_s),
            p99s,
            stats::samples_beyond(fewest, 99.0),
            stats::MIN_BEYOND,
            stats::tail_percentile(fewest).map_or("none".to_string(), |p| format!("p{}", p))
        ));
        self.note(format!(
            "host steal during the timed phases: {:.2} s, {:.1}% of one CPU (the hypervisor \
             running other guests; it slows every metric of the run)",
            sum(|p| p.steal_ns as f64) / 1e9,
            ratio(sum(|p| p.steal_ns as f64) / 1e9, sum(|p| p.wall_s)) * 100.0
        ));
        let (attempted, failed) = (sum(|p| p.attempted as f64), sum(|p| p.failed as f64));
        self.note(format!(
            "error_rate = {} / {} = {}",
            failed,
            attempted,
            ratio(failed, attempted)
        ));
    }

    /// Keep only the metrics of one kind, filling per-layer metrics this
    /// workload does not exercise with 0.
    pub fn select(&mut self, trace: bool) {
        if trace {
            for m in &PER_LAYER {
                self.metrics.entry(m.name).or_insert(0.0);
            }
            self.metrics
                .retain(|n, _| PER_LAYER.iter().any(|m| m.name == *n));
        } else {
            self.metrics
                .retain(|n, _| END_TO_END.iter().any(|m| m.name == *n));
        }
    }

    /// Human-readable lines, then the JSON result line.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {}: {}\n", workload, n));
        }
        for (name, v) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            let n = self
                .samples
                .get(name)
                .map_or(String::new(), |n| format!(" (n={})", n));
            let moves = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .map_or(String::new(), |m| {
                    format!(
                        "  [{}; watched on {}; moves {}]",
                        m.how,
                        m.workloads.join("+"),
                        m.moves
                    )
                });
            out.push_str(&format!(
                "# {}: {} = {} {}{}{}\n",
                workload, name, v, unit, n, moves
            ));
        }
        out.push_str(&self.json_line());
        out.push('\n');
        out
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name,
                    v,
                    unit_of(name).unwrap_or("")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload remote_vmd --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "remote_vmd");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.child_min_ops, None);
        let a = parse_args(&argv(
            "--workload w --seed 1 --seconds 1 --trace 0 --child 334",
        ));
        assert_eq!(a.unwrap().child_min_ops, Some(334));
        assert!(parse_args(&argv(
            "--workload w --seed 1 --seconds 1 --trace 0 --child x"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload x --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn residual_is_the_uncovered_share() {
        assert_eq!(residual_pct(1_000, 750), 25.0);
        assert_eq!(residual_pct(1_000, 1_000), 0.0);
        // Replays that take longer than the op leave a negative residual.
        assert_eq!(residual_pct(1_000, 1_100), -10.0);
        assert_eq!(residual_pct(0, 5), 0.0);
    }

    #[test]
    fn trace_overhead_compares_medians() {
        assert!((trace_overhead_pct(11.0, 10.0) - 10.0).abs() < 1e-9);
        assert!((trace_overhead_pct(9.5, 10.0) + 5.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn closed_loop_counts_every_op() {
        let spec = LoopSpec {
            threads: 2,
            seconds: 0.05,
            min_ops: 50,
        };
        let phase = closed_loop(spec, vec![0u64, 0u64], |n, _, i| {
            *n += 1;
            OpResult {
                lat_ns: Some(1_000),
                bytes: 10,
                ok: i % 10 != 0,
                check_cpu_ns: 0,
            }
        });
        let per_thread: u64 = phase.states.iter().sum();
        assert_eq!(per_thread, phase.attempted);
        assert!(phase.attempted >= 50);
        assert_eq!(phase.lat_ns.len() as u64 + phase.failed, phase.attempted);
        assert_eq!(phase.bytes, phase.lat_ns.len() as u64 * 10);
    }

    fn raw(lat_ms: &[u64], rss: f64) -> Raw {
        Raw {
            setup_s: vec![0.25, 0.5],
            lat_ns: lat_ms.iter().map(|ms| ms * 1_000_000).collect(),
            bytes: 1 << 20,
            wall_s: 1.0,
            cpu_ns: 2_000_000,
            client_cpu_ns: 1_000_000,
            peak_rss_mib: rss,
            steal_ns: 10_000_000,
            attempted: lat_ms.len() as u64,
            failed: 0,
        }
    }

    #[test]
    fn raw_measurements_round_trip_through_json() {
        let r = raw(&[1, 2, 3_000], 12.5);
        assert_eq!(Raw::from_json(&r.to_json()).unwrap(), r);
        assert!(Raw::from_json("{}").is_err());
    }

    #[test]
    fn processes_pool_except_the_p99_median_and_the_rss_max() {
        // 100 ops each; process 1 has a heavy tail.
        let mut slow = vec![10u64; 100];
        slow[98] = 500;
        slow[99] = 900;
        let parts = [
            raw(&[10; 100], 40.0),
            raw(&slow, 60.0),
            raw(&[20; 100], 50.0),
        ];
        let mut out = RunOutput::default();
        out.end_to_end(&parts);
        let m = |n: &str| out.metrics[n];
        assert_eq!(m("op_p99_ms"), 20.0); // median of 10, 500, 20
        assert_eq!(m("op_p50_ms"), 10.0); // pooled
        assert_eq!(m("peak_rss_mib"), 60.0);
        assert_eq!(m("setup_s"), 0.375);
        assert_eq!(m("mib_per_s"), 1.0);
        assert_eq!(m("cpu_ms_per_op"), 6.0 / 300.0);
        assert_eq!(m("client_cpu_ms_per_op"), 3.0 / 300.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput {
            attempted: 3,
            ..RunOutput::default()
        };
        out.set("op_p50_ms", 1.25);
        out.set("core.query_ms_p50", 0.5);
        out.select(false);
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        out.failed = 1;
        assert!(!out.correct());
    }
}
