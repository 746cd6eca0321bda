//! Short runs of every workload in both modes: the result line carries
//! exactly the catalog's metrics with their units, and — when the
//! repository's `BENCHMARK.json` is present — exactly the metrics it
//! declares.

use ada_json::Value;
use ada_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

fn result_line(workload: &str, trace: u8, dir: &std::path::Path) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string()])
        .current_dir(dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={} failed: {}\n{}",
        workload,
        trace,
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    ada_json::parse(last.as_bytes()).expect("result line is JSON")
}

/// `name → (unit, better)` of one metric list of BENCHMARK.json.
fn declared(kind: &str) -> Option<BTreeMap<String, (String, String)>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read(path).ok()?;
    let bench = ada_json::parse(&text).expect("BENCHMARK.json parses");
    let list = bench.field(kind).and_then(Value::as_arr).expect(kind);
    let field = |m: &Value, k: &str| m.field(k).and_then(Value::as_str).unwrap().to_string();
    Some(
        list.iter()
            .map(|m| (field(m, "name"), (field(m, "unit"), field(m, "better"))))
            .collect(),
    )
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for trace in [0u8, 1] {
        let (kind, catalog): (&str, Vec<(&str, &str, &str)>) = if trace == 0 {
            let m = END_TO_END.iter();
            (
                "end_to_end",
                m.map(|m| (m.name, m.unit, m.better)).collect(),
            )
        } else {
            let m = PER_LAYER.iter();
            ("per_layer", m.map(|m| (m.name, m.unit, m.better)).collect())
        };
        if let Some(file) = declared(kind) {
            let expected: BTreeMap<String, (String, String)> = catalog
                .iter()
                .map(|(n, u, b)| (n.to_string(), (u.to_string(), b.to_string())))
                .collect();
            assert_eq!(
                file, expected,
                "BENCHMARK.json {} differs from the catalog",
                kind
            );
        }
        let want: BTreeMap<String, String> = catalog
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        for w in WORKLOADS {
            let r = result_line(w, trace, &dir);
            let keys: Vec<&str> = r
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.field("correct").unwrap(), &Value::Bool(true), "{}", w);
            assert!(r.field("attempted").unwrap().as_u64().unwrap() >= 1);
            assert_eq!(r.field("failed").unwrap().as_u64().unwrap(), 0);
            let got: BTreeMap<String, String> = r
                .field("metrics")
                .and_then(Value::as_obj)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.field("value"), Ok(Value::Num(v)) if v.is_finite()));
                    (
                        name.clone(),
                        m.field("unit").and_then(Value::as_str).unwrap().into(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{} trace={}", w, trace);
        }
    }
    let spans = std::fs::read_dir(dir.join(".bench_out")).unwrap().count();
    assert_eq!(spans, WORKLOADS.len(), "one span file per traced workload");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "remote_vmd"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}
