//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! the benchmark prints, with the same units, and the result line is
//! well-formed.

use perfbench::report::Report;
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use tlm_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    tlm_json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn manifest_declares_every_printed_metric() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
}

#[test]
fn manifest_declares_every_workload() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn result_line_is_json_with_the_contract_keys() {
    let mut report = Report::new(10, 1);
    report.metric("latency_ms.p50", 1.25, "ms");
    let line = tlm_json::parse(&report.to_json()).expect("result line is JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(10));
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
    let metric = line.get("metrics").and_then(|m| m.get("latency_ms.p50")).expect("metric");
    assert_eq!(metric.get("value").and_then(Value::as_f64), Some(1.25));
    assert_eq!(metric.get("unit").and_then(Value::as_str), Some("ms"));
}
