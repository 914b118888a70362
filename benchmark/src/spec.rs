//! The benchmark's contract, read from the repository's `BENCHMARK.json`.
//!
//! The file is compiled in, so the names and units a run prints and the
//! bounds `--self-check` applies cannot drift from what the pipeline reads.

use crate::json::{self, Value};
use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed relative worsening; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parse the compiled-in `BENCHMARK.json`. A malformed file is a bug
    /// in this repository, hence the panics.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).map(Value::items).unwrap_or_default();
        let text = |v: &Value, key: &str| {
            v.get(key).and_then(Value::as_str).expect("string member in BENCHMARK.json").to_owned()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: match text(m, "better").as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("BENCHMARK.json: better = {other:?}"),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds")
                as u64,
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
