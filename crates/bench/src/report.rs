//! One report schema for the six self-timed suites under `benches/`.
//!
//! Every suite writes the same envelope through [`main`]: `schema`,
//! `mode` (`full` or `smoke`), the host's `parallelism`, the git `rev`,
//! one [`Record`] per measured variant, and a `derived` object holding
//! the figures the suite's claims rest on. `main` then checks the report
//! against its suite's entry in the table below ([`ONLINE_RUNTIME`]
//! through [`RECONFIG_CHURN`]). That table holds every schema rule and
//! every floor, so a floor is added or moved in one place. This module's
//! tests validate the checked-in `results/BENCH_*.json` reports against it.

use std::num::NonZeroUsize;
use std::process::Command;

use serde_json::Value;

use Need::{AtLeast, AtMost, Number, Positive, Str, True, Uint, Zero};
use When::{Always, Full, FullParallel, FullSerial};

/// What a report field must hold.
#[derive(Clone, Copy)]
pub(crate) enum Need {
    /// The boolean `true`.
    True,
    /// A string.
    Str,
    /// An unsigned integer.
    Uint,
    /// Any number.
    Number,
    /// A number above zero.
    Positive,
    /// A number equal to zero.
    Zero,
    /// A number at or above the threshold.
    AtLeast(f64),
    /// A number at or below the threshold.
    AtMost(f64),
}

impl Need {
    fn holds(self, value: Option<&Value>) -> bool {
        match self {
            True => matches!(value, Some(Value::Bool(true))),
            Str => value.and_then(Value::as_str).is_some(),
            Uint => matches!(value, Some(Value::UInt(_))),
            _ => value.and_then(number).is_some_and(|x| match self {
                Positive => x > 0.0,
                Zero => x == 0.0,
                AtLeast(floor) => x >= floor,
                AtMost(ceiling) => x <= ceiling,
                _ => true,
            }),
        }
    }

    fn describe(self) -> String {
        match self {
            True => "true".to_string(),
            Str => "a string".to_string(),
            Uint => "an unsigned integer".to_string(),
            Number => "a number".to_string(),
            Positive => "positive".to_string(),
            Zero => "0".to_string(),
            AtLeast(floor) => format!(">= {floor}"),
            AtMost(ceiling) => format!("<= {ceiling}"),
        }
    }
}

/// Which reports a derived rule binds. Smoke runs are sized for CI
/// latency, so ratios and rates bind full reports only.
#[derive(Clone, Copy)]
pub(crate) enum When {
    /// Every report.
    Always,
    /// Full reports.
    Full,
    /// Full reports from a host with two or more hardware threads.
    FullParallel,
    /// Full reports from a host with one hardware thread.
    FullSerial,
}

impl When {
    /// Whether a rule bound by `self` applies to the report `doc`.
    fn binds(self, doc: &Value) -> bool {
        let full = doc.get_field("mode").and_then(Value::as_str) == Some("full");
        let threads = doc.get_field("parallelism").and_then(number);
        match self {
            Always => true,
            Full => full,
            FullParallel => full && threads.is_some_and(|p| p >= 2.0),
            FullSerial => full && threads.is_some_and(|p| p < 2.0),
        }
    }
}

/// Named fields, each with what it must hold.
type Fields = &'static [(&'static str, Need)];

/// One suite's schema: its id, its record shape, and its derived rules.
pub struct Suite {
    /// The bench target (`cargo bench --bench <name>`).
    name: &'static str,
    /// The report's `schema` id.
    schema: &'static str,
    /// The record key carrying a record's size: `processes` or `dim`.
    size_key: &'static str,
    /// Workloads a report must cover.
    workloads: &'static [&'static str],
    /// Detail fields: the records of the listed workloads (every record
    /// when the list is empty) carry each named field, meeting its need.
    details: &'static [(&'static [&'static str], Fields)],
    /// `(key, need, when)`: `derived.key` meets `need` in the reports
    /// `when` selects.
    derived: &'static [(&'static str, Need, When)],
}

// ------------------------------------------------------ the floor table

/// R4: rendezvous fast path and incremental decomposition cache.
pub const ONLINE_RUNTIME: Suite = Suite {
    name: "online_runtime",
    schema: "synctime/bench_online_runtime/v1",
    size_key: "processes",
    workloads: &[],
    details: &[],
    derived: &[],
};

/// R5: sparse offline pipeline against the dense engine.
pub const OFFLINE_PIPELINE: Suite = Suite {
    name: "offline_pipeline",
    schema: "synctime/bench_offline_pipeline/v1",
    size_key: "processes",
    workloads: &[],
    details: &[(&[], &[("mem_proxy_bytes", Uint)])],
    derived: &[
        ("parallel_bit_identical", True, Always),
        ("sparse_seq_speedup_vs_best_dense", Positive, Always),
        ("sparse_seq_speedup_vs_best_dense", AtLeast(10.0), Full),
    ],
};

/// N1: query serving, pipelining, the fabric, kernels and transport.
pub const NET_QUERY: Suite = Suite {
    name: "net_query",
    schema: "synctime/bench_net/v4",
    size_key: "processes",
    workloads: &["query_batch", "fabric", "query_pipeline", "serve", "kernel"],
    details: &[
        (
            &["query", "query_batch", "query_pipeline", "fabric"],
            &[("p50_ns", Uint), ("p99_ns", Uint)],
        ),
        (
            &["query_batch", "fabric"],
            &[
                ("batch_size", Uint),
                ("shards", Uint),
                ("traces", Uint),
                ("bytes_per_query", Number),
            ],
        ),
        (
            &["query_pipeline"],
            &[
                ("window", Uint),
                ("batch_size", Uint),
                ("bytes_per_query", Number),
            ],
        ),
        (
            &["serve"],
            &[("allocs", Uint), ("pumps", Uint), ("batch_size", Uint)],
        ),
        (
            &["kernel"],
            &[
                ("dimension", Uint),
                ("scalar_ns", Uint),
                ("vector_ns", Uint),
                ("speedup_vs_scalar", Number),
            ],
        ),
    ],
    derived: &[
        ("batch16_qps", Number, Always),
        ("batch256_qps", Number, Always),
        ("batch256_speedup_vs_single", Number, Always),
        ("pipeline_window1_qps", Number, Always),
        ("pipeline_window4_qps", Number, Always),
        ("pipeline_window16_qps", Number, Always),
        ("pipeline16_speedup_vs_batch256", Number, Always),
        ("serve_steady_state_allocs", Number, Always),
        ("kernel_merge_speedup_d256", Number, Always),
        ("fabric_aggregate_qps", Number, Always),
        ("fabric_p99_ns", Number, Always),
        ("bytes_per_query_single", Number, Always),
        ("bytes_per_query_batch256", Number, Always),
        ("bytes_per_query_pipeline256", Number, Always),
        // Warm buffers are warm in a smoke run too.
        ("serve_steady_state_allocs", Zero, Always),
        ("query_precedes_qps", AtLeast(10_000.0), Full),
        ("batch256_speedup_vs_single", AtLeast(3.0), Full),
        ("fabric_aggregate_qps", AtLeast(500_000.0), Full),
        ("fabric_p99_ns", AtMost(250_000.0), Full),
        ("pipeline16_speedup_vs_batch256", AtLeast(1.5), Full),
        ("kernel_merge_speedup_d256", AtLeast(1.3), Full),
    ],
};

/// R9: tree clock against dense vector merges (2201.06325).
pub const CLOCK_BACKENDS: Suite = Suite {
    name: "clock_backends",
    schema: "synctime/bench_clocks/v2",
    size_key: "dim",
    workloads: &[],
    details: &[(&[], &[("path", Str)])],
    derived: &[
        ("backends_bit_identical", True, Always),
        ("tree_speedup_sparse_n256", Positive, Always),
        ("tree_speedup_sparse_n256", AtLeast(2.0), Full),
        ("gossip_tree_over_dense", Positive, Always),
    ],
};

/// R11: durable ingestion and replay.
pub const STORE_REPLAY: Suite = Suite {
    name: "store_replay",
    schema: "synctime/bench_store/v1",
    size_key: "dim",
    workloads: &["ingest", "replay"],
    details: &[],
    derived: &[
        ("round_trip_identical", True, Always),
        ("ingest_overhead", Positive, Always),
        // With one hardware thread the writer's CPU serialises with the
        // run, so the wall ratio also bounds the writer's own work.
        ("ingest_overhead", AtMost(1.10), FullParallel),
        ("ingest_overhead", AtMost(1.5), FullSerial),
        ("replay_records_per_sec", Positive, Always),
        ("replay_records_per_sec", AtLeast(20_000.0), Full),
    ],
};

/// R12: live reconfiguration under churn (Theorem 6 per epoch).
pub const RECONFIG_CHURN: Suite = Suite {
    name: "reconfig_churn",
    schema: "synctime/bench_churn/v1",
    size_key: "dim",
    workloads: &["reconfigure", "query"],
    details: &[],
    derived: &[
        ("within_bound", True, Always),
        ("reconfigure_p99_us", Positive, Always),
        ("reconfigure_p99_us", AtMost(50_000.0), Full),
        ("qps_steady", Positive, Always),
        ("qps_during_rebase", Positive, Always),
        ("dip_ratio", Positive, Always),
    ],
};

// ------------------------------------------------------------- records

/// One measured variant of a workload.
pub struct Record {
    /// The workload family.
    pub workload: &'static str,
    /// The variant within the family.
    pub variant: &'static str,
    /// Processes or clock dimension, written under the suite's size key.
    pub size: usize,
    /// Operations performed in the timed window.
    pub ops: u64,
    /// Length of the timed window.
    pub elapsed_ns: u128,
    /// Workload-specific figures.
    pub detail: Value,
}

impl Record {
    /// Operations per second over the timed window (0 for an empty one).
    pub fn ops_per_sec(&self) -> f64 {
        ratio(self.ops as f64, self.elapsed_ns as f64 / 1e9)
    }

    fn to_json(&self, size_key: &str) -> Value {
        obj(vec![
            ("workload", Value::Str(self.workload.to_string())),
            ("variant", Value::Str(self.variant.to_string())),
            (size_key, Value::UInt(self.size as u64)),
            ("ops", Value::UInt(self.ops)),
            ("elapsed_ns", Value::UInt(self.elapsed_ns as u64)),
            ("ops_per_sec", Value::Float(self.ops_per_sec())),
            ("detail", self.detail.clone()),
        ])
    }
}

/// The rate of the first record of `workload`/`variant`, or 0.
pub fn rate(records: &[Record], workload: &str, variant: &str) -> f64 {
    records
        .iter()
        .find(|r| r.workload == workload && r.variant == variant)
        .map_or(0.0, Record::ops_per_sec)
}

/// `num / den`, or 0 when `den` is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A JSON object from its fields, in order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

/// The host's hardware threads, as `std` reports them.
pub(crate) fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
pub(crate) fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// -------------------------------------------------------------- reports

/// The report envelope around a suite's records and derived figures.
fn report(suite: &Suite, smoke: bool, records: &[Record], derived: Value) -> Value {
    obj(vec![
        ("schema", Value::Str(suite.schema.to_string())),
        (
            "mode",
            Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("parallelism", Value::UInt(parallelism() as u64)),
        ("rev", Value::Str(git_rev())),
        (
            "records",
            Value::Array(records.iter().map(|r| r.to_json(suite.size_key)).collect()),
        ),
        ("derived", derived),
    ])
}

/// Checks `doc` against the shared envelope and `suite`'s rows. Returns
/// every violation found (empty = conforming).
fn validate(doc: &Value, suite: &Suite) -> Vec<String> {
    let mut errs = Vec::new();
    let field = |key: &str| doc.get_field(key);
    if field("schema").and_then(Value::as_str) != Some(suite.schema) {
        let got = show(field("schema"));
        errs.push(format!("schema must be \"{}\", got {got}", suite.schema));
    }
    let mode = field("mode").and_then(Value::as_str);
    let full = mode == Some("full");
    if !full && mode != Some("smoke") {
        let got = show(field("mode"));
        errs.push(format!("mode must be \"full\" or \"smoke\", got {got}"));
    }
    let threads = field("parallelism");
    if threads.is_some() && !matches!(threads, Some(Value::UInt(1..))) {
        let got = show(threads);
        errs.push(format!("parallelism must be a positive integer, got {got}"));
    }
    if field("rev").is_some() {
        check(&mut errs, "rev".into(), field("rev"), Str);
    }
    let records = field("records")
        .and_then(Value::as_array)
        .unwrap_or_default();
    if records.is_empty() {
        let got = show(field("records"));
        errs.push(format!("records must be a non-empty array, got {got}"));
    }
    for (i, r) in records.iter().enumerate() {
        for (key, need) in [
            ("workload", Str),
            ("variant", Str),
            (suite.size_key, Uint),
            ("ops", Uint),
            ("elapsed_ns", Uint),
            ("ops_per_sec", Positive),
        ] {
            check(
                &mut errs,
                format!("records[{i}].{key}"),
                r.get_field(key),
                need,
            );
        }
        let detail = r.get_field("detail");
        if !matches!(detail, Some(Value::Object(_))) {
            let got = show(detail);
            errs.push(format!("records[{i}].detail must be an object, got {got}"));
        }
        let workload = r.get_field("workload").and_then(Value::as_str);
        for (workloads, fields) in suite.details {
            if workloads.is_empty() || workload.is_some_and(|w| workloads.contains(&w)) {
                for &(key, need) in *fields {
                    let value = detail.and_then(|d| d.get_field(key));
                    check(&mut errs, format!("records[{i}].detail.{key}"), value, need);
                }
            }
        }
    }
    for workload in suite.workloads {
        let covered = records
            .iter()
            .any(|r| r.get_field("workload").and_then(Value::as_str) == Some(*workload));
        if !covered {
            errs.push(format!("records must cover the \"{workload}\" workload"));
        }
    }
    let derived = field("derived");
    if !matches!(derived, Some(Value::Object(_))) {
        let got = show(derived);
        errs.push(format!("derived must be an object, got {got}"));
    }
    let by_threads = |when: When| matches!(when, FullParallel | FullSerial);
    if full && threads.is_none() && suite.derived.iter().any(|rule| by_threads(rule.2)) {
        errs.push("a full report must record parallelism: a floor binds by it".to_string());
    }
    for &(key, need, when) in suite.derived {
        if when.binds(doc) {
            let value = derived.and_then(|d| d.get_field(key));
            check(&mut errs, format!("derived.{key}"), value, need);
        }
    }
    errs
}

fn check(errs: &mut Vec<String>, path: String, value: Option<&Value>, need: Need) {
    if !need.holds(value) {
        let got = show(value);
        errs.push(format!("{path} must be {}, got {got}", need.describe()));
    }
}

/// A field's value as compact JSON, for a violation message.
fn show(value: Option<&Value>) -> String {
    value.map_or_else(
        || "nothing".to_string(),
        |v| serde_json::to_string(v).expect("a Value serialises"),
    )
}

/// A suite's whole `main`: runs it, writes the report to stdout (or to
/// the path after `--out`), validates it, and exits 1 on any violation.
/// `--smoke` shrinks the suite to CI scale; every other argument (cargo's
/// `--bench`, filters) is ignored.
pub fn main(suite: &Suite, run_suite: fn(bool) -> (Vec<Record>, Value)) {
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out expects a path")),
            _ => {}
        }
    }
    let (records, derived) = run_suite(smoke);
    let doc = report(suite, smoke, &records, derived);
    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&doc).expect("report serialises")
    );
    let name = suite.name;
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("{name}: report written to {path}");
        }
        None => print!("{rendered}"),
    }
    let errs = validate(&doc, suite);
    for e in &errs {
        eprintln!("{name}: SCHEMA VIOLATION: {e}");
    }
    if !errs.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every suite with its checked-in full report.
    const CHECKED_IN: [(&Suite, &str); 6] = [
        (
            &ONLINE_RUNTIME,
            include_str!("../../../results/BENCH_online_runtime.json"),
        ),
        (
            &OFFLINE_PIPELINE,
            include_str!("../../../results/BENCH_offline_pipeline.json"),
        ),
        (&NET_QUERY, include_str!("../../../results/BENCH_net.json")),
        (
            &CLOCK_BACKENDS,
            include_str!("../../../results/BENCH_clocks.json"),
        ),
        (
            &STORE_REPLAY,
            include_str!("../../../results/BENCH_store.json"),
        ),
        (
            &RECONFIG_CHURN,
            include_str!("../../../results/BENCH_churn.json"),
        ),
    ];

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("a checked-in report is JSON")
    }

    /// The field at `path` inside nested objects, created if absent.
    fn field_mut<'a>(doc: &'a mut Value, path: &[&str]) -> &'a mut Value {
        path.iter().fold(doc, |v, key| {
            let Value::Object(fields) = v else {
                panic!("{key}: not inside an object")
            };
            let at = match fields.iter().position(|(k, _)| k == key) {
                Some(at) => at,
                None => {
                    fields.push((key.to_string(), Value::Null));
                    fields.len() - 1
                }
            };
            &mut fields[at].1
        })
    }

    fn records_mut(doc: &mut Value) -> &mut Vec<Value> {
        match field_mut(doc, &["records"]) {
            Value::Array(records) => records,
            _ => panic!("records is not an array"),
        }
    }

    /// The nearest value that breaks `need`.
    fn just_past(need: Need) -> Value {
        match need {
            True => Value::Bool(false),
            Str | Uint | Number => Value::Str("1".to_string()),
            Positive => Value::Float(0.0),
            Zero => Value::UInt(1),
            AtLeast(floor) => Value::Float(f64::from_bits(floor.to_bits() - 1)),
            AtMost(ceiling) => Value::Float(f64::from_bits(ceiling.to_bits() + 1)),
        }
    }

    #[test]
    fn checked_in_reports_validate() {
        for (suite, text) in CHECKED_IN {
            assert_eq!(
                validate(&parse(text), suite),
                Vec::<String>::new(),
                "{}",
                suite.name
            );
        }
    }

    #[test]
    fn every_binding_rule_fails_its_report_just_past_its_threshold() {
        let mut checked = 0;
        for (suite, text) in CHECKED_IN {
            let doc = parse(text);
            for &(key, need, when) in suite.derived {
                if !when.binds(&doc) {
                    continue;
                }
                let mut broken = doc.clone();
                *field_mut(&mut broken, &["derived", key]) = just_past(need);
                let errs = validate(&broken, suite);
                let path = format!("derived.{key} must be {}", need.describe());
                assert!(
                    errs.iter().any(|e| e.starts_with(&path)),
                    "{}: {path} did not fail: {errs:?}",
                    suite.name
                );
                // The threshold itself passes: every bound is inclusive.
                if let AtLeast(t) | AtMost(t) = need {
                    *field_mut(&mut broken, &["derived", key]) = Value::Float(t);
                    assert_eq!(validate(&broken, suite), Vec::<String>::new());
                }
                checked += 1;
            }
        }
        // Every derived rule of the five suites that have any, bar the
        // store's ceiling for hosts its report was not recorded on.
        let rules: usize = CHECKED_IN.iter().map(|(s, _)| s.derived.len()).sum();
        assert_eq!(checked, rules - 1);
    }

    #[test]
    fn wrong_schema_missing_workload_and_mistyped_detail_fail() {
        let net = parse(CHECKED_IN[2].1);
        let fails = |doc: &Value, suite: &Suite, prefix: &str| {
            let errs = validate(doc, suite);
            assert!(
                errs.iter().any(|e| e.starts_with(prefix)),
                "no {prefix:?} in {errs:?}"
            );
        };

        let mut doc = net.clone();
        *field_mut(&mut doc, &["schema"]) = Value::Str("synctime/bench_net/v3".to_string());
        fails(&doc, &NET_QUERY, "schema must be");
        fails(&net, &CLOCK_BACKENDS, "schema must be");

        let mut doc = net.clone();
        records_mut(&mut doc)
            .retain(|r| r.get_field("workload") != Some(&Value::Str("kernel".into())));
        fails(
            &doc,
            &NET_QUERY,
            "records must cover the \"kernel\" workload",
        );

        let mut doc = net.clone();
        *field_mut(&mut records_mut(&mut doc)[0], &["detail", "p99_ns"]) = Value::Float(1.0);
        fails(
            &doc,
            &NET_QUERY,
            "records[0].detail.p99_ns must be an unsigned integer",
        );

        // The churn suite's records meet the shared envelope too.
        let mut churn = parse(CHECKED_IN[5].1);
        *field_mut(&mut records_mut(&mut churn)[1], &["detail"]) = Value::Null;
        fails(
            &churn,
            &RECONFIG_CHURN,
            "records[1].detail must be an object",
        );
        records_mut(&mut churn).clear();
        fails(&churn, &RECONFIG_CHURN, "records must be a non-empty array");
    }

    #[test]
    fn report_records_parallelism_and_rev_and_validates() {
        let records = [Record {
            workload: "sparse_delta",
            variant: "tree",
            size: 16,
            ops: 10,
            elapsed_ns: 1_000,
            detail: obj(vec![("path", Value::Str("delta".to_string()))]),
        }];
        let derived = obj(vec![
            ("tree_speedup_sparse_n256", Value::Float(1.0)),
            ("gossip_tree_over_dense", Value::Float(1.0)),
            ("backends_bit_identical", Value::Bool(true)),
        ]);
        let doc = report(&CLOCK_BACKENDS, true, &records, derived);
        assert_eq!(
            doc.get_field("parallelism"),
            Some(&Value::UInt(parallelism() as u64))
        );
        assert!(doc
            .get_field("rev")
            .and_then(Value::as_str)
            .is_some_and(|r| !r.is_empty()));
        assert_eq!(
            doc.get_field("records")
                .and_then(Value::as_array)
                .map(|r| r[0].get_field("dim")),
            Some(Some(&Value::UInt(16)))
        );
        assert_eq!(validate(&doc, &CLOCK_BACKENDS), Vec::<String>::new());
    }

    #[test]
    fn full_store_report_without_parallelism_fails() {
        let mut doc = parse(CHECKED_IN[4].1);
        let Value::Object(fields) = &mut doc else {
            panic!("a report is an object")
        };
        fields.retain(|(k, _)| k != "parallelism");
        assert_eq!(
            validate(&doc, &STORE_REPLAY),
            vec!["a full report must record parallelism: a floor binds by it".to_string()]
        );
    }
}
