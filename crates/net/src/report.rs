//! The node-report interchange format for distributed runs.
//!
//! When a computation runs as N OS processes (`synctime launch --transport
//! tcp`), each node observes only its own side of every rendezvous. To
//! rebuild the run-wide trace, every `serve-node` prints a **node report**
//! — its execution log, outcome, reconfiguration cuts and [`RunStats`] — as
//! one JSON document (schema `synctime/node_report/v2`), and the launcher
//! merges them with `reconstruct_from_logs` + [`RunStats::merged`].
//!
//! The log travels in the store's record format, not as JSON: the `log`
//! field is the lowercase hex of [`encode_log`]'s bytes, exactly the
//! framed records `persist_logs` writes for that process, and
//! [`decode_log`] reads them back strictly. The JSON envelope carries only
//! the small fields around it.

use serde::{Deserialize, Serialize, Value};
use synctime_obs::RunStats;
use synctime_runtime::LogEntry;
use synctime_store::{decode_log, encode_log};

use crate::error::NetError;

/// Schema tag stamped on every serialized report.
pub const NODE_REPORT_SCHEMA: &str = "synctime/node_report/v2";

/// One OS process's view of a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Which process this node ran.
    pub process: usize,
    /// `None` for a clean finish, else the rendered runtime error.
    pub outcome: Option<String>,
    /// The node's execution log, in program order (for a churn run, all
    /// epochs concatenated).
    pub log: Vec<LogEntry>,
    /// This node's log length at each reconfiguration boundary, in epoch
    /// order — empty for a single-epoch run. The launcher assembles these
    /// per-process cuts into the store's reconfiguration records.
    pub cuts: Vec<u64>,
    /// The node's side of the run's wire/latency accounting.
    pub stats: RunStats,
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, NetError> {
    v.get_field(name)
        .ok_or_else(|| NetError::Protocol(format!("node report missing field `{name}`")))
}

/// The lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Renders `bytes` as lowercase hex, two digits per byte.
fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(2 * bytes.len());
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Parses [`to_hex`]'s output. Anything else, an uppercase digit
/// included, is refused.
fn from_hex(text: &str) -> Result<Vec<u8>, NetError> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return Err(NetError::Protocol(format!(
            "node report `log` has an odd hex length {}",
            digits.len()
        )));
    }
    let nibble = |at: usize| match digits[at] {
        c @ b'0'..=b'9' => Ok(c - b'0'),
        c @ b'a'..=b'f' => Ok(c - b'a' + 10),
        _ => Err(NetError::Protocol(format!(
            "node report `log` has a non-hex digit at byte {at}"
        ))),
    };
    (0..digits.len())
        .step_by(2)
        .map(|at| Ok(nibble(at)? << 4 | nibble(at + 1)?))
        .collect()
}

impl NodeReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let outcome = match &self.outcome {
            Some(detail) => Value::Str(detail.clone()),
            None => Value::Null,
        };
        let mut records = Vec::new();
        encode_log(&mut records, self.process, &self.log);
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str(NODE_REPORT_SCHEMA.to_string()),
            ),
            ("process".to_string(), Value::UInt(self.process as u64)),
            ("outcome".to_string(), outcome),
            ("log".to_string(), Value::Str(to_hex(&records))),
            (
                "cuts".to_string(),
                Value::Array(self.cuts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("stats".to_string(), self.stats.to_value()),
        ]);
        serde_json::to_string_pretty(&doc).expect("node report serialises infallibly")
    }

    /// Parses a report previously produced by [`NodeReport::to_json`].
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on malformed JSON, a wrong or missing schema
    /// tag, any shape mismatch, a `log` that is not lowercase hex of even
    /// length, or log records that [`decode_log`] refuses.
    pub fn from_json(text: &str) -> Result<Self, NetError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| NetError::Protocol(format!("node report is not JSON: {e}")))?;
        match field(&doc, "schema")?.as_str() {
            Some(NODE_REPORT_SCHEMA) => {}
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "unsupported node report schema `{other}`"
                )))
            }
            None => {
                return Err(NetError::Protocol(
                    "node report `schema` is not a string".to_string(),
                ))
            }
        }
        let process = usize::from_value(field(&doc, "process")?)
            .map_err(|e| NetError::Protocol(format!("node report `process`: {e}")))?;
        let outcome = match field(&doc, "outcome")? {
            Value::Null => None,
            Value::Str(detail) => Some(detail.clone()),
            other => {
                return Err(NetError::Protocol(format!(
                    "node report `outcome` is {}, expected string or null",
                    other.type_name()
                )))
            }
        };
        let hex = field(&doc, "log")?
            .as_str()
            .ok_or_else(|| NetError::Protocol("node report `log` is not a string".to_string()))?;
        let log = decode_log(process, &from_hex(hex)?)
            .map_err(|e| NetError::Protocol(format!("node report `log`: {e}")))?;
        let cuts = Vec::<u64>::from_value(field(&doc, "cuts")?)
            .map_err(|e| NetError::Protocol(format!("node report `cuts`: {e}")))?;
        let stats = RunStats::from_value(field(&doc, "stats")?)
            .map_err(|e| NetError::Protocol(format!("node report `stats`: {e}")))?;
        Ok(NodeReport {
            process,
            outcome,
            log,
            cuts,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use synctime_core::VectorTime;
    use synctime_store::record::{encode_meta, encode_reconfig, encode_record, Meta};
    use synctime_store::{record_from_log_entry, ReconfigRecord, FORMAT_VERSION};

    fn sample_report() -> NodeReport {
        NodeReport {
            process: 2,
            outcome: Some("process 1 terminated".to_string()),
            log: vec![
                LogEntry::Sent {
                    to: 1,
                    key: 7,
                    stamp: VectorTime::from(vec![3, 0, 1]),
                },
                LogEntry::Internal,
                LogEntry::Received {
                    from: 0,
                    key: 9,
                    stamp: VectorTime::from(vec![3, 2, 1]),
                },
            ],
            cuts: vec![2, 3],
            stats: RunStats::merged(&[]),
        }
    }

    /// The report's JSON with its `log` field swapped for `hex`, and its
    /// schema for `schema`.
    fn doctored(report: &NodeReport, schema: &str, hex: &str) -> String {
        let Value::Object(mut fields) = serde_json::from_str(&report.to_json()).unwrap() else {
            panic!("a node report is a JSON object");
        };
        for (name, value) in &mut fields {
            match name.as_str() {
                "schema" => *value = Value::Str(schema.to_string()),
                "log" => *value = Value::Str(hex.to_string()),
                _ => {}
            }
        }
        serde_json::to_string(&Value::Object(fields)).unwrap()
    }

    /// The hex `log` field of a report's JSON.
    fn log_hex(report: &NodeReport) -> String {
        let doc: Value = serde_json::from_str(&report.to_json()).unwrap();
        doc.get_field("log").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report();
        let text = report.to_json();
        assert!(text.contains(NODE_REPORT_SCHEMA));
        let back = NodeReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn malformed_reports_are_rejected_with_context() {
        let report = sample_report();
        let hex = log_hex(&report);
        let bytes = from_hex(&hex).unwrap();
        let encoded = |records: &[(u64, u64, &LogEntry)]| {
            let mut out = Vec::new();
            for &(process, pseq, entry) in records {
                encode_record(&mut out, &record_from_log_entry(process, pseq, entry));
            }
            to_hex(&out)
        };
        let [sent, internal, received] = [&report.log[0], &report.log[1], &report.log[2]];
        let mut flipped_crc = bytes.clone();
        flipped_crc[4] ^= 0xff;
        let mut with_reconfig = bytes.clone();
        encode_reconfig(
            &mut with_reconfig,
            &ReconfigRecord {
                epoch: 1,
                cuts: vec![0, 0, 3],
                ops: vec![(0, 1, 2)],
            },
        );
        let mut other_process = Vec::new();
        encode_log(&mut other_process, 1, &report.log);
        let v2 = NODE_REPORT_SCHEMA;
        let cases: Vec<(&str, String, &str)> = vec![
            (
                "synctime/node_report/v1",
                hex.clone(),
                "unsupported node report schema `synctime/node_report/v1`",
            ),
            (v2, format!("{hex}0"), "odd hex length"),
            (v2, hex.to_uppercase(), "non-hex digit"),
            (v2, format!("g{}", &hex[1..]), "non-hex digit at byte 0"),
            (v2, format!("é{}", &hex[2..]), "non-hex digit at byte 0"),
            (v2, hex[..hex.len() - 2].to_string(), "trailing bytes"),
            (v2, to_hex(&flipped_crc), "trailing bytes after record 0"),
            (v2, to_hex(&other_process), "names process 1, not 2"),
            (
                v2,
                encoded(&[(2, 0, sent), (2, 2, internal)]),
                "record 1 of process 2 has pseq 2",
            ),
            (
                v2,
                encoded(&[(2, 0, sent), (2, 1, internal), (2, 1, received)]),
                "record 2 of process 2 has pseq 1",
            ),
            (v2, to_hex(&with_reconfig), "RECONFIG"),
        ];
        for (schema, log, want) in cases {
            match NodeReport::from_json(&doctored(&report, schema, &log)) {
                Err(NetError::Protocol(detail)) => {
                    assert!(detail.contains(want), "{detail:?} lacks {want:?}");
                }
                other => panic!("expected a protocol error naming {want:?}, got {other:?}"),
            }
        }
        assert!(matches!(
            NodeReport::from_json("not json"),
            Err(NetError::Protocol(_))
        ));
        let doc: Value = serde_json::from_str(&report.to_json()).unwrap();
        let Value::Object(fields) = doc else {
            unreachable!()
        };
        for missing in ["schema", "process", "outcome", "log", "cuts", "stats"] {
            let kept = fields.iter().filter(|(n, _)| n != missing).cloned();
            let text = serde_json::to_string(&Value::Object(kept.collect())).unwrap();
            let err = NodeReport::from_json(&text).unwrap_err();
            assert!(err.to_string().contains(missing), "{err}");
        }
    }

    /// Characters that exercise every JSON escape, control characters and
    /// multi-byte UTF-8.
    const OUTCOME_CHARS: &[char] = &[
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日',
        '🦀',
    ];

    fn arb_entry(rng: &mut proptest::TestRng) -> LogEntry {
        let stamp = |rng: &mut proptest::TestRng| {
            let dim = rng.gen_range(0..=40usize);
            VectorTime::from((0..dim).map(|_| arb_u64(rng)).collect::<Vec<_>>())
        };
        match rng.gen_range(0..3) {
            0 => LogEntry::Internal,
            1 => LogEntry::Sent {
                to: arb_u64(rng) as usize,
                key: arb_u64(rng),
                stamp: stamp(rng),
            },
            _ => LogEntry::Received {
                from: arb_u64(rng) as usize,
                key: arb_u64(rng),
                stamp: stamp(rng),
            },
        }
    }

    /// Small values, values at a varint length boundary, and `u64::MAX`,
    /// as well as uniform ones.
    fn arb_u64(rng: &mut proptest::TestRng) -> u64 {
        match rng.gen_range(0..4) {
            0 => rng.gen_range(0..128),
            1 => (1u64 << (7 * rng.gen_range(1..10usize))) - rng.gen_range(0..2u64),
            2 => u64::MAX,
            _ => rng.gen(),
        }
    }

    fn arb_report() -> impl Strategy<Value = NodeReport> {
        proptest::FnStrategy::new(|rng: &mut proptest::TestRng| NodeReport {
            process: rng.gen_range(0..64),
            outcome: rng.gen::<bool>().then(|| {
                let len = rng.gen_range(0..24);
                (0..len)
                    .map(|_| OUTCOME_CHARS[rng.gen_range(0..OUTCOME_CHARS.len())])
                    .collect()
            }),
            log: (0..rng.gen_range(0..48)).map(|_| arb_entry(rng)).collect(),
            cuts: (0..rng.gen_range(0..4)).map(|_| arb_u64(rng)).collect(),
            stats: RunStats::merged(&[]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn random_reports_roundtrip_through_json(report in arb_report()) {
            let back = NodeReport::from_json(&report.to_json());
            prop_assert_eq!(back, Ok(report));
        }
    }

    #[test]
    fn report_logs_concatenate_to_the_persisted_store() {
        use synctime_graph::{decompose, topology};
        use synctime_runtime::Runtime;
        let n = 5;
        let topo = topology::cycle(n);
        let dec = decompose::best_known(&topo);
        let active: Vec<usize> = (0..n).collect();
        let behaviors = active
            .iter()
            .map(|&p| synctime_sim::ring_behavior(&active, p, 7))
            .collect();
        let run = Runtime::new(&topo, &dec).run(behaviors).unwrap();
        let logs = run.logs();
        let root =
            std::env::temp_dir().join(format!("synctime-net-report-test-{}", std::process::id()));
        let store = synctime_store::persist_logs(&root, "ring", logs).unwrap();
        let on_disk = std::fs::read(store.dir().join(synctime_store::LOG_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let mut assembled = Vec::new();
        encode_meta(
            &mut assembled,
            &Meta {
                version: FORMAT_VERSION,
                process_count: n as u64,
                generation: 0,
            },
        );
        for (process, log) in logs.iter().enumerate() {
            let report = NodeReport {
                process,
                outcome: None,
                log: log.clone(),
                cuts: Vec::new(),
                stats: RunStats::merged(&[]),
            };
            assembled.extend(from_hex(&log_hex(&report)).unwrap());
        }
        assert_eq!(assembled, on_disk);
    }
}
