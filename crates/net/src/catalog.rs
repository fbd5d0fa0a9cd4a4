//! The sharded multi-trace catalog behind the query fabric.
//!
//! PR 5's `serve-query` held exactly one stamped trace. A real service
//! holds many — one per monitored computation — and re-stamps them as the
//! computations grow, all while queries are in flight. This module is the
//! data plane that makes that safe and cheap:
//!
//! * **Snapshots are immutable and shared.** A trace's stamps live in an
//!   `Arc<MessageTimestamps>`; answering a query clones the `Arc` (one
//!   atomic increment), never the table. Publishing a re-stamp swaps the
//!   `Arc` in place — copy-on-write at the granularity of whole traces —
//!   so readers holding the old snapshot keep answering consistently
//!   against the version they started with, and new connections see the
//!   new stamps. Nothing blocks on anything slower than a map lookup.
//! * **Traces are hashed across shards.** Each shard owns a disjoint
//!   subset of trace ids behind its own `RwLock`, so a re-stamp of one
//!   trace contends only with lookups of the ~1/S of traces that share its
//!   shard. A trace's shard is its FNV-1a hash (with a splitmix64
//!   finalizer) modulo the shard count, fixed when the catalog is built:
//!   deterministic across processes and runs, and balanced.
//!
//! The empty trace id resolves to the **default trace** when the catalog
//! holds exactly one, so a client of a single-trace `serve-query` need
//! not know the trace's name.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use synctime_core::MessageTimestamps;

use crate::error::NetError;

/// Shard count `serve-query` uses when `--shards` is not given.
pub const DEFAULT_SHARDS: usize = 4;

/// FNV-1a with a splitmix64 finalizer. Raw FNV-1a leaves the bits of
/// short, structured ids like `trace-7` correlated; the finalizer's
/// avalanche spreads them before the modulo picks a shard.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// One shard: the traces it owns, behind its own lock.
#[derive(Debug, Default)]
struct Shard {
    traces: RwLock<HashMap<String, Arc<MessageTimestamps>>>,
}

/// The sharded, copy-on-write trace catalog the query fabric serves (see
/// the module docs for the concurrency model).
#[derive(Debug)]
pub struct QueryFabric {
    shards: Vec<Shard>,
}

impl QueryFabric {
    /// An empty catalog sharded `shards` ways (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        QueryFabric {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    /// A single-trace catalog: one shard holding `name`, the configuration
    /// every single-trace `serve-query` invocation maps onto.
    pub fn single(name: &str, stamps: MessageTimestamps) -> Self {
        let fabric = QueryFabric::new(1);
        fabric.publish(name, stamps);
        fabric
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns a trace id: its hash modulo the shard count,
    /// so the same id and count pick the same shard in every process and
    /// run.
    pub fn shard_of(&self, trace: &str) -> usize {
        (fnv1a(trace.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Publishes (or republishes) a trace's stamps, returning the new
    /// shared snapshot. This is the copy-on-write step of a re-stamp: the
    /// `Arc` is swapped under the shard's write lock, in-flight readers
    /// keep the snapshot they already cloned, and every later lookup gets
    /// the new one.
    pub fn publish(&self, name: &str, stamps: MessageTimestamps) -> Arc<MessageTimestamps> {
        let snapshot = Arc::new(stamps);
        self.publish_shared(name, Arc::clone(&snapshot));
        snapshot
    }

    /// [`QueryFabric::publish`] for stamps that are already shared: swaps
    /// the catalog entry to the given snapshot without copying the table.
    pub fn publish_shared(&self, name: &str, snapshot: Arc<MessageTimestamps>) {
        let shard = &self.shards[self.shard_of(name)];
        shard
            .traces
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), snapshot);
    }

    /// The current snapshot of a trace, if the catalog holds it. Cloning
    /// the returned `Arc` is the entire cost of "opening" a trace.
    pub fn snapshot(&self, name: &str) -> Option<Arc<MessageTimestamps>> {
        let shard = &self.shards[self.shard_of(name)];
        shard
            .traces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Total number of traces across all shards.
    pub fn trace_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.traces
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// Every trace id in the catalog, sorted.
    pub fn trace_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.traces
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort_unstable();
        names
    }

    /// Resolves a wire trace id to a snapshot. The empty id means "the
    /// default trace": legal only when the catalog holds exactly one trace.
    ///
    /// # Errors
    ///
    /// [`NetError::Query`] when the id is unknown, or when the empty id is
    /// used against a multi-trace catalog.
    pub fn resolve(&self, trace: &str) -> Result<Arc<MessageTimestamps>, NetError> {
        if trace.is_empty() {
            // Walk the shards for the lone snapshot directly — no name
            // list is materialised, so the serving hot path stays
            // allocation-free (an `Arc` clone is the entire cost).
            let mut only: Option<Arc<MessageTimestamps>> = None;
            let mut count = 0usize;
            for shard in &self.shards {
                let traces = shard.traces.read().unwrap_or_else(PoisonError::into_inner);
                count += traces.len();
                if only.is_none() {
                    only = traces.values().next().map(Arc::clone);
                }
            }
            return match (count, only) {
                (1, Some(snapshot)) => Ok(snapshot),
                _ => Err(NetError::Query(format!(
                    "catalog serves {count} traces; name one (empty trace id only works \
                     against a single-trace catalog)"
                ))),
            };
        }
        self.snapshot(trace)
            .ok_or_else(|| NetError::Query(format!("unknown trace `{trace}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_core::VectorTime;

    fn stamps(dim_fill: u64) -> MessageTimestamps {
        MessageTimestamps::new(vec![
            VectorTime::from(vec![dim_fill, 0]),
            VectorTime::from(vec![dim_fill + 1, 1]),
        ])
    }

    #[test]
    fn placement_is_deterministic_and_covers_all_shards() {
        let fabric = QueryFabric::new(4);
        for i in 0..200 {
            let name = format!("trace-{i}");
            assert_eq!(fabric.shard_of(&name), fabric.shard_of(&name));
            assert!(fabric.shard_of(&name) < 4);
        }
        // With enough traces every shard owns some, and no shard owns a
        // grossly disproportionate share.
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[fabric.shard_of(&format!("trace-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {shard} owns only {c}/400 traces");
        }
    }

    #[test]
    fn publish_is_copy_on_write() {
        let fabric = QueryFabric::new(4);
        fabric.publish("a", stamps(1));
        let old = fabric.snapshot("a").expect("published");
        // A re-stamp swaps the Arc; the held snapshot is untouched.
        fabric.publish("a", stamps(9));
        let new = fabric.snapshot("a").expect("republished");
        assert_eq!(old.row(synctime_trace::MessageId(0))[0], 1);
        assert_eq!(new.row(synctime_trace::MessageId(0))[0], 9);
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(fabric.trace_count(), 1);
    }

    #[test]
    fn default_trace_resolution() {
        let fabric = QueryFabric::new(2);
        assert!(fabric.resolve("").is_err());
        fabric.publish("only", stamps(0));
        assert!(fabric.resolve("").is_ok(), "single trace is the default");
        fabric.publish("second", stamps(2));
        let err = fabric.resolve("").unwrap_err();
        assert!(err.to_string().contains("2 traces"), "{err}");
        assert!(fabric.resolve("missing").is_err());
        assert_eq!(fabric.trace_names(), vec!["only", "second"]);
    }
}
