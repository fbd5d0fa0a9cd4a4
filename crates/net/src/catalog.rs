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
//! * **Traces are consistently hashed across shards.** Each shard owns a
//!   disjoint subset of trace ids behind its own `RwLock`, so a re-stamp
//!   of one trace contends only with lookups of the ~1/S of traces that
//!   share its shard. The shard is chosen by a [`ShardRing`] — FNV-1a
//!   consistent hashing with virtual nodes — so the assignment is
//!   deterministic, balanced, and stable under reshardings (growing from
//!   S to S+1 shards moves ~1/(S+1) of the traces, not all of them).
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

/// Virtual nodes per shard on the consistent-hash ring. Enough that the
/// largest shard holds within a few percent of the mean at realistic
/// catalog sizes, small enough that building the ring is trivial.
const VNODES_PER_SHARD: usize = 64;

/// FNV-1a with a splitmix64 finalizer. Raw FNV-1a mixes the *low* bits
/// well but leaves the high bits — which decide ring position — heavily
/// correlated for short, structured ids like `trace-7`; the finalizer's
/// avalanche fixes the arc-coverage skew that causes.
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

/// The memoised vnode hashes a [`ShardRing`] is built from: one
/// splitmix64-finalized FNV-1a hash per `(shard, replica)` label, laid out
/// shard-major and grown on demand.
///
/// Hashing a vnode label is pure — `shard-3-vnode-17` hashes the same in
/// every ring that contains shard 3 — so a rebuild on a catalog change
/// (resharding up or down) only ever computes the labels it has never
/// seen. The `computed_hashes` counter makes that reuse observable: the
/// fabric proptest asserts a grown ring pays for exactly the new shard's
/// vnodes.
#[derive(Debug, Default, Clone)]
pub struct VnodeTable {
    /// `hashes[shard * VNODES_PER_SHARD + replica]`.
    hashes: Vec<u64>,
    /// Labels hashed since creation (monotone).
    computed: u64,
}

impl VnodeTable {
    /// An empty table; the first ring built from it hashes every label.
    pub fn new() -> Self {
        VnodeTable::default()
    }

    /// How many vnode labels have been hashed through this table — a
    /// ring rebuild that reuses the cache leaves this unchanged for every
    /// previously seen shard.
    pub fn computed_hashes(&self) -> u64 {
        self.computed
    }

    /// Ensures hashes exist for `shards` shards, computing only the
    /// missing tail.
    fn grow(&mut self, shards: usize) {
        let want = shards * VNODES_PER_SHARD;
        while self.hashes.len() < want {
            let idx = self.hashes.len();
            let shard = idx / VNODES_PER_SHARD;
            let replica = idx % VNODES_PER_SHARD;
            let label = format!("shard-{shard}-vnode-{replica}");
            self.hashes.push(fnv1a(label.as_bytes()));
            self.computed += 1;
        }
    }
}

/// Consistent hashing of trace ids onto shard indices: each shard owns
/// [`VNODES_PER_SHARD`] points on a `u64` ring, and a trace id maps to the
/// owner of the first point at or after its hash (wrapping).
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRing {
    /// A ring over `shards` shards (clamped to at least 1), hashing every
    /// vnode label afresh. Rebuilding rings repeatedly (a fabric that
    /// reshards as its catalog changes) should share a [`VnodeTable`] via
    /// [`ShardRing::with_table`] instead.
    pub fn new(shards: usize) -> Self {
        ShardRing::with_table(shards, &mut VnodeTable::new())
    }

    /// A ring over `shards` shards (clamped to at least 1) built from the
    /// cached vnode hashes in `table`, which is grown as needed. The ring
    /// is identical to [`ShardRing::new`]'s for the same count — the
    /// table changes what is *computed*, never what is *placed*.
    pub fn with_table(shards: usize, table: &mut VnodeTable) -> Self {
        let shards = shards.max(1);
        table.grow(shards);
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for replica in 0..VNODES_PER_SHARD {
                points.push((table.hashes[shard * VNODES_PER_SHARD + replica], shard));
            }
        }
        points.sort_unstable();
        ShardRing { points, shards }
    }

    /// The number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns a trace id. Deterministic across processes and
    /// runs: same id and shard count, same shard.
    pub fn shard_of(&self, trace: &str) -> usize {
        let h = fnv1a(trace.as_bytes());
        let at = self.points.partition_point(|&(p, _)| p < h);
        // Wrap past the last point back to the first.
        self.points[at % self.points.len()].1
    }
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
    ring: ShardRing,
    shards: Vec<Shard>,
    /// Memoised vnode hashes, so a reshard reuses every label already
    /// hashed instead of rehashing each surviving shard's vnodes.
    vnodes: VnodeTable,
}

impl QueryFabric {
    /// An empty catalog sharded `shards` ways (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let mut vnodes = VnodeTable::new();
        let ring = ShardRing::with_table(shards, &mut vnodes);
        let shards = (0..ring.shards()).map(|_| Shard::default()).collect();
        QueryFabric {
            ring,
            shards,
            vnodes,
        }
    }

    /// Rebuilds the ring for a new shard count and redistributes every
    /// held trace to its new owner. Vnode hashes are reused from the
    /// fabric's [`VnodeTable`]: growing from `S` to `S + 1` shards hashes
    /// only the newcomer's labels, and shrinking hashes nothing at all.
    /// Snapshots are moved by `Arc`, never copied.
    pub fn reshard(&mut self, shards: usize) {
        let ring = ShardRing::with_table(shards, &mut self.vnodes);
        let mut entries: Vec<(String, Arc<MessageTimestamps>)> = Vec::new();
        for shard in &self.shards {
            entries.extend(
                shard
                    .traces
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .drain(),
            );
        }
        self.shards = (0..ring.shards()).map(|_| Shard::default()).collect();
        self.ring = ring;
        for (name, snapshot) in entries {
            self.publish_shared(&name, snapshot);
        }
    }

    /// How many vnode labels this fabric has hashed across all ring
    /// builds (see [`VnodeTable::computed_hashes`]).
    pub fn vnode_hashes_computed(&self) -> u64 {
        self.vnodes.computed_hashes()
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

    /// The shard that owns a trace id.
    pub fn shard_of(&self, trace: &str) -> usize {
        self.ring.shard_of(trace)
    }

    /// Publishes (or republishes) a trace's stamps, returning the new
    /// shared snapshot. This is the copy-on-write step of a re-stamp: the
    /// `Arc` is swapped under the shard's write lock, in-flight readers
    /// keep the snapshot they already cloned, and every later lookup gets
    /// the new one.
    pub fn publish(&self, name: &str, stamps: MessageTimestamps) -> Arc<MessageTimestamps> {
        let snapshot = Arc::new(stamps);
        let shard = &self.shards[self.ring.shard_of(name)];
        shard
            .traces
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&snapshot));
        snapshot
    }

    /// [`QueryFabric::publish`] for stamps that are already shared: swaps
    /// the catalog entry to the given snapshot without copying the table.
    pub fn publish_shared(&self, name: &str, snapshot: Arc<MessageTimestamps>) {
        let shard = &self.shards[self.ring.shard_of(name)];
        shard
            .traces
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), snapshot);
    }

    /// The current snapshot of a trace, if the catalog holds it. Cloning
    /// the returned `Arc` is the entire cost of "opening" a trace.
    pub fn snapshot(&self, name: &str) -> Option<Arc<MessageTimestamps>> {
        let shard = &self.shards[self.ring.shard_of(name)];
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
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = ShardRing::new(4);
        for i in 0..200 {
            let name = format!("trace-{i}");
            assert_eq!(ring.shard_of(&name), ring.shard_of(&name));
            assert!(ring.shard_of(&name) < 4);
        }
        // With enough traces every shard owns some, and no shard owns a
        // grossly disproportionate share.
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[ring.shard_of(&format!("trace-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {shard} owns only {c}/400 traces");
        }
    }

    #[test]
    fn resharding_moves_a_fraction_not_everything() {
        let before = ShardRing::new(4);
        let after = ShardRing::new(5);
        let moved = (0..1000)
            .filter(|i| {
                let name = format!("trace-{i}");
                before.shard_of(&name) != after.shard_of(&name)
            })
            .count();
        // Ideal is ~1/5 = 200; allow generous slack, but far below "all".
        assert!(moved < 500, "resharding moved {moved}/1000 traces");
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
