//! Differential battery: the online algorithm (Figure 5 / Theorem 4), the
//! offline chain realizer (Figure 9 / Theorem 8), and the incremental
//! decomposition cache must all tell the same story about `(M, ↦)`.
//!
//! Every property here compares two *independent* implementations pairwise
//! over every message pair, rather than trusting a single `encodes` bit:
//! the ground-truth oracle (transitive closure over the event graph), the
//! online stamper, the offline stamper, and — for dynamic topologies — an
//! [`OnlineSession`] rebased across live reconfigurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synctime::prelude::*;
use synctime::sim::workload::RandomWorkload;
use synctime_core::wire::{DeltaDecoder, DeltaEncoder};
use synctime_graph::{decompose, IncrementalDecomposition};
use synctime_par::ThreadPool;

/// First pairwise disagreement between a stamp set and the oracle's `↦`,
/// if any: both the order and the incomparability must match (Theorem 4's
/// "if and only if").
fn first_encoding_mismatch(stamps: &MessageTimestamps, oracle: &Oracle) -> Option<String> {
    let n = stamps.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (m1, m2) = (MessageId(i), MessageId(j));
            let truth = oracle.synchronously_precedes(m1, m2);
            let claimed = stamps.precedes(m1, m2);
            if truth != claimed {
                return Some(format!(
                    "m{i} ↦ m{j} is {truth} but vectors {} vs {} say {claimed}",
                    stamps.vector(m1),
                    stamps.vector(m2)
                ));
            }
        }
    }
    None
}

/// First pair on which two stamp sets (possibly of different dimension)
/// disagree about the order of the same message set.
fn first_isomorphism_mismatch(a: &MessageTimestamps, b: &MessageTimestamps) -> Option<String> {
    let n = a.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (m1, m2) = (MessageId(i), MessageId(j));
            if a.precedes(m1, m2) != b.precedes(m1, m2) {
                return Some(format!(
                    "stamp sets disagree on (m{i}, m{j}): {} vs {} against {} vs {}",
                    a.vector(m1),
                    a.vector(m2),
                    b.vector(m1),
                    b.vector(m2)
                ));
            }
        }
    }
    None
}

fn random_computation(topo: &Graph, messages: usize, seed: u64) -> SyncComputation {
    let mut rng = StdRng::seed_from_u64(seed);
    RandomWorkload::messages(messages)
        .with_internal_events(messages / 4)
        .generate(topo, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Theorem 4, checked pairwise: the online vectors order two messages
    /// exactly when `↦` does, and leave them incomparable exactly when the
    /// messages are concurrent.
    #[test]
    fn online_vectors_encode_mapsto_exactly(
        n in 4usize..9,
        extra in 0usize..5,
        msgs in 1usize..45,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(7));
        let oracle = Oracle::new(&comp);
        let dec = decompose::best_known(&topo);
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        prop_assert_eq!(stamps.dim(), dec.len());
        let mismatch = first_encoding_mismatch(&stamps, &oracle);
        prop_assert!(mismatch.is_none(), "online: {}", mismatch.unwrap());
    }

    /// Theorem 8, checked pairwise: the offline chain-realizer vectors are
    /// an order embedding of `(M, ↦)` too, with dimension bounded by the
    /// realizer the poset admits.
    #[test]
    fn offline_chain_realizer_encodes_mapsto(
        n in 4usize..9,
        extra in 0usize..5,
        msgs in 1usize..45,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(13));
        let oracle = Oracle::new(&comp);
        let stamps = offline::stamp_computation(&comp);
        let mismatch = first_encoding_mismatch(&stamps, &oracle);
        prop_assert!(mismatch.is_none(), "offline: {}", mismatch.unwrap());
    }

    /// The two algorithms are order-isomorphic on the same computation:
    /// any pair ordered by the online vectors is ordered the same way by
    /// the offline vectors, although their dimensions generally differ.
    #[test]
    fn online_and_offline_stamps_are_order_isomorphic(
        n in 4usize..9,
        extra in 0usize..5,
        msgs in 1usize..45,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(29));
        let dec = decompose::best_known(&topo);
        let online = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let off = offline::stamp_computation(&comp);
        let mismatch = first_isomorphism_mismatch(&online, &off);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
    }

    /// The incremental cache is equivalent to batch decomposition: after a
    /// random edit sequence the cached decomposition is valid for the edited
    /// graph, within the Theorem 6 factor of the exact optimum, and stamps
    /// computations on the final topology exactly like a from-scratch
    /// greedy decomposition would.
    #[test]
    fn incremental_cache_matches_batch_greedy_after_random_edits(
        n in 4usize..8,
        extra in 0usize..4,
        edits in 1usize..14,
        msgs in 1usize..30,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = graph::topology::random_connected(n, extra, &mut rng);
        let mut cache = IncrementalDecomposition::new(&base);
        for k in 0..edits {
            let g = cache.graph();
            let existing: Vec<Edge> = g.edges().collect();
            let remove = k % 2 == 0 && existing.len() > 1;
            if remove {
                let e = existing[rng.gen_range(0..existing.len())];
                cache.remove_edge(e.lo(), e.hi()).unwrap();
            } else if existing.len() < n * (n - 1) / 2 {
                let (u, v) = loop {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u != v && !g.has_edge(u, v) {
                        break (u, v);
                    }
                };
                cache.insert_edge(u, v).unwrap();
            }
        }
        let g = cache.graph().clone();
        cache.decomposition().validate(&g).unwrap();
        // Theorem 6's guarantee, held against the *exact* optimum (the
        // graphs are small enough for the branch-and-bound solver).
        let alpha = decompose::alpha(&g);
        prop_assert!(
            cache.decomposition().len() <= 2 * alpha.max(1),
            "cache kept {} groups but α = {alpha}",
            cache.decomposition().len()
        );
        // Both decompositions stamp the same computation correctly and
        // order-isomorphically.
        let comp = random_computation(&g, msgs, seed.wrapping_add(31));
        let oracle = Oracle::new(&comp);
        let via_cache = OnlineStamper::new(cache.decomposition())
            .stamp_computation(&comp)
            .unwrap();
        let via_batch = OnlineStamper::new(&decompose::greedy(&g))
            .stamp_computation(&comp)
            .unwrap();
        let mismatch = first_encoding_mismatch(&via_cache, &oracle);
        prop_assert!(mismatch.is_none(), "cached dec: {}", mismatch.unwrap());
        let mismatch = first_isomorphism_mismatch(&via_cache, &via_batch);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
    }

    /// The sparse offline engine is a fourth independent implementation:
    /// its vectors must encode `↦` exactly, agree pairwise with the dense
    /// offline engine, and its parallel variant must reproduce the
    /// sequential stamps bit for bit at every pool size.
    #[test]
    fn sparse_offline_engine_agrees_with_dense_and_parallelises_identically(
        n in 4usize..9,
        extra in 0usize..5,
        msgs in 1usize..45,
        seed in 0u64..5000,
        workers in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(41));
        let oracle = Oracle::new(&comp);
        let sparse = offline::stamp_computation_sparse(&comp);
        let mismatch = first_encoding_mismatch(&sparse, &oracle);
        prop_assert!(mismatch.is_none(), "sparse: {}", mismatch.unwrap());
        let dense = offline::stamp_computation(&comp);
        let mismatch = first_isomorphism_mismatch(&sparse, &dense);
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
        let pool = ThreadPool::new(workers);
        let par = offline::stamp_computation_sparse_parallel(&comp, &pool);
        prop_assert_eq!(sparse.len(), par.len());
        for m in 0..sparse.len() {
            prop_assert_eq!(
                sparse.row(MessageId(m)),
                par.row(MessageId(m)),
                "workers = {}, message {}",
                workers,
                m
            );
        }
    }

    /// The runtime's per-channel delta streams are lossless: an encoder
    /// feeding a decoder over any sequence of monotone vector snapshots
    /// (interleaved across several channels, as a real process interleaves
    /// its peers) reproduces every vector exactly.
    #[test]
    fn delta_wire_streams_round_trip_exactly(
        dim in 1usize..7,
        channels in 1usize..4,
        steps in 1usize..60,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut enc = DeltaEncoder::new();
        let mut dec = DeltaDecoder::new();
        // One monotonically growing vector per channel, like a clock.
        let mut clocks: Vec<Vec<u64>> = vec![vec![0; dim]; channels];
        for _ in 0..steps {
            let ch = rng.gen_range(0..channels);
            // Bump a few random components (possibly none: retransmission
            // of an unchanged vector must also round-trip).
            for _ in 0..rng.gen_range(0..3) {
                let c = rng.gen_range(0..dim);
                clocks[ch][c] += rng.gen_range(1..100);
            }
            let v = VectorTime::from(clocks[ch].clone());
            let bytes = enc.encode(ch, &v);
            let back = dec.decode(ch, &bytes);
            prop_assert_eq!(back.as_ref(), Some(&v), "channel {}", ch);
        }
    }

    /// Crash robustness — Theorem 4 restricted to survivors: under any
    /// seeded fault plan with k < N crashes, every process exits with a
    /// typed verdict (never a panic, never a deadlock misdiagnosis), and
    /// the completed rendezvous prefix reconstructs with timestamps that
    /// encode `↦` exactly on that prefix.
    #[test]
    fn crashed_runs_keep_survivor_prefix_order_isomorphic(
        n in 3usize..7,
        extra in 0usize..4,
        msgs in 4usize..25,
        crashes in 1usize..3,
        seed in 0u64..5000,
    ) {
        use std::sync::Arc;
        use std::time::Duration;
        use synctime::runtime::{Behavior, Runtime, RuntimeError};
        use synctime::sim::{programs, FaultPlan};

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(53));
        // Confluent directed scripts: deadlock-free on the threaded
        // runtime, so the only failures are the injected ones.
        let scripts = programs::from_computation(&comp);
        let behaviors: Vec<Behavior> = scripts
            .iter()
            .map(|prog| {
                let ops = prog.ops().to_vec();
                let b: Behavior = Box::new(move |ctx| {
                    for op in &ops {
                        match op {
                            Op::SendTo(q) => {
                                ctx.send(*q, 0)?;
                            }
                            Op::ReceiveFrom(q) => {
                                ctx.receive_from(*q)?;
                            }
                            Op::Internal => ctx.internal(),
                            Op::ReceiveAny => unreachable!("directed scripts only"),
                        }
                    }
                    Ok(())
                });
                b
            })
            .collect();
        let crashes = crashes.min(n - 1);
        let plan = FaultPlan::random(n, 2 * msgs as u64, crashes, 0, &mut rng);
        let dec = decompose::best_known(&topo);
        let run = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_secs(1))
            .unwrap()
            .with_fault_injector(Arc::new(plan))
            .run_tolerant(behaviors);
        for (p, o) in run.outcomes().iter().enumerate() {
            prop_assert!(
                !matches!(o, Some(RuntimeError::BehaviorPanicked { .. })),
                "process {} panicked instead of failing typed", p
            );
            prop_assert!(
                !matches!(o, Some(RuntimeError::Deadlock { .. })),
                "crash misdiagnosed as deadlock at process {}: {:?}", p, o
            );
        }
        // Crash-at-op-boundary keeps both endpoints' logs consistent, so
        // the completed prefix always reconstructs.
        let (prefix, stamps) = run.reconstruct().expect("two-sided logs reconstruct");
        prop_assert!(prefix.message_count() <= comp.message_count());
        let oracle = Oracle::new(&prefix);
        let mismatch = first_encoding_mismatch(&stamps, &oracle);
        prop_assert!(mismatch.is_none(), "survivor prefix: {}", mismatch.unwrap());
    }

    /// Live reconfiguration keeps Theorem 4 for everything stamped after
    /// the remap: a session that survives an edge removal (groups may
    /// dissolve and shift) still orders its *subsequent* stamps exactly as
    /// `↦` orders the messages, history included.
    #[test]
    fn suffix_stamps_after_reconfiguration_encode_mapsto(
        n in 4usize..8,
        extra in 1usize..5,
        prefix in 1usize..20,
        suffix in 1usize..20,
        seed in 0u64..5000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = graph::topology::random_connected(n, extra, &mut rng);
        let mut cache = IncrementalDecomposition::new(&base);
        let mut session = OnlineSession::new(cache.decomposition(), n);
        let mut b = Builder::new(n);

        let send_random = |session: &mut OnlineSession,
                               b: &mut Builder,
                               g: &Graph,
                               rng: &mut StdRng|
         -> (MessageId, VectorTime) {
            let edges: Vec<Edge> = g.edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            let (s, r) = if rng.gen::<bool>() {
                (e.lo(), e.hi())
            } else {
                (e.hi(), e.lo())
            };
            let t = session.stamp(s, r).expect("channel is in the decomposition");
            let id = b.message(s, r).expect("message over an existing channel");
            (id, t)
        };

        for _ in 0..prefix {
            let g = cache.graph().clone();
            send_random(&mut session, &mut b, &g, &mut rng);
        }

        // Remove one random edge (keeping at least one) and rebase the
        // running session onto the patched decomposition.
        let existing: Vec<Edge> = cache.graph().edges().collect();
        prop_assume!(existing.len() > 1);
        let e = existing[rng.gen_range(0..existing.len())];
        let remap = cache.remove_edge(e.lo(), e.hi()).unwrap();
        session.reconfigure(cache.decomposition(), &remap).unwrap();

        let mut stamped = Vec::new();
        for _ in 0..suffix {
            let g = cache.graph().clone();
            stamped.push(send_random(&mut session, &mut b, &g, &mut rng));
        }

        let comp = b.build();
        let oracle = Oracle::new(&comp);
        for &(m1, ref v1) in &stamped {
            for &(m2, ref v2) in &stamped {
                if m1 == m2 {
                    continue;
                }
                let truth = oracle.synchronously_precedes(m1, m2);
                let claimed = matches!(
                    v1.compare(v2),
                    VectorOrder::Less
                );
                prop_assert_eq!(
                    truth,
                    claimed,
                    "post-remap: {m1} ↦ {m2} is {} but {} vs {} say {}",
                    truth,
                    v1,
                    v2,
                    claimed
                );
            }
        }
    }

    /// Backend isomorphism on random traces: the `TreeClock` backend
    /// reproduces the dense stamps of the online protocol *byte for byte*,
    /// so the two are trivially order-isomorphic — and the tree stamps
    /// independently encode `↦` against the oracle.
    #[test]
    fn clock_backends_stamp_identically_on_random_traces(
        n in 4usize..9,
        extra in 0usize..5,
        msgs in 1usize..45,
        seed in 0u64..5000,
    ) {
        use synctime_core::clock::TreeClock;
        use synctime_core::online::stamp_computation_as;

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(61));
        let oracle = Oracle::new(&comp);
        let dec = decompose::best_known(&topo);

        let dense = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let tree = stamp_computation_as::<TreeClock>(&dec, &comp).unwrap();
        prop_assert_eq!(dense.len(), tree.len());
        for m in 0..dense.len() {
            prop_assert_eq!(
                dense.row(MessageId(m)),
                tree.row(MessageId(m)),
                "online tree backend diverged on m{}",
                m
            );
        }
        let mismatch = first_encoding_mismatch(&tree, &oracle);
        prop_assert!(mismatch.is_none(), "tree: {}", mismatch.unwrap());
    }

    /// Backend isomorphism under faults: whatever rendezvous prefix
    /// survives a seeded crash plan, the dense and tree clocks stamp that
    /// prefix identically and order-isomorphically to the vectors the
    /// tolerant run itself reconstructed.
    #[test]
    fn clock_backends_agree_on_crash_survivor_prefixes(
        n in 3usize..7,
        extra in 0usize..4,
        msgs in 4usize..25,
        crashes in 1usize..3,
        seed in 0u64..5000,
    ) {
        use std::sync::Arc;
        use std::time::Duration;
        use synctime::runtime::{Behavior, Runtime};
        use synctime::sim::{programs, FaultPlan};
        use synctime_core::clock::TreeClock;
        use synctime_core::online::stamp_computation_as;

        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        let comp = random_computation(&topo, msgs, seed.wrapping_add(67));
        let scripts = programs::from_computation(&comp);
        let behaviors: Vec<Behavior> = scripts
            .iter()
            .map(|prog| {
                let ops = prog.ops().to_vec();
                let b: Behavior = Box::new(move |ctx| {
                    for op in &ops {
                        match op {
                            Op::SendTo(q) => {
                                ctx.send(*q, 0)?;
                            }
                            Op::ReceiveFrom(q) => {
                                ctx.receive_from(*q)?;
                            }
                            Op::Internal => ctx.internal(),
                            Op::ReceiveAny => unreachable!("directed scripts only"),
                        }
                    }
                    Ok(())
                });
                b
            })
            .collect();
        let crashes = crashes.min(n - 1);
        let plan = FaultPlan::random(n, 2 * msgs as u64, crashes, 0, &mut rng);
        let dec = decompose::best_known(&topo);
        let run = Runtime::new(&topo, &dec)
            .with_watchdog(Duration::from_secs(1))
            .unwrap()
            .with_fault_injector(Arc::new(plan))
            .run_tolerant(behaviors);
        let (prefix, run_stamps) = run.reconstruct().expect("two-sided logs reconstruct");

        let dense = OnlineStamper::new(&dec).stamp_computation(&prefix).unwrap();
        let tree = stamp_computation_as::<TreeClock>(&dec, &prefix).unwrap();
        prop_assert_eq!(dense.len(), tree.len());
        for m in 0..dense.len() {
            prop_assert_eq!(
                dense.row(MessageId(m)),
                tree.row(MessageId(m)),
                "tree backend diverged on survivor prefix at m{}",
                m
            );
        }
        // And the backend stamps tell the same order story as the vectors
        // the run itself reconstructed from its two-sided logs.
        let mismatch = first_isomorphism_mismatch(&tree, &run_stamps);
        prop_assert!(mismatch.is_none(), "survivor prefix: {}", mismatch.unwrap());
        let oracle = Oracle::new(&prefix);
        let mismatch = first_encoding_mismatch(&tree, &oracle);
        prop_assert!(mismatch.is_none(), "survivor prefix: {}", mismatch.unwrap());
    }

    /// Backend isomorphism across live reconfiguration: a dense and a tree
    /// session driven in lockstep through the same messages and the same
    /// mid-run remap produce byte-identical stamps at every step, before
    /// and after the groups dissolve and shift.
    #[test]
    fn clock_backends_agree_across_reconfiguration(
        n in 4usize..8,
        extra in 1usize..5,
        prefix in 1usize..20,
        suffix in 1usize..20,
        seed in 0u64..5000,
    ) {
        use synctime_core::clock::TreeClock;
        use synctime_core::online::GenericOnlineSession;

        let mut rng = StdRng::seed_from_u64(seed);
        let base = graph::topology::random_connected(n, extra, &mut rng);
        let mut cache = IncrementalDecomposition::new(&base);
        let mut dense = OnlineSession::new(cache.decomposition(), n);
        let mut tree = GenericOnlineSession::<TreeClock>::new(cache.decomposition(), n);

        let stamp_all = |dense: &mut OnlineSession,
                             tree: &mut GenericOnlineSession<TreeClock>,
                             g: &Graph,
                             rng: &mut StdRng|
         -> Result<(), TestCaseError> {
            let edges: Vec<Edge> = g.edges().collect();
            let e = edges[rng.gen_range(0..edges.len())];
            let (s, r) = if rng.gen::<bool>() {
                (e.lo(), e.hi())
            } else {
                (e.hi(), e.lo())
            };
            let t = dense.stamp(s, r).expect("channel is in the decomposition");
            let t_tree = tree.stamp(s, r).expect("sessions share the decomposition");
            prop_assert_eq!(&t, &t_tree, "tree session diverged at stamp {}", dense.stamped());
            Ok(())
        };

        for _ in 0..prefix {
            let g = cache.graph().clone();
            stamp_all(&mut dense, &mut tree, &g, &mut rng)?;
        }

        let existing: Vec<Edge> = cache.graph().edges().collect();
        prop_assume!(existing.len() > 1);
        let e = existing[rng.gen_range(0..existing.len())];
        let remap = cache.remove_edge(e.lo(), e.hi()).unwrap();
        dense.reconfigure(cache.decomposition(), &remap).unwrap();
        tree.reconfigure(cache.decomposition(), &remap).unwrap();

        for _ in 0..suffix {
            let g = cache.graph().clone();
            stamp_all(&mut dense, &mut tree, &g, &mut rng)?;
        }
    }
}
