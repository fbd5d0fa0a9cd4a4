//! Lemma 1: the message sets of *all* synchronous computations over a
//! topology `G` are totally ordered iff `G` is a star or a triangle.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime::prelude::*;
use synctime::sim::workload::random_computation;

fn all_messages_comparable(comp: &SyncComputation) -> bool {
    let oracle = Oracle::new(comp);
    let m = comp.message_count();
    (0..m).all(|i| ((i + 1)..m).all(|j| !oracle.concurrent(MessageId(i), MessageId(j))))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn star_computations_totally_ordered(leaves in 1usize..10, msgs in 0usize..50, seed in 0u64..10_000) {
        let topo = graph::topology::star(leaves);
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = random_computation(&topo, msgs, &mut rng);
        prop_assert!(all_messages_comparable(&comp));
    }

    #[test]
    fn triangle_computations_totally_ordered(msgs in 0usize..50, seed in 0u64..10_000) {
        let topo = graph::topology::triangle();
        let mut rng = StdRng::seed_from_u64(seed);
        let comp = random_computation(&topo, msgs, &mut rng);
        prop_assert!(all_messages_comparable(&comp));
    }

    #[test]
    fn non_star_non_triangle_admits_concurrency(n in 4usize..10, extra in 0usize..5, seed in 0u64..10_000) {
        // The converse direction, made constructive exactly as in the
        // lemma's proof: a topology that is neither a star nor a triangle
        // has two vertex-disjoint edges; sending one message along each
        // yields a computation with a concurrent pair.
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = graph::topology::random_connected(n, extra, &mut rng);
        prop_assume!(!topo.is_star() && !topo.is_triangle());

        let edges: Vec<Edge> = topo.edges().collect();
        let disjoint = edges.iter().enumerate().find_map(|(i, a)| {
            edges[i + 1..]
                .iter()
                .find(|b| !a.is_adjacent_to(**b))
                .map(|b| (*a, *b))
        });
        let (a, b) = disjoint.expect("a non-star non-triangle graph has two disjoint edges");
        let mut builder = Builder::with_topology(&topo);
        let m1 = builder.message(a.lo(), a.hi()).unwrap();
        let m2 = builder.message(b.lo(), b.hi()).unwrap();
        let comp = builder.build();
        let oracle = Oracle::new(&comp);
        prop_assert!(oracle.concurrent(m1, m2));
    }
}

#[test]
fn single_component_suffices_for_star_and_triangle() {
    // The practical consequence: decomposition size 1, so timestamps are a
    // single integer and the order is the integer order.
    for topo in [graph::topology::star(7), graph::topology::triangle()] {
        let dec = graph::decompose::best_known(&topo);
        assert_eq!(dec.len(), 1);
        let mut rng = StdRng::seed_from_u64(5);
        let comp = random_computation(&topo, 30, &mut rng);
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        assert!(stamps.encodes(&Oracle::new(&comp)));
        // Scalars: strictly increasing in rendezvous order.
        let vals: Vec<u64> = stamps.rows().map(|v| v[0]).collect();
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }
}
