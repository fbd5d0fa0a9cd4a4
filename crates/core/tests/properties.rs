//! Crate-level property tests: algebraic laws of vector timestamps, the
//! protocol pieces, the flat message-stamp table, and the wire encodings.

use proptest::prelude::*;
use synctime_core::online::ProcessClock;
use synctime_core::wire;
use synctime_core::{MessageTimestamps, VectorOrder, VectorTime};
use synctime_trace::MessageId;

prop_compose! {
    fn arb_vec(dim: usize)(components in proptest::collection::vec(0u64..1000, dim)) -> VectorTime {
        VectorTime::from(components)
    }
}

/// Widest table the properties draw: two full 8-lane kernel chunks plus a
/// one-lane tail.
const MAX_TABLE_DIM: usize = 17;

/// How one table row is drawn: fresh (`kind` 0), a copy of an earlier
/// row (1), or an earlier row raised by `bump` (2), so every vector order
/// (less, equal, greater, concurrent) turns up at every width.
#[derive(Debug)]
struct RowRecipe {
    kind: u8,
    pick: usize,
    bump: Vec<u64>,
}

prop_compose! {
    fn arb_row_recipe()(
        kind in 0u8..3,
        pick in any::<usize>(),
        bump in proptest::collection::vec(0u64..3, MAX_TABLE_DIM),
    ) -> RowRecipe {
        RowRecipe { kind, pick, bump }
    }
}

/// Recipes for tables of 0–40 rows.
fn arb_row_recipes() -> impl Strategy<Value = Vec<RowRecipe>> {
    proptest::collection::vec(arb_row_recipe(), 0..=40)
}

/// The rows `recipes` describe, each cut to `dim` components.
fn table_rows(dim: usize, recipes: &[RowRecipe]) -> Vec<VectorTime> {
    let mut rows: Vec<VectorTime> = Vec::with_capacity(recipes.len());
    for RowRecipe { kind, pick, bump } in recipes {
        let bump = &bump[..dim];
        let earlier = (!rows.is_empty()).then(|| rows[pick % rows.len()].as_slice());
        let row: Vec<u64> = match (kind, earlier) {
            (1, Some(base)) => base.to_vec(),
            (2, Some(base)) => base.iter().zip(bump).map(|(b, x)| b + x).collect(),
            _ => bump.to_vec(),
        };
        rows.push(VectorTime::from(row));
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vector_order_is_a_strict_partial_order(
        a in arb_vec(5), b in arb_vec(5), c in arb_vec(5)
    ) {
        // Irreflexive / antisymmetric.
        prop_assert_eq!(a.compare(&a), VectorOrder::Equal);
        if a.compare(&b) == VectorOrder::Less {
            prop_assert_eq!(b.compare(&a), VectorOrder::Greater);
        }
        // Transitive.
        if a.compare(&b) == VectorOrder::Less && b.compare(&c) == VectorOrder::Less {
            prop_assert_eq!(a.compare(&c), VectorOrder::Less);
        }
        // compare agrees with PartialOrd.
        prop_assert_eq!(a < b, a.compare(&b) == VectorOrder::Less);
        prop_assert_eq!(a.le(&b), matches!(a.compare(&b), VectorOrder::Less | VectorOrder::Equal));
    }

    #[test]
    fn merge_max_is_least_upper_bound(a in arb_vec(6), b in arb_vec(6)) {
        let mut m = a.clone();
        m.merge_max(&b).unwrap();
        // Upper bound.
        prop_assert!(a.le(&m) && b.le(&m));
        // Least: componentwise it equals one of the inputs.
        for i in 0..6 {
            prop_assert_eq!(m.component(i), a.component(i).max(b.component(i)));
        }
        // Commutative and idempotent.
        let mut m2 = b.clone();
        m2.merge_max(&a).unwrap();
        prop_assert_eq!(&m, &m2);
        let mut m3 = m.clone();
        m3.merge_max(&m2).unwrap();
        prop_assert_eq!(m3, m);
    }

    #[test]
    fn protocol_sides_always_agree(
        sender in arb_vec(4),
        receiver in arb_vec(4),
        group in 0usize..4,
    ) {
        // Whatever the pre-states, one Figure 5 exchange leaves both sides
        // with the identical timestamp, strictly above both pre-states.
        let mut s = ProcessClock::new(4);
        let mut r = ProcessClock::new(4);
        // Drive the clocks to the arbitrary pre-states via merges.
        s.on_acknowledgement(&sender, group).unwrap();
        r.on_acknowledgement(&receiver, group).unwrap();
        let pre_s = s.current().clone();
        let pre_r = r.current().clone();
        let payload = s.send_payload();
        let (ack, t_r) = r.on_receive(&payload, group).unwrap();
        let t_s = s.on_acknowledgement(&ack, group).unwrap();
        prop_assert_eq!(&t_s, &t_r);
        prop_assert!(pre_s < t_s);
        prop_assert!(pre_r < t_s.clone());
    }

    #[test]
    fn flat_table_answers_as_vector_compare_does(
        dim in 0..=MAX_TABLE_DIM,
        recipes in arb_row_recipes(),
    ) {
        let vectors = table_rows(dim, &recipes);
        let table = MessageTimestamps::new(vectors.clone());
        for (i, a) in vectors.iter().enumerate() {
            for (j, b) in vectors.iter().enumerate() {
                let (m1, m2) = (MessageId(i), MessageId(j));
                let order = a.compare(b);
                prop_assert_eq!(table.precedes(m1, m2), order == VectorOrder::Less, "({}, {})", i, j);
                prop_assert_eq!(
                    table.concurrent(m1, m2),
                    i != j && matches!(order, VectorOrder::Concurrent | VectorOrder::Equal),
                    "({}, {})", i, j
                );
            }
        }
    }

    #[test]
    fn flat_table_rows_are_the_vectors(
        dim in 0..=MAX_TABLE_DIM,
        recipes in arb_row_recipes(),
    ) {
        let vectors = table_rows(dim, &recipes);
        let flat: Vec<u64> = vectors.iter().flat_map(VectorTime::as_slice).copied().collect();
        let table = MessageTimestamps::new(vectors.clone());
        prop_assert_eq!(&table, &MessageTimestamps::from_rows(dim, vectors.len(), flat));
        prop_assert_eq!(table.len(), vectors.len());
        prop_assert_eq!(table.dim(), if vectors.is_empty() { 0 } else { dim });
        prop_assert_eq!(table.rows().len(), vectors.len());
        for (m, (row, v)) in table.rows().zip(&vectors).enumerate() {
            prop_assert_eq!(row, v.as_slice());
            let owned = table.vector(MessageId(m));
            prop_assert_eq!(table.row(MessageId(m)), owned.as_slice());
            prop_assert_eq!(&owned, v);
        }
    }

    #[test]
    fn zero_dimension_tables_keep_their_length(len in 0usize..=40) {
        let table = MessageTimestamps::from_rows(0, len, Vec::new());
        prop_assert_eq!(table.len(), len);
        prop_assert_eq!(table.is_empty(), len == 0);
        prop_assert_eq!(table.rows().len(), len);
        prop_assert_eq!(&table, &MessageTimestamps::new(vec![VectorTime::zero(0); len]));
        // Empty stamps are all equal: distinct messages are concurrent.
        if len >= 2 {
            prop_assert!(table.concurrent(MessageId(0), MessageId(len - 1)));
            prop_assert!(!table.precedes(MessageId(0), MessageId(len - 1)));
        }
    }

    #[test]
    fn wire_full_roundtrip(v in arb_vec(8)) {
        let bytes = wire::encode_full(&v);
        prop_assert_eq!(wire::decode_full(&bytes), Some(v));
    }

    #[test]
    fn wire_delta_roundtrip(a in arb_vec(8), b in arb_vec(8)) {
        let delta = wire::encode_delta(&a, &b);
        prop_assert_eq!(wire::apply_delta(&a, &delta), Some(b));
    }

    #[test]
    fn wire_stream_roundtrip(vs in proptest::collection::vec(arb_vec(5), 1..20)) {
        let mut enc = wire::DeltaEncoder::new();
        let mut dec = wire::DeltaDecoder::new();
        for v in &vs {
            let bytes = enc.encode(3, v);
            let decoded = dec.decode(3, &bytes);
            prop_assert_eq!(decoded.as_ref(), Some(v));
        }
    }

    #[test]
    fn truncated_wire_data_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        // Fuzz the decoders: garbage must return None, never panic.
        let _ = wire::decode_full(&bytes);
        let _ = wire::apply_delta(&VectorTime::zero(4), &bytes);
        let mut d = wire::DeltaDecoder::new();
        let _ = d.decode(0, &bytes);
    }
}

#[test]
#[should_panic(expected = "message 3 out of range")]
fn row_rejects_an_out_of_range_id() {
    MessageTimestamps::from_rows(2, 3, vec![0; 6]).row(MessageId(3));
}

#[test]
#[should_panic(expected = "message 3 out of range")]
fn zero_dimension_row_rejects_an_out_of_range_id() {
    MessageTimestamps::from_rows(0, 3, Vec::new()).row(MessageId(3));
}

#[test]
#[should_panic(expected = "needs 6 components, got 5")]
fn from_rows_rejects_a_ragged_table() {
    MessageTimestamps::from_rows(2, 3, vec![0; 5]);
}
