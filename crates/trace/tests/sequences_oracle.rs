//! Differential test for `SyncComputation::from_process_sequences`: on
//! random realizable sequences and on their mutations (a duplicated key,
//! a lonely send or receive, a self-message, a crossing), it returns the
//! same computation or the same `TraceError` as the ordered-map
//! implementation it replaced, kept below as the oracle.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use synctime_trace::{Builder, EventKind, MessageId, ProcessId, SyncComputation, TraceError};

/// The ordered-map reconstruction: `sends`, `recvs` and `key_index`
/// `BTreeMap`s, a successor list per message, and Kahn's algorithm on a
/// min-heap. The computation is rebuilt through the public [`Builder`]
/// by replaying the renumbered histories in rendezvous order.
fn oracle(sequences: Vec<Vec<EventKind>>) -> Result<SyncComputation, TraceError> {
    let process_count = sequences.len();
    let mut sends: BTreeMap<usize, (ProcessId, usize)> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, (ProcessId, usize)> = BTreeMap::new();
    for (p, seq) in sequences.iter().enumerate() {
        for (i, ev) in seq.iter().enumerate() {
            match ev {
                EventKind::Internal => {}
                EventKind::Send(MessageId(k)) => {
                    if sends.insert(*k, (p, i)).is_some() {
                        return Err(TraceError::MalformedSequences { message: *k });
                    }
                }
                EventKind::Receive(MessageId(k)) => {
                    if recvs.insert(*k, (p, i)).is_some() {
                        return Err(TraceError::MalformedSequences { message: *k });
                    }
                }
            }
        }
    }
    if sends.len() != recvs.len() {
        let lonely = sends
            .keys()
            .find(|k| !recvs.contains_key(k))
            .or_else(|| recvs.keys().find(|k| !sends.contains_key(k)))
            .copied()
            .unwrap_or(0);
        return Err(TraceError::MalformedSequences { message: lonely });
    }
    let keys: Vec<usize> = sends.keys().copied().collect();
    for &k in &keys {
        if !recvs.contains_key(&k) {
            return Err(TraceError::MalformedSequences { message: k });
        }
        if sends[&k].0 == recvs[&k].0 {
            return Err(TraceError::SelfMessage(sends[&k].0));
        }
    }
    let key_index: BTreeMap<usize, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let mut per_process: Vec<Vec<usize>> = vec![Vec::new(); process_count];
    for (p, seq) in sequences.iter().enumerate() {
        for ev in seq {
            if let Some(MessageId(k)) = ev.message() {
                per_process[p].push(key_index[&k]);
            }
        }
    }
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); keys.len()];
    let mut indegree = vec![0usize; keys.len()];
    for order in &per_process {
        for w in order.windows(2) {
            successors[w[0]].push(w[1]);
            indegree[w[1]] += 1;
        }
    }
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..keys.len())
        .filter(|&v| indegree[v] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(keys.len());
    while let Some(std::cmp::Reverse(v)) = ready.pop() {
        order.push(v);
        for &w in &successors[v] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                ready.push(std::cmp::Reverse(w));
            }
        }
    }
    if order.len() != keys.len() {
        let culprit = (0..keys.len())
            .find(|&v| indegree[v] > 0)
            .expect("a cycle leaves positive indegree");
        return Err(TraceError::NotSynchronous {
            message: keys[culprit],
        });
    }
    let mut rank = vec![0usize; keys.len()];
    for (pos, &v) in order.iter().enumerate() {
        rank[v] = pos;
    }
    let mut message_meta = vec![(0usize, 0usize); keys.len()];
    for &k in &keys {
        message_meta[rank[key_index[&k]]] = (sends[&k].0, recvs[&k].0);
    }
    // Replay: before each message, the internal events that precede it
    // on its two processes; afterwards, every process's trailing ones.
    let mut b = Builder::new(process_count);
    let mut next = vec![0usize; process_count];
    let mut internals_before_message = |b: &mut Builder, p: ProcessId| {
        while sequences[p].get(next[p]) == Some(&EventKind::Internal) {
            b.internal(p)?;
            next[p] += 1;
        }
        next[p] += 1;
        Ok::<(), TraceError>(())
    };
    for &(sender, receiver) in &message_meta {
        internals_before_message(&mut b, sender)?;
        internals_before_message(&mut b, receiver)?;
        b.message(sender, receiver)?;
    }
    for (p, seq) in sequences.iter().enumerate() {
        for _ in &seq[next[p].min(seq.len())..] {
            b.internal(p)?;
        }
    }
    Ok(b.build())
}

/// Random realizable sequences: messages drawn in rendezvous order with
/// sparse, shuffled keys, internal events sprinkled between them.
fn realizable(rng: &mut StdRng) -> Vec<Vec<EventKind>> {
    let procs = rng.gen_range(1..6usize);
    let messages = if procs > 1 {
        rng.gen_range(1..24usize)
    } else {
        0
    };
    let mut keys: Vec<usize> = (0..messages).map(|i| i * 3 + rng.gen_range(0..3)).collect();
    keys.shuffle(rng);
    let mut seqs = vec![Vec::new(); procs];
    for key in keys {
        if rng.gen_range(0..3u32) == 0 {
            seqs[rng.gen_range(0..procs)].push(EventKind::Internal);
        }
        let sender = rng.gen_range(0..procs);
        let receiver = (sender + rng.gen_range(1..procs)) % procs;
        seqs[sender].push(EventKind::Send(MessageId(key)));
        seqs[receiver].push(EventKind::Receive(MessageId(key)));
    }
    if rng.gen_range(0..2u32) == 0 {
        seqs[rng.gen_range(0..procs)].push(EventKind::Internal);
    }
    seqs
}

/// The positions `(process, slot)` of every external event.
fn external_slots(seqs: &[Vec<EventKind>]) -> Vec<(usize, usize)> {
    seqs.iter()
        .enumerate()
        .flat_map(|(p, seq)| {
            seq.iter()
                .enumerate()
                .filter(|(_, ev)| !ev.is_internal())
                .map(move |(i, _)| (p, i))
        })
        .collect()
}

/// Applies one mutation of `kind`; a no-op where the sequences give it
/// nothing to act on.
fn mutate(seqs: &mut [Vec<EventKind>], kind: u32, rng: &mut StdRng) {
    let slots = external_slots(seqs);
    if slots.is_empty() {
        return;
    }
    let (p, i) = slots[rng.gen_range(0..slots.len())];
    match kind {
        // Duplicated key: one endpoint takes another message's key.
        0 => {
            let (q, j) = slots[rng.gen_range(0..slots.len())];
            let Some(MessageId(key)) = seqs[q][j].message() else {
                return;
            };
            seqs[p][i] = match seqs[p][i] {
                EventKind::Send(_) => EventKind::Send(MessageId(key)),
                _ => EventKind::Receive(MessageId(key)),
            };
        }
        // Lonely send or receive: one endpoint is lost.
        1 => {
            seqs[p].remove(i);
        }
        // Self-message: one endpoint moves onto its partner's process.
        2 => {
            let key = seqs[p][i].message();
            let partner = slots
                .iter()
                .find(|&&(q, j)| (q, j) != (p, i) && seqs[q][j].message() == key)
                .map_or(p, |&(q, _)| q);
            let ev = seqs[p].remove(i);
            let at = rng.gen_range(0..=seqs[partner].len());
            seqs[partner].insert(at, ev);
        }
        // Crossing: a process swaps two of its events, which can order a
        // message before one that must precede it.
        _ => {
            let len = seqs[p].len();
            let j = rng.gen_range(0..len);
            seqs[p].swap(i, j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn realizable_sequences_rebuild_as_the_oracle_does(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seqs = realizable(&mut rng);
        let got = SyncComputation::from_process_sequences(seqs.clone());
        prop_assert!(got.is_ok(), "realizable sequences refused: {:?}", got);
        prop_assert_eq!(got, oracle(seqs));
    }

    #[test]
    fn mutated_sequences_fail_or_rebuild_as_the_oracle_does(
        seed in any::<u64>(),
        kind in 0u32..4,
        extra in 0u32..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = realizable(&mut rng);
        mutate(&mut seqs, kind, &mut rng);
        for _ in 0..extra {
            let kind = rng.gen_range(0..4u32);
            mutate(&mut seqs, kind, &mut rng);
        }
        prop_assert_eq!(SyncComputation::from_process_sequences(seqs.clone()), oracle(seqs));
    }
}
