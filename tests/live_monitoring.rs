//! The full monitoring pipeline on real threads: the runtime streams its
//! log entries to a sink while the computation executes; a Monitor
//! ingests the `Sent` entries, one stamp per message, in whatever order
//! the channel delivers them, and must agree with the ground-truth oracle
//! once the run completes.

use synctime::detect::monitor::{Monitor, Observation};
use synctime::prelude::*;
use synctime::runtime::{LogEntry, PersistEvent};

#[test]
fn live_observer_feeds_an_accurate_monitor() {
    let topo = graph::topology::client_server(2, 3);
    let dec = graph::decompose::best_known(&topo);
    let (tx, rx) = std::sync::mpsc::channel::<Vec<PersistEvent>>();
    let runtime = Runtime::new(&topo, &dec).with_log_sink(tx);

    let client = |id: usize| -> Behavior {
        Box::new(move |ctx| {
            for srv in [0usize, 1, 0] {
                ctx.send(srv, id as u64)?;
                ctx.receive_from(srv)?;
            }
            Ok(())
        })
    };
    // Each server serves the clients' visits in client order per round.
    let server = |visits: Vec<usize>| -> Behavior {
        Box::new(move |ctx| {
            for c in &visits {
                let (x, _) = ctx.receive_from(*c)?;
                ctx.send(*c, x)?;
            }
            Ok(())
        })
    };
    // Clients 2,3,4 visit servers 0,1,0: server 0 sees each client twice
    // (rounds 0 and 2), server 1 once (round 1).
    let s0_visits = vec![2, 3, 4, 2, 3, 4];
    let s1_visits = vec![2, 3, 4];
    let run = runtime
        .run(vec![
            server(s0_visits),
            server(s1_visits),
            client(2),
            client(3),
            client(4),
        ])
        .unwrap();

    // Ingest the stream's sends. Keys are runtime-internal; the monitor
    // only needs distinct ids, so reuse them directly.
    let mut monitor = Monitor::new(dec.len());
    let mut key_count = 0;
    for event in rx.try_iter().flatten() {
        if let LogEntry::Sent { key, stamp, .. } = event.entry {
            monitor
                .observe(Observation {
                    message: MessageId(key as usize),
                    stamp,
                })
                .unwrap();
            key_count += 1;
        }
    }
    let (comp, stamps) = run.reconstruct().unwrap();
    assert_eq!(key_count, comp.message_count());
    assert_eq!(monitor.len(), comp.message_count());

    // The monitor's verdicts coincide with the oracle's. Map each runtime
    // key to the reconstructed message id via per-process log order.
    let oracle = Oracle::new(&comp);
    let mut key_of: Vec<Option<u64>> = vec![None; comp.message_count()];
    for (p, log) in run.logs().iter().enumerate() {
        let mut next = 0usize;
        for entry in log {
            if let LogEntry::Sent { key, .. } | LogEntry::Received { key, .. } = entry {
                let id = comp.process_messages(p)[next];
                next += 1;
                key_of[id.0].get_or_insert(*key);
            }
        }
    }
    for i in 0..comp.message_count() {
        for j in 0..comp.message_count() {
            if i == j {
                continue;
            }
            let (ki, kj) = (
                MessageId(key_of[i].unwrap() as usize),
                MessageId(key_of[j].unwrap() as usize),
            );
            assert_eq!(
                monitor.precedes(ki, kj).unwrap(),
                oracle.synchronously_precedes(MessageId(i), MessageId(j)),
                "pair ({i}, {j})"
            );
        }
    }
    // And the batch stamps match what was streamed.
    assert!(stamps.encodes(&oracle));
}
