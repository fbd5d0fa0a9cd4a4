//! Live monitoring: a profiler-style observer fed from the threaded
//! runtime's piggybacked timestamps.
//!
//! The workers run a real rendezvous computation with a log sink
//! installed; every message's timestamp streams out of its sender's
//! thread as the rendezvous completes, and is forwarded to a [`Monitor`]
//! in a scrambled order (observation channels are not causally ordered).
//! The monitor reconstructs the order relation from the `d`-dimensional
//! stamps alone: frontier, causal histories, and a parallelism metric.
//!
//! Run with: `cargo run --example monitoring`

use rand::seq::SliceRandom;
use rand::SeedableRng;
use synctime::detect::monitor::{Monitor, Observation};
use synctime::prelude::*;
use synctime::runtime::LogEntry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-server, 3-client system on real threads.
    let topo = graph::topology::client_server(2, 3);
    let dec = graph::decompose::best_known(&topo);
    let (tx, rx) = std::sync::mpsc::channel();
    let runtime = Runtime::new(&topo, &dec).with_log_sink(tx);

    let client = |id: usize| -> Behavior {
        Box::new(move |ctx| {
            for round in 0..3u64 {
                let server = (id as u64 + round) as usize % 2;
                ctx.send(server, round)?;
                ctx.receive_from(server)?;
            }
            Ok(())
        })
    };
    let server = |queue: Vec<(usize, usize)>| -> Behavior {
        // (client, count) pairs served in order.
        Box::new(move |ctx| {
            for (client, count) in &queue {
                for _ in 0..*count {
                    let (x, _) = ctx.receive_from(*client)?;
                    ctx.send(*client, x + 1)?;
                }
            }
            Ok(())
        })
    };
    // Client c sends to servers (c+0)%2, (c+1)%2, (c+2)%2 in rounds 0..3.
    // Server s receives from each client in that client's round order; we
    // serve clients in a fixed order per server consistent with rounds:
    // derive the queues from the plan.
    let mut queues: Vec<Vec<(usize, usize)>> = vec![Vec::new(); 2];
    for round in 0..3usize {
        for c in 0..3usize {
            let s = (c + round) % 2;
            queues[s].push((c + 2, 1));
        }
    }
    let run = runtime.run(vec![
        server(queues[0].clone()),
        server(queues[1].clone()),
        client(0),
        client(1),
        client(2),
    ])?;
    let (comp, stamps) = run.reconstruct()?;
    println!(
        "executed {} rendezvous; forwarding stamps ({}-dimensional) to the monitor\n",
        comp.message_count(),
        stamps.dim()
    );

    // The reconstructed trace numbers messages in its own order: map each
    // runtime message key to its id there.
    let mut id_of = std::collections::HashMap::new();
    for (p, log) in run.logs().iter().enumerate() {
        let keys = log.iter().filter_map(|entry| match entry {
            LogEntry::Sent { key, .. } | LogEntry::Received { key, .. } => Some(*key),
            LogEntry::Internal => None,
        });
        for (&id, key) in comp.process_messages(p).iter().zip(keys) {
            id_of.insert(key, id);
        }
    }

    // One stamp per message: the sender's `Sent` entry. The observation
    // channel scrambles delivery order.
    let mut observed: Vec<(u64, VectorTime)> = rx
        .try_iter()
        .flatten()
        .filter_map(|event| match event.entry {
            LogEntry::Sent { key, stamp, .. } => Some((key, stamp)),
            _ => None,
        })
        .collect();
    observed.shuffle(&mut rand::rngs::StdRng::seed_from_u64(17));
    let mut monitor = Monitor::new(stamps.dim());
    for (key, stamp) in observed {
        monitor.observe(Observation {
            message: id_of[&key],
            stamp,
        })?;
    }

    println!("monitor state after full observation:");
    println!("  observed messages : {}", monitor.len());
    println!("  frontier          : {:?}", monitor.frontier());
    println!("  concurrent pairs  : {}", monitor.concurrent_pairs());
    let last = MessageId(comp.message_count() - 1);
    println!(
        "  |history({last})|  : {}",
        monitor.history_of(last).unwrap().len()
    );

    // Spot-check the monitor against the ground truth.
    let oracle = Oracle::new(&comp);
    for i in 0..comp.message_count() {
        for j in 0..comp.message_count() {
            assert_eq!(
                monitor.precedes(MessageId(i), MessageId(j)).unwrap(),
                oracle.synchronously_precedes(MessageId(i), MessageId(j))
            );
        }
    }
    println!("\nmonitor verdicts match the ground truth on all pairs ✓");
    Ok(())
}
