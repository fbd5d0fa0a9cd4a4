//! Live monitoring: a profiler-style observer fed from the threaded
//! runtime's piggybacked timestamps.
//!
//! The workers run a real rendezvous computation; each message's timestamp
//! is forwarded to a [`Monitor`] in a scrambled order (observation
//! channels are not causally ordered). The monitor reconstructs the order
//! relation from the `d`-dimensional stamps alone: frontier, causal
//! histories, and a parallelism metric.
//!
//! Run with: `cargo run --example monitoring`

use rand::seq::SliceRandom;
use rand::SeedableRng;
use synctime::detect::monitor::{Monitor, Observation};
use synctime::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-server, 3-client system on real threads.
    let topo = graph::topology::client_server(2, 3);
    let dec = graph::decompose::best_known(&topo);
    let runtime = Runtime::new(&topo, &dec);

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

    // Observation channel scrambles delivery order.
    let mut order: Vec<usize> = (0..comp.message_count()).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(17));
    let mut monitor = Monitor::new(stamps.dim());
    for i in order {
        monitor.observe(Observation {
            message: MessageId(i),
            stamp: stamps.vector(MessageId(i)),
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
