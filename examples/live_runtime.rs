//! The online protocol on real threads: rendezvous channels, piggybacked
//! vectors, acknowledgements — Figure 5 exactly as a runtime would ship it.
//!
//! Five threads implement a tiny work-distribution service over a
//! client–server topology; every send blocks until the receiver takes the
//! message and acknowledges it, and both sides deterministically agree on
//! each message's timestamp. Afterwards the execution's logs are
//! reconstructed into a `SyncComputation` and cross-checked against the
//! ground-truth oracle and the batch stamper.
//!
//! Run with: `cargo run --example live_runtime`

use synctime::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two servers (0, 1), three clients (2, 3, 4).
    let topo = graph::topology::client_server(2, 3);
    let dec = graph::decompose::best_known(&topo);
    assert_eq!(dec.len(), 2);
    let runtime = Runtime::new(&topo, &dec);

    const ROUNDS: u64 = 3;
    let server = |_id: usize| -> Behavior {
        Box::new(move |ctx| {
            // Serve ROUNDS requests from each of the three clients, in
            // whatever order their rendezvous arrive per client.
            for _ in 0..ROUNDS {
                for client in 2..=4 {
                    let (job, _t) = ctx.receive_from(client)?;
                    ctx.internal(); // do the work
                    ctx.send(client, job * 10)?;
                }
            }
            Ok(())
        })
    };
    let client = |id: usize| -> Behavior {
        Box::new(move |ctx| {
            for round in 0..ROUNDS {
                for srv in 0..=1 {
                    let job = (id as u64) * 100 + round;
                    // Stamps are borrowed from the process's log: keep
                    // the request's across the next call by cloning it.
                    let t_req = ctx.send(srv, job)?.clone();
                    let (result, t_rep) = ctx.receive_from(srv)?;
                    assert_eq!(result, job * 10);
                    // The reply's stamp strictly dominates the request's.
                    assert!(&t_req < t_rep);
                }
            }
            Ok(())
        })
    };

    let run = runtime.run(vec![server(0), server(1), client(2), client(3), client(4)])?;

    let (comp, live_stamps) = run.reconstruct()?;
    println!(
        "executed {} rendezvous across {} threads; vector dimension {}",
        comp.message_count(),
        comp.process_count(),
        live_stamps.dim()
    );

    // The piggybacked stamps encode the true order...
    let oracle = Oracle::new(&comp);
    assert!(live_stamps.encodes(&oracle));
    // ...and equal what the batch stamper computes for the same computation
    // (the protocol is deterministic given the computation, independent of
    // the thread schedule).
    let batch = OnlineStamper::new(&dec).stamp_computation(&comp)?;
    assert_eq!(live_stamps, batch);
    println!("piggybacked timestamps = batch timestamps = ground truth ✓");

    // Show a few.
    for m in comp.messages().iter().take(6) {
        println!(
            "  {}: P{} -> P{}  v = {}",
            m.id,
            m.sender,
            m.receiver,
            live_stamps.vector(m.id)
        );
    }
    Ok(())
}
