//! End-to-end agreement: the threaded runtime (real rendezvous channels,
//! piggybacked vectors, acknowledgements) produces exactly the timestamps
//! the deterministic simulator/batch stamper computes for the same
//! computation, and both agree with the ground truth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synctime::prelude::*;

/// Builds matching runtime behaviors and simulator programs for a randomly
/// generated client–server session, so the *same* logical computation runs
/// on both engines.
fn rpc_session(
    servers: usize,
    clients: usize,
    calls_per_client: usize,
    seed: u64,
) -> (Graph, Vec<Vec<usize>>) {
    let topo = graph::topology::client_server(servers, clients);
    let mut rng = StdRng::seed_from_u64(seed);
    // For each client, the sequence of servers it calls.
    let plans: Vec<Vec<usize>> = (0..clients)
        .map(|_| {
            (0..calls_per_client)
                .map(|_| rng.gen_range(0..servers))
                .collect()
        })
        .collect();
    (topo, plans)
}

#[test]
fn runtime_matches_sim() {
    let (servers, clients, calls) = (2, 3, 4);
    let (topo, plans) = rpc_session(servers, clients, calls, 7);
    let dec = graph::decompose::best_known(&topo);

    // --- threaded runtime ---------------------------------------------
    // Each server loops accepting (client, then reply) in a fixed global
    // round-robin derived from the plans, so the behaviors cannot deadlock:
    // server s serves its calls in the order clients issue them by client
    // id, call by call.
    let mut server_queues: Vec<Vec<usize>> = vec![Vec::new(); servers]; // client ids in order
    for call in 0..calls {
        for (c, plan) in plans.iter().enumerate() {
            server_queues[plan[call]].push(servers + c);
        }
    }
    let runtime = Runtime::new(&topo, &dec);
    let mut behaviors: Vec<Behavior> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for s in 0..servers {
        let queue = server_queues[s].clone();
        behaviors.push(Box::new(move |ctx| {
            for client in queue {
                let (x, _) = ctx.receive_from(client)?;
                ctx.send(client, x + 1)?;
            }
            Ok(())
        }));
    }
    for (c, plan) in plans.iter().enumerate() {
        let plan = plan.clone();
        behaviors.push(Box::new(move |ctx| {
            for srv in plan {
                ctx.send(srv, c as u64)?;
                ctx.receive_from(srv)?;
            }
            Ok(())
        }));
    }
    let run = runtime.run(behaviors).unwrap();
    let (live_comp, live_stamps) = run.reconstruct().unwrap();

    // --- the stamps are correct and schedule-independent ----------------
    let oracle = Oracle::new(&live_comp);
    assert!(live_stamps.encodes(&oracle));
    let batch = OnlineStamper::new(&dec)
        .stamp_computation(&live_comp)
        .unwrap();
    assert_eq!(live_stamps, batch);

    // --- simulator runs the same scripts --------------------------------
    let mut programs: Vec<Program> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for s in 0..servers {
        let mut p = Program::new();
        for &client in &server_queues[s] {
            p = p.receive_from(client).send_to(client);
        }
        programs.push(p);
    }
    for (c, plan) in plans.iter().enumerate() {
        let mut p = Program::new();
        for &srv in plan {
            p = p.send_to(srv).receive_from(srv);
        }
        programs.push(p);
        let _ = c;
    }
    let sim_comp = Simulator::new()
        .with_topology(&topo)
        .run(&programs)
        .unwrap();

    // The two engines may interleave concurrent rendezvous differently, but
    // they realize the same partial order: same per-process sequences of
    // (peer, direction), and isomorphic posets.
    for p in 0..topo.node_count() {
        let live_seq: Vec<(usize, usize)> = live_comp
            .process_messages(p)
            .iter()
            .map(|&m| {
                let msg = live_comp.message(m);
                (msg.sender, msg.receiver)
            })
            .collect();
        let sim_seq: Vec<(usize, usize)> = sim_comp
            .process_messages(p)
            .iter()
            .map(|&m| {
                let msg = sim_comp.message(m);
                (msg.sender, msg.receiver)
            })
            .collect();
        assert_eq!(live_seq, sim_seq, "process {p} sequences differ");
    }
    // Stamping the simulator's computation gives vectors that encode *its*
    // oracle too (and the multisets of timestamps coincide).
    let sim_stamps = OnlineStamper::new(&dec)
        .stamp_computation(&sim_comp)
        .unwrap();
    assert!(sim_stamps.encodes(&Oracle::new(&sim_comp)));
    let mut live_sorted: Vec<&[u64]> = live_stamps.rows().collect();
    let mut sim_sorted: Vec<&[u64]> = sim_stamps.rows().collect();
    live_sorted.sort();
    sim_sorted.sort();
    assert_eq!(live_sorted, sim_sorted);
}

#[test]
fn runtime_event_stamps_detect_races() {
    // Full pipeline on threads: run, reconstruct, stamp events, and check
    // Theorem 9 against the oracle.
    let topo = graph::topology::complete(3);
    let dec = graph::decompose::best_known(&topo);
    let run = Runtime::new(&topo, &dec)
        .run(vec![
            Box::new(|ctx| {
                ctx.internal();
                ctx.send(1, 1)?;
                ctx.internal();
                ctx.send(2, 2)?;
                Ok(())
            }),
            Box::new(|ctx| {
                ctx.receive_from(0)?;
                ctx.internal();
                Ok(())
            }),
            Box::new(|ctx| {
                ctx.internal();
                ctx.receive_from(0)?;
                Ok(())
            }),
        ])
        .unwrap();
    let (comp, stamps) = run.reconstruct().unwrap();
    let events = stamp_events(&comp, &stamps);
    let oracle = Oracle::new(&comp);
    assert!(events.encodes(&comp, &oracle));
}
