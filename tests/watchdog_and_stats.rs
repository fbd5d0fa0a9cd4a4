//! The runtime's observability layer end to end: the deadlock watchdog
//! turns stalled rendezvous into diagnosed errors, never flags a live run,
//! and adds no tail to a finished one; clean runs produce consistent
//! `RunStats` summaries.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime::prelude::*;
use synctime::runtime::{RunStats, RuntimeError, WaitOp};
use synctime::sim::programs;
use synctime_graph::{decompose, topology};

/// A deliberately deadlocked 2-process program: both sides block in
/// `receive_from` forever. The watchdog must abort with the 0 <-> 1 cycle
/// well within the test's patience, instead of hanging the suite.
#[test]
fn deadlocked_program_aborts_with_cycle() {
    let topo = topology::path(2);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec)
        .with_watchdog(Duration::from_millis(150))
        .unwrap();
    let started = Instant::now();
    let err = rt
        .run(vec![
            Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(0).map(|_| ())),
        ])
        .unwrap_err();
    assert!(started.elapsed() < Duration::from_secs(30), "near-hang");
    let RuntimeError::Deadlock { ref diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![0, 1]);
    assert_eq!(diagnosis.waiting.len(), 2);
    assert!(diagnosis
        .waiting
        .iter()
        .all(|w| w.op == WaitOp::ReceiveFrom));
    // The rendered diagnosis names the cycle for log consumers.
    assert!(err.to_string().contains("P0 -> P1 -> P0"), "{err}");
}

/// Three processes in a send cycle over a triangle: 0 -> 1 -> 2 -> 0, all
/// blocked sending. The watchdog extracts the 3-cycle.
#[test]
fn three_process_send_cycle_is_diagnosed() {
    let topo = topology::triangle();
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec)
        .with_watchdog(Duration::from_millis(150))
        .unwrap();
    let err = rt
        .run(vec![
            Box::new(|ctx| ctx.send(1, 0).map(|_| ())),
            Box::new(|ctx| ctx.send(2, 0).map(|_| ())),
            Box::new(|ctx| ctx.send(0, 0).map(|_| ())),
        ])
        .unwrap_err();
    let RuntimeError::Deadlock { diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![0, 1, 2]);
    assert!(diagnosis.waiting.iter().all(|w| w.op == WaitOp::SendTo));
}

/// Slow is not dead: a pipeline whose stages nap for multiples of the
/// watchdog timeout between rendezvous. Peers park far longer than the
/// timeout, but no wait cycle ever forms, so the cycle-based watchdog must
/// let the run finish instead of mistaking patience for deadlock.
#[test]
fn slow_but_live_pipeline_is_never_flagged() {
    let topo = topology::path(3);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec)
        .with_watchdog(Duration::from_millis(40))
        .unwrap();
    let run = rt
        .run(vec![
            Box::new(|ctx| {
                for i in 0..3 {
                    std::thread::sleep(Duration::from_millis(120));
                    ctx.send(1, i)?;
                }
                Ok(())
            }),
            Box::new(|ctx| {
                for _ in 0..3 {
                    let (x, _) = ctx.receive_from(0)?;
                    std::thread::sleep(Duration::from_millis(60));
                    ctx.send(2, x)?;
                }
                Ok(())
            }),
            Box::new(|ctx| {
                for _ in 0..3 {
                    ctx.receive_from(1)?;
                }
                Ok(())
            }),
        ])
        .expect("slow-but-live pipeline was flagged as deadlocked");
    assert_eq!(run.stats().messages, 6);
}

/// A genuine deadlock among a subset must be caught even while a bystander
/// keeps doing useful (non-blocking) work: the watchdog reasons about wait
/// cycles, not about whether every thread is stuck.
#[test]
fn partial_deadlock_is_diagnosed_despite_live_bystander() {
    let topo = topology::path(3);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec)
        .with_watchdog(Duration::from_millis(150))
        .unwrap();
    let err = rt
        .run(vec![
            Box::new(|_ctx| {
                // Alive and busy, never waiting on anyone.
                std::thread::sleep(Duration::from_millis(600));
                Ok(())
            }),
            Box::new(|ctx| ctx.receive_from(2).map(|_| ())),
            Box::new(|ctx| ctx.receive_from(1).map(|_| ())),
        ])
        .unwrap_err();
    let RuntimeError::Deadlock { diagnosis } = err else {
        panic!("expected a deadlock diagnosis, got {err}");
    };
    assert_eq!(diagnosis.cycle, vec![1, 2]);
    assert!(!diagnosis.cycle.contains(&0), "P0 was never waiting");
}

/// Replays one directed script per process on the runtime under a 1 ms
/// watchdog — the tightest timeout the CLI accepts.
fn run_scripts_at_1ms(topo: &Graph, scripts: &[Program]) -> Result<RuntimeRun, RuntimeError> {
    let dec = decompose::best_known(topo);
    let behaviors: Vec<Behavior> = scripts
        .iter()
        .map(|script| -> Behavior {
            let ops = script.ops().to_vec();
            Box::new(move |ctx| {
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
            })
        })
        .collect();
    Runtime::new(topo, &dec)
        .with_watchdog(Duration::from_millis(1))?
        .run(behaviors)
}

/// `laps` trips of a token from P0 around `cycle(n)`.
fn token_ring(n: usize, laps: usize) -> (Graph, SyncComputation) {
    let topo = topology::cycle(n);
    let mut b = Builder::with_topology(&topo);
    for _ in 0..laps {
        for p in 0..n {
            b.message(p, (p + 1) % n).expect("ring channel exists");
        }
    }
    (topo, b.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Live schedules are never flagged, however tight the watchdog. Token
    /// rings and client–server RPC scripts are deadlock-free by
    /// construction, yet at 1 ms their threads are routinely parked past
    /// the timeout mid-rendezvous — a receiver whose offer has just
    /// arrived, a sender whose offer was taken and acknowledged but who is
    /// not yet rescheduled. Only waits the channel confirms may form a
    /// cycle, so every run must finish and replay its scripts.
    #[test]
    fn live_schedules_are_never_flagged_at_1ms(
        ring_size in 3usize..=8,
        laps in 50usize..400,
        servers in 1usize..=3,
        clients in 2usize..=6,
        rpcs in 100usize..1500,
        seed in 0u64..10_000,
    ) {
        let ring = token_ring(ring_size, laps);
        let rpc = scenarios::client_server_rpc(
            servers,
            clients,
            rpcs,
            &mut StdRng::seed_from_u64(seed),
        );
        for (name, topo, computation) in [
            ("token ring", &ring.0, &ring.1),
            ("client-server", &rpc.topology, &rpc.computation),
        ] {
            let run = run_scripts_at_1ms(topo, &programs::from_computation(computation))
                .map_err(|e| TestCaseError::Fail(format!("{name}: {e}")))?;
            let (replayed, _) = run
                .reconstruct()
                .map_err(|e| TestCaseError::Fail(format!("{name}: {e}")))?;
            prop_assert!(
                programs::roundtrips(computation, &replayed),
                "{} replay diverged from its scripts", name
            );
        }
    }
}

/// A run ends when its last behavior does. Under the default 10 s timeout
/// the watchdog polls every 50 ms; it is woken as the run finishes, so
/// twenty runs of no-op behaviors take milliseconds, not the full second
/// that waiting out one poll per run would cost.
#[test]
fn runs_end_with_their_behaviors_not_at_the_next_watchdog_poll() {
    let topo = topology::cycle(3);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec);
    let started = Instant::now();
    for _ in 0..20 {
        let behaviors: Vec<Behavior> = (0..3)
            .map(|_| -> Behavior { Box::new(|_| Ok(())) })
            .collect();
        rt.run(behaviors).expect("no-op behaviors cannot fail");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "20 no-op runs took {elapsed:?}"
    );
}

/// A parked token ring reconstructs a correctly stamped computation, and
/// its stats expose the wakeup path the parking matcher actually took.
#[test]
fn matchers_agree_and_parking_reports_wakeups() {
    let topo = topology::cycle(3);
    let dec = decompose::best_known(&topo);
    let behaviors = |rounds: u64| -> Vec<Behavior> {
        (0..3)
            .map(|p| -> Behavior {
                Box::new(move |ctx| {
                    for i in 0..rounds {
                        if p == 0 {
                            ctx.send(1, i)?;
                            ctx.receive_from(2)?;
                        } else {
                            let (t, _) = ctx.receive_from(p - 1)?;
                            ctx.send((p + 1) % 3, t)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect()
    };
    let parking = Runtime::new(&topo, &dec).run(behaviors(20)).unwrap();
    assert_eq!(parking.stats().messages, 60);
    let (comp, stamps) = parking.reconstruct().unwrap();
    assert!(stamps.encodes(&Oracle::new(&comp)));
    let s = parking.stats();
    assert!(s.wakeups > 0, "a ring must park at least once");
    assert!(s.wakeup_p50_ns <= s.wakeup_p99_ns);
    assert!(s.wakeup_p99_ns <= s.wakeup_max_ns);
}

/// A correct program under a tight watchdog: many rounds, never tripped,
/// and the stats line up with the protocol's accounting.
#[test]
fn clean_run_stats_are_consistent() {
    let topo = topology::cycle(4);
    let dec = decompose::best_known(&topo);
    let rounds = 25u64;
    let rt = Runtime::new(&topo, &dec)
        .with_watchdog(Duration::from_millis(500))
        .unwrap();
    let behaviors: Vec<Behavior> = (0..4)
        .map(|p| -> Behavior {
            Box::new(move |ctx| {
                for i in 0..rounds {
                    if p == 0 {
                        ctx.send(1, i)?;
                        ctx.receive_from(3)?;
                    } else {
                        let (token, _) = ctx.receive_from(p - 1)?;
                        ctx.send((p + 1) % 4, token)?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    let run = rt.run(behaviors).expect("clean ring tripped the watchdog");
    let stats = run.stats();
    assert_eq!(stats.messages, 4 * rounds);
    assert_eq!(stats.receives, 4 * rounds);
    // Every rendezvous would move one offer frame plus one ack frame with
    // full fixed-width d-vectors (frame headers included); that baseline is
    // counted at both endpoints. The actual bytes ride per-channel delta
    // streams, so they are positive and never exceed the baseline.
    let dim = dec.len() as u64;
    assert_eq!(
        stats.total_wire_bytes_full,
        stats.messages * 2 * synctime_core::wire::rendezvous_bytes_full(dim as usize)
    );
    assert!(stats.total_wire_bytes > 0);
    assert!(stats.total_wire_bytes <= stats.total_wire_bytes_full);
    assert!(stats.ack_latency_p50_ns > 0);
    assert!(stats.ack_latency_p99_ns >= stats.ack_latency_p50_ns);
    assert!(stats.ack_latency_max_ns >= stats.ack_latency_p99_ns);
    // The token made `rounds` trips through each edge group; components
    // count exactly the messages of their group.
    assert_eq!(
        stats.max_vector_component,
        stats.messages / dim.max(1),
        "components partition the {} messages across {} groups",
        stats.messages,
        dim
    );
    // Per-process counters sum to the totals.
    let sends: u64 = stats.per_process.iter().map(|p| p.sends).sum();
    assert_eq!(sends, stats.messages);
    // The JSON export round-trips losslessly.
    let reparsed = RunStats::from_json(&stats.to_json()).unwrap();
    assert_eq!(&reparsed, stats);
}
