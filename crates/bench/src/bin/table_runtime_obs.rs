//! Experiment R3: observability summaries of real threaded runs.
//!
//! Runs token-ring and client-server workloads on the threaded rendezvous
//! runtime and reports each run's [`RunStats`]: message counts, ack-latency
//! percentiles (the cost of the Figure 5 acknowledgement round-trip), total
//! wire bytes with the `d`-component piggybacked vectors, and the largest
//! vector component. This is the table form of `synctime run --stats`.

use serde::Serialize;
use synctime_bench::{emit, print_host, Table};
use synctime_graph::{decompose, topology, Graph};
use synctime_runtime::{Behavior, RunStats, Runtime};

#[derive(Serialize)]
struct Record {
    workload: String,
    processes: usize,
    dim: usize,
    stats: RunStats,
}

/// Token ring: process 0 injects a token that makes `rounds` trips.
fn ring_behaviors(n: usize, rounds: usize) -> Vec<Behavior> {
    (0..n)
        .map(|p| -> Behavior {
            Box::new(move |ctx| {
                for i in 0..rounds {
                    if p == 0 {
                        ctx.send(1, i as u64)?;
                        ctx.receive_from(n - 1)?;
                    } else {
                        let (token, _) = ctx.receive_from(p - 1)?;
                        ctx.send((p + 1) % n, token)?;
                    }
                }
                Ok(())
            })
        })
        .collect()
}

/// Client-server: every client sends `requests` requests to its server
/// (round-robin over servers) and awaits a reply for each.
fn client_server_behaviors(servers: usize, clients: usize, requests: usize) -> Vec<Behavior> {
    let mut behaviors: Vec<Behavior> = Vec::with_capacity(servers + clients);
    for s in 0..servers {
        // Server s serves the clients assigned to it, in a fixed order.
        let mine: Vec<usize> = (0..clients)
            .filter(|c| c % servers == s)
            .map(|c| servers + c)
            .collect();
        behaviors.push(Box::new(move |ctx| {
            for _ in 0..requests {
                for &c in &mine {
                    let (x, _) = ctx.receive_from(c)?;
                    ctx.send(c, x + 1)?;
                }
            }
            Ok(())
        }));
    }
    for c in 0..clients {
        let server = c % servers;
        behaviors.push(Box::new(move |ctx| {
            for i in 0..requests {
                ctx.send(server, i as u64)?;
                ctx.receive_from(server)?;
            }
            Ok(())
        }));
    }
    behaviors
}

fn measure(workload: &str, topo: &Graph, behaviors: Vec<Behavior>) -> Record {
    let dec = decompose::best_known(topo);
    let run = Runtime::new(topo, &dec)
        .run(behaviors)
        .expect("workload deadlocked");
    Record {
        workload: workload.to_string(),
        processes: topo.node_count(),
        dim: dec.len(),
        stats: run.stats().clone(),
    }
}

fn main() {
    let records = vec![
        measure("ring(4) x 50", &topology::cycle(4), ring_behaviors(4, 50)),
        measure("ring(8) x 50", &topology::cycle(8), ring_behaviors(8, 50)),
        measure(
            "clients(2x8) x 25",
            &topology::client_server(2, 8),
            client_server_behaviors(2, 8, 25),
        ),
        measure(
            "clients(4x16) x 10",
            &topology::client_server(4, 16),
            client_server_behaviors(4, 16, 10),
        ),
    ];

    let mut table = Table::new(&[
        "workload",
        "N",
        "d",
        "msgs",
        "wire KiB",
        "ack p50 us",
        "ack p99 us",
        "max comp",
    ]);
    for r in &records {
        table.row(&[
            r.workload.clone(),
            r.processes.to_string(),
            r.dim.to_string(),
            r.stats.messages.to_string(),
            format!("{:.1}", r.stats.total_wire_bytes as f64 / 1024.0),
            format!("{:.1}", r.stats.ack_latency_p50_ns as f64 / 1e3),
            format!("{:.1}", r.stats.ack_latency_p99_ns as f64 / 1e3),
            r.stats.max_vector_component.to_string(),
        ]);
        // Sanity: the counters are consistent with the workload shape.
        assert_eq!(r.stats.messages, r.stats.receives);
        assert!(r.stats.messages > 0);
        assert!(r.stats.ack_latency_p50_ns > 0);
        // Every message would carry key + payload + d vector, acked with a
        // d vector, at full width in whole OFFER and ACK frames — that
        // baseline is counted at both endpoints; the actual bytes ride
        // per-channel delta streams and never exceed it.
        assert_eq!(
            r.stats.total_wire_bytes_full,
            r.stats.messages * 2 * synctime_core::wire::rendezvous_bytes_full(r.dim)
        );
        assert!(r.stats.total_wire_bytes > 0);
        assert!(r.stats.total_wire_bytes <= r.stats.total_wire_bytes_full);
    }
    print_host();
    emit(
        "R3 — threaded runtime observability (RunStats per workload)",
        &table,
        &records,
    );
}
