//! Ablation: what does piggybacking cost the runtime?
//!
//! The Figure 5 protocol rides on the acknowledgements that a synchronous
//! message implementation needs anyway (Murty & Garg). This ablation
//! measures wall-clock per rendezvous on the threaded runtime with
//! timestamping (vectors of several dimensions) against a bare
//! rendezvous-only baseline implemented with the same channel structure,
//! isolating the cost of carrying and merging the vectors.

use std::sync::mpsc::sync_channel;
use std::time::Instant;

use serde::Serialize;
use synctime_bench::{emit, print_host, Table};
use synctime_graph::{decompose, topology};
use synctime_runtime::{Behavior, Runtime};

const ROUNDS: u64 = 20_000;

/// Bare two-thread rendezvous (zero-capacity channel + ack channel), no
/// vectors at all: the floor the protocol adds its piggybacking onto.
fn bare_rendezvous_ns() -> f64 {
    let (dtx, drx) = sync_channel::<u64>(0);
    let (atx, arx) = sync_channel::<u64>(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..ROUNDS {
                dtx.send(i).unwrap();
                arx.recv().unwrap();
            }
        });
        s.spawn(move || {
            for _ in 0..ROUNDS {
                let x = drx.recv().unwrap();
                atx.send(x).unwrap();
            }
        });
    });
    start.elapsed().as_nanos() as f64 / ROUNDS as f64
}

/// Timestamped rendezvous over a `leaves`-leaf star (dimension 1) or a
/// complete graph (dimension n-2): ping messages from one leaf.
fn stamped_rendezvous_ns(dim_hint: &str) -> (usize, f64) {
    let (topo, a, b) = match dim_hint {
        "star" => (topology::star(2), 1usize, 0usize),
        _ => (topology::complete(12), 1usize, 0usize),
    };
    let dec = decompose::best_known(&topo);
    let dim = dec.len();
    let rt = Runtime::new(&topo, &dec);
    let sender: Behavior = Box::new(move |ctx| {
        for i in 0..ROUNDS {
            ctx.send(b, i)?;
        }
        Ok(())
    });
    let receiver: Behavior = Box::new(move |ctx| {
        for _ in 0..ROUNDS {
            ctx.receive_from(a)?;
        }
        Ok(())
    });
    let mut behaviors: Vec<Behavior> = vec![];
    for p in 0..topo.node_count() {
        if p == a {
            behaviors.push(Box::new(|_| Ok(()))); // placeholder, replaced below
        } else if p == b {
            behaviors.push(Box::new(|_| Ok(())));
        } else {
            behaviors.push(Box::new(|_| Ok(())));
        }
    }
    behaviors[a] = sender;
    behaviors[b] = receiver;
    let start = Instant::now();
    rt.run(behaviors).expect("run succeeds");
    (dim, start.elapsed().as_nanos() as f64 / ROUNDS as f64)
}

#[derive(Serialize)]
struct Record {
    configuration: String,
    dim: usize,
    ns_per_rendezvous: f64,
}

fn main() {
    let mut records = Vec::new();
    let bare = bare_rendezvous_ns();
    records.push(Record {
        configuration: "bare rendezvous (no clocks)".into(),
        dim: 0,
        ns_per_rendezvous: bare,
    });
    for hint in ["star", "complete"] {
        let (dim, ns) = stamped_rendezvous_ns(hint);
        records.push(Record {
            configuration: format!("figure 5 protocol over {hint}"),
            dim,
            ns_per_rendezvous: ns,
        });
    }

    let mut table = Table::new(&["configuration", "dim", "ns/rendezvous", "overhead"]);
    for r in &records {
        table.row(&[
            r.configuration.clone(),
            r.dim.to_string(),
            format!("{:.0}", r.ns_per_rendezvous),
            if r.dim == 0 {
                "baseline".to_string()
            } else {
                format!("{:+.1}%", (r.ns_per_rendezvous / bare - 1.0) * 100.0)
            },
        ]);
    }
    print_host();
    emit(
        "Ablation — piggybacking cost per rendezvous on the threaded runtime",
        &table,
        &records,
    );
}
