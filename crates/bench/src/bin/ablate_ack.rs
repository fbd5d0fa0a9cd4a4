//! Ablation: what does piggybacking cost the runtime?
//!
//! The Figure 5 protocol rides on the acknowledgements that a synchronous
//! message implementation needs anyway (Murty & Garg). This ablation
//! measures wall-clock per rendezvous on the threaded runtime with
//! timestamping (vectors of several dimensions) against a bare
//! rendezvous-only baseline implemented with the same channel structure,
//! isolating the cost of carrying and merging the vectors.
//!
//! One sample is one timed run of [`ROUNDS`] rendezvous, and a single
//! sample mostly times how the host schedules two threads. So each row
//! takes [`SAMPLES`] samples, interleaved with the other rows' so that
//! host drift reaches every row alike, and prints their median with the
//! min–max range.

use std::sync::mpsc::sync_channel;
use std::time::Instant;

use serde::Serialize;
use synctime_bench::{emit, print_host, Table};
use synctime_graph::{decompose, topology, EdgeDecomposition, Graph};
use synctime_runtime::{Behavior, Runtime};

/// Rendezvous per sample.
const ROUNDS: u64 = 10_000;

/// Samples per row.
const SAMPLES: usize = 9;

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

/// Timestamped rendezvous over `topo`: process 1 pings process 0, and
/// every other process exits at once.
fn stamped_rendezvous_ns(topo: &Graph, dec: &EdgeDecomposition) -> f64 {
    let (a, b) = (1usize, 0usize);
    let mut behaviors: Vec<Behavior> = (0..topo.node_count())
        .map(|_| -> Behavior { Box::new(|_| Ok(())) })
        .collect();
    behaviors[a] = Box::new(move |ctx| {
        for i in 0..ROUNDS {
            ctx.send(b, i)?;
        }
        Ok(())
    });
    behaviors[b] = Box::new(move |ctx| {
        for _ in 0..ROUNDS {
            ctx.receive_from(a)?;
        }
        Ok(())
    });
    let rt = Runtime::new(topo, dec);
    let start = Instant::now();
    rt.run(behaviors).expect("run succeeds");
    start.elapsed().as_nanos() as f64 / ROUNDS as f64
}

#[derive(Serialize)]
struct Record {
    configuration: String,
    dim: usize,
    samples: usize,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

fn main() {
    // A star of two leaves (dimension 1) and a complete graph (dimension
    // n - 2), each after the bare baseline, which has no topology.
    let stamped: Vec<(&str, Graph, EdgeDecomposition)> = [
        ("star", topology::star(2)),
        ("complete", topology::complete(12)),
    ]
    .into_iter()
    .map(|(name, topo)| {
        let dec = decompose::best_known(&topo);
        (name, topo, dec)
    })
    .collect();
    let mut samples = vec![Vec::with_capacity(SAMPLES); 1 + stamped.len()];
    for _ in 0..SAMPLES {
        samples[0].push(bare_rendezvous_ns());
        for (row, (_, topo, dec)) in stamped.iter().enumerate() {
            samples[row + 1].push(stamped_rendezvous_ns(topo, dec));
        }
    }
    let configurations = std::iter::once(("bare rendezvous (no clocks)".to_string(), 0)).chain(
        stamped
            .iter()
            .map(|(name, _, dec)| (format!("figure 5 protocol over {name}"), dec.len())),
    );
    let records: Vec<Record> = configurations
        .zip(&mut samples)
        .map(|((configuration, dim), row)| {
            row.sort_by(f64::total_cmp);
            Record {
                configuration,
                dim,
                samples: row.len(),
                median_ns: row[row.len() / 2],
                min_ns: row[0],
                max_ns: row[row.len() - 1],
            }
        })
        .collect();

    let bare = records[0].median_ns;
    let mut table = Table::new(&[
        "configuration",
        "dim",
        "median ns/rendezvous",
        "min-max",
        "overhead",
    ]);
    for r in &records {
        table.row(&[
            r.configuration.clone(),
            r.dim.to_string(),
            format!("{:.0}", r.median_ns),
            format!("{:.0}-{:.0}", r.min_ns, r.max_ns),
            if r.dim == 0 {
                "baseline".to_string()
            } else {
                format!("{:+.1}%", (r.median_ns / bare - 1.0) * 100.0)
            },
        ]);
    }
    print_host();
    emit(
        &format!(
            "Ablation — piggybacking cost per rendezvous on the threaded runtime \
             (median of {SAMPLES} interleaved samples of {ROUNDS} rendezvous)"
        ),
        &table,
        &records,
    );
}
