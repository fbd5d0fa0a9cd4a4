//! `synctime` — timestamp synchronous computations from the command line.
//!
//! ```text
//! synctime decompose --topology star:8
//! synctime decompose --topology topo.json --optimal
//! synctime stamp --topology clients:3x20 --trace trace.json [--algorithm online|offline|fm|lamport]
//! synctime diagram --trace trace.json
//! synctime query --topology topo.json --trace trace.json --m1 2 --m2 7
//! synctime run --ring 4 --rounds 5 --stats
//! synctime run --programs programs.json [--watchdog-ms 2000]
//! ```
//!
//! `run` executes programs on real OS threads with rendezvous channels (the
//! Figure 5 protocol); `--stats` prints a JSON observability summary and a
//! watchdog turns stalls into a diagnosed deadlock error.
//!
//! Topology specs: `star:L`, `triangle`, `complete:N`, `clients:SxC`,
//! `tree:BxD`, `cycle:N`, `path:N`, `grid:RxC`, or a JSON file
//! `{"nodes": N, "edges": [[u, v], ...]}`.
//!
//! Trace files: `{"processes": N, "events": [{"message": [s, r]},
//! {"internal": p}, ...]}` in rendezvous order.

use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            // One write, so the lines of nodes sharing a launcher's stderr
            // never interleave.
            let line = format!("error: {e}\n");
            let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
            ExitCode::FAILURE
        }
    }
}
