//! Shared helpers for the experiment harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded outputs); the benches in `benches/` cover the timing claims,
//! the self-timed suites among them through [`report`]. Binaries print an
//! aligned human-readable table to stdout and, when `--json` is passed, a
//! machine-readable JSON array to stderr.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use std::fmt::Display;

use serde::Serialize;
use synctime_runtime::Behavior;
use synctime_sim::ring_behavior;

/// A token ring over the whole universe `0..n`, process 0 at its head:
/// [`ring_behavior`] for every process.
pub fn token_ring(n: usize, rounds: u64) -> Vec<Behavior> {
    let active: Vec<usize> = (0..n).collect();
    active
        .iter()
        .map(|&p| ring_behavior(&active, p, rounds))
        .collect()
}

/// Client-server over `topology::client_server(servers, clients)`, whose
/// servers are `0..servers` and clients the rest: client `k` sends
/// `rounds` requests to server `k mod servers` and awaits a reply to
/// each, and each server round-robins its own clients in id order.
pub fn client_server_behaviors(servers: usize, clients: usize, rounds: u64) -> Vec<Behavior> {
    let mut behaviors: Vec<Behavior> = Vec::with_capacity(servers + clients);
    for s in 0..servers {
        let mine: Vec<usize> = (0..clients)
            .filter(|c| c % servers == s)
            .map(|c| servers + c)
            .collect();
        behaviors.push(Box::new(move |ctx| {
            for _ in 0..rounds {
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
            for r in 0..rounds {
                ctx.send(server, r)?;
                ctx.receive_from(server)?;
            }
            Ok(())
        }));
    }
    behaviors
}

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    pub fn new<S: Display>(header: &[S]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        let cells: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Prints the host's hardware threads and the git rev, the header of a
/// table whose figures are timings (the same fields a bench report
/// records).
pub fn print_host() {
    println!(
        "host: parallelism {}, rev {}\n",
        report::parallelism(),
        report::git_rev()
    );
}

/// Prints the table to stdout and, when `--json` was passed on the command
/// line, the raw records as JSON to stderr.
pub fn emit<T: Serialize>(title: &str, table: &Table, records: &[T]) {
    println!("## {title}\n");
    println!("{}", table.render());
    if std::env::args().any(|a| a == "--json") {
        eprintln!(
            "{}",
            serde_json::to_string_pretty(records).expect("records serialize")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbb"]);
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a") && lines[0].contains("bbb"));
        assert!(lines[2].trim_start().starts_with('1'));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(&["1", "2"]);
    }
}
