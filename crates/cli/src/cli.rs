//! Argument parsing and command dispatch (std-only, no CLI framework).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;
use synctime_core::clock::ClockBackend;
use synctime_core::online::OnlineStamper;
use synctime_core::{fm, lamport, offline, MessageTimestamps};
use synctime_graph::{cover, decompose, topology, Graph};
use synctime_sim::Op;
use synctime_trace::{diagram, MessageId, Oracle, SyncComputation};

/// Runs a parsed command line, returning what to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(usage());
    };
    let opts = parse_flags(rest)?;
    match command.as_str() {
        "decompose" => cmd_decompose(&opts),
        "stamp" => cmd_stamp(&opts),
        "diagram" => cmd_diagram(&opts),
        "query" => cmd_query(&opts),
        "generate" => cmd_generate(&opts),
        "simulate" => cmd_simulate(&opts),
        "run" => cmd_run(&opts),
        "serve-node" => cmd_serve_node(&opts),
        "launch" => cmd_launch(&opts),
        "serve-query" => cmd_serve_query(&opts),
        "faultplan" => cmd_faultplan(&opts),
        "churn" => cmd_churn(&opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command `{other}`; try `synctime help`")),
    }
}

fn usage() -> String {
    "\
synctime — timestamp synchronous computations (Garg & Skawratananond, ICDCS 2002)

USAGE:
  synctime decompose --topology <SPEC> [--optimal] [--cover]
  synctime stamp     --topology <SPEC> --trace <FILE> [--algorithm <ALG>]
                     [--engine dense|sparse]
  synctime diagram   --trace <FILE>
  synctime query     (--topology <SPEC> --trace <FILE> | --connect <ADDR>)
                     (--m1 <K> --m2 <K> | --chain <K> | --batch <K:K,K:K,..>)
                     [--trace <NAME>] [--window <W>]
                     (with --connect: trace name, not file)
  synctime generate  --topology <SPEC> --messages <M> [--internals <I>] [--seed <S>]
  synctime simulate  --programs <FILE> [--topology <SPEC>] [--seed <S>]
  synctime run       <WORKLOAD> [<RUNTIME>] [--stats] [--fault-plan <FILE>]
                     [--epochs] [--persist <DIR> [--trace-name <NAME>]]
  synctime faultplan --processes <N> --max-op <M> [--crashes <K>]
                     [--desyncs <D>] [--seed <S>]
  synctime churn     --universe <N> --boundaries <B> [--mean-rounds <R>]
                     [--seed <S>]
  synctime launch    <WORKLOAD> [<RUNTIME>] [--stats] [--transport tcp|local]
                     [--establish-timeout-ms <MS>]
                     [--persist <DIR> [--trace-name <NAME>]]
                     (with --transport local: every `run` flag)
  synctime serve-node --process <P> <WORKLOAD> [<RUNTIME>]
                     [--peers <A0,A1,..>] [--establish-timeout-ms <MS>]
  synctime serve-query (--topology <SPEC> --trace <FILE>
                       | --traces-dir <DIR> [--topology <SPEC>] [--shards <S>]
                       | --store-dir <DIR> [--poll-ms <MS>] [--shards <S>])
                     [--listen <ADDR>] [--pool <W>]

WORKLOAD (run, launch, serve-node):
  (--programs <FILE> | --ring <N> | --gossip <N>) [--rounds <R>]
  [--topology <SPEC>] [--seed <S>]          one epoch over one topology
  | --churn-plan <FILE>                     one token-ring epoch per active set

RUNTIME (run, launch, serve-node; programs and plans alike):
  [--watchdog-ms <MS>] [--rendezvous-timeout <MS>] [--rendezvous-retries <K>]
  [--clock dense|tree]

TOPOLOGY SPECS:
  star:L  triangle  complete:N  clients:SxC  tree:BxD  cycle:N  path:N
  grid:RxC  fig2b  fig4  or a JSON file {\"nodes\": N, \"edges\": [[u,v],..]}

TRACE FILE:
  {\"processes\": N, \"events\": [{\"message\": [s, r]}, {\"internal\": p}, ...]}

PROGRAMS FILE:
  {\"programs\": [[{\"send_to\": 1}, {\"receive_from\": 2}, \"internal\",
                 \"receive_any\"], ...]}  (one op list per process)

ALGORITHMS: online (default), offline, fm, lamport
  `offline` picks its engine with --engine: `dense` (default; minimum chain
  cover, width-dimensional vectors, O(M^2) memory) or `sparse` (per-sender
  chains + chain-merge reachability, scales to millions of messages).

RUN:
  Executes the workload on real OS threads (one per process) with the
  Figure 5 rendezvous protocol; a watchdog aborts stalled runs with a
  wait-for-graph diagnosis. `--watchdog-ms MS` (default 10000, must be
  above zero) is how long a wait-for cycle must stay parked before the run
  is aborted; only waits the channel confirms count (an untaken offer, or
  an empty slot for a receiver), so live runs are never flagged at any
  timeout above zero. `--ring N` is a built-in token-ring workload over
  cycle:N. `--stats` prints the run's observability summary as JSON
  (message counts, p50/p99 ack and rendezvous-wakeup latency, wire bytes,
  max vector component) instead of the reconstructed trace. Blocked
  endpoints park on their channel slot's condvar (zero idle CPU).
  `--gossip N` runs a seeded random pairwise-gossip workload over
  complete:N. A failed process fails the command: the first failure (in
  process order) is the error, with exit code 1, on every command and
  transport. Under `--fault-plan FILE`, which injects a deterministic
  fault schedule (see `faultplan`), the run instead tolerates per-process
  failures and prints {\"stats\": .., \"outcomes\": [null | \"error\", ..]}
  instead of a trace — the process exits 0 because typed failures are the
  expected result. `--rendezvous-timeout MS` bounds every blocking
  rendezvous, with `--rendezvous-retries K` backoff re-arms before giving
  up. `--clock` selects the per-process clock: `dense` (default, a plain
  vector) or `tree` (a segment tree whose merges of the delta streams'
  change-sets are sublinear in the dimension); the stamped trace is
  identical under both. `--epochs` prints one report per epoch (active
  set, dimension, reconfiguration latency, survivors) instead; a program
  run is one epoch and gets one report. `--fault-plan` and `--epochs` run
  in process only.

FAULTPLAN:
  Generates a random fault schedule as JSON for `run --fault-plan`:
  `--crashes K` distinct processes crash and `--desyncs D` delta-stream
  desyncs land at operation indices drawn from 0..M. Same seed, same plan.

CHURN:
  Generates a random reconfiguration script as JSON for `--churn-plan`:
  `--boundaries B` join/leave/swap events over a fixed `--universe N`
  process pool, with exponential gaps of mean `--mean-rounds` token laps
  between events (Poisson churn arrivals). Same seed, same plan. `run
  --churn-plan plan.json` (or `launch`, over either transport) then runs
  the multi-epoch workload: every epoch is a token ring over the plan's
  active set. At each boundary in-flight traffic quiesces, the max of
  every final clock is rebased through the group remap, and all processes
  resume from that one baseline, which keeps post-change stamps
  order-isomorphic with an uninterrupted run over the new topology. In
  process the engine merges the final clocks directly. Over TCP each node
  applies the boundary's edits from its own copy of the plan, each
  follower sends process 0 one RECONFIG_ACK (its final clock and the hash
  of its new topology), and process 0 checks the hashes and sends each
  the merge in one RECONFIGURE; the rebase is the same. The command prints
  the FINAL epoch's reconstructed trace (byte-identical to an
  uninterrupted reference run over the post-churn topology); with
  `--persist DIR` the boundaries are stored as reconfiguration records so
  `serve-query --store-dir` serves the latest epoch across restarts.

DISTRIBUTED:
  `launch --transport tcp` runs the same workload as `run`, but as one OS
  process per synchronous process, meshed over loopback TCP: it spawns
  `serve-node` children on ephemeral ports, hands each the full peer list,
  and merges their node reports back into one trace (or one `--stats`
  summary), byte-identical to `run`'s. A static run is one epoch: each
  node meshes once and runs every epoch of its workload over that mesh.
  `--fault-plan` and `--epochs` run in process only and are refused over
  TCP.
  `serve-node --peers a0,a1,..` runs a single node standalone — one
  terminal per process, every terminal given the same address list.
  `serve-query` stamps a trace and serves precedence queries over the same
  frame protocol; `query --connect HOST:PORT` asks it `--m1/--m2` (which
  precedes, or concurrent) or `--chain K` (every message comparable with
  message K). Message numbers are 1-based, as in the local `query`.

QUERY FABRIC:
  `serve-query --traces-dir DIR` loads every `DIR/*.json` trace into a
  sharded catalog (trace id = file stem, hashed over `--shards`
  in-process shards, default 4) and serves them from a fixed pool of
  `--pool` workers (default: available parallelism, min 4). With
  `--topology` the traces are online-stamped; without it the sparse
  offline engine stamps them, no topology needed. `query --connect` then
  targets one trace with `--trace NAME` and asks many questions per round
  trip with `--batch \"1:2,3:4\"` (pairs of 1-based message numbers; each
  line answers whether the first synchronously precedes the second).
  `--window W` pipelines the batch instead: one pair per frame, up to W
  frames in flight on the one connection, so the wire never idles for a
  round trip. Answers (and output) are identical to the lock-step batch.
"
    .to_string()
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}` (flags start with --)"));
        };
        if name.is_empty() {
            return Err("empty flag `--`".to_string());
        }
        // Boolean flags take no value.
        if matches!(name, "optimal" | "cover" | "json" | "stats" | "epochs") {
            out.insert(name.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} expects a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn require<'a>(opts: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, String> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

/// Parses an optional flag: `None` when it is absent, and "`--NAME expects
/// WHAT`" when its value does not parse.
fn opt_flag<T: std::str::FromStr>(
    opts: &BTreeMap<String, String>,
    name: &str,
    what: &str,
) -> Result<Option<T>, String> {
    opts.get(name)
        .map(|s| s.parse().map_err(|_| format!("--{name} expects {what}")))
        .transpose()
}

// ---------------------------------------------------------------- topology

/// Parses a topology spec or JSON file.
pub fn parse_topology(spec: &str) -> Result<Graph, String> {
    if let Some((kind, params)) = spec.split_once(':') {
        return build_spec(kind, params);
    }
    match spec {
        "triangle" => return Ok(topology::triangle()),
        "fig2b" => return Ok(topology::figure2b()),
        "fig4" => return Ok(topology::figure4_tree()),
        _ => {}
    }
    // Otherwise a JSON file.
    let text =
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read topology `{spec}`: {e}"))?;
    parse_topology_json(&text)
}

fn build_spec(kind: &str, params: &str) -> Result<Graph, String> {
    let nums = || -> Result<Vec<usize>, String> {
        params
            .split('x')
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|_| format!("bad number `{p}` in spec"))
            })
            .collect()
    };
    let one = || -> Result<usize, String> {
        let v = nums()?;
        (v.len() == 1)
            .then(|| v[0])
            .ok_or_else(|| format!("spec `{kind}` takes one number"))
    };
    let two = || -> Result<(usize, usize), String> {
        let v = nums()?;
        (v.len() == 2)
            .then(|| (v[0], v[1]))
            .ok_or_else(|| format!("spec `{kind}` takes AxB"))
    };
    match kind {
        "star" => Ok(topology::star(one()?)),
        "complete" => Ok(topology::complete(one()?)),
        "cycle" => Ok(topology::cycle(one()?)),
        "path" => Ok(topology::path(one()?)),
        "clients" => {
            let (s, c) = two()?;
            Ok(topology::client_server(s, c))
        }
        "tree" => {
            let (b, d) = two()?;
            Ok(topology::balanced_tree(b, d))
        }
        "grid" => {
            let (r, c) = two()?;
            Ok(topology::grid(r, c))
        }
        other => Err(format!("unknown topology kind `{other}`")),
    }
}

#[derive(Deserialize)]
struct TopologyFile {
    nodes: usize,
    edges: Vec<(usize, usize)>,
}

fn parse_topology_json(text: &str) -> Result<Graph, String> {
    let file: TopologyFile =
        serde_json::from_str(text).map_err(|e| format!("bad topology JSON: {e}"))?;
    Graph::from_edges(file.nodes, file.edges).map_err(|e| format!("bad topology: {e}"))
}

// ------------------------------------------------------------------- trace

/// Parses a trace file against an optional topology.
pub fn parse_trace(text: &str, topo: Option<&Graph>) -> Result<SyncComputation, String> {
    synctime_trace::json::from_json_str(text, topo).map_err(|e| e.to_string())
}

fn load_trace(
    opts: &BTreeMap<String, String>,
    topo: Option<&Graph>,
) -> Result<SyncComputation, String> {
    let path = require(opts, "trace")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    parse_trace(&text, topo)
}

// ---------------------------------------------------------------- commands

fn cmd_decompose(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let topo = parse_topology(require(opts, "topology")?)?;
    let mut out = String::new();
    writeln!(
        out,
        "topology: {} nodes, {} edges",
        topo.node_count(),
        topo.edge_count()
    )
    .unwrap();
    let best = decompose::best_known(&topo);
    writeln!(out, "best-known decomposition ({} groups):", best.len()).unwrap();
    for (i, g) in best.groups().iter().enumerate() {
        writeln!(out, "  E{} = {g}", i + 1).unwrap();
    }
    let greedy = decompose::greedy(&topo);
    writeln!(out, "greedy (Figure 7): {} groups", greedy.len()).unwrap();
    if opts.contains_key("cover") {
        let c = if topo.node_count() <= 24 || cover::bipartition(&topo).is_some() {
            cover::exact_min(&topo)
        } else {
            cover::greedy_max_degree(&topo)
        };
        writeln!(out, "vertex cover ({} nodes): {c:?}", c.len()).unwrap();
    }
    if opts.contains_key("optimal") {
        if topo.edge_count() <= decompose::OPTIMAL_EDGE_LIMIT {
            writeln!(out, "optimal: {} groups", decompose::alpha(&topo)).unwrap();
        } else {
            writeln!(
                out,
                "optimal: skipped (graph has {} edges > limit {})",
                topo.edge_count(),
                decompose::OPTIMAL_EDGE_LIMIT
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "timestamp dimension: {} (Fidge-Mattern would use {})",
        best.len(),
        topo.node_count()
    )
    .unwrap();
    Ok(out)
}

/// Parses `--clock dense|tree` (`None` when absent).
fn parse_clock(opts: &BTreeMap<String, String>) -> Result<Option<ClockBackend>, String> {
    opts.get("clock").map(|s| s.parse()).transpose()
}

fn stamp_with(
    algorithm: &str,
    engine: &str,
    comp: &SyncComputation,
    topo: &Graph,
) -> Result<(String, Option<MessageTimestamps>), String> {
    if engine != "dense" && algorithm != "offline" {
        return Err(format!(
            "--engine {engine} only applies to --algorithm offline"
        ));
    }
    match algorithm {
        "online" => {
            let dec = decompose::best_known(topo);
            let stamps = OnlineStamper::new(&dec)
                .stamp_computation(comp)
                .map_err(|e| e.to_string())?;
            Ok((format!("online (d = {})", stamps.dim()), Some(stamps)))
        }
        "offline" => match engine {
            "dense" => {
                let stamps = offline::stamp_computation(comp);
                Ok((format!("offline (width = {})", stamps.dim()), Some(stamps)))
            }
            "sparse" => {
                let stamps = offline::stamp_computation_sparse(comp);
                Ok((
                    format!("offline/sparse (chains = {})", stamps.dim()),
                    Some(stamps),
                ))
            }
            other => Err(format!("unknown engine `{other}` (dense|sparse)")),
        },
        "fm" => {
            let stamps = fm::stamp_messages(comp);
            Ok((
                format!("fidge-mattern (N = {})", stamps.dim()),
                Some(stamps),
            ))
        }
        "lamport" => Ok(("lamport (scalar)".to_string(), None)),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

fn cmd_stamp(opts: &BTreeMap<String, String>) -> Result<String, String> {
    // A recorded trace has no delta stream, so the tree clock has nothing
    // to win here: stamping always runs the dense clock.
    if opts.contains_key("clock") {
        return Err(
            "--clock applies only to `run`, `launch` and `serve-node`; `stamp` always uses the dense clock"
                .to_string(),
        );
    }
    let topo = parse_topology(require(opts, "topology")?)?;
    let comp = load_trace(opts, Some(&topo))?;
    let algorithm = opts.get("algorithm").map_or("online", String::as_str);
    let engine = opts.get("engine").map_or("dense", String::as_str);
    let (label, stamps) = stamp_with(algorithm, engine, &comp, &topo)?;
    let mut out = String::new();
    writeln!(out, "algorithm: {label}").unwrap();
    match stamps {
        Some(stamps) => {
            // Cross-check against ground truth before printing.
            if !stamps.encodes(&Oracle::new(&comp)) {
                return Err("internal error: stamps do not encode the poset".to_string());
            }
            for m in comp.messages() {
                writeln!(
                    out,
                    "  m{}: P{} -> P{}  v = {}",
                    m.id.index() + 1,
                    m.sender + 1,
                    m.receiver + 1,
                    stamps.vector(m.id)
                )
                .unwrap();
            }
        }
        None => {
            for (m, t) in comp.messages().iter().zip(lamport::stamp_messages(&comp)) {
                writeln!(
                    out,
                    "  m{}: P{} -> P{}  L = {}",
                    m.id.index() + 1,
                    m.sender + 1,
                    m.receiver + 1,
                    t
                )
                .unwrap();
            }
        }
    }
    Ok(out)
}

fn cmd_diagram(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let topo = opts
        .get("topology")
        .map(|s| parse_topology(s))
        .transpose()?;
    let comp = load_trace(opts, topo.as_ref())?;
    Ok(diagram::render(&comp))
}

fn cmd_query(opts: &BTreeMap<String, String>) -> Result<String, String> {
    if opts.contains_key("connect") {
        return cmd_query_remote(opts);
    }
    let topo = parse_topology(require(opts, "topology")?)?;
    let comp = load_trace(opts, Some(&topo))?;
    let parse_m = |name: &str| -> Result<MessageId, String> {
        let k: usize = require(opts, name)?
            .parse()
            .map_err(|_| format!("--{name} expects a message number (1-based)"))?;
        if k == 0 || k > comp.message_count() {
            return Err(format!(
                "--{name} out of range (trace has {} messages)",
                comp.message_count()
            ));
        }
        Ok(MessageId(k - 1))
    };
    let dec = decompose::best_known(&topo);
    let stamps = OnlineStamper::new(&dec)
        .stamp_computation(&comp)
        .map_err(|e| e.to_string())?;
    if opts.contains_key("chain") {
        let m = parse_m("chain")?;
        let chain: Vec<String> = (0..comp.message_count())
            .map(MessageId)
            .filter(|&o| o == m || stamps.precedes(o, m) || stamps.precedes(m, o))
            .map(|o| format!("m{}", o.0 + 1))
            .collect();
        return Ok(format!("chain of m{}: {}\n", m.0 + 1, chain.join(" ")));
    }
    let (m1, m2) = (parse_m("m1")?, parse_m("m2")?);
    let verdict = if stamps.precedes(m1, m2) {
        "m1 synchronously precedes m2"
    } else if stamps.precedes(m2, m1) {
        "m2 synchronously precedes m1"
    } else {
        "m1 and m2 are concurrent"
    };
    Ok(format!(
        "v(m1) = {}\nv(m2) = {}\n{verdict}\n",
        stamps.vector(m1),
        stamps.vector(m2)
    ))
}

/// `query --connect HOST:PORT`: ask a running `serve-query` instead of
/// stamping locally. Message numbers stay 1-based on the command line; the
/// wire protocol is 0-based. `--trace NAME` targets one trace of a
/// multi-trace catalog; `--batch` asks many precedence questions in one
/// lock-step QUERY3 frame, and `--window W` pipelines them instead, one
/// pair per frame with W in flight.
fn cmd_query_remote(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let addr = require(opts, "connect")?;
    let mut client = synctime_net::QueryClient::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let parse_1based = |name: &str, text: &str| -> Result<u32, String> {
        let k: u32 = text
            .parse()
            .map_err(|_| format!("--{name} expects a message number (1-based)"))?;
        if k == 0 {
            return Err(format!("--{name} expects a 1-based message number"));
        }
        Ok(k - 1)
    };
    let parse_m = |name: &str| -> Result<u32, String> { parse_1based(name, require(opts, name)?) };
    // Empty trace id = the server's default trace.
    let trace = opts.get("trace").map(String::as_str).unwrap_or("");
    if let Some(spec) = opts.get("batch") {
        let pairs: Vec<(u32, u32)> = spec
            .split(',')
            .map(|pair| {
                let (a, b) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("--batch expects `m1:m2,m1:m2,..`, got `{pair}`"))?;
                Ok((parse_1based("batch", a)?, parse_1based("batch", b)?))
            })
            .collect::<Result<_, String>>()?;
        let verdicts = match opts.get("window") {
            Some(w) => {
                let window: usize = w
                    .parse()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or_else(|| "--window expects a positive number".to_string())?;
                // One pair per frame, `window` frames in flight: the
                // answers are byte-identical to the lock-step batch, only
                // the wire schedule changes.
                client
                    .precedes_many_pipelined(trace, &pairs, 1, window)
                    .map_err(|e| e.to_string())?
            }
            None => client
                .precedes_many_pipelined(trace, &pairs, synctime_net::MAX_BATCH, 1)
                .map_err(|e| e.to_string())?,
        };
        let mut out = String::new();
        for (&(a, b), verdict) in pairs.iter().zip(verdicts) {
            writeln!(
                out,
                "m{} -> m{}: {}",
                a + 1,
                b + 1,
                if verdict { "yes" } else { "no" }
            )
            .unwrap();
        }
        return Ok(out);
    }
    if opts.contains_key("chain") {
        let m = parse_m("chain")?;
        let chain: Vec<String> = client
            .chain_of(trace, m)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|id| format!("m{}", id + 1))
            .collect();
        return Ok(format!("chain of m{}: {}\n", m + 1, chain.join(" ")));
    }
    let (m1, m2) = (parse_m("m1")?, parse_m("m2")?);
    // One round trip for both directions: a two-query batch.
    let verdicts = client
        .precedes_many_pipelined(trace, &[(m1, m2), (m2, m1)], 2, 1)
        .map_err(|e| e.to_string())?;
    let verdict = if verdicts[0] {
        "m1 synchronously precedes m2"
    } else if verdicts[1] {
        "m2 synchronously precedes m1"
    } else {
        "m1 and m2 are concurrent"
    };
    Ok(format!("{verdict}\n"))
}

// ----------------------------------------------------- generate / simulate

fn cmd_generate(opts: &BTreeMap<String, String>) -> Result<String, String> {
    use rand::SeedableRng;
    let topo = parse_topology(require(opts, "topology")?)?;
    let messages: usize = require(opts, "messages")?
        .parse()
        .map_err(|_| "--messages expects a number".to_string())?;
    let internals = opt_flag(opts, "internals", "a number")?.unwrap_or(0);
    let seed = opt_flag(opts, "seed", "a number")?.unwrap_or(0);
    if topo.edge_count() == 0 && messages > 0 {
        return Err("topology has no channels to send messages over".to_string());
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let comp = synctime_sim::workload::RandomWorkload::messages(messages)
        .with_internal_events(internals)
        .generate(&topo, &mut rng);
    Ok(synctime_trace::json::to_json_string(&comp))
}

#[derive(Deserialize)]
struct ProgramsFile {
    programs: Vec<Vec<Op>>,
}

/// Reads a programs file: one op list per process.
fn load_programs(path: &str) -> Result<Vec<Vec<Op>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read programs `{path}`: {e}"))?;
    let file: ProgramsFile =
        serde_json::from_str(&text).map_err(|e| format!("bad programs JSON: {e}"))?;
    Ok(file.programs)
}

fn cmd_simulate(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let programs: Vec<synctime_sim::Program> = load_programs(require(opts, "programs")?)?
        .iter()
        .map(|ops| {
            ops.iter()
                .fold(synctime_sim::Program::new(), |p, op| match *op {
                    Op::SendTo(q) => p.send_to(q),
                    Op::ReceiveFrom(q) => p.receive_from(q),
                    Op::Internal => p.internal(),
                    Op::ReceiveAny => p.receive_any(),
                })
        })
        .collect();
    let seed = opt_flag(opts, "seed", "a number")?.unwrap_or(0);
    let mut simulator = synctime_sim::Simulator::new().with_seed(seed);
    if let Some(spec) = opts.get("topology") {
        simulator = simulator.with_topology(&parse_topology(spec)?);
    }
    let comp = simulator.run(&programs).map_err(|e| e.to_string())?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

// ---------------------------------------------------------------- workload

/// Loads program op lists: from a `--programs` file, the built-in
/// `--ring N` token-ring workload (`--rounds R` trips around a `cycle:N`
/// topology), or the seeded `--gossip N` workload over `complete:N`.
fn run_programs(opts: &BTreeMap<String, String>) -> Result<Vec<Vec<Op>>, String> {
    if let Some(path) = opts.get("programs") {
        return load_programs(path);
    }
    if let Some(n) = opt_flag::<usize>(opts, "ring", "a process count")? {
        if n < 3 {
            return Err("--ring needs at least 3 processes (cycle topology)".to_string());
        }
        let rounds = opt_flag(opts, "rounds", "a number")?.unwrap_or(1);
        // Process 0 injects the token each round; everyone else forwards it.
        return Ok((0..n)
            .map(|p| match p {
                0 => [Op::SendTo(1), Op::ReceiveFrom(n - 1)].repeat(rounds),
                _ => [Op::ReceiveFrom(p - 1), Op::SendTo((p + 1) % n)].repeat(rounds),
            })
            .collect());
    }
    if let Some(n) = opt_flag::<usize>(opts, "gossip", "a process count")? {
        use rand::SeedableRng;
        if n < 2 {
            return Err("--gossip needs at least 2 processes".to_string());
        }
        let rounds: usize = opt_flag(opts, "rounds", "a number")?.unwrap_or(1);
        let seed = opt_flag(opts, "seed", "a number")?.unwrap_or(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scenario = synctime_sim::scenarios::gossip(n, rounds.max(1), &mut rng);
        // Gossip computations are confluent, so their extracted scripts
        // replay deadlock-free on the threaded runtime.
        return Ok(
            synctime_sim::programs::from_computation(&scenario.computation)
                .iter()
                .map(|prog| prog.ops().to_vec())
                .collect(),
        );
    }
    Err("run needs --programs <FILE>, --ring <N>, --gossip <N> or --churn-plan <FILE>".to_string())
}

/// The topology a set of programs runs over: `--topology SPEC`, or
/// inferred from the channels the programs use.
fn run_topology(programs: &[Vec<Op>], opts: &BTreeMap<String, String>) -> Result<Graph, String> {
    let n = programs.len();
    let topo = match opts.get("topology") {
        Some(spec) => parse_topology(spec)?,
        None => {
            // Infer the topology from the channels the programs use.
            let mut edges = std::collections::BTreeSet::new();
            for (p, ops) in programs.iter().enumerate() {
                for op in ops {
                    if let Op::SendTo(q) | Op::ReceiveFrom(q) = *op {
                        edges.insert((p.min(q), p.max(q)));
                    }
                }
            }
            Graph::from_edges(n, edges).map_err(|e| format!("bad inferred topology: {e}"))?
        }
    };
    if topo.node_count() != n {
        return Err(format!(
            "topology has {} nodes but {} programs were given",
            topo.node_count(),
            n
        ));
    }
    Ok(topo)
}

/// One process's ops as a runtime behavior. The payload convention (the op
/// index) matches between `run` and `serve-node`, so local and distributed
/// executions of the same programs are comparable rendezvous-for-rendezvous.
fn op_behavior(ops: Vec<Op>) -> synctime_runtime::Behavior {
    Box::new(move |ctx| {
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::SendTo(q) => {
                    ctx.send(q, i as u64)?;
                }
                Op::ReceiveFrom(q) => {
                    ctx.receive_from(q)?;
                }
                Op::Internal => ctx.internal(),
                Op::ReceiveAny => unreachable!("rejected before running"),
            }
        }
        Ok(())
    })
}

/// What a run is. Programs (`--programs`, `--ring`, `--gossip`) are one
/// epoch over one topology; a `--churn-plan` is one token-ring epoch per
/// active set, with a reconfiguration at each boundary between two. A
/// static run is thus a run with no boundaries, and `run`, `launch` and
/// `serve-node` each have one body for both kinds.
struct Workload {
    /// Epoch 0's topology, over every process of the run.
    topology: Graph,
    /// Epoch 0's decomposition: `best_known` for programs, the greedy
    /// start of the `IncrementalDecomposition` (which later epochs edit)
    /// for a plan.
    decomposition: synctime_graph::EdgeDecomposition,
    kind: WorkloadKind,
}

enum WorkloadKind {
    Programs(Vec<Vec<Op>>),
    Plan {
        plan: synctime_sim::ChurnPlan,
        actives: Vec<Vec<usize>>,
    },
}

impl Workload {
    /// Loads the workload the flags name. A `--churn-plan` runs its own
    /// token rings, so it is refused alongside a program flag.
    fn load(opts: &BTreeMap<String, String>) -> Result<Self, String> {
        let Some(path) = opts.get("churn-plan") else {
            let programs = run_programs(opts)?;
            if programs.iter().flatten().any(|op| *op == Op::ReceiveAny) {
                return Err(
                    "receive_any is only supported by `simulate` (the threaded runtime needs a \
                     concrete peer per receive)"
                        .to_string(),
                );
            }
            let topology = run_topology(&programs, opts)?;
            return Ok(Workload {
                decomposition: decompose::best_known(&topology),
                topology,
                kind: WorkloadKind::Programs(programs),
            });
        };
        if let Some(flag) = ["programs", "ring", "gossip"]
            .into_iter()
            .find(|flag| opts.contains_key(*flag))
        {
            return Err(format!(
                "--churn-plan runs its own token rings and cannot be combined with --{flag}"
            ));
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read churn plan `{path}`: {e}"))?;
        let plan = synctime_sim::ChurnPlan::from_json(&text)
            .map_err(|e| format!("bad churn plan JSON: {e}"))?;
        let actives = plan.active_sets().map_err(|e| e.to_string())?;
        let topology = synctime_sim::churn::epoch_topology(plan.universe, &actives[0])
            .map_err(|e| e.to_string())?;
        let decomposition = synctime_graph::IncrementalDecomposition::new(&topology)
            .decomposition()
            .clone();
        Ok(Workload {
            topology,
            decomposition,
            kind: WorkloadKind::Plan { plan, actives },
        })
    }

    fn processes(&self) -> usize {
        self.topology.node_count()
    }

    fn epochs(&self) -> usize {
        match &self.kind {
            WorkloadKind::Programs(_) => 1,
            WorkloadKind::Plan { actives, .. } => actives.len(),
        }
    }

    /// What `process` runs in `epoch`.
    fn behavior(&self, epoch: usize, process: usize) -> synctime_runtime::Behavior {
        match &self.kind {
            WorkloadKind::Programs(programs) => op_behavior(programs[process].clone()),
            WorkloadKind::Plan { plan, actives } => {
                synctime_sim::ring_behavior(&actives[epoch], process, plan.rounds(epoch))
            }
        }
    }

    /// The edge edits of the boundary that ends `epoch`.
    fn edge_ops(&self, epoch: usize) -> Vec<synctime_graph::EdgeOp> {
        match &self.kind {
            WorkloadKind::Programs(_) => Vec::new(),
            WorkloadKind::Plan { actives, .. } => {
                synctime_sim::churn::edge_ops(&actives[epoch], &actives[epoch + 1])
            }
        }
    }

    /// The peers one TCP node meshes with, and the hash every node checks
    /// at the handshake: the topology for programs; for a plan, the union
    /// of its rings plus the control star to the coordinator (process 0),
    /// so every boundary exchange has a socket even when an epoch's ring
    /// skips process 0. The mesh is set up once for every epoch.
    fn mesh(&self, process: usize) -> Result<(Vec<usize>, u64), String> {
        let n = self.processes();
        let WorkloadKind::Plan { plan, .. } = &self.kind else {
            let hash = synctime_net::topology_hash_of(n, &self.decomposition);
            return Ok((self.topology.neighbors(process).collect(), hash));
        };
        let union = plan.union_topology().map_err(|e| e.to_string())?;
        let mut peers: std::collections::BTreeSet<usize> = union.neighbors(process).collect();
        if process == 0 {
            peers.extend(1..n);
        } else {
            peers.insert(0);
        }
        peers.remove(&process);
        let hash = synctime_net::topology_hash_of(n, &decompose::best_known(&union));
        Ok((peers.into_iter().collect(), hash))
    }
}

// --------------------------------------------------------------------- run

/// Parses `--watchdog-ms`, refusing zero with the runtime's typed
/// diagnostic.
fn parse_watchdog(opts: &BTreeMap<String, String>) -> Result<Option<std::time::Duration>, String> {
    match opt_flag(opts, "watchdog-ms", "milliseconds")? {
        Some(0) => Err(format!(
            "--watchdog-ms 0: {}",
            synctime_runtime::RuntimeError::ZeroWatchdogTimeout
        )),
        ms => Ok(ms.map(std::time::Duration::from_millis)),
    }
}

/// Applies the runtime tuning flags shared by `run` and `serve-node`.
fn configure_runtime(
    mut rt: synctime_runtime::Runtime,
    opts: &BTreeMap<String, String>,
) -> Result<synctime_runtime::Runtime, String> {
    if let Some(timeout) = parse_watchdog(opts)? {
        rt = rt.with_watchdog(timeout).map_err(|e| e.to_string())?;
    }
    if let Some(ms) = opt_flag(opts, "rendezvous-timeout", "milliseconds")? {
        rt = rt.with_rendezvous_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(k) = opt_flag(opts, "rendezvous-retries", "a count")? {
        rt = rt.with_rendezvous_retries(k);
    }
    if let Some(backend) = parse_clock(opts)? {
        rt = rt.with_clock(backend);
    }
    Ok(rt)
}

/// `--persist DIR` and the trace name a run is stored under there
/// (`--trace-name`, default `run`).
fn persist_target(opts: &BTreeMap<String, String>) -> Option<(&std::path::Path, &str)> {
    let root = opts.get("persist")?;
    let trace = opts.get("trace-name").map_or("run", String::as_str);
    Some((std::path::Path::new(root), trace))
}

/// `run`, and `launch --transport local`: the whole workload in this OS
/// process, as `run_epochs` on the runtime the flags and the fault plan
/// configure. A one-epoch run streams its stamps to the live store writer
/// under `--persist`; a run with boundaries is stored when it ends.
fn cmd_run(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let workload = Workload::load(opts)?;
    let mut rt = configure_runtime(
        synctime_runtime::Runtime::new(&workload.topology, &workload.decomposition),
        opts,
    )?;
    if let Some(path) = opts.get("fault-plan") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan `{path}`: {e}"))?;
        let plan = synctime_sim::FaultPlan::from_json(&text)
            .map_err(|e| format!("bad fault plan JSON: {e}"))?;
        rt = rt.with_fault_injector(std::sync::Arc::new(plan));
    }
    let mut writer = None;
    if let (Some((root, trace)), 1) = (persist_target(opts), workload.epochs()) {
        let (tx, live) =
            synctime_store::spawn_writer(root, trace, workload.processes()).map_err(|e| {
                format!(
                    "cannot open the stamp store under `{}`: {e}",
                    root.display()
                )
            })?;
        rt = rt.with_log_sink(tx);
        writer = Some(live);
    }
    // The runtime, and with it the store sink, is dropped when the run
    // ends, so the writer can seal.
    let run = synctime_sim::run_epochs(
        rt,
        workload.epochs(),
        |e, p| workload.behavior(e, p),
        |e| workload.edge_ops(e),
    )
    .map_err(|e| e.to_string())?;
    finish_run(opts, &run, writer)
}

/// The one output tail of `run` and `launch`. Under `--persist` it first
/// seals the live writer, or stores the logs with one reconfiguration
/// record per boundary. Without `--fault-plan` the first failed process
/// (in process order) fails the command; under one, typed failures are
/// the reported result. It prints the `--epochs` reports, else `{stats,
/// outcomes}` under `--fault-plan`, else the merged `--stats`, else the
/// final epoch's trace.
fn finish_run(
    opts: &BTreeMap<String, String>,
    run: &synctime_sim::ChurnRun,
    writer: Option<synctime_store::StoreWriter>,
) -> Result<String, String> {
    // Every sender of a live writer is gone by now, so the join returns.
    let store = match (writer, persist_target(opts)) {
        (Some(writer), _) => Some(
            writer
                .finish()
                .map_err(|e| format!("stamp store writer failed: {e}"))?,
        ),
        (None, Some((root, trace))) => Some(
            synctime_store::persist_logs_with_reconfigs(root, trace, &run.logs, &run.boundaries)
                .map_err(|e| format!("cannot persist the run under `{}`: {e}", root.display()))?,
        ),
        (None, None) => None,
    };
    if let Some(store) = store {
        // stderr, so stdout stays the command's output.
        eprintln!("persisted trace to {}", store.dir().display());
    }
    let faulted = opts.contains_key("fault-plan");
    if let (false, Some(err)) = (faulted, run.outcomes.iter().flatten().next()) {
        return Err(err.clone());
    }
    if opts.contains_key("epochs") {
        return Ok(render_epoch_reports(&run.epochs));
    }
    if faulted {
        let rendered: Vec<String> = run
            .outcomes
            .iter()
            .map(|o| match o {
                None => "null".to_string(),
                Some(e) => serde_json::to_string(e).expect("strings serialise infallibly"),
            })
            .collect();
        return Ok(format!(
            "{{\n  \"stats\": {},\n  \"outcomes\": [{}]\n}}\n",
            run.stats.to_json(),
            rendered.join(", ")
        ));
    }
    if opts.contains_key("stats") {
        return Ok(run.stats.to_json() + "\n");
    }
    // Only the final epoch reconstructs whole (earlier epochs recycle
    // message keys and live in other dimensions); that is exactly the
    // trace a fresh run over the final topology would produce.
    let (comp, _stamps) = synctime_runtime::reconstruct_from_logs(&run.final_epoch_logs())
        .map_err(|e| format!("cannot reconstruct the run: {e}"))?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

/// Renders `--epochs` output: one JSON object per epoch with its active
/// set, stamp dimension, reconfiguration latency, and survivor count.
fn render_epoch_reports(epochs: &[synctime_sim::EpochReport]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in epochs.iter().enumerate() {
        let active: Vec<String> = e.active.iter().map(ToString::to_string).collect();
        let _ = writeln!(
            out,
            "  {{\"epoch\": {}, \"active\": [{}], \"dim\": {}, \"reconfigure_micros\": {}, \"survivors\": {}}}{}",
            e.epoch,
            active.join(", "),
            e.dim,
            e.reconfigure_micros,
            e.survivors,
            if i + 1 < epochs.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}

// ------------------------------------------- distributed (serve-node etc.)

/// Loads the workload of a TCP run. Faults are injected in process only:
/// over TCP a crashed node would still take part in later epochs'
/// boundary exchanges, so it could not match `run_epochs`. Node reports
/// carry no per-epoch dimension, latency or survivor count, so `--epochs`
/// is in process only too.
fn tcp_workload(opts: &BTreeMap<String, String>) -> Result<Workload, String> {
    if let Some(flag) = ["fault-plan", "epochs"]
        .into_iter()
        .find(|flag| opts.contains_key(*flag))
    {
        return Err(format!(
            "--{flag} runs in process only (`run` or `launch --transport local`)"
        ));
    }
    Workload::load(opts)
}

/// Parses a `--peers` comma-separated address list of exactly `n` entries.
fn parse_addr_list(list: &str, n: usize) -> Result<Vec<std::net::SocketAddr>, String> {
    let addrs: Vec<std::net::SocketAddr> = list
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad socket address `{}` in peer list", s.trim()))
        })
        .collect::<Result<_, _>>()?;
    if addrs.len() != n {
        return Err(format!(
            "peer list has {} addresses but the workload has {n} processes",
            addrs.len()
        ));
    }
    Ok(addrs)
}

/// `serve-node`: run ONE process of the workload over TCP. With `--peers`
/// the address list is fixed up front (one terminal per process); without
/// it the node binds an ephemeral port, announces `listening on ADDR` on
/// stdout, and reads the comma-separated peer list from stdin — the
/// contract `launch --transport tcp` drives. The node meshes once, then
/// runs every epoch over that mesh. Each boundary is `cross_boundary`,
/// the step `run_epochs` takes, over the merge of every final clock that
/// process 0 gathers (`coordinate_reconfigure`) and sends back to each
/// follower (`follow_reconfigure`). Prints a node report: the epochs'
/// logs concatenated, and the log length at each boundary, which the
/// launcher persists as reconfiguration records.
fn cmd_serve_node(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let workload = tcp_workload(opts)?;
    let n = workload.processes();
    let process: usize = require(opts, "process")?
        .parse()
        .map_err(|_| "--process expects a process index".to_string())?;
    if process >= n {
        return Err(format!(
            "--process {process} out of range (workload has {n} processes)"
        ));
    }
    let timeout = std::time::Duration::from_millis(
        opt_flag(opts, "establish-timeout-ms", "milliseconds")?.unwrap_or(10_000),
    );
    let mesh = node_mesh(opts, process, &workload, timeout)?;
    let mut inc = synctime_graph::IncrementalDecomposition::new(&workload.topology);
    let mut rt = configure_runtime(
        synctime_runtime::Runtime::new(&workload.topology, &workload.decomposition),
        opts,
    )?;
    let epochs = workload.epochs();
    let (mut log, mut cuts, mut stats_parts) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcome: Option<String> = None;
    for e in 0..epochs {
        let (tx, rx) = mesh.channels();
        let run = rt.run_process(process, workload.behavior(e, process), tx, rx);
        let final_clock = run.final_clock().clone();
        let (_, epoch_log, epoch_outcome, stats) = run.into_parts();
        log.extend(epoch_log);
        stats_parts.push(stats);
        if outcome.is_none() {
            // As `run_epochs` words it: a run with boundaries names the epoch.
            outcome = epoch_outcome.map(|err| match epochs {
                1 => err.to_string(),
                _ => format!("epoch {e}: {err}"),
            });
        }
        if e + 1 == epochs {
            break;
        }
        let epoch = (e + 1) as u64;
        synctime_sim::cross_boundary(&mut rt, &mut inc, &workload.edge_ops(e), |inc| {
            let hash = synctime_net::topology_hash_of(n, inc.decomposition());
            let merged = if process == 0 {
                let followers: Vec<usize> = (1..n).collect();
                synctime_net::coordinate_reconfigure(
                    &mesh,
                    &followers,
                    epoch,
                    hash,
                    &final_clock,
                    timeout,
                )
            } else {
                synctime_net::follow_reconfigure(
                    &mesh,
                    process as u32,
                    epoch,
                    hash,
                    &final_clock,
                    timeout,
                )
            };
            merged.map_err(Box::<dyn std::error::Error>::from)
        })
        .map_err(|err| format!("reconfiguration into epoch {epoch}: {err}"))?;
        cuts.push(log.len() as u64);
    }
    drop(mesh); // close peer sockets before reporting
    let report = synctime_net::NodeReport {
        process,
        outcome,
        log,
        cuts,
        stats: synctime_obs::RunStats::merged(&stats_parts),
    };
    Ok(report.to_json() + "\n")
}

/// Binds this node's socket, exchanges the peer address list (fixed via
/// `--peers`, or the announce-on-stdout / list-on-stdin contract `launch`
/// drives), and establishes the workload's mesh.
fn node_mesh(
    opts: &BTreeMap<String, String>,
    process: usize,
    workload: &Workload,
    timeout: std::time::Duration,
) -> Result<synctime_net::TcpMesh, String> {
    use std::io::Write as _;
    let n = workload.processes();
    let (neighbors, hash) = workload.mesh(process)?;
    let (builder, addrs) = match opts.get("peers") {
        Some(list) => {
            let addrs = parse_addr_list(list, n)?;
            let own = addrs[process];
            let builder = synctime_net::TcpMeshBuilder::bind(&own.to_string())
                .map_err(|e| format!("cannot bind {own}: {e}"))?;
            (builder, addrs)
        }
        None => {
            let builder = synctime_net::TcpMeshBuilder::bind("127.0.0.1:0")
                .map_err(|e| format!("cannot bind loopback: {e}"))?;
            println!("listening on {}", builder.local_addr());
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            let mut line = String::new();
            std::io::stdin()
                .read_line(&mut line)
                .map_err(|e| format!("cannot read the peer list from stdin: {e}"))?;
            if line.trim().is_empty() {
                return Err("launcher closed stdin before sending the peer list".to_string());
            }
            (builder, parse_addr_list(line.trim(), n)?)
        }
    };
    builder
        .establish(process, &addrs, &neighbors, hash, timeout)
        .map_err(|e| format!("mesh establishment failed: {e}"))
}

/// `launch`: the whole workload, one OS process per synchronous process.
/// `--transport local` is `run`; `--transport tcp` (default) spawns one
/// `serve-node` per process, wires them into a loopback mesh, and merges
/// their reports into the outputs `run` prints: their logs into one
/// trace, their cuts into the store's reconfiguration records.
fn cmd_launch(opts: &BTreeMap<String, String>) -> Result<String, String> {
    match opts.get("transport").map_or("tcp", String::as_str) {
        "local" => return cmd_run(opts),
        "tcp" => {}
        other => {
            return Err(format!(
                "--transport expects `tcp` or `local`, got `{other}`"
            ))
        }
    }
    let workload = tcp_workload(opts)?;
    // Every node would refuse a bad runtime flag: refuse it once, here,
    // before any node spawns.
    configure_runtime(
        synctime_runtime::Runtime::new(&workload.topology, &workload.decomposition),
        opts,
    )?;
    let n = workload.processes();
    let reports = launch_nodes(opts, n)?;
    let boundaries = workload.epochs() - 1;
    if let Some(report) = reports.iter().find(|r| r.cuts.len() != boundaries) {
        return Err(format!(
            "process {} reported {} cuts, expected {boundaries}",
            report.process,
            report.cuts.len()
        ));
    }
    let records = (0..boundaries)
        .map(|b| {
            let cuts = reports.iter().map(|r| r.cuts[b]).collect();
            synctime_sim::boundary_record((b + 1) as u64, cuts, &workload.edge_ops(b))
        })
        .collect();
    let (mut logs, mut stats_parts, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    for report in reports {
        logs.push(report.log);
        stats_parts.push(report.stats);
        outcomes.push(report.outcome);
    }
    let run = synctime_sim::ChurnRun {
        universe: n,
        logs,
        boundaries: records,
        epochs: Vec::new(),
        stats: synctime_obs::RunStats::merged(&stats_parts),
        outcomes,
    };
    finish_run(opts, &run, None)
}

/// Spawns `n` `serve-node` children (forwarding the workload and runtime
/// flags), drives the three-phase bootstrap — scrape each node's announced
/// address, hand everyone the full peer list, collect one JSON report per
/// process — and waits for every child to exit cleanly. On any failure it
/// kills the nodes still running and reaps every child before returning
/// the failure, so no node outlives the launcher.
fn launch_nodes(
    opts: &BTreeMap<String, String>,
    n: usize,
) -> Result<Vec<synctime_net::NodeReport>, String> {
    let mut children = Vec::with_capacity(n);
    let reports = bootstrap_nodes(opts, n, &mut children);
    let mut statuses = Vec::with_capacity(n);
    for (p, child) in children.iter_mut().enumerate() {
        if reports.is_err() {
            let _ = child.kill(); // fails only for a node that already exited
        }
        statuses.push(child.wait().map_err(|e| format!("node {p}: {e}")));
    }
    let reports = reports?;
    for (p, status) in statuses.into_iter().enumerate() {
        let status = status?;
        if !status.success() {
            return Err(format!("node {p} exited with {status}"));
        }
    }
    Ok(reports)
}

/// The three phases of [`launch_nodes`], pushing each spawned child onto
/// `children` so the caller reaps it whatever happens.
fn bootstrap_nodes(
    opts: &BTreeMap<String, String>,
    n: usize,
    children: &mut Vec<std::process::Child>,
) -> Result<Vec<synctime_net::NodeReport>, String> {
    use std::io::{BufRead as _, Write as _};
    const FORWARDED: [&str; 12] = [
        "programs",
        "ring",
        "gossip",
        "rounds",
        "seed",
        "topology",
        "churn-plan",
        "clock",
        "watchdog-ms",
        "rendezvous-timeout",
        "rendezvous-retries",
        "establish-timeout-ms",
    ];
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    for p in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve-node").arg("--process").arg(p.to_string());
        for name in FORWARDED {
            if let Some(value) = opts.get(name) {
                cmd.arg(format!("--{name}")).arg(value);
            }
        }
        cmd.stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped());
        children.push(
            cmd.spawn()
                .map_err(|e| format!("cannot spawn node {p}: {e}"))?,
        );
    }
    // Phase 1: every node announces the ephemeral address it bound.
    let mut outs = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for (p, child) in children.iter_mut().enumerate() {
        let mut reader = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| format!("node {p}: {e}"))?;
            if read == 0 {
                return Err(format!("node {p} exited before announcing its address"));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                addrs.push(addr.to_string());
                break;
            }
        }
        outs.push(reader);
    }
    // Phase 2: hand every node the full list; the mesh forms peer-to-peer.
    let list = addrs.join(",");
    for (p, child) in children.iter_mut().enumerate() {
        let mut stdin = child.stdin.take().expect("stdin piped");
        writeln!(stdin, "{list}").map_err(|e| format!("node {p}: cannot send peer list: {e}"))?;
    }
    // Phase 3: read every node's output to its end first. A meshed node
    // ends on its own, and a failed one has printed its error by then.
    let mut texts = Vec::with_capacity(n);
    for (p, reader) in outs.into_iter().enumerate() {
        texts.push(std::io::read_to_string(reader).map_err(|e| format!("node {p}: {e}")));
    }
    let mut reports: Vec<Option<synctime_net::NodeReport>> = (0..n).map(|_| None).collect();
    for (p, text) in texts.into_iter().enumerate() {
        let text = text?;
        if text.trim().is_empty() {
            return Err(format!("node {p} exited without a report"));
        }
        let report = synctime_net::NodeReport::from_json(text.trim())
            .map_err(|e| format!("node {p} produced a bad report: {e}"))?;
        let slot = report.process;
        if slot >= n || reports[slot].is_some() {
            return Err(format!("node {p} reported as process {slot} unexpectedly"));
        }
        reports[slot] = Some(report);
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("one report per slot"))
        .collect())
}

/// `serve-query`: stamp one trace (`--trace`) or a whole directory of
/// traces (`--traces-dir`) once, then serve precedence queries over TCP
/// until killed. The bound address is announced as `listening on ADDR` so
/// scripts can scrape an ephemeral port; a catalog run also announces each
/// trace and the shard it hashed to.
fn cmd_serve_query(opts: &BTreeMap<String, String>) -> Result<String, String> {
    use std::io::Write as _;
    let pool =
        opt_flag(opts, "pool", "a worker count")?.unwrap_or_else(synctime_net::default_pool_size);
    let shards = opt_flag(opts, "shards", "a shard count")?.unwrap_or(synctime_net::DEFAULT_SHARDS);
    if shards == 0 {
        return Err("--shards expects at least 1".to_string());
    }
    let poll_ms = opt_flag(opts, "poll-ms", "milliseconds")?.unwrap_or(100);
    let store_dir = opts.get("store-dir");
    let is_catalog = opts.contains_key("traces-dir") || store_dir.is_some();
    let mut tailer = None;
    let fabric = if let Some(root) = store_dir {
        if opts.contains_key("trace") || opts.contains_key("traces-dir") {
            return Err(
                "--store-dir is mutually exclusive with --trace and --traces-dir".to_string(),
            );
        }
        let (fabric, loaded) = load_store_catalog(root, shards)?;
        tailer = Some(loaded);
        fabric
    } else if let Some(dir) = opts.get("traces-dir") {
        if opts.contains_key("trace") {
            return Err("--trace and --traces-dir are mutually exclusive".to_string());
        }
        load_trace_catalog(dir, opts.get("topology").map(String::as_str), shards)?
    } else {
        let topo = parse_topology(require(opts, "topology")?)?;
        let comp = load_trace(opts, Some(&topo))?;
        let dec = decompose::best_known(&topo);
        let stamps = OnlineStamper::new(&dec)
            .stamp_computation(&comp)
            .map_err(|e| e.to_string())?;
        synctime_net::QueryFabric::single(synctime_net::DEFAULT_TRACE_NAME, stamps)
    };
    let listen = opts
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // The announce line stays first: scripts scrape it for the port.
    println!("listening on {addr}");
    if is_catalog {
        println!(
            "catalog: {} trace(s) across {} shard(s), {pool} worker(s)",
            fabric.trace_count(),
            fabric.shard_count()
        );
        for name in fabric.trace_names() {
            println!("  trace {name} -> shard {}", fabric.shard_of(&name));
        }
    }
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let fabric = std::sync::Arc::new(fabric);
    if let Some(mut tailer) = tailer {
        let fabric = std::sync::Arc::clone(&fabric);
        let poll = std::time::Duration::from_millis(poll_ms);
        std::thread::spawn(move || loop {
            std::thread::sleep(poll);
            // A pass that cannot read the root retries on the next one.
            let _ = tailer.pass(&fabric);
        });
    }
    synctime_net::serve_fabric(listener, fabric, pool)
        .map_err(|e| format!("query server failed: {e}"))?;
    Ok(String::new())
}

/// Recovers every trace directory under a `synctime-store` root and
/// publishes the reconstructible prefix of each into a fresh fabric, by
/// one pass of the [`StoreTailer`] it returns, which then follows the
/// root. Per-trace failures are warnings, not errors: a trace being
/// written *right now* may be momentarily torn, and the tailer publishes
/// it on a later pass. An empty root is fine — traces appear as runs
/// persist them.
fn load_store_catalog(
    root: &str,
    shards: usize,
) -> Result<(synctime_net::QueryFabric, StoreTailer), String> {
    // A server may come up before the first persisted run: create the
    // root so an empty store is servable and the tailer picks up traces
    // as they appear.
    std::fs::create_dir_all(root)
        .map_err(|e| format!("cannot create --store-dir `{root}`: {e}"))?;
    let fabric = synctime_net::QueryFabric::new(shards);
    let mut tailer = StoreTailer {
        root: std::path::PathBuf::from(root),
        seen: BTreeMap::new(),
        readers: BTreeMap::new(),
    };
    let failed = tailer
        .pass(&fabric)
        .map_err(|e| format!("cannot read --store-dir `{root}`: {e}"))?;
    for (name, e) in failed {
        eprintln!("warning: trace `{name}` not yet servable: {e}");
    }
    Ok((fabric, tailer))
}

/// Follows a store root so a serving node keeps up with live ingestion:
/// one [`synctime_store::TraceTailReader`] per trace, which replays only
/// the bytes appended since its last read (or everything once the store
/// was replaced), and the fingerprint of the bytes each trace last
/// published. Fingerprints are (snapshot len, log len) pairs — a store
/// only appends to its log, so growth is always visible, and a store
/// replaced under the same name is seen unless its log has exactly the
/// old length.
struct StoreTailer {
    root: std::path::PathBuf,
    seen: BTreeMap<String, (u64, u64)>,
    readers: BTreeMap<String, synctime_store::TraceTailReader>,
}

impl StoreTailer {
    /// Publishes the **latest epoch** of every trace under the root whose
    /// fingerprint changed since it was last published: for a
    /// single-epoch trace that is the whole run; for a churn trace it is
    /// the segment past the newest reconfiguration boundary — the only
    /// segment whose stamps share a dimension and whose keys are unique.
    /// Publishing is copy-on-write, so in-flight queries keep the old
    /// snapshot, and an unchanged trace keeps its snapshot. Each
    /// fingerprint is taken before its read, so bytes that land during
    /// the read are read again on the next pass. Returns the traces that
    /// could not be published, with why; their fingerprints stay
    /// unrecorded, so the next pass retries them.
    fn pass(
        &mut self,
        fabric: &synctime_net::QueryFabric,
    ) -> Result<Vec<(String, String)>, synctime_store::StoreError> {
        let file_len = |path: std::path::PathBuf| std::fs::metadata(path).map_or(0, |m| m.len());
        let mut failed = Vec::new();
        for (name, dir) in synctime_store::trace_dirs(&self.root)? {
            let fp = (
                file_len(dir.join(synctime_store::SNAPSHOT_FILE)),
                file_len(dir.join(synctime_store::LOG_FILE)),
            );
            if self.seen.get(&name) == Some(&fp) {
                continue;
            }
            let reader = self
                .readers
                .entry(name.clone())
                .or_insert_with(|| synctime_store::TraceTailReader::new(&dir));
            let published = reader
                .poll()
                .and_then(|rec| synctime_store::materialize_latest_epoch(&rec))
                .map(|(_epoch, _comp, stamps)| fabric.publish(&name, stamps));
            match published {
                Ok(_) => {
                    self.seen.insert(name, fp);
                }
                Err(e) => failed.push((name, e.to_string())),
            }
        }
        Ok(failed)
    }
}

/// Loads every `*.json` trace under `dir` into a sharded catalog; the
/// trace id is the file stem. With a topology the traces are online-stamped
/// against it; without one they are stamped by the sparse offline engine,
/// which needs no topology (both encode the same synchronous order, so
/// precedence verdicts are identical).
fn load_trace_catalog(
    dir: &str,
    topology: Option<&str>,
    shards: usize,
) -> Result<synctime_net::QueryFabric, String> {
    let topo = topology.map(parse_topology).transpose()?;
    let mut entries: Vec<(String, std::path::PathBuf)> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read --traces-dir `{dir}`: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .filter_map(|p| {
            let stem = p.file_stem()?.to_str()?.to_string();
            Some((stem, p))
        })
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("--traces-dir `{dir}` contains no .json traces"));
    }
    let fabric = synctime_net::QueryFabric::new(shards);
    for (name, path) in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read trace `{}`: {e}", path.display()))?;
        let comp = parse_trace(&text, topo.as_ref())
            .map_err(|e| format!("trace `{}`: {e}", path.display()))?;
        let stamps = match &topo {
            Some(topo) => OnlineStamper::new(&decompose::best_known(topo))
                .stamp_computation(&comp)
                .map_err(|e| format!("trace `{}`: {e}", path.display()))?,
            None => offline::stamp_computation_sparse(&comp),
        };
        fabric.publish(&name, stamps);
    }
    Ok(fabric)
}

fn cmd_faultplan(opts: &BTreeMap<String, String>) -> Result<String, String> {
    use rand::SeedableRng;
    let processes: usize = require(opts, "processes")?
        .parse()
        .map_err(|_| "--processes expects a count".to_string())?;
    let max_op: u64 = require(opts, "max-op")?
        .parse()
        .map_err(|_| "--max-op expects a number".to_string())?;
    let crashes = opt_flag(opts, "crashes", "a count")?.unwrap_or(0);
    let desyncs = opt_flag(opts, "desyncs", "a count")?.unwrap_or(0);
    let seed = opt_flag(opts, "seed", "a number")?.unwrap_or(0);
    if crashes >= processes && crashes > 0 {
        return Err(format!(
            "--crashes {crashes} would kill all {processes} processes; leave survivors"
        ));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let plan = synctime_sim::FaultPlan::random(processes, max_op, crashes, desyncs, &mut rng);
    let mut out = plan.to_json();
    out.push('\n');
    Ok(out)
}

fn cmd_churn(opts: &BTreeMap<String, String>) -> Result<String, String> {
    use rand::SeedableRng;
    let universe: usize = require(opts, "universe")?
        .parse()
        .map_err(|_| "--universe expects a process count".to_string())?;
    let boundaries: usize = require(opts, "boundaries")?
        .parse()
        .map_err(|_| "--boundaries expects a count".to_string())?;
    let mean_rounds = opt_flag(opts, "mean-rounds", "a round count")?.unwrap_or(3);
    let seed = opt_flag(opts, "seed", "a number")?.unwrap_or(0);
    if universe < 3 {
        return Err("--universe expects at least 3 (joins and leaves need headroom)".to_string());
    }
    if mean_rounds == 0 {
        return Err("--mean-rounds expects at least 1".to_string());
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let plan = synctime_sim::ChurnPlan::random(universe, boundaries, mean_rounds, &mut rng);
    let mut out = plan.to_json();
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn usage_on_no_args_and_help() {
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        assert!(run_strs(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_strs(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_topology("star:5").unwrap().node_count(), 6);
        assert_eq!(parse_topology("triangle").unwrap().edge_count(), 3);
        assert_eq!(parse_topology("clients:2x3").unwrap().node_count(), 5);
        assert_eq!(parse_topology("grid:2x3").unwrap().node_count(), 6);
        assert_eq!(parse_topology("fig4").unwrap().node_count(), 20);
        assert!(parse_topology("star:x").is_err());
        assert!(parse_topology("clients:3").is_err());
        assert!(parse_topology("wat:3").is_err());
        assert!(parse_topology("/nonexistent.json")
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn topology_json_parsing() {
        let g = parse_topology_json(r#"{"nodes": 3, "edges": [[0,1],[1,2]]}"#).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(parse_topology_json("{}").is_err());
        assert!(parse_topology_json(r#"{"nodes": 2, "edges": [[0,5]]}"#).is_err());
    }

    #[test]
    fn trace_parsing_and_validation() {
        let text = r#"{"processes": 3, "events": [
            {"message": [0, 1]}, {"internal": 1}, {"message": [1, 2]}
        ]}"#;
        let comp = parse_trace(text, None).unwrap();
        assert_eq!(comp.message_count(), 2);
        assert_eq!(comp.events().count(), 5);
        // Topology violations are reported with the event index.
        let topo = topology::path(3);
        let bad = r#"{"processes": 3, "events": [{"message": [0, 2]}]}"#;
        assert!(parse_trace(bad, Some(&topo))
            .unwrap_err()
            .contains("event 0"));
    }

    #[test]
    fn decompose_command_end_to_end() {
        let out = run_strs(&[
            "decompose",
            "--topology",
            "clients:3x8",
            "--cover",
            "--optimal",
        ])
        .unwrap();
        assert!(out.contains("timestamp dimension: 3"));
        assert!(out.contains("vertex cover (3 nodes)"));
    }

    #[test]
    fn stamp_and_query_commands() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        std::fs::write(
            &trace,
            r#"{"processes": 4, "events": [
                {"message": [2, 0]}, {"message": [3, 1]}, {"message": [2, 1]}
            ]}"#,
        )
        .unwrap();
        let t = trace.to_str().unwrap();
        for alg in ["online", "offline", "fm", "lamport"] {
            let out = run_strs(&[
                "stamp",
                "--topology",
                "clients:2x2",
                "--trace",
                t,
                "--algorithm",
                alg,
            ])
            .unwrap();
            assert!(out.contains("m1"), "{alg}: {out}");
        }
        // The offline algorithm's sparse engine stamps the same trace; the
        // engine flag is rejected elsewhere.
        let out = run_strs(&[
            "stamp",
            "--topology",
            "clients:2x2",
            "--trace",
            t,
            "--algorithm",
            "offline",
            "--engine",
            "sparse",
        ])
        .unwrap();
        assert!(out.contains("offline/sparse"), "{out}");
        assert!(out.contains("m1"), "{out}");
        let err = run_strs(&[
            "stamp",
            "--topology",
            "clients:2x2",
            "--trace",
            t,
            "--algorithm",
            "fm",
            "--engine",
            "sparse",
        ])
        .unwrap_err();
        assert!(err.contains("only applies"), "{err}");
        let out = run_strs(&[
            "query",
            "--topology",
            "clients:2x2",
            "--trace",
            t,
            "--m1",
            "1",
            "--m2",
            "2",
        ])
        .unwrap();
        assert!(out.contains("concurrent"), "{out}");
        let out = run_strs(&[
            "query",
            "--topology",
            "clients:2x2",
            "--trace",
            t,
            "--m1",
            "2",
            "--m2",
            "3",
        ])
        .unwrap();
        assert!(out.contains("m1 synchronously precedes m2"), "{out}");
        // Out-of-range message number.
        assert!(run_strs(&[
            "query",
            "--topology",
            "clients:2x2",
            "--trace",
            t,
            "--m1",
            "9",
            "--m2",
            "1",
        ])
        .is_err());
    }

    #[test]
    fn diagram_command() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("diagram.json");
        std::fs::write(
            &trace,
            r#"{"processes": 2, "events": [{"message": [0, 1]}, {"internal": 0}]}"#,
        )
        .unwrap();
        let out = run_strs(&["diagram", "--trace", trace.to_str().unwrap()]).unwrap();
        assert!(out.contains("m1"));
        assert!(out.contains("P2"));
    }

    #[test]
    fn generate_emits_valid_trace() {
        let out = run_strs(&[
            "generate",
            "--topology",
            "complete:4",
            "--messages",
            "12",
            "--internals",
            "3",
            "--seed",
            "9",
        ])
        .unwrap();
        // The emitted JSON parses back into an equivalent computation.
        let comp = parse_trace(&out, Some(&topology::complete(4))).unwrap();
        assert_eq!(comp.message_count(), 12);
        assert_eq!(comp.events().count(), 27);
        // Determinism: same seed, same output.
        let again = run_strs(&[
            "generate",
            "--topology",
            "complete:4",
            "--messages",
            "12",
            "--internals",
            "3",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(out, again);
        // Edgeless topologies are rejected up front.
        assert!(run_strs(&["generate", "--topology", "path:2", "--messages", "0"]).is_ok());
    }

    #[test]
    fn simulate_runs_programs() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let progs = dir.join("programs.json");
        std::fs::write(
            &progs,
            r#"{"programs": [
                [{"send_to": 1}, "internal"],
                [{"receive_from": 0}, {"send_to": 2}],
                ["receive_any"]
            ]}"#,
        )
        .unwrap();
        let out = run_strs(&["simulate", "--programs", progs.to_str().unwrap()]).unwrap();
        let comp = parse_trace(&out, None).unwrap();
        assert_eq!(comp.message_count(), 2);
        // Deadlocking scripts surface the simulator's diagnosis.
        let bad = dir.join("deadlock.json");
        std::fs::write(
            &bad,
            r#"{"programs": [[{"send_to": 1}], [{"send_to": 0}]]}"#,
        )
        .unwrap();
        let err = run_strs(&["simulate", "--programs", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }

    #[test]
    fn generate_pipes_into_stamp() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = run_strs(&[
            "generate",
            "--topology",
            "clients:2x3",
            "--messages",
            "10",
            "--seed",
            "1",
        ])
        .unwrap();
        let trace = dir.join("gen.json");
        std::fs::write(&trace, &out).unwrap();
        let stamped = run_strs(&[
            "stamp",
            "--topology",
            "clients:2x3",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(stamped.contains("online (d = 2)"), "{stamped}");
    }

    #[test]
    fn stamp_refuses_the_clock_flag() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = run_strs(&[
            "generate",
            "--topology",
            "cycle:6",
            "--messages",
            "20",
            "--seed",
            "4",
        ])
        .unwrap();
        let trace = dir.join("clock-gen.json");
        std::fs::write(&trace, &out).unwrap();
        let trace = trace.to_str().unwrap();
        let stamped = run_strs(&["stamp", "--topology", "cycle:6", "--trace", trace]).unwrap();
        assert!(stamped.starts_with("algorithm: online (d = "), "{stamped}");
        // Stamping a recorded trace always runs the dense clock: `--clock`
        // is refused under every value and algorithm, and the diagnostic
        // names the commands that take it.
        for (algorithm, clock) in [("online", "tree"), ("offline", "tree"), ("online", "dense")] {
            let err = run_strs(&[
                "stamp",
                "--topology",
                "cycle:6",
                "--trace",
                trace,
                "--algorithm",
                algorithm,
                "--clock",
                clock,
            ])
            .unwrap_err();
            for command in ["`run`", "`launch`", "`serve-node`"] {
                assert!(err.contains(command), "{err}");
            }
        }
    }

    #[test]
    fn run_clock_backends_reconstruct_identically() {
        let default = run_strs(&["run", "--ring", "4", "--rounds", "3"]).unwrap();
        for clock in ["dense", "tree"] {
            let alt = run_strs(&["run", "--ring", "4", "--rounds", "3", "--clock", clock]).unwrap();
            assert_eq!(alt, default, "--clock {clock}");
        }
        // `fixed` and `auto` are not backends: refused at flag parse time
        // like any unknown name.
        for clock in ["fixed", "auto", "warp"] {
            let err = run_strs(&["run", "--ring", "4", "--clock", clock]).unwrap_err();
            assert!(err.contains("unknown clock backend"), "{clock}: {err}");
        }
    }

    #[test]
    fn run_ring_emits_stats_json() {
        let out = run_strs(&["run", "--ring", "4", "--rounds", "5", "--stats"]).unwrap();
        let stats = synctime_obs::RunStats::from_json(&out).expect("stats output parses");
        assert_eq!(stats.process_count, 4);
        // 4 hops per round x 5 rounds.
        assert_eq!(stats.messages, 20);
        assert_eq!(stats.receives, 20);
        assert!(stats.ack_latency_p50_ns > 0, "{out}");
        assert!(stats.ack_latency_p99_ns >= stats.ack_latency_p50_ns);
        assert!(stats.total_wire_bytes > 0);
        assert!(stats.max_vector_component > 0);
    }

    #[test]
    fn run_stats_report_parking_wakeups() {
        // Blocked endpoints park on their slot, and --stats reports the
        // wakeups that parking took.
        let parked = run_strs(&["run", "--ring", "3", "--rounds", "4", "--stats"]).unwrap();
        let parked = synctime_obs::RunStats::from_json(&parked).unwrap();
        assert!(parked.wakeups > 0, "parked threads should report wakeups");
        assert!(parked.wakeup_max_ns >= parked.wakeup_p50_ns);
    }

    /// The combined output `run --fault-plan` prints: stats plus one typed
    /// verdict (null = survived) per process.
    #[derive(Deserialize)]
    struct FaultRunOutput {
        stats: synctime_obs::RunStats,
        outcomes: Vec<Option<String>>,
    }

    #[test]
    fn run_with_crash_plan_reports_typed_outcomes() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("crash-plan.json");
        std::fs::write(
            &plan,
            r#"{"faults": [{"process": 1, "at_op": 0, "kind": "crash"}]}"#,
        )
        .unwrap();
        let out = run_strs(&[
            "run",
            "--ring",
            "4",
            "--rounds",
            "3",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--watchdog-ms",
            "200",
        ])
        .expect("faulted runs still succeed as commands");
        let parsed: FaultRunOutput = serde_json::from_str(&out).expect("combined JSON parses");
        assert_eq!(parsed.outcomes.len(), 4);
        assert!(
            parsed.outcomes[1]
                .as_deref()
                .is_some_and(|e| e.contains("injected fault")),
            "{out}"
        );
        assert_eq!(parsed.stats.faults_injected, 1);
        // Every verdict is typed — the crash cascades as PeerTerminated,
        // never as a panic or a deadlock misdiagnosis.
        for o in parsed.outcomes.iter().flatten() {
            assert!(
                o.contains("injected fault") || o.contains("terminated"),
                "unexpected outcome: {o}"
            );
        }
    }

    #[test]
    fn run_with_desync_plan_recovers_with_resync_frames() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("desync-plan.json");
        std::fs::write(
            &plan,
            r#"{"faults": [{"process": 0, "at_op": 2, "kind": "desync"}]}"#,
        )
        .unwrap();
        let out = run_strs(&[
            "run",
            "--ring",
            "3",
            "--rounds",
            "4",
            "--fault-plan",
            plan.to_str().unwrap(),
        ])
        .unwrap();
        let parsed: FaultRunOutput = serde_json::from_str(&out).unwrap();
        assert!(
            parsed.outcomes.iter().all(Option::is_none),
            "a desync must degrade, not fail: {out}"
        );
        assert_eq!(parsed.stats.faults_injected, 1, "{out}");
        assert!(parsed.stats.resync_frames >= 1, "{out}");
        assert_eq!(parsed.stats.messages, 12);
    }

    #[test]
    fn run_gossip_workload() {
        let out = run_strs(&[
            "run", "--gossip", "4", "--rounds", "2", "--seed", "3", "--stats",
        ])
        .unwrap();
        let stats = synctime_obs::RunStats::from_json(&out).unwrap();
        assert_eq!(stats.process_count, 4);
        // Each round pairs all 4 processes into 2 couples, 2 messages each.
        assert_eq!(stats.messages, 8);
        assert!(run_strs(&["run", "--gossip", "1"])
            .unwrap_err()
            .contains("at least 2"));
    }

    #[test]
    fn rendezvous_timeout_flags_parse_and_clean_runs_pass() {
        let out = run_strs(&[
            "run",
            "--ring",
            "3",
            "--rounds",
            "2",
            "--rendezvous-timeout",
            "5000",
            "--rendezvous-retries",
            "2",
            "--stats",
        ])
        .unwrap();
        let stats = synctime_obs::RunStats::from_json(&out).unwrap();
        assert_eq!(stats.messages, 6);
        assert!(
            run_strs(&["run", "--ring", "3", "--rendezvous-timeout", "soon"])
                .unwrap_err()
                .contains("milliseconds")
        );
        // A plan's runtime applies the timeout too: process 1 sleeps past
        // it at its first operation, so its ring neighbour times out.
        let dir = std::env::temp_dir().join("synctime-cli-rendezvous-timeout");
        std::fs::create_dir_all(&dir).unwrap();
        let (plan, delay) = (dir.join("plan.json"), dir.join("delay.json"));
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        std::fs::write(
            &delay,
            r#"{"faults": [{"process": 1, "at_op": 0, "kind": {"delay": {"ms": 400}}}]}"#,
        )
        .unwrap();
        let out = run_strs(&[
            "run",
            "--churn-plan",
            plan.to_str().unwrap(),
            "--fault-plan",
            delay.to_str().unwrap(),
            "--rendezvous-timeout",
            "20",
            "--rendezvous-retries",
            "0",
        ])
        .unwrap();
        let parsed: FaultRunOutput = serde_json::from_str(&out).unwrap();
        assert!(
            parsed
                .outcomes
                .iter()
                .flatten()
                .any(|o| o.contains("rendezvous with process 1 timed out after 20ms")),
            "{out}"
        );
    }

    #[test]
    fn faultplan_generator_is_seeded() {
        let args = [
            "faultplan",
            "--processes",
            "5",
            "--max-op",
            "10",
            "--crashes",
            "2",
            "--desyncs",
            "1",
            "--seed",
            "7",
        ];
        let a = run_strs(&args).unwrap();
        assert_eq!(a, run_strs(&args).unwrap(), "same seed, same plan");
        let plan = synctime_sim::FaultPlan::from_json(&a).unwrap();
        assert_eq!(plan.faults.len(), 3);
        // Killing every process is rejected up front.
        let err = run_strs(&[
            "faultplan",
            "--processes",
            "3",
            "--max-op",
            "5",
            "--crashes",
            "3",
        ])
        .unwrap_err();
        assert!(err.contains("survivors"), "{err}");
    }

    #[test]
    fn run_without_stats_emits_trace() {
        let out = run_strs(&["run", "--ring", "3", "--rounds", "2"]).unwrap();
        let comp = parse_trace(&out, Some(&topology::cycle(3))).unwrap();
        assert_eq!(comp.message_count(), 6);
    }

    #[test]
    fn run_executes_program_files_on_threads() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let progs = dir.join("run-programs.json");
        std::fs::write(
            &progs,
            r#"{"programs": [
                [{"send_to": 1}, "internal"],
                [{"receive_from": 0}, {"send_to": 2}],
                [{"receive_from": 1}]
            ]}"#,
        )
        .unwrap();
        let out = run_strs(&["run", "--programs", progs.to_str().unwrap()]).unwrap();
        let comp = parse_trace(&out, None).unwrap();
        assert_eq!(comp.message_count(), 2);
        // receive_any is a simulator-only construct.
        let any = dir.join("run-any.json");
        std::fs::write(&any, r#"{"programs": [["receive_any"], [{"send_to": 0}]]}"#).unwrap();
        let err = run_strs(&["run", "--programs", any.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("receive_any"), "{err}");
    }

    #[test]
    fn run_diagnoses_deadlock_instead_of_hanging() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("run-deadlock.json");
        std::fs::write(
            &bad,
            r#"{"programs": [[{"receive_from": 1}], [{"receive_from": 0}]]}"#,
        )
        .unwrap();
        let err = run_strs(&[
            "run",
            "--programs",
            bad.to_str().unwrap(),
            "--watchdog-ms",
            "100",
        ])
        .unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains("P0 -> P1 -> P0"), "{err}");
    }

    #[test]
    fn run_flag_validation() {
        assert!(run_strs(&["run"]).unwrap_err().contains("--programs"));
        assert!(run_strs(&["run", "--ring", "2"])
            .unwrap_err()
            .contains("at least 3"));
        // Mismatched topology is rejected before spawning threads.
        let err = run_strs(&["run", "--ring", "4", "--topology", "cycle:5"]).unwrap_err();
        assert!(err.contains("5 nodes"), "{err}");
        // The runtime flags configure a plan's runtime as they do a
        // program's: a bad value is refused with the same text, in process
        // under either command.
        let dir = std::env::temp_dir().join("synctime-cli-run-flags");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        let plan = plan.to_str().unwrap();
        for (flag, value) in [
            ("--rendezvous-timeout", "soon"),
            ("--rendezvous-retries", "x"),
        ] {
            for command in [&["run"][..], &["launch", "--transport", "local"][..]] {
                let with = |workload: &[&str]| {
                    let args = [command, workload, &[flag, value][..]].concat();
                    run_strs(&args).unwrap_err()
                };
                let ring = with(&["--ring", "3"]);
                assert!(ring.contains("expects"), "{flag}: {ring}");
                assert_eq!(with(&["--churn-plan", plan]), ring, "{command:?} {flag}");
            }
        }
    }

    #[test]
    fn zero_watchdog_timeout_is_refused() {
        for cmd in [
            &["run", "--ring", "3", "--watchdog-ms", "0"][..],
            &["launch", "--ring", "3", "--watchdog-ms", "0"][..],
            &[
                "launch",
                "--ring",
                "3",
                "--transport",
                "local",
                "--watchdog-ms",
                "0",
            ][..],
        ] {
            let err = run_strs(cmd).unwrap_err();
            assert!(err.contains("watchdog timeout must be above zero"), "{err}");
        }
        assert!(run_strs(&["run", "--ring", "3", "--watchdog-ms", "1"]).is_ok());
    }

    #[test]
    fn flag_errors() {
        assert!(run_strs(&["stamp", "positional"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(run_strs(&["stamp", "--trace"])
            .unwrap_err()
            .contains("expects a value"));
        assert!(run_strs(&["stamp"])
            .unwrap_err()
            .contains("missing required flag"));
    }

    #[test]
    fn query_chain_local() {
        let dir = std::env::temp_dir().join("synctime-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("chain.json");
        std::fs::write(
            &trace,
            r#"{"processes": 4, "events": [
                {"message": [2, 0]}, {"message": [3, 1]}, {"message": [2, 1]}
            ]}"#,
        )
        .unwrap();
        let out = run_strs(&[
            "query",
            "--topology",
            "clients:2x2",
            "--trace",
            trace.to_str().unwrap(),
            "--chain",
            "3",
        ])
        .unwrap();
        // m1 and m3 share process 2, m2 and m3 share process 1; m2 alone is
        // concurrent with m1 but every message is comparable with m3.
        assert_eq!(out, "chain of m3: m1 m2 m3\n");
    }

    /// The network query client against an in-process server: the same
    /// three answers the local `query` gives on this fixture.
    #[test]
    fn query_connect_end_to_end() {
        let comp = parse_trace(
            r#"{"processes": 4, "events": [
                {"message": [2, 0]}, {"message": [3, 1]}, {"message": [2, 1]}
            ]}"#,
            None,
        )
        .unwrap();
        let topo = parse_topology("clients:2x2").unwrap();
        let dec = decompose::best_known(&topo);
        let stamps = OnlineStamper::new(&dec).stamp_computation(&comp).unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fabric = synctime_net::QueryFabric::single(synctime_net::DEFAULT_TRACE_NAME, stamps);
        std::thread::spawn(move || {
            let _ = synctime_net::serve_fabric(listener, std::sync::Arc::new(fabric), 2);
        });
        let out = run_strs(&["query", "--connect", &addr, "--m1", "1", "--m2", "2"]).unwrap();
        assert_eq!(out, "m1 and m2 are concurrent\n");
        let out = run_strs(&["query", "--connect", &addr, "--m1", "2", "--m2", "3"]).unwrap();
        assert_eq!(out, "m1 synchronously precedes m2\n");
        let out = run_strs(&["query", "--connect", &addr, "--chain", "3"]).unwrap();
        assert_eq!(out, "chain of m3: m1 m2 m3\n");
        // Out-of-range numbers come back as server-side query errors
        // without killing the connection for later clients.
        let err = run_strs(&["query", "--connect", &addr, "--m1", "9", "--m2", "1"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = run_strs(&["query", "--connect", &addr, "--m1", "0", "--m2", "1"]).unwrap_err();
        assert!(err.contains("1-based"), "{err}");
    }

    /// A two-trace catalog loaded from a directory, served over the
    /// fabric, queried by name and in batches through the CLI client.
    #[test]
    fn query_connect_catalog_end_to_end() {
        let dir = std::env::temp_dir().join("synctime-cli-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Trace `web`: the clients:2x2 fixture from the tests above.
        std::fs::write(
            dir.join("web.json"),
            r#"{"processes": 4, "events": [
                {"message": [2, 0]}, {"message": [3, 1]}, {"message": [2, 1]}
            ]}"#,
        )
        .unwrap();
        // Trace `ring`: a fully sequential 2-process ping-pong.
        std::fs::write(
            dir.join("ring.json"),
            r#"{"processes": 2, "events": [
                {"message": [0, 1]}, {"message": [1, 0]}, {"message": [0, 1]}
            ]}"#,
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a trace").unwrap();
        // No topology: the sparse offline engine stamps the catalog.
        let fabric = load_trace_catalog(dir.to_str().unwrap(), None, 4).unwrap();
        assert_eq!(fabric.trace_names(), vec!["ring", "web"]);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = synctime_net::serve_fabric(listener, std::sync::Arc::new(fabric), 2);
        });
        // Named-trace single queries give the fixture verdicts.
        let out = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "web",
            "--m1",
            "1",
            "--m2",
            "2",
        ])
        .unwrap();
        assert_eq!(out, "m1 and m2 are concurrent\n");
        let out = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "web",
            "--chain",
            "3",
        ])
        .unwrap();
        assert_eq!(out, "chain of m3: m1 m2 m3\n");
        // The `ring` trace is fully ordered, unlike `web`.
        let out = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "ring",
            "--m1",
            "1",
            "--m2",
            "2",
        ])
        .unwrap();
        assert_eq!(out, "m1 synchronously precedes m2\n");
        // A batch answers every pair in one round trip, positionally.
        let out = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "ring",
            "--batch",
            "1:2,2:1,1:3",
        ])
        .unwrap();
        assert_eq!(out, "m1 -> m2: yes\nm2 -> m1: no\nm1 -> m3: yes\n");
        // The pipelined (--window) batch prints the identical output.
        let piped = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "ring",
            "--batch",
            "1:2,2:1,1:3",
            "--window",
            "16",
        ])
        .unwrap();
        assert_eq!(piped, out);
        // A window must be a positive number.
        let err = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "ring",
            "--batch",
            "1:2",
            "--window",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("--window"), "{err}");
        // An unnamed query against a 2-trace catalog is ambiguous.
        let err = run_strs(&["query", "--connect", &addr, "--m1", "1", "--m2", "2"]).unwrap_err();
        assert!(err.contains("2 traces"), "{err}");
        // Unknown trace names fail with a diagnostic, not a hang.
        let err = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "nope",
            "--m1",
            "1",
            "--m2",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("unknown trace"), "{err}");
        // Malformed batch specs are rejected client-side.
        let err = run_strs(&[
            "query",
            "--connect",
            &addr,
            "--trace",
            "ring",
            "--batch",
            "1-2",
        ])
        .unwrap_err();
        assert!(err.contains("m1:m2"), "{err}");
    }

    #[test]
    fn serve_query_catalog_flag_validation() {
        let dir = std::env::temp_dir().join("synctime-cli-catalog-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_strs(&[
            "serve-query",
            "--traces-dir",
            dir.to_str().unwrap(),
            "--trace",
            "x.json",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = run_strs(&["serve-query", "--traces-dir", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no .json traces"), "{err}");
        let err = run_strs(&[
            "serve-query",
            "--traces-dir",
            dir.to_str().unwrap(),
            "--shards",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn distributed_flag_validation() {
        // serve-node validates the process index against the workload.
        let err = run_strs(&["serve-node", "--process", "9", "--ring", "3"]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(run_strs(&["serve-node", "--ring", "3"])
            .unwrap_err()
            .contains("--process"));
        // launch rejects unknown transports before spawning anything.
        let err =
            run_strs(&["launch", "--ring", "3", "--transport", "carrier-pigeon"]).unwrap_err();
        assert!(err.contains("tcp"), "{err}");
        // And the runtime flags every node would refuse.
        for (flag, value, diagnostic) in [
            ("--rendezvous-timeout", "soon", "milliseconds"),
            ("--rendezvous-retries", "many", "a count"),
            ("--clock", "warp", "unknown clock backend"),
        ] {
            let err = run_strs(&["launch", "--ring", "3", flag, value]).unwrap_err();
            assert!(err.contains(diagnostic), "{flag}: {err}");
        }
        // A malformed or wrong-arity peer list is rejected up front.
        let err = run_strs(&[
            "serve-node",
            "--process",
            "0",
            "--ring",
            "3",
            "--peers",
            "127.0.0.1:1,127.0.0.1:2",
        ])
        .unwrap_err();
        assert!(err.contains("3 processes"), "{err}");
        let err = run_strs(&[
            "serve-node",
            "--process",
            "0",
            "--ring",
            "3",
            "--peers",
            "not-an-addr,127.0.0.1:1,127.0.0.1:2",
        ])
        .unwrap_err();
        assert!(err.contains("bad socket address"), "{err}");
        // Faults are injected in process only: a TCP launch given a fault
        // plan is refused before any node spawns (a spawned node would be
        // this test binary), and so is a standalone node.
        let dir = std::env::temp_dir().join("synctime-cli-distributed-flags");
        std::fs::create_dir_all(&dir).unwrap();
        let crash = dir.join("crash.json");
        std::fs::write(
            &crash,
            r#"{"faults": [{"process": 2, "at_op": 1, "kind": "crash"}]}"#,
        )
        .unwrap();
        let crash = crash.to_str().unwrap();
        for cmd in [
            &[
                "launch",
                "--ring",
                "5",
                "--rounds",
                "4",
                "--fault-plan",
                crash,
            ][..],
            &[
                "launch",
                "--ring",
                "5",
                "--transport",
                "tcp",
                "--fault-plan",
                crash,
            ][..],
            &[
                "serve-node",
                "--process",
                "0",
                "--ring",
                "5",
                "--fault-plan",
                crash,
            ][..],
            &["launch", "--ring", "5", "--transport", "tcp", "--epochs"][..],
            &["serve-node", "--process", "0", "--ring", "5", "--epochs"][..],
        ] {
            let err = run_strs(cmd).unwrap_err();
            assert!(err.contains("runs in process only"), "{cmd:?}: {err}");
        }
        // A churn plan runs its own token rings: given together with a
        // program flag it is refused, on every command, not silently
        // preferred.
        let plan = dir.join("plan.json");
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        let plan = plan.to_str().unwrap();
        for (flag, value) in [("--programs", "p.json"), ("--ring", "3"), ("--gossip", "4")] {
            for cmd in [
                &["run", "--churn-plan", plan, flag, value][..],
                &["launch", "--churn-plan", plan, flag, value][..],
                &[
                    "serve-node",
                    "--process",
                    "0",
                    "--churn-plan",
                    plan,
                    flag,
                    value,
                ][..],
            ] {
                let err = run_strs(cmd).unwrap_err();
                assert!(err.contains("cannot be combined"), "{cmd:?}: {err}");
                assert!(err.contains(flag), "{cmd:?}: {err}");
            }
        }
    }

    #[test]
    fn churn_generator_is_seeded() {
        let args = [
            "churn",
            "--universe",
            "6",
            "--boundaries",
            "3",
            "--mean-rounds",
            "2",
            "--seed",
            "11",
        ];
        let a = run_strs(&args).unwrap();
        assert_eq!(a, run_strs(&args).unwrap(), "same seed, same plan");
        let plan = synctime_sim::ChurnPlan::from_json(&a).unwrap();
        assert_eq!(plan.universe, 6);
        assert_eq!(plan.events.len(), 3);
        plan.validate().unwrap();
        // A universe too small for joins and leaves is rejected up front.
        let err = run_strs(&["churn", "--universe", "2", "--boundaries", "1"]).unwrap_err();
        assert!(err.contains("at least 3"), "{err}");
    }

    const CHURN_PLAN_FIXTURE: &str = r#"{
        "universe": 5,
        "initial": [0, 1, 2],
        "events": [
            {"after_rounds": 2, "kind": {"join": {"process": 3}}},
            {"after_rounds": 2, "kind": {"leave": {"process": 1}}}
        ],
        "tail_rounds": 2
    }"#;

    /// `launch --transport local --churn-plan` emits the final epoch's
    /// trace: the post-churn active set's ring, reconstructed from the log
    /// suffix past the last boundary.
    #[test]
    fn launch_churn_local_emits_final_epoch_trace() {
        let dir = std::env::temp_dir().join("synctime-cli-churn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        let out = run_strs(&[
            "launch",
            "--transport",
            "local",
            "--churn-plan",
            plan.to_str().unwrap(),
        ])
        .unwrap();
        let comp = parse_trace(&out, None).unwrap();
        // Final active set {0, 2, 3}: a 3-ring run for 2 rounds.
        assert_eq!(comp.process_count(), 5);
        assert_eq!(comp.message_count(), 6);
        // --epochs surfaces the per-epoch dimension/latency reports instead.
        let epochs = run_strs(&[
            "launch",
            "--transport",
            "local",
            "--churn-plan",
            plan.to_str().unwrap(),
            "--epochs",
        ])
        .unwrap();
        assert_eq!(epochs.matches("\"epoch\"").count(), 3, "{epochs}");
        assert!(epochs.contains("\"reconfigure_micros\""), "{epochs}");
    }

    /// `--persist` on a churn launch stores the boundary records; recovery
    /// serves the latest epoch.
    #[test]
    fn launch_churn_local_persists_reconfig_records() {
        let dir = std::env::temp_dir().join("synctime-cli-churn-persist");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        let root = dir.join("store");
        run_strs(&[
            "launch",
            "--transport",
            "local",
            "--churn-plan",
            plan.to_str().unwrap(),
            "--persist",
            root.to_str().unwrap(),
            "--trace-name",
            "churn",
        ])
        .unwrap();
        let rec = synctime_store::read_trace_dir(&root.join("churn")).unwrap();
        assert_eq!(rec.reconfigs.len(), 2);
        assert_eq!(rec.reconfigs.last().unwrap().epoch, 2);
        let (epoch, comp, _stamps) = synctime_store::materialize_latest_epoch(&rec).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(comp.message_count(), 6);
        // `--epochs` changes what is printed, not what is stored.
        let epochs = run_strs(&[
            "run",
            "--churn-plan",
            plan.to_str().unwrap(),
            "--epochs",
            "--persist",
            root.to_str().unwrap(),
            "--trace-name",
            "epochs",
        ])
        .unwrap();
        assert_eq!(epochs.matches("\"epoch\"").count(), 3, "{epochs}");
        let again = synctime_store::read_trace_dir(&root.join("epochs")).unwrap();
        assert_eq!(again.logs, rec.logs);
        assert_eq!(again.reconfigs, rec.reconfigs);
    }

    /// A tailer pass over an unchanged store republishes nothing: every
    /// served snapshot stays the same `Arc`. A trace persisted again is
    /// read and republished on the next pass.
    #[test]
    fn store_tailer_skips_unchanged_traces() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join("synctime-cli-store-tailer");
        let _ = std::fs::remove_dir_all(&dir);
        let root = dir.join("store");
        let root = root.to_str().unwrap();
        let persist = |name: &str, rounds: &str| {
            run_strs(&[
                "run",
                "--ring",
                "3",
                "--rounds",
                rounds,
                "--persist",
                root,
                "--trace-name",
                name,
            ])
            .unwrap();
        };
        persist("a", "2");
        persist("b", "3");
        let (fabric, mut tailer) = load_store_catalog(root, 2).unwrap();
        let served = |name: &str| fabric.snapshot(name).unwrap();
        let (a, b) = (served("a"), served("b"));
        assert!(tailer.pass(&fabric).unwrap().is_empty());
        assert!(Arc::ptr_eq(&a, &served("a")), "`a` was republished");
        assert!(Arc::ptr_eq(&b, &served("b")), "`b` was republished");
        persist("b", "5");
        assert!(tailer.pass(&fabric).unwrap().is_empty());
        assert!(Arc::ptr_eq(&a, &served("a")), "`a` was republished");
        assert!(served("b").len() > b.len(), "`b` was not republished");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `launch --transport local` is `run` by another name.
    #[test]
    fn launch_local_matches_run() {
        let run_out = run_strs(&["run", "--ring", "3", "--rounds", "2"]).unwrap();
        let launch_out = run_strs(&[
            "launch",
            "--ring",
            "3",
            "--rounds",
            "2",
            "--transport",
            "local",
        ])
        .unwrap();
        assert_eq!(run_out, launch_out);
        // A churn plan too: `run --churn-plan` is the local launch.
        let dir = std::env::temp_dir().join("synctime-cli-launch-local");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.json");
        std::fs::write(&plan, CHURN_PLAN_FIXTURE).unwrap();
        let plan = plan.to_str().unwrap();
        let run_out = run_strs(&["run", "--churn-plan", plan]).unwrap();
        let launch_out =
            run_strs(&["launch", "--churn-plan", plan, "--transport", "local"]).unwrap();
        assert_eq!(run_out, launch_out);
        assert_eq!(parse_trace(&run_out, None).unwrap().message_count(), 6);
        // A program run is one epoch: `--epochs` prints its one report.
        let run_out = run_strs(&["run", "--ring", "3", "--epochs"]).unwrap();
        let launch_out =
            run_strs(&["launch", "--ring", "3", "--transport", "local", "--epochs"]).unwrap();
        assert_eq!(run_out, launch_out);
        assert_eq!(
            run_out,
            "[\n  {\"epoch\": 0, \"active\": [0, 1, 2], \"dim\": 1, \"reconfigure_micros\": 0, \"survivors\": 3}\n]\n"
        );
    }
}
