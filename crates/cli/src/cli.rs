//! Argument parsing and command dispatch (std-only, no CLI framework).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;
use synctime_core::clock::ClockBackend;
use synctime_core::online::OnlineStamper;
use synctime_core::{fm, lamport, offline, MessageTimestamps};
use synctime_graph::{cover, decompose, topology, Graph};
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
  synctime run       (--programs <FILE> | --ring <N> | --gossip <N> [--rounds <R>])
                     [--topology <SPEC>] [--stats] [--watchdog-ms <MS>]
                     [--fault-plan <FILE>]
                     [--rendezvous-timeout <MS>] [--rendezvous-retries <K>]
                     [--clock dense|tree] [--seed <S>]
                     [--persist <DIR> [--trace-name <NAME>]]
  synctime faultplan --processes <N> --max-op <M> [--crashes <K>]
                     [--desyncs <D>] [--seed <S>]
  synctime churn     --universe <N> --boundaries <B> [--mean-rounds <R>]
                     [--seed <S>]
  synctime launch    (--programs <FILE> | --ring <N> | --gossip <N> [--rounds <R>]
                      | --churn-plan <FILE>)
                     [--transport tcp|local] [--stats] [--seed <S>]
                     [--topology <SPEC>] [--establish-timeout-ms <MS>]
                     [--watchdog-ms <MS>]
                     [--persist <DIR> [--trace-name <NAME>]]
  synctime serve-node --process <P> (--programs <FILE> | --ring <N> | --gossip <N>
                      | --churn-plan <FILE>)
                     [--peers <A0,A1,..>] [--topology <SPEC>] [--rounds <R>]
                     [--seed <S>] [--establish-timeout-ms <MS>]
  synctime serve-query (--topology <SPEC> --trace <FILE>
                       | --traces-dir <DIR> [--topology <SPEC>] [--shards <S>]
                       | --store-dir <DIR> [--poll-ms <MS>] [--shards <S>])
                     [--listen <ADDR>] [--pool <W>]

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
  Executes programs on real OS threads (one per process) with the Figure 5
  rendezvous protocol; a watchdog aborts stalled runs with a wait-for-graph
  diagnosis. `--watchdog-ms MS` (default 10000, must be above zero) is how
  long a wait-for cycle must stay parked before the run is aborted; only
  waits the channel confirms count (an untaken offer, or an empty slot
  for a receiver), so live runs are never flagged at any timeout above
  zero. `--ring N` is a built-in token-ring workload over cycle:N.
  `--stats` prints the run's observability summary as JSON (message counts,
  p50/p99 ack and rendezvous-wakeup latency, wire bytes, max vector
  component) instead of the reconstructed trace. Blocked endpoints park on
  their channel slot's condvar (zero idle CPU). `--gossip N` runs a
  seeded random pairwise-gossip workload over complete:N.
  `--fault-plan FILE` injects a deterministic fault schedule (see
  `faultplan`); the run then tolerates per-process failures
  and prints {\"stats\": .., \"outcomes\": [null | \"error\", ..]} instead
  of a trace — the process exits 0 because typed failures are the expected
  result. `--rendezvous-timeout MS` bounds every blocking rendezvous, with
  `--rendezvous-retries K` backoff re-arms before giving up. `--clock`
  selects the per-process clock: `dense` (default, a plain vector) or
  `tree` (a segment tree whose merges of the delta streams' change-sets
  are sublinear in the dimension). The stamped trace is identical under
  both, and `launch`/`serve-node` forward the flag to distributed nodes.

FAULTPLAN:
  Generates a random fault schedule as JSON for `run --fault-plan`:
  `--crashes K` distinct processes crash and `--desyncs D` delta-stream
  desyncs land at operation indices drawn from 0..M. Same seed, same plan.

CHURN:
  Generates a random reconfiguration script as JSON for `launch
  --churn-plan`: `--boundaries B` join/leave/swap events over a fixed
  `--universe N` process pool, with exponential gaps of mean
  `--mean-rounds` token laps between events (Poisson churn arrivals).
  Same seed, same plan. `launch --churn-plan plan.json` then runs the
  multi-epoch workload: every epoch is a token ring over the plan's
  active set, and every boundary ships a RECONFIGURE prepare/commit round
  through the coordinator (process 0) — in-flight traffic quiesces at the
  epoch boundary, every node rebases its clock through the group remap,
  and the committed max-merged baseline keeps post-change stamps
  order-isomorphic with an uninterrupted run over the new topology. The
  command prints the FINAL epoch's reconstructed trace (byte-identical to
  an uninterrupted reference run over the post-churn topology); with
  `--persist DIR` the boundaries are stored as reconfiguration records so
  `serve-query --store-dir` serves the latest epoch across restarts.

DISTRIBUTED:
  `launch --transport tcp` runs the same workload as `run`, but as one OS
  process per synchronous process, meshed over loopback TCP: it spawns
  `serve-node` children on ephemeral ports, hands each the full peer list,
  and merges their node reports back into one trace (or one `--stats`
  summary). `serve-node --peers a0,a1,..` runs a single node standalone —
  one terminal per process, every terminal given the same address list.
  `serve-query` stamps a trace and serves precedence queries over the same
  frame protocol; `query --connect HOST:PORT` asks it `--m1/--m2` (which
  precedes, or concurrent) or `--chain K` (every message comparable with
  message K). Message numbers are 1-based, as in the local `query`.

QUERY FABRIC:
  `serve-query --traces-dir DIR` loads every `DIR/*.json` trace into a
  sharded catalog (trace id = file stem, consistent-hashed over `--shards`
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
    let internals: usize = opts
        .get("internals")
        .map(|s| {
            s.parse()
                .map_err(|_| "--internals expects a number".to_string())
        })
        .transpose()?
        .unwrap_or(0);
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number".to_string()))
        .transpose()?
        .unwrap_or(0);
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
    programs: Vec<Vec<ProgramOp>>,
}

#[derive(Deserialize)]
enum ProgramOp {
    #[serde(rename = "send_to")]
    SendTo(usize),
    #[serde(rename = "receive_from")]
    ReceiveFrom(usize),
    #[serde(rename = "internal")]
    Internal,
    #[serde(rename = "receive_any")]
    ReceiveAny,
}

fn cmd_simulate(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let path = require(opts, "programs")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read programs `{path}`: {e}"))?;
    let file: ProgramsFile =
        serde_json::from_str(&text).map_err(|e| format!("bad programs JSON: {e}"))?;
    let programs: Vec<synctime_sim::Program> = file
        .programs
        .iter()
        .map(|ops| {
            let mut p = synctime_sim::Program::new();
            for op in ops {
                p = match op {
                    ProgramOp::SendTo(q) => p.send_to(*q),
                    ProgramOp::ReceiveFrom(q) => p.receive_from(*q),
                    ProgramOp::Internal => p.internal(),
                    ProgramOp::ReceiveAny => p.receive_any(),
                };
            }
            p
        })
        .collect();
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number".to_string()))
        .transpose()?
        .unwrap_or(0);
    let mut simulator = synctime_sim::Simulator::new().with_seed(seed);
    if let Some(spec) = opts.get("topology") {
        simulator = simulator.with_topology(&parse_topology(spec)?);
    }
    let comp = simulator.run(&programs).map_err(|e| e.to_string())?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

// --------------------------------------------------------------------- run

/// Loads program op lists for `run`: from a `--programs` file, or the
/// built-in `--ring N` token-ring workload (`--rounds R` trips around a
/// `cycle:N` topology).
fn run_programs(opts: &BTreeMap<String, String>) -> Result<Vec<Vec<ProgramOp>>, String> {
    if let Some(path) = opts.get("programs") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read programs `{path}`: {e}"))?;
        let file: ProgramsFile =
            serde_json::from_str(&text).map_err(|e| format!("bad programs JSON: {e}"))?;
        return Ok(file.programs);
    }
    if let Some(n_str) = opts.get("ring") {
        let n: usize = n_str
            .parse()
            .map_err(|_| "--ring expects a process count".to_string())?;
        if n < 3 {
            return Err("--ring needs at least 3 processes (cycle topology)".to_string());
        }
        let rounds: usize = opts
            .get("rounds")
            .map(|s| {
                s.parse()
                    .map_err(|_| "--rounds expects a number".to_string())
            })
            .transpose()?
            .unwrap_or(1);
        // Process 0 injects the token each round; everyone else forwards it.
        let programs = (0..n)
            .map(|p| {
                let mut ops = Vec::with_capacity(2 * rounds);
                for _ in 0..rounds {
                    if p == 0 {
                        ops.push(ProgramOp::SendTo(1));
                        ops.push(ProgramOp::ReceiveFrom(n - 1));
                    } else {
                        ops.push(ProgramOp::ReceiveFrom(p - 1));
                        ops.push(ProgramOp::SendTo((p + 1) % n));
                    }
                }
                ops
            })
            .collect();
        return Ok(programs);
    }
    if let Some(n_str) = opts.get("gossip") {
        use rand::SeedableRng;
        let n: usize = n_str
            .parse()
            .map_err(|_| "--gossip expects a process count".to_string())?;
        if n < 2 {
            return Err("--gossip needs at least 2 processes".to_string());
        }
        let rounds: usize = opts
            .get("rounds")
            .map(|s| {
                s.parse()
                    .map_err(|_| "--rounds expects a number".to_string())
            })
            .transpose()?
            .unwrap_or(1);
        let seed: u64 = opts
            .get("seed")
            .map(|s| s.parse().map_err(|_| "--seed expects a number".to_string()))
            .transpose()?
            .unwrap_or(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scenario = synctime_sim::scenarios::gossip(n, rounds.max(1), &mut rng);
        // Gossip computations are confluent, so their extracted scripts
        // replay deadlock-free on the threaded runtime.
        let programs = synctime_sim::programs::from_computation(&scenario.computation)
            .iter()
            .map(|prog| {
                prog.ops()
                    .iter()
                    .map(|op| match op {
                        synctime_sim::Op::SendTo(q) => ProgramOp::SendTo(*q),
                        synctime_sim::Op::ReceiveFrom(q) => ProgramOp::ReceiveFrom(*q),
                        synctime_sim::Op::Internal => ProgramOp::Internal,
                        synctime_sim::Op::ReceiveAny => ProgramOp::ReceiveAny,
                    })
                    .collect()
            })
            .collect();
        return Ok(programs);
    }
    Err("run needs --programs <FILE>, --ring <N>, or --gossip <N>".to_string())
}

/// Rejects op lists the threaded runtime cannot execute.
fn reject_receive_any(programs: &[Vec<ProgramOp>]) -> Result<(), String> {
    if programs
        .iter()
        .flatten()
        .any(|op| matches!(op, ProgramOp::ReceiveAny))
    {
        return Err(
            "receive_any is only supported by `simulate` (the threaded runtime needs a \
             concrete peer per receive)"
                .to_string(),
        );
    }
    Ok(())
}

/// The topology a set of programs runs over: `--topology SPEC`, or
/// inferred from the channels the programs use.
fn run_topology(
    programs: &[Vec<ProgramOp>],
    opts: &BTreeMap<String, String>,
) -> Result<Graph, String> {
    let n = programs.len();
    let topo = match opts.get("topology") {
        Some(spec) => parse_topology(spec)?,
        None => {
            // Infer the topology from the channels the programs use.
            let mut edges = std::collections::BTreeSet::new();
            for (p, ops) in programs.iter().enumerate() {
                for op in ops {
                    match op {
                        ProgramOp::SendTo(q) | ProgramOp::ReceiveFrom(q) => {
                            edges.insert((p.min(*q), p.max(*q)));
                        }
                        _ => {}
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

/// Parses `--watchdog-ms`, refusing zero with the runtime's typed
/// diagnostic.
fn parse_watchdog(opts: &BTreeMap<String, String>) -> Result<Option<std::time::Duration>, String> {
    let Some(ms) = opts.get("watchdog-ms") else {
        return Ok(None);
    };
    let ms: u64 = ms
        .parse()
        .map_err(|_| "--watchdog-ms expects milliseconds".to_string())?;
    if ms == 0 {
        return Err(format!(
            "--watchdog-ms 0: {}",
            synctime_runtime::RuntimeError::ZeroWatchdogTimeout
        ));
    }
    Ok(Some(std::time::Duration::from_millis(ms)))
}

/// Applies the runtime tuning flags shared by `run` and `serve-node`.
fn configure_runtime(
    mut rt: synctime_runtime::Runtime,
    opts: &BTreeMap<String, String>,
) -> Result<synctime_runtime::Runtime, String> {
    if let Some(timeout) = parse_watchdog(opts)? {
        rt = rt.with_watchdog(timeout).map_err(|e| e.to_string())?;
    }
    if let Some(ms) = opts.get("rendezvous-timeout") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| "--rendezvous-timeout expects milliseconds".to_string())?;
        rt = rt.with_rendezvous_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(k) = opts.get("rendezvous-retries") {
        let k: u32 = k
            .parse()
            .map_err(|_| "--rendezvous-retries expects a count".to_string())?;
        rt = rt.with_rendezvous_retries(k);
    }
    if let Some(backend) = parse_clock(opts)? {
        rt = rt.with_clock(backend);
    }
    Ok(rt)
}

/// One process's ops as a runtime behavior. The payload convention (the op
/// index) matches between `run` and `serve-node`, so local and distributed
/// executions of the same programs are comparable rendezvous-for-rendezvous.
fn op_behavior(ops: Vec<ProgramOp>) -> synctime_runtime::Behavior {
    Box::new(move |ctx| {
        for (i, op) in ops.iter().enumerate() {
            match op {
                ProgramOp::SendTo(q) => {
                    ctx.send(*q, i as u64)?;
                }
                ProgramOp::ReceiveFrom(q) => {
                    ctx.receive_from(*q)?;
                }
                ProgramOp::Internal => ctx.internal(),
                ProgramOp::ReceiveAny => unreachable!("rejected before running"),
            }
        }
        Ok(())
    })
}

/// The trace id a persisted run is stored under when `--trace-name` is
/// not given.
const DEFAULT_PERSIST_TRACE: &str = "run";

/// The sink a persisted run installs on the runtime, and the handle that
/// seals the store once every sender is gone.
type PersistSink = (
    std::sync::mpsc::Sender<Vec<synctime_store::PersistEvent>>,
    synctime_store::StoreWriter,
);

/// Opens the durable-ingestion writer when `--persist DIR` was given.
fn persist_writer(
    opts: &BTreeMap<String, String>,
    process_count: usize,
) -> Result<Option<PersistSink>, String> {
    let Some(root) = opts.get("persist") else {
        return Ok(None);
    };
    let trace = opts
        .get("trace-name")
        .map(String::as_str)
        .unwrap_or(DEFAULT_PERSIST_TRACE);
    let (tx, writer) =
        synctime_store::spawn_writer(std::path::Path::new(root), trace, process_count)
            .map_err(|e| format!("cannot open the stamp store under `{root}`: {e}"))?;
    Ok(Some((tx, writer)))
}

/// Joins the store writer after a persisted run. Every sender must be
/// dropped first (the runtime holds one until it is dropped), or the
/// join blocks forever. Reports where the sealed trace landed on stderr
/// so stdout stays reserved for the command's JSON output.
fn seal_store(writer: Option<synctime_store::StoreWriter>) -> Result<(), String> {
    let Some(writer) = writer else {
        return Ok(());
    };
    let store = writer
        .finish()
        .map_err(|e| format!("stamp store writer failed: {e}"))?;
    eprintln!("persisted trace to {}", store.dir().display());
    Ok(())
}

fn cmd_run(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let programs = run_programs(opts)?;
    reject_receive_any(&programs)?;
    let topo = run_topology(&programs, opts)?;
    let dec = decompose::best_known(&topo);
    let mut rt = configure_runtime(synctime_runtime::Runtime::new(&topo, &dec), opts)?;
    let mut store_writer = None;
    if let Some((tx, writer)) = persist_writer(opts, topo.node_count())? {
        rt = rt.with_log_sink(tx);
        store_writer = Some(writer);
    }
    let fault_plan = opts
        .get("fault-plan")
        .map(|path| -> Result<synctime_sim::FaultPlan, String> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan `{path}`: {e}"))?;
            synctime_sim::FaultPlan::from_json(&text)
                .map_err(|e| format!("bad fault plan JSON: {e}"))
        })
        .transpose()?;
    let behaviors: Vec<synctime_runtime::Behavior> =
        programs.into_iter().map(op_behavior).collect();
    if let Some(plan) = fault_plan {
        // Under injected faults, per-process failures are the *expected*
        // outcome: run fault-tolerantly and report every process's typed
        // verdict alongside the stats, succeeding as a command.
        rt = rt.with_fault_injector(std::sync::Arc::new(plan));
        let run = rt.run_tolerant(behaviors);
        drop(rt); // release the store sink so the writer can seal
        seal_store(store_writer)?;
        let outcomes: Vec<String> = run
            .outcomes()
            .iter()
            .map(|o| match o {
                None => "null".to_string(),
                Some(e) => {
                    serde_json::to_string(&e.to_string()).expect("strings serialise infallibly")
                }
            })
            .collect();
        return Ok(format!(
            "{{\n  \"stats\": {},\n  \"outcomes\": [{}]\n}}\n",
            run.stats().to_json(),
            outcomes.join(", ")
        ));
    }
    let run = rt.run(behaviors).map_err(|e| e.to_string())?;
    drop(rt); // release the store sink so the writer can seal
    seal_store(store_writer)?;
    if opts.contains_key("stats") {
        let mut out = run.stats().to_json();
        out.push('\n');
        return Ok(out);
    }
    let (comp, _stamps) = run
        .reconstruct()
        .map_err(|e| format!("internal error reconstructing the run: {e}"))?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

// ------------------------------------------- distributed (serve-node etc.)

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

fn establish_timeout(opts: &BTreeMap<String, String>) -> Result<std::time::Duration, String> {
    let ms: u64 = opts
        .get("establish-timeout-ms")
        .map(|s| {
            s.parse()
                .map_err(|_| "--establish-timeout-ms expects milliseconds".to_string())
        })
        .transpose()?
        .unwrap_or(10_000);
    Ok(std::time::Duration::from_millis(ms))
}

/// `serve-node`: run ONE process of the workload over TCP. With `--peers`
/// the address list is fixed up front (one terminal per process); without
/// it the node binds an ephemeral port, announces `listening on ADDR` on
/// stdout, and reads the comma-separated peer list from stdin — the
/// contract `launch --transport tcp` drives. Prints a node report.
fn cmd_serve_node(opts: &BTreeMap<String, String>) -> Result<String, String> {
    if opts.contains_key("churn-plan") {
        return cmd_serve_churn_node(opts);
    }
    let programs = run_programs(opts)?;
    reject_receive_any(&programs)?;
    let n = programs.len();
    let process = node_process(opts, n)?;
    let topo = run_topology(&programs, opts)?;
    let dec = decompose::best_known(&topo);
    let hash = synctime_net::topology_hash_of(n, &dec);
    let neighbors: Vec<usize> = topo.neighbors(process).collect();
    let mesh = node_mesh(opts, process, n, &neighbors, hash)?;
    let (tx, rx) = mesh.channels();
    let rt = configure_runtime(synctime_runtime::Runtime::new(&topo, &dec), opts)?;
    let behavior = op_behavior(programs.into_iter().nth(process).expect("index checked"));
    let run = rt.run_process(process, behavior, tx, rx);
    drop(mesh); // close peer sockets before reporting
    let (p, log, outcome, stats) = run.into_parts();
    let report = synctime_net::NodeReport {
        process: p,
        outcome: outcome.map(|e| e.to_string()),
        log,
        cuts: Vec::new(),
        stats,
    };
    Ok(report.to_json() + "\n")
}

/// Parses and range-checks `--process` against the workload size.
fn node_process(opts: &BTreeMap<String, String>, n: usize) -> Result<usize, String> {
    let process: usize = require(opts, "process")?
        .parse()
        .map_err(|_| "--process expects a process index".to_string())?;
    if process >= n {
        return Err(format!(
            "--process {process} out of range (workload has {n} processes)"
        ));
    }
    Ok(process)
}

/// Binds this node's socket, exchanges the peer address list (fixed via
/// `--peers`, or the announce-on-stdout / list-on-stdin contract `launch`
/// drives), and establishes the mesh over `neighbors`.
fn node_mesh(
    opts: &BTreeMap<String, String>,
    process: usize,
    n: usize,
    neighbors: &[usize],
    hash: u64,
) -> Result<synctime_net::TcpMesh, String> {
    use std::io::Write as _;
    let timeout = establish_timeout(opts)?;
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
        .establish(process, &addrs, neighbors, hash, timeout)
        .map_err(|e| format!("mesh establishment failed: {e}"))
}

/// Reads and validates the `--churn-plan` JSON file.
fn load_churn_plan(opts: &BTreeMap<String, String>) -> Result<synctime_sim::ChurnPlan, String> {
    let path = require(opts, "churn-plan")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read churn plan `{path}`: {e}"))?;
    let plan = synctime_sim::ChurnPlan::from_json(&text)
        .map_err(|e| format!("bad churn plan JSON: {e}"))?;
    plan.validate().map_err(|e| e.to_string())?;
    Ok(plan)
}

/// The mesh neighbors of one process in a churn run: its union-topology
/// neighbors plus the control-star edge to the coordinator (process 0
/// connects to everyone), so RECONFIGURE rounds always have a socket even
/// when an epoch's ring does not touch the coordinator.
fn churn_neighbors(union: &Graph, process: usize, n: usize) -> Vec<usize> {
    let mut nb: std::collections::BTreeSet<usize> = union.neighbors(process).collect();
    if process == 0 {
        nb.extend(1..n);
    } else {
        nb.insert(0);
    }
    nb.remove(&process);
    nb.into_iter().collect()
}

/// `serve-node --churn-plan`: one process of a multi-epoch churn run.
/// Establishes the mesh over the plan's *union* topology (plus control
/// star), then alternates epoch execution with reconfiguration rounds:
/// the coordinator drives `coordinate_reconfigure`, everyone else
/// `follow_reconfigure`, and each node applies the committed epoch to its
/// own runtime. The report carries the concatenated log and the
/// per-boundary cuts the launcher persists as reconfiguration records.
fn cmd_serve_churn_node(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let plan = load_churn_plan(opts)?;
    let actives = plan.active_sets().map_err(|e| e.to_string())?;
    let n = plan.universe;
    let process = node_process(opts, n)?;
    let union = plan.union_topology().map_err(|e| e.to_string())?;
    let union_dec = decompose::best_known(&union);
    let hash = synctime_net::topology_hash_of(n, &union_dec);
    let neighbors = churn_neighbors(&union, process, n);
    let mesh = node_mesh(opts, process, n, &neighbors, hash)?;
    let reconfig_timeout = establish_timeout(opts)?;

    let epoch0 = synctime_sim::churn::epoch_topology(n, &actives[0]).map_err(|e| e.to_string())?;
    let mut session = synctime_net::ReconfigSession::new(&epoch0);
    let mut rt = configure_runtime(
        synctime_runtime::Runtime::new(session.graph(), session.decomposition()),
        opts,
    )?;

    let mut log: Vec<synctime_runtime::LogEntry> = Vec::new();
    let mut cuts: Vec<u64> = Vec::new();
    let mut stats_parts = Vec::new();
    let mut outcome: Option<String> = None;
    for (e, active) in actives.iter().enumerate() {
        let rounds = match plan.events.get(e) {
            Some(ev) => ev.after_rounds,
            None => plan.tail_rounds,
        };
        let behavior = synctime_sim::ring_behavior(active, process, rounds);
        let (tx, rx) = mesh.channels();
        let run = rt.run_process(process, behavior, tx, rx);
        let final_clock = run.final_clock().clone();
        let (_, epoch_log, epoch_outcome, stats) = run.into_parts();
        log.extend(epoch_log);
        stats_parts.push(stats);
        if outcome.is_none() {
            outcome = epoch_outcome.map(|err| format!("epoch {e}: {err}"));
        }
        if e + 1 < actives.len() {
            let ops = synctime_sim::churn::edge_ops(active, &actives[e + 1]);
            let committed = if process == 0 {
                let peers: Vec<usize> = (1..n).collect();
                synctime_net::coordinate_reconfigure(
                    &mesh,
                    &mut session,
                    &peers,
                    &ops,
                    &final_clock,
                    reconfig_timeout,
                )
            } else {
                synctime_net::follow_reconfigure(
                    &mesh,
                    &mut session,
                    0,
                    process as u32,
                    &final_clock,
                    reconfig_timeout,
                )
            }
            .map_err(|err| format!("reconfiguration into epoch {}: {err}", e + 1))?;
            let applied = synctime_runtime::AppliedReconfigure {
                epoch: committed.epoch,
                topology: session.graph().clone(),
                decomposition: session.decomposition().clone(),
                remap: committed.remap,
                baseline: committed.baseline,
            };
            rt.apply_reconfigure(&applied)
                .map_err(|err| format!("applying epoch {}: {err}", e + 1))?;
            cuts.push(log.len() as u64);
        }
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

/// `launch`: the whole workload, one OS process per synchronous process.
/// `--transport local` is an alias for `run`; `--transport tcp` (default)
/// spawns `serve-node` children, wires them into a loopback mesh, and
/// merges their reports into the same outputs `run` produces.
fn cmd_launch(opts: &BTreeMap<String, String>) -> Result<String, String> {
    // Checked before any path runs, so a bad timeout never spawns a node.
    parse_watchdog(opts)?;
    let churn = opts.contains_key("churn-plan");
    match opts.get("transport").map(String::as_str).unwrap_or("tcp") {
        "local" => {
            return if churn {
                cmd_launch_churn_local(opts)
            } else {
                cmd_run(opts)
            }
        }
        "tcp" => {}
        other => {
            return Err(format!(
                "--transport expects `tcp` or `local`, got `{other}`"
            ))
        }
    }
    if churn {
        return cmd_launch_churn_tcp(opts);
    }
    let programs = run_programs(opts)?;
    reject_receive_any(&programs)?;
    // Validate the topology before spawning anything.
    let _ = run_topology(&programs, opts)?;
    let n = programs.len();
    const FORWARDED: [&str; 10] = [
        "programs",
        "ring",
        "gossip",
        "rounds",
        "seed",
        "topology",
        "clock",
        "rendezvous-timeout",
        "rendezvous-retries",
        "establish-timeout-ms",
    ];
    let reports = launch_nodes(opts, n, &FORWARDED)?;
    let mut logs = Vec::with_capacity(n);
    let mut stats_parts = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for report in reports {
        logs.push(report.log);
        stats_parts.push(report.stats);
        outcomes.push(report.outcome);
    }
    if let Some(root) = opts.get("persist") {
        // The launcher persists the *merged* logs after the fact: node
        // children stream nothing durably themselves, so a single sealed
        // store appears atomically once every report is in. Recovery
        // trims any partial per-process suffix to a consistent prefix.
        let trace = opts
            .get("trace-name")
            .map(String::as_str)
            .unwrap_or(DEFAULT_PERSIST_TRACE);
        let store = synctime_store::persist_logs(std::path::Path::new(root), trace, &logs)
            .map_err(|e| format!("cannot persist the run under `{root}`: {e}"))?;
        eprintln!("persisted trace to {}", store.dir().display());
    }
    let stats = synctime_obs::RunStats::merged(&stats_parts);
    if outcomes.iter().any(Option::is_some) {
        // Mirror `run --fault-plan`: typed per-process failures are a
        // reportable result, not a launcher error.
        let rendered: Vec<String> = outcomes
            .iter()
            .map(|o| match o {
                None => "null".to_string(),
                Some(e) => serde_json::to_string(e).expect("strings serialise infallibly"),
            })
            .collect();
        return Ok(format!(
            "{{\n  \"stats\": {},\n  \"outcomes\": [{}]\n}}\n",
            stats.to_json(),
            rendered.join(", ")
        ));
    }
    if opts.contains_key("stats") {
        let mut out = stats.to_json();
        out.push('\n');
        return Ok(out);
    }
    let (comp, _stamps) = synctime_runtime::reconstruct_from_logs(&logs)
        .map_err(|e| format!("cannot reconstruct the distributed run: {e}"))?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

/// Spawns `n` `serve-node` children (forwarding the named flags), drives
/// the three-phase bootstrap — scrape each node's announced address, hand
/// everyone the full peer list, collect one JSON report per process — and
/// waits for every child to exit cleanly.
fn launch_nodes(
    opts: &BTreeMap<String, String>,
    n: usize,
    forwarded: &[&str],
) -> Result<Vec<synctime_net::NodeReport>, String> {
    use std::io::{BufRead as _, Read as _, Write as _};
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut children = Vec::with_capacity(n);
    for p in 0..n {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("serve-node").arg("--process").arg(p.to_string());
        for name in forwarded {
            if let Some(value) = opts.get(*name) {
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
    // Phase 3: collect one report per process.
    let mut reports: Vec<Option<synctime_net::NodeReport>> = (0..n).map(|_| None).collect();
    for (p, mut reader) in outs.into_iter().enumerate() {
        let mut text = String::new();
        reader
            .read_to_string(&mut text)
            .map_err(|e| format!("node {p}: {e}"))?;
        let report = synctime_net::NodeReport::from_json(text.trim())
            .map_err(|e| format!("node {p} produced a bad report: {e}"))?;
        let slot = report.process;
        if slot >= n || reports[slot].is_some() {
            return Err(format!("node {p} reported as process {slot} unexpectedly"));
        }
        reports[slot] = Some(report);
    }
    for (p, child) in children.iter_mut().enumerate() {
        let status = child.wait().map_err(|e| format!("node {p}: {e}"))?;
        if !status.success() {
            return Err(format!("node {p} exited with {status}"));
        }
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("one report per slot"))
        .collect())
}

/// Persists a multi-epoch run and returns the final-epoch trace JSON (or
/// the merged stats / per-process outcomes, mirroring plain `launch`).
/// Shared tail of the local and distributed churn launch paths.
fn churn_output(
    opts: &BTreeMap<String, String>,
    logs: Vec<Vec<synctime_runtime::LogEntry>>,
    records: Vec<synctime_store::ReconfigRecord>,
    stats: synctime_obs::RunStats,
    outcomes: Vec<Option<String>>,
) -> Result<String, String> {
    if let Some(root) = opts.get("persist") {
        let trace = opts
            .get("trace-name")
            .map(String::as_str)
            .unwrap_or(DEFAULT_PERSIST_TRACE);
        let store = synctime_store::persist_logs_with_reconfigs(
            std::path::Path::new(root),
            trace,
            &logs,
            &records,
        )
        .map_err(|e| format!("cannot persist the run under `{root}`: {e}"))?;
        eprintln!("persisted trace to {}", store.dir().display());
    }
    if outcomes.iter().any(Option::is_some) {
        let rendered: Vec<String> = outcomes
            .iter()
            .map(|o| match o {
                None => "null".to_string(),
                Some(e) => serde_json::to_string(e).expect("strings serialise infallibly"),
            })
            .collect();
        return Ok(format!(
            "{{\n  \"stats\": {},\n  \"outcomes\": [{}]\n}}\n",
            stats.to_json(),
            rendered.join(", ")
        ));
    }
    if opts.contains_key("stats") {
        let mut out = stats.to_json();
        out.push('\n');
        return Ok(out);
    }
    // Only the final epoch reconstructs whole (earlier epochs recycle
    // message keys and live in other dimensions); that is exactly the
    // post-churn trace a fresh run over the final topology would produce.
    let final_logs: Vec<Vec<synctime_runtime::LogEntry>> = match records.last() {
        None => logs,
        Some(last) => logs
            .iter()
            .zip(&last.cuts)
            .map(|(log, &cut)| log.get(cut as usize..).unwrap_or(&[]).to_vec())
            .collect(),
    };
    let (comp, _stamps) = synctime_runtime::reconstruct_from_logs(&final_logs)
        .map_err(|e| format!("cannot reconstruct the final epoch: {e}"))?;
    Ok(synctime_trace::json::to_json_string(&comp))
}

/// `launch --transport local --churn-plan`: the whole multi-epoch run in
/// this OS process via the sim engine — same epochs, same boundaries, same
/// final-epoch trace as the distributed path, byte for byte.
fn cmd_launch_churn_local(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let plan = load_churn_plan(opts)?;
    let mut cfg = synctime_sim::ChurnConfig::default();
    if let Some(backend) = parse_clock(opts)? {
        cfg.backend = backend;
    }
    if let Some(path) = opts.get("fault-plan") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan `{path}`: {e}"))?;
        cfg.fault = synctime_sim::FaultPlan::from_json(&text)
            .map_err(|e| format!("bad fault plan JSON: {e}"))?;
    }
    let run = synctime_sim::run_churn(&plan, &cfg).map_err(|e| e.to_string())?;
    let records: Vec<synctime_store::ReconfigRecord> = run
        .boundaries
        .iter()
        .map(|b| synctime_store::ReconfigRecord {
            epoch: b.epoch,
            cuts: b.cuts.clone(),
            ops: b.ops.clone(),
        })
        .collect();
    if opts.contains_key("epochs") {
        return Ok(render_epoch_reports(&run.epochs));
    }
    churn_output(opts, run.logs, records, run.stats, run.outcomes)
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

/// `launch --churn-plan` over TCP: spawns one `serve-node --churn-plan`
/// per process in the plan's universe, lets the nodes drive the
/// RECONFIGURE rounds among themselves, then assembles the per-node cuts
/// into the store's reconfiguration records.
fn cmd_launch_churn_tcp(opts: &BTreeMap<String, String>) -> Result<String, String> {
    let plan = load_churn_plan(opts)?;
    let actives = plan.active_sets().map_err(|e| e.to_string())?;
    let n = plan.universe;
    const FORWARDED: [&str; 6] = [
        "churn-plan",
        "clock",
        "rendezvous-timeout",
        "rendezvous-retries",
        "establish-timeout-ms",
        "watchdog-ms",
    ];
    let reports = launch_nodes(opts, n, &FORWARDED)?;
    let boundaries = plan.events.len();
    for report in &reports {
        if report.cuts.len() != boundaries {
            return Err(format!(
                "process {} reported {} cuts, expected {boundaries}",
                report.process,
                report.cuts.len()
            ));
        }
    }
    let records: Vec<synctime_store::ReconfigRecord> = (0..boundaries)
        .map(|b| synctime_store::ReconfigRecord {
            epoch: (b + 1) as u64,
            cuts: reports.iter().map(|r| r.cuts[b]).collect(),
            ops: synctime_sim::churn::edge_ops(&actives[b], &actives[b + 1])
                .iter()
                .map(|op| match *op {
                    synctime_graph::EdgeOp::Insert(u, v) => (0u8, u as u64, v as u64),
                    synctime_graph::EdgeOp::Remove(u, v) => (1u8, u as u64, v as u64),
                })
                .collect(),
        })
        .collect();
    let mut logs = Vec::with_capacity(n);
    let mut stats_parts = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for report in reports {
        logs.push(report.log);
        stats_parts.push(report.stats);
        outcomes.push(report.outcome);
    }
    churn_output(
        opts,
        logs,
        records,
        synctime_obs::RunStats::merged(&stats_parts),
        outcomes,
    )
}

/// `serve-query`: stamp one trace (`--trace`) or a whole directory of
/// traces (`--traces-dir`) once, then serve precedence queries over TCP
/// until killed. The bound address is announced as `listening on ADDR` so
/// scripts can scrape an ephemeral port; a catalog run also announces each
/// trace and the shard it hashed to.
fn cmd_serve_query(opts: &BTreeMap<String, String>) -> Result<String, String> {
    use std::io::Write as _;
    let pool = opts
        .get("pool")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| "--pool expects a worker count".to_string())
        })
        .transpose()?
        .unwrap_or_else(synctime_net::default_pool_size);
    let shards = opts
        .get("shards")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|_| "--shards expects a shard count".to_string())
        })
        .transpose()?
        .unwrap_or(synctime_net::DEFAULT_SHARDS);
    if shards == 0 {
        return Err("--shards expects at least 1".to_string());
    }
    let poll_ms: u64 = opts
        .get("poll-ms")
        .map(|s| {
            s.parse()
                .map_err(|_| "--poll-ms expects milliseconds".to_string())
        })
        .transpose()?
        .unwrap_or(100);
    let store_dir = opts.get("store-dir");
    let is_catalog = opts.contains_key("traces-dir") || store_dir.is_some();
    let fabric = if let Some(root) = store_dir {
        if opts.contains_key("trace") || opts.contains_key("traces-dir") {
            return Err(
                "--store-dir is mutually exclusive with --trace and --traces-dir".to_string(),
            );
        }
        load_store_catalog(root, shards)?
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
    if let Some(root) = store_dir {
        spawn_store_tailer(
            std::path::PathBuf::from(root),
            std::sync::Arc::clone(&fabric),
            std::time::Duration::from_millis(poll_ms),
        );
    }
    synctime_net::serve_fabric(listener, fabric, pool)
        .map_err(|e| format!("query server failed: {e}"))?;
    Ok(String::new())
}

/// Recovers every trace directory under a `synctime-store` root and
/// publishes the reconstructible prefix of each into a fresh fabric.
/// Per-trace failures are warnings, not errors: a trace being written
/// *right now* may be momentarily torn, and the tailer republishes it on
/// a later poll. An empty root is fine — traces appear as runs persist
/// them.
fn load_store_catalog(root: &str, shards: usize) -> Result<synctime_net::QueryFabric, String> {
    // A server may come up before the first persisted run: create the
    // root so an empty store is servable and the tailer picks up traces
    // as they appear.
    std::fs::create_dir_all(root)
        .map_err(|e| format!("cannot create --store-dir `{root}`: {e}"))?;
    let dirs = synctime_store::trace_dirs(std::path::Path::new(root))
        .map_err(|e| format!("cannot read --store-dir `{root}`: {e}"))?;
    let fabric = synctime_net::QueryFabric::new(shards);
    for (name, dir) in dirs {
        match publish_store_trace(&fabric, &name, &dir) {
            Ok(()) => {}
            Err(e) => eprintln!("warning: trace `{name}` not yet servable: {e}"),
        }
    }
    Ok(fabric)
}

/// Recovers one store trace directory and publishes its stamps under
/// `name` (copy-on-write: in-flight queries keep the old snapshot).
fn publish_store_trace(
    fabric: &synctime_net::QueryFabric,
    name: &str,
    dir: &std::path::Path,
) -> Result<(), String> {
    let rec = synctime_store::read_trace_dir(dir).map_err(|e| e.to_string())?;
    publish_recovered(fabric, name, &rec)
}

/// Publishes the queryable view of a recovered trace: its **latest
/// epoch**. For a single-epoch trace that is the whole run; for a churn
/// trace it is the segment past the newest reconfiguration boundary — the
/// only segment whose stamps share a dimension and whose keys are unique.
fn publish_recovered(
    fabric: &synctime_net::QueryFabric,
    name: &str,
    rec: &synctime_store::RecoveredTrace,
) -> Result<(), String> {
    let (_epoch, _comp, stamps) =
        synctime_store::materialize_latest_epoch(rec).map_err(|e| e.to_string())?;
    fabric.publish(name, stamps);
    Ok(())
}

/// Watches a store root and republishes any trace whose on-disk bytes
/// grew since the last poll, so a serving node follows live ingestion.
/// Fingerprints are (snapshot len, log len) pairs — a store only appends
/// to its log, so growth is always visible, and a store replaced under the
/// same name is seen unless its log has exactly the old length. A changed
/// trace is re-read through its per-trace
/// [`synctime_store::TraceTailReader`], which replays only the appended
/// suffix, or everything once the store was replaced. Failed recoveries
/// (a torn in-progress write) leave the fingerprint unrecorded and retry
/// next poll.
fn spawn_store_tailer(
    root: std::path::PathBuf,
    fabric: std::sync::Arc<synctime_net::QueryFabric>,
    poll: std::time::Duration,
) {
    let file_len = |path: std::path::PathBuf| std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    std::thread::spawn(move || {
        let mut seen: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut readers: BTreeMap<String, synctime_store::TraceTailReader> = BTreeMap::new();
        loop {
            std::thread::sleep(poll);
            let Ok(dirs) = synctime_store::trace_dirs(&root) else {
                continue; // root may not exist yet; a run can create it later
            };
            for (name, dir) in dirs {
                let fp = (
                    file_len(dir.join(synctime_store::SNAPSHOT_FILE)),
                    file_len(dir.join(synctime_store::LOG_FILE)),
                );
                if seen.get(&name) == Some(&fp) {
                    continue;
                }
                let reader = readers
                    .entry(name.clone())
                    .or_insert_with(|| synctime_store::TraceTailReader::new(&dir));
                let Ok(rec) = reader.poll() else {
                    continue;
                };
                if publish_recovered(&fabric, &name, &rec).is_ok() {
                    seen.insert(name, fp);
                }
            }
        }
    });
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
    let num = |name: &str| -> Result<usize, String> {
        opts.get(name)
            .map(|s| s.parse().map_err(|_| format!("--{name} expects a count")))
            .transpose()
            .map(|v| v.unwrap_or(0))
    };
    let crashes = num("crashes")?;
    let desyncs = num("desyncs")?;
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number".to_string()))
        .transpose()?
        .unwrap_or(0);
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
    let mean_rounds: u64 = opts
        .get("mean-rounds")
        .map(|s| {
            s.parse()
                .map_err(|_| "--mean-rounds expects a round count".to_string())
        })
        .transpose()?
        .unwrap_or(3);
    let seed: u64 = opts
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number".to_string()))
        .transpose()?
        .unwrap_or(0);
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
    }
}
