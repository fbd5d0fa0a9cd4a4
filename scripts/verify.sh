#!/usr/bin/env bash
# Full verification gate for the workspace. Run from the repo root.
#
#   scripts/verify.sh          # everything below
#
# Steps:
#   1. formatting gate: `cargo fmt --check`
#  1b. lint gate: `cargo clippy --offline --workspace --all-targets -- -D
#      warnings` (any clippy warning in any crate or target fails the run)
#   2. release build (tier-1)
#   3. root-package tests (tier-1): lib + tests/ + doctests, incl. README
#   4. full workspace tests, among them the bench report validator's,
#      which check the six checked-in results/BENCH_*.json reports; then
#      each offline shim's own unit tests (shims/*, packages outside the
#      workspace, built into target/shims)
#   5. test-registration gate: no test binary of the workspace lists the
#      same test name twice (a doubly registered test runs twice at once
#      and races itself on shared temp state)
#   6. workspace doctests
#   7. strict doc build: `cargo doc --no-deps` with rustdoc warnings as errors
#   8. bench-smoke: each of the six self-timed bench suites runs at CI
#      scale and validates its own report; every schema rule and floor is
#      one row of the table in crates/bench/src/report.rs
#   9. paper tables: the 11 deterministic table binaries must print their
#      results/<name>.txt byte for byte; the two timed ones (ablate_ack,
#      table_runtime_obs) run for the claims they assert
#  10. fault-smoke: ring and gossip workloads under fixed crash and desync
#      plans must exit 0 with typed outcomes, inject every scheduled fault,
#      and recover desyncs through full-vector resync frames; 20 live
#      `run --ring 6 --rounds 2000` and 20 live `run --gossip 8 --rounds
#      500` runs under `--watchdog-ms 1` must all exit 0 (the watchdog
#      counts only waits the channel confirms, so no rendezvous in flight
#      reads as a deadlock); `launch --transport tcp --fault-plan` and
#      `launch --transport tcp --epochs` must be refused (both run in
#      process only); `run` and `launch` with `--watchdog-ms 0` must exit
#      non-zero with the typed zero-timeout diagnostic
#  11. net-smoke: `launch --transport tcp` (one OS process per synchronous
#      process over loopback TCP) must emit a trace byte-identical to the
#      in-process `run`, for ring:6 x 3 and for gossip:8 x 200 (node
#      reports of several KB with d > 1); a lone sender whose peer ends
#      without receiving must fail `run` and `launch --transport tcp`
#      with identical stderr (one failure rule on both transports);
#      `serve-query` must answer the fixture's three known precedence
#      queries over the wire; a 2-trace `--traces-dir` catalog must answer
#      named-trace and batched queries with the same verdicts
#  12. pipeline-smoke: against the live catalog server, a `--window 16`
#      batch (one pair per QUERY3 frame, 16 in flight) must print
#      byte-identical output to the same `--batch` sent as one lock-step
#      QUERY3 frame; two counting-allocator gates: the steady-state
#      serving path performs zero heap allocations per query, on a
#      16-message table and on one at the 16 MiB fetch floor (where the
#      pump loads a batch's rows before answering it), and the
#      steady-state rendezvous path at most two per message (the stamps
#      both endpoints log)
#  13. clock-smoke: `run --ring 8` must produce byte-identical output under
#      `--clock dense` and `--clock tree`; `run --clock fixed`, `--clock
#      auto` and an unknown name must be refused as unknown backends, and
#      `stamp --clock tree` must be refused with a diagnostic naming the
#      commands that take `--clock` (run, launch, serve-node)
#  14. store-smoke: a ring run with `--persist` is served from its store
#      by `serve-query --store-dir`; the serving node is killed with
#      SIGKILL mid-ingest while a second persisted run grows the store,
#      restarted from the store alone, and must then answer the same
#      batched + chain queries byte-identically to a server over an
#      uninterrupted copy of the run (ROADMAP item 3's recovery gate);
#      a served 10-round trace persisted again under its name with 40
#      rounds must be re-read by the live server, whose answers must
#      equal the uninterrupted run's within 5 s
#  15. churn-smoke: a churned run (join + leave + swap across three
#      epochs) must produce byte-identical final-epoch traces over the
#      distributed TCP path, the in-process engine, and an uninterrupted
#      reference run whose membership is the final active set (the
#      uniform-baseline order-isomorphism, end to end); `--epochs` must
#      report every epoch; `run --churn-plan` must refuse a bad
#      `--rendezvous-timeout` (the runtime flags configure a plan's
#      runtime too); `--persist` over TCP and in process must write
#      byte-identical stores; a persisted churned store served by
#      `serve-query --store-dir` must answer queries byte-identically to
#      the sparse offline engine stamping the reference trace
#  16. panic-free gate: no new `.unwrap()` / `.expect(` on the non-test
#      source of the runtime and of the net code that decodes peer bytes
#      (`crates/net/src/{frame,tcp,reconfig,query}.rs`): typed
#      RuntimeError and NetError paths only
#  17. perfbench-build + perfbench-smoke: the end-to-end benchmark under
#      perfbench/ (its own cargo workspace, path deps on crates/) must
#      build, so a public-API change that would break the benchmark fails
#      here instead; then each of its four workloads runs for one second
#      (`--seconds 1 --seed 3`) and its result line must read
#      `"correct": true` with `"failed": 0` — `restart` is the one run
#      that serves a trace past each core's 2 MiB L2 cache (so the only
#      one whose pump runs the fetch pass) and checks every served
#      answer against the in-process answer
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# The address a backgrounded server announced in its output file, or
# nothing yet: the first poll can run before the server's shell has
# created the file.
listening_addr() {
  if [ -f "$1" ]; then sed -n 's/^listening on //p' "$1"; fi
}

run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo build --release
# The root `synctime` package is a lib; the CLI binary the smoke stages
# drive lives in `synctime-cli`, which a bare root build does not touch.
# Build the whole workspace so `target/release/synctime` is never stale.
run cargo build --release --workspace
run cargo test -q
run cargo test --workspace -q
for shim in shims/*/; do
  run cargo test --offline -q --manifest-path "${shim}Cargo.toml" --target-dir target/shims
done

echo "==> test-registration gate: every test registered once per binary"
# Without -q each binary's list ends in its "N tests, M benchmarks" line,
# so a name is only a duplicate within one binary.
cargo test --workspace -- --list 2>/dev/null | awk '
  / tests?, [0-9]+ benchmarks?$/ { split("", seen); next }
  /: (test|bench)$/ { if ($0 in seen) { print "duplicate: " $0; dup = 1 }; seen[$0] = 1 }
  END { exit dup }' || {
  echo "verify: a test binary registers a test more than once" >&2; exit 1; }
run cargo test --doc --workspace -q
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

SMOKE_OUT="$(mktemp)"
TABLE_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR"' EXIT
for suite in online_runtime offline_pipeline net_query clock_backends \
             store_replay reconfig_churn; do
  run cargo bench -q -p synctime-bench --bench "$suite" -- --smoke --out "$SMOKE_OUT"
done

echo "==> paper tables: the deterministic tables reprint results/ byte for byte"
for bin in fig_reproductions table_correctness table_clock_size \
           table_greedy_ratio table_acyclic_opt table_width \
           table_client_server table_plausible table_wire_bytes \
           table_dimension_gap ablate_step3; do
  "target/release/$bin" > "$TABLE_DIR/$bin.txt"
  cmp "$TABLE_DIR/$bin.txt" "results/$bin.txt" || {
    echo "verify: $bin no longer prints results/$bin.txt" >&2; exit 1; }
done
# Timings differ run to run: these two run for the claims they assert.
for bin in ablate_ack table_runtime_obs; do
  "target/release/$bin" > /dev/null
done

# --- fault-smoke: seeded fault plans must degrade gracefully, never panic.
SYNCTIME="target/release/synctime"
FAULT_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR" "$FAULT_DIR"' EXIT

# Assert `"field": value` in a fault-run report satisfies a predicate.
stat_check() { # file field op value
  local got
  got="$(grep -o "\"$2\": [0-9]*" "$1" | head -1 | grep -o '[0-9]*$')"
  [ -n "$got" ] || { echo "verify: $1 lacks field $2" >&2; exit 1; }
  [ "$got" "-$3" "$4" ] || {
    echo "verify: $1: $2 = $got, want -$3 $4" >&2
    exit 1
  }
}

cat > "$FAULT_DIR/crash.json" <<'EOF'
{"faults": [{"process": 2, "at_op": 1, "kind": "crash"}]}
EOF
cat > "$FAULT_DIR/desync.json" <<'EOF'
{"faults": [{"process": 0, "at_op": 2, "kind": "desync"},
            {"process": 1, "at_op": 3, "kind": "desync"}]}
EOF

echo "==> fault-smoke: ring under crash plan"
"$SYNCTIME" run --ring 5 --rounds 4 --watchdog-ms 2000 \
  --fault-plan "$FAULT_DIR/crash.json" > "$FAULT_DIR/crash.out"
stat_check "$FAULT_DIR/crash.out" faults_injected eq 1
grep -q '"injected fault crashed process 2' "$FAULT_DIR/crash.out" || {
  echo "verify: crash run lacks typed FaultInjected outcome" >&2; exit 1; }

echo "==> fault-smoke: ring under desync plan"
"$SYNCTIME" run --ring 4 --rounds 5 \
  --fault-plan "$FAULT_DIR/desync.json" > "$FAULT_DIR/desync-ring.out"
stat_check "$FAULT_DIR/desync-ring.out" faults_injected ge 1
stat_check "$FAULT_DIR/desync-ring.out" resync_frames ge 1
grep -q '"outcomes": \[null, null, null, null\]' "$FAULT_DIR/desync-ring.out" || {
  echo "verify: desync ring run did not recover cleanly" >&2; exit 1; }

echo "==> fault-smoke: gossip under desync plan"
"$SYNCTIME" run --gossip 4 --rounds 4 --seed 11 \
  --fault-plan "$FAULT_DIR/desync.json" > "$FAULT_DIR/desync-gossip.out"
stat_check "$FAULT_DIR/desync-gossip.out" faults_injected ge 1
stat_check "$FAULT_DIR/desync-gossip.out" resync_frames ge 1
grep -q '"outcomes": \[null, null, null, null\]' "$FAULT_DIR/desync-gossip.out" || {
  echo "verify: desync gossip run did not recover cleanly" >&2; exit 1; }

echo "==> fault-smoke: live ring and gossip runs are never flagged at --watchdog-ms 1"
for i in $(seq 1 20); do
  "$SYNCTIME" run --ring 6 --rounds 2000 --watchdog-ms 1 > /dev/null || {
    echo "verify: live ring run $i failed under --watchdog-ms 1" >&2; exit 1; }
  "$SYNCTIME" run --gossip 8 --rounds 500 --watchdog-ms 1 > /dev/null || {
    echo "verify: live gossip run $i failed under --watchdog-ms 1" >&2; exit 1; }
done

echo "==> fault-smoke: a TCP launch refuses a fault plan before any node spawns"
if "$SYNCTIME" launch --ring 5 --rounds 4 --transport tcp \
    --fault-plan "$FAULT_DIR/crash.json" > /dev/null 2> "$FAULT_DIR/tcp-crash.err"; then
  echo "verify: launch --transport tcp ran a fault plan" >&2; exit 1
fi
grep -q 'runs in process only' "$FAULT_DIR/tcp-crash.err" || {
  echo "verify: launch --transport tcp --fault-plan lacks the in-process diagnostic" >&2
  exit 1; }

echo "==> fault-smoke: a TCP launch refuses --epochs before any node spawns"
if "$SYNCTIME" launch --ring 5 --rounds 4 --transport tcp --epochs \
    > /dev/null 2> "$FAULT_DIR/tcp-epochs.err"; then
  echo "verify: launch --transport tcp ran --epochs" >&2; exit 1
fi
grep -q 'runs in process only' "$FAULT_DIR/tcp-epochs.err" || {
  echo "verify: launch --transport tcp --epochs lacks the in-process diagnostic" >&2
  exit 1; }

echo "==> fault-smoke: a zero watchdog timeout is refused"
for cmd in run launch; do
  if "$SYNCTIME" "$cmd" --ring 4 --rounds 1 --watchdog-ms 0 \
      > /dev/null 2> "$FAULT_DIR/zero-$cmd.err"; then
    echo "verify: $cmd accepted --watchdog-ms 0" >&2; exit 1
  fi
  grep -q 'watchdog timeout must be above zero' "$FAULT_DIR/zero-$cmd.err" || {
    echo "verify: $cmd --watchdog-ms 0 lacks the typed diagnostic" >&2; exit 1; }
done

# --- net-smoke: the distributed path must match the in-process run, and
# --- the query server must answer known-precedence queries over TCP.
NET_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR" "$FAULT_DIR" "$NET_DIR"' EXIT

echo "==> net-smoke: launch --transport tcp vs run (ring:6, byte-identical)"
"$SYNCTIME" run --ring 6 --rounds 3 > "$NET_DIR/local.json"
"$SYNCTIME" launch --ring 6 --rounds 3 --transport tcp > "$NET_DIR/tcp.json"
diff "$NET_DIR/local.json" "$NET_DIR/tcp.json" || {
  echo "verify: tcp launch diverged from the in-process run" >&2; exit 1; }

echo "==> net-smoke: launch --transport tcp vs run (gossip:8 x 200, byte-identical)"
"$SYNCTIME" run --gossip 8 --rounds 200 > "$NET_DIR/gossip-local.json"
"$SYNCTIME" launch --gossip 8 --rounds 200 --transport tcp > "$NET_DIR/gossip-tcp.json"
diff "$NET_DIR/gossip-local.json" "$NET_DIR/gossip-tcp.json" || {
  echo "verify: tcp gossip launch diverged from the in-process run" >&2; exit 1; }

echo "==> net-smoke: a failed process fails run and launch --transport tcp alike"
cat > "$NET_DIR/lone.json" <<'EOF'
{"programs": [[{"send_to": 1}], []]}
EOF
if "$SYNCTIME" run --programs "$NET_DIR/lone.json" --topology path:2 \
    > /dev/null 2> "$NET_DIR/lone-run.err"; then
  echo "verify: run succeeded although a process failed" >&2; exit 1
fi
if "$SYNCTIME" launch --programs "$NET_DIR/lone.json" --topology path:2 --transport tcp \
    > /dev/null 2> "$NET_DIR/lone-tcp.err"; then
  echo "verify: launch --transport tcp succeeded although a process failed" >&2; exit 1
fi
diff "$NET_DIR/lone-run.err" "$NET_DIR/lone-tcp.err" || {
  echo "verify: run and launch --transport tcp report a failed process differently" >&2
  exit 1; }

echo "==> net-smoke: serve-query answers the fixture's known precedences"
cat > "$NET_DIR/fixture.json" <<'EOF'
{"processes":4,"events":[{"message":[2,0]},{"message":[3,1]},{"message":[2,1]}]}
EOF
"$SYNCTIME" serve-query --topology clients:2x2 --trace "$NET_DIR/fixture.json" \
  > "$NET_DIR/server.out" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$NET_DIR/server.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: serve-query never announced its address" >&2; exit 1; }
q() { "$SYNCTIME" query --connect "$ADDR" "$@"; }
[ "$(q --m1 1 --m2 2)" = "m1 and m2 are concurrent" ] || {
  echo "verify: expected m1 and m2 concurrent" >&2; exit 1; }
[ "$(q --m1 2 --m2 3)" = "m1 synchronously precedes m2" ] || {
  echo "verify: expected m2 to precede m3" >&2; exit 1; }
[ "$(q --chain 3)" = "chain of m3: m1 m2 m3" ] || {
  echo "verify: expected chain of m3 to be m1 m2 m3" >&2; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "==> net-smoke: 2-trace catalog serves named-trace and batched queries"
mkdir -p "$NET_DIR/catalog"
cp "$NET_DIR/fixture.json" "$NET_DIR/catalog/web.json"
cat > "$NET_DIR/catalog/ring.json" <<'EOF'
{"processes":2,"events":[{"message":[0,1]},{"message":[1,0]},{"message":[0,1]}]}
EOF
# No --topology: the sparse offline engine stamps the catalog.
"$SYNCTIME" serve-query --traces-dir "$NET_DIR/catalog" --shards 4 --pool 2 \
  > "$NET_DIR/catalog-server.out" &
CATALOG_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$NET_DIR/catalog-server.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: catalog serve-query never announced its address" >&2; exit 1; }
grep -q 'catalog: 2 trace(s) across 4 shard(s)' "$NET_DIR/catalog-server.out" || {
  echo "verify: catalog server did not announce 2 traces across 4 shards" >&2; exit 1; }
qc() { "$SYNCTIME" query --connect "$ADDR" "$@"; }
# The same fixture verdicts, now behind the trace name `web`.
[ "$(qc --trace web --m1 1 --m2 2)" = "m1 and m2 are concurrent" ] || {
  echo "verify: catalog trace web: expected m1 and m2 concurrent" >&2; exit 1; }
[ "$(qc --trace web --chain 3)" = "chain of m3: m1 m2 m3" ] || {
  echo "verify: catalog trace web: expected chain of m3 to be m1 m2 m3" >&2; exit 1; }
# One batched round trip answers every pair of the sequential ring trace.
[ "$(qc --trace ring --batch 1:2,2:1,1:3)" = "m1 -> m2: yes
m2 -> m1: no
m1 -> m3: yes" ] || {
  echo "verify: catalog trace ring: wrong batched verdicts" >&2; exit 1; }
# Unnamed queries are ambiguous against a 2-trace catalog.
if qc --m1 1 --m2 2 > /dev/null 2>&1; then
  echo "verify: unnamed query against a 2-trace catalog should fail" >&2; exit 1
fi

echo "==> pipeline-smoke: --window 16 answers byte-identical to the lock-step --batch"
# A batch big enough to span several pipelined frames, against the live
# catalog server: every pair of the ring trace, both directions.
PAIRS="1:2,2:1,1:3,3:1,2:3,3:2,1:1,2:2,3:3"
qc --trace ring --batch "$PAIRS" > "$NET_DIR/batch-lockstep.out"
qc --trace ring --batch "$PAIRS" --window 16 > "$NET_DIR/batch-window16.out"
diff "$NET_DIR/batch-lockstep.out" "$NET_DIR/batch-window16.out" || {
  echo "verify: pipelined (W=16) verdicts diverged from the lock-step batch" >&2; exit 1; }
qc --trace web --batch "$PAIRS" > "$NET_DIR/web-lockstep.out"
qc --trace web --batch "$PAIRS" --window 16 > "$NET_DIR/web-window16.out"
diff "$NET_DIR/web-lockstep.out" "$NET_DIR/web-window16.out" || {
  echo "verify: pipelined (W=16) verdicts diverged from the lock-step batch on trace web" >&2
  exit 1; }
kill "$CATALOG_PID" 2>/dev/null || true
wait "$CATALOG_PID" 2>/dev/null || true

echo "==> pipeline-smoke: counting-allocator proofs of the serving and rendezvous hot paths"
run cargo test -q -p synctime-net --test zero_alloc
run cargo test -q --test rendezvous_alloc

# --- clock-smoke: the tree clock must be a drop-in representation of the
# --- dense one — same traces, byte for byte.
CLOCK_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR" "$FAULT_DIR" "$NET_DIR" "$CLOCK_DIR"' EXIT

echo "==> clock-smoke: run ring:8 byte-identical under dense and tree"
"$SYNCTIME" run --ring 8 --rounds 3 --clock dense > "$CLOCK_DIR/run-dense.json"
"$SYNCTIME" run --ring 8 --rounds 3 --clock tree > "$CLOCK_DIR/run-tree.json"
diff "$CLOCK_DIR/run-dense.json" "$CLOCK_DIR/run-tree.json" || {
  echo "verify: run --clock tree diverged from dense" >&2; exit 1; }

echo "==> clock-smoke: deleted and unknown backends are refused with a diagnostic"
for clock in fixed auto warp; do
  if "$SYNCTIME" run --ring 4 --clock "$clock" > /dev/null 2> "$CLOCK_DIR/$clock.err"; then
    echo "verify: run --clock $clock should have been refused" >&2; exit 1
  fi
  grep -q 'unknown clock backend' "$CLOCK_DIR/$clock.err" || {
    echo "verify: --clock $clock error lacks the backend diagnostic" >&2; exit 1; }
done

echo "==> clock-smoke: stamp refuses --clock, naming the commands that take it"
"$SYNCTIME" generate --topology cycle:8 --messages 48 --seed 9 > "$CLOCK_DIR/trace.json"
if "$SYNCTIME" stamp --topology cycle:8 --trace "$CLOCK_DIR/trace.json" --clock tree \
    > /dev/null 2> "$CLOCK_DIR/stamp.err"; then
  echo "verify: stamp --clock tree should have been refused" >&2; exit 1
fi
grep -q '`run`, `launch` and `serve-node`' "$CLOCK_DIR/stamp.err" || {
  echo "verify: stamp --clock error does not name run, launch and serve-node" >&2; exit 1; }

# --- store-smoke: durable ingestion must survive a SIGKILL of the serving
# --- node and recover query answers byte-identical to an uninterrupted run.
STORE_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR" "$FAULT_DIR" "$NET_DIR" "$CLOCK_DIR" "$STORE_DIR"' EXIT

# The ring workload is deterministic: two persisted runs of the same shape
# produce byte-identical stores, so the crashed and uninterrupted servers
# can be compared across separate store roots.
STORE_QUERIES="1:2,2:1,3:9,9:3,5:17,17:5,4:4"

echo "==> store-smoke: reference run with --persist, served uninterrupted"
"$SYNCTIME" run --ring 6 --rounds 40 --persist "$STORE_DIR/ref" \
  --trace-name ring > /dev/null
"$SYNCTIME" serve-query --store-dir "$STORE_DIR/ref" \
  > "$STORE_DIR/ref-server.out" &
REF_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$STORE_DIR/ref-server.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: store serve-query never announced its address" >&2; exit 1; }
"$SYNCTIME" query --connect "$ADDR" --trace ring --batch "$STORE_QUERIES" \
  > "$STORE_DIR/ref-answers.out"
"$SYNCTIME" query --connect "$ADDR" --trace ring --chain 9 \
  >> "$STORE_DIR/ref-answers.out"
kill "$REF_PID" 2>/dev/null || true
wait "$REF_PID" 2>/dev/null || true

echo "==> store-smoke: SIGKILL the serving node mid-ingest, restart from the store"
# Grow the second store while its server is live (fast polling so the
# tailer is mid-republish when the SIGKILL lands), then kill -9.
"$SYNCTIME" serve-query --store-dir "$STORE_DIR/crash" --poll-ms 20 \
  > "$STORE_DIR/crash-server.out" &
CRASH_PID=$!
"$SYNCTIME" run --ring 6 --rounds 40 --persist "$STORE_DIR/crash" \
  --trace-name ring > /dev/null &
RUN_PID=$!
sleep 0.3
kill -9 "$CRASH_PID" 2>/dev/null || true
wait "$CRASH_PID" 2>/dev/null || true
wait "$RUN_PID" || { echo "verify: persisted ring run failed" >&2; exit 1; }
"$SYNCTIME" serve-query --store-dir "$STORE_DIR/crash" \
  > "$STORE_DIR/crash-server2.out" &
CRASH2_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$STORE_DIR/crash-server2.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: restarted store serve-query never announced its address" >&2; exit 1; }
"$SYNCTIME" query --connect "$ADDR" --trace ring --batch "$STORE_QUERIES" \
  > "$STORE_DIR/crash-answers.out"
"$SYNCTIME" query --connect "$ADDR" --trace ring --chain 9 \
  >> "$STORE_DIR/crash-answers.out"
kill "$CRASH2_PID" 2>/dev/null || true
wait "$CRASH2_PID" 2>/dev/null || true
diff "$STORE_DIR/ref-answers.out" "$STORE_DIR/crash-answers.out" || {
  echo "verify: answers after SIGKILL + restart diverged from the uninterrupted run" >&2
  exit 1; }

echo "==> store-smoke: persisting a served trace name again replaces what is served"
"$SYNCTIME" run --ring 6 --rounds 10 --persist "$STORE_DIR/reuse" \
  --trace-name ring > /dev/null
"$SYNCTIME" serve-query --store-dir "$STORE_DIR/reuse" --poll-ms 200 \
  > "$STORE_DIR/reuse-server.out" &
REUSE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$STORE_DIR/reuse-server.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: reuse serve-query never announced its address" >&2; exit 1; }
"$SYNCTIME" query --connect "$ADDR" --trace ring --m1 1 --m2 2 > /dev/null
# Past one poll, so the tailer holds the 10-round store when it is replaced.
sleep 0.5
"$SYNCTIME" run --ring 6 --rounds 40 --persist "$STORE_DIR/reuse" \
  --trace-name ring > /dev/null
REUSED=""
for _ in $(seq 1 50); do
  { "$SYNCTIME" query --connect "$ADDR" --trace ring --batch "$STORE_QUERIES" &&
    "$SYNCTIME" query --connect "$ADDR" --trace ring --chain 9; } \
    > "$STORE_DIR/reuse-answers.out" 2> /dev/null || true
  if cmp -s "$STORE_DIR/ref-answers.out" "$STORE_DIR/reuse-answers.out"; then
    REUSED=1
    break
  fi
  sleep 0.1
done
kill "$REUSE_PID" 2>/dev/null || true
wait "$REUSE_PID" 2>/dev/null || true
[ -n "$REUSED" ] || {
  echo "verify: serve-query kept serving the replaced 10-round store" >&2
  diff "$STORE_DIR/ref-answers.out" "$STORE_DIR/reuse-answers.out" >&2 || true
  exit 1; }

# --- churn-smoke: live reconfiguration must be invisible in the final
# --- epoch — distributed, in-process, and reference runs byte-identical.
CHURN_DIR="$(mktemp -d)"
trap 'rm -f "$SMOKE_OUT"; rm -rf "$TABLE_DIR" "$FAULT_DIR" "$NET_DIR" "$CLOCK_DIR" "$STORE_DIR" "$CHURN_DIR"' EXIT

echo "==> churn-smoke: churn generator is deterministic under a seed"
"$SYNCTIME" churn --universe 6 --boundaries 2 --mean-rounds 3 --seed 7 \
  > "$CHURN_DIR/gen-a.json"
"$SYNCTIME" churn --universe 6 --boundaries 2 --mean-rounds 3 --seed 7 \
  > "$CHURN_DIR/gen-b.json"
diff "$CHURN_DIR/gen-a.json" "$CHURN_DIR/gen-b.json" || {
  echo "verify: churn generator is not deterministic under a fixed seed" >&2; exit 1; }

# A handwritten plan with a known final membership: start with all six
# processes, lose 4, then swap 1 out for 4 — final active {0,2,3,4,5}.
cat > "$CHURN_DIR/plan.json" <<'EOF'
{"universe": 6, "initial": [0, 1, 2, 3, 4, 5], "tail_rounds": 3,
 "events": [
   {"after_rounds": 4, "kind": {"leave": {"process": 4}}},
   {"after_rounds": 6, "kind": {"swap": {"leaving": 1, "joining": 4}}}]}
EOF
# The uninterrupted reference: the final membership from round zero, for
# exactly the churned run's tail rounds. The uniform baseline makes the
# churned final epoch order-isomorphic — and the emitted trace
# byte-identical — to this run.
cat > "$CHURN_DIR/reference-plan.json" <<'EOF'
{"universe": 6, "initial": [0, 2, 3, 4, 5], "tail_rounds": 3, "events": []}
EOF

echo "==> churn-smoke: tcp vs local vs uninterrupted reference (byte-identical)"
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/plan.json" --transport tcp \
  > "$CHURN_DIR/tcp.json"
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/plan.json" --transport local \
  > "$CHURN_DIR/local.json"
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/reference-plan.json" --transport local \
  > "$CHURN_DIR/reference.json"
diff "$CHURN_DIR/tcp.json" "$CHURN_DIR/local.json" || {
  echo "verify: churned tcp launch diverged from the in-process engine" >&2; exit 1; }
diff "$CHURN_DIR/local.json" "$CHURN_DIR/reference.json" || {
  echo "verify: churned final epoch diverged from the uninterrupted reference" >&2
  exit 1; }

echo "==> churn-smoke: the runtime flags configure a plan's in-process runtime"
if "$SYNCTIME" run --churn-plan "$CHURN_DIR/plan.json" --rendezvous-timeout soon \
    > /dev/null 2> "$CHURN_DIR/soon.err"; then
  echo "verify: run --churn-plan accepted --rendezvous-timeout soon" >&2; exit 1
fi

echo "==> churn-smoke: --epochs reports all three epochs"
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/plan.json" --transport local --epochs \
  > "$CHURN_DIR/epochs.json"
EPOCHS="$(grep -c '"reconfigure_micros"' "$CHURN_DIR/epochs.json")"
[ "$EPOCHS" -eq 3 ] || {
  echo "verify: expected 3 epoch reports, got $EPOCHS" >&2; exit 1; }

echo "==> churn-smoke: tcp and local --persist write the same store bytes"
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/plan.json" --transport local \
  --persist "$CHURN_DIR/store" --trace-name churned > /dev/null
"$SYNCTIME" launch --churn-plan "$CHURN_DIR/plan.json" --transport tcp \
  --persist "$CHURN_DIR/store-tcp" --trace-name churned > /dev/null
cmp "$CHURN_DIR/store/churned/log.st" "$CHURN_DIR/store-tcp/churned/log.st" || {
  echo "verify: churned tcp store diverged from the in-process one" >&2; exit 1; }

echo "==> churn-smoke: persisted churned store serves the latest epoch"
"$SYNCTIME" serve-query --store-dir "$CHURN_DIR/store" \
  > "$CHURN_DIR/store-server.out" &
CHURN_PID=$!
# The reference trace behind the sparse offline engine is the answer key.
mkdir -p "$CHURN_DIR/refcat"
cp "$CHURN_DIR/reference.json" "$CHURN_DIR/refcat/churned.json"
"$SYNCTIME" serve-query --traces-dir "$CHURN_DIR/refcat" \
  > "$CHURN_DIR/ref-server.out" &
CHURNREF_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(listening_addr "$CHURN_DIR/store-server.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "verify: churned store server never announced its address" >&2; exit 1; }
REF_ADDR=""
for _ in $(seq 1 50); do
  REF_ADDR="$(listening_addr "$CHURN_DIR/ref-server.out")"
  [ -n "$REF_ADDR" ] && break
  sleep 0.1
done
[ -n "$REF_ADDR" ] || { echo "verify: churn reference server never announced its address" >&2; exit 1; }
CHURN_QUERIES="1:2,2:1,1:6,6:1,3:15,15:3,7:7"
"$SYNCTIME" query --connect "$ADDR" --trace churned --batch "$CHURN_QUERIES" \
  > "$CHURN_DIR/store-answers.out"
"$SYNCTIME" query --connect "$REF_ADDR" --trace churned --batch "$CHURN_QUERIES" \
  > "$CHURN_DIR/ref-answers.out"
kill "$CHURN_PID" "$CHURNREF_PID" 2>/dev/null || true
wait "$CHURN_PID" 2>/dev/null || true
wait "$CHURNREF_PID" 2>/dev/null || true
diff "$CHURN_DIR/store-answers.out" "$CHURN_DIR/ref-answers.out" || {
  echo "verify: churned store answers diverged from the reference trace" >&2
  exit 1; }

echo "==> panic-free gate: crates/runtime/src, crates/net/src/{frame,tcp,reconfig,query}.rs"
for f in crates/runtime/src/*.rs crates/net/src/{frame,tcp,reconfig,query}.rs; do
  # Only non-test code is gated: cut each file at its test module.
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
      | grep -nE '\.unwrap\(\)|\.expect\(' ; then
    echo "verify: $f has unwrap/expect on a non-test path (use a typed error)" >&2
    exit 1
  fi
done

run cargo build --release --offline --manifest-path perfbench/Cargo.toml
PERFBENCH="perfbench/target/release/synctime-perfbench"
for workload in ingest mesh churn restart; do
  echo "==> perfbench-smoke: $workload"
  result="$("$PERFBENCH" --workload "$workload" --seconds 1 --seed 3 | tail -n 1)"
  case "$result" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "verify: perfbench $workload failed its correctness check: $result" >&2
       exit 1 ;;
  esac
done

echo "==> verify: all green"
