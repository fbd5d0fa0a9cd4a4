//! End-to-end tests of the built `synctime` binary via std::process.

use std::process::Command;

fn synctime(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_synctime"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_and_errors() {
    let (stdout, _, ok) = synctime(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    let (_, stderr, ok) = synctime(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn decompose_pipeline() {
    let (stdout, _, ok) = synctime(&["decompose", "--topology", "clients:3x12", "--cover"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("timestamp dimension: 3"));
    assert!(stdout.contains("Fidge-Mattern would use 15"));
}

#[test]
fn generate_stamp_query_roundtrip() {
    let dir = std::env::temp_dir().join("synctime-bin-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");

    let (json, _, ok) = synctime(&[
        "generate",
        "--topology",
        "star:4",
        "--messages",
        "8",
        "--seed",
        "3",
    ]);
    assert!(ok);
    std::fs::write(&trace, &json).unwrap();

    let t = trace.to_str().unwrap();
    let (stamped, _, ok) = synctime(&["stamp", "--topology", "star:4", "--trace", t]);
    assert!(ok, "{stamped}");
    assert!(stamped.contains("online (d = 1)"), "{stamped}");

    let (verdict, _, ok) = synctime(&[
        "query",
        "--topology",
        "star:4",
        "--trace",
        t,
        "--m1",
        "1",
        "--m2",
        "8",
    ]);
    assert!(ok);
    // Star topologies are totally ordered (Lemma 1).
    assert!(
        verdict.contains("m1 synchronously precedes m2"),
        "{verdict}"
    );

    let (diagram, _, ok) = synctime(&["diagram", "--trace", t]);
    assert!(ok);
    assert!(diagram.contains("m8"));
}

/// The tentpole end-to-end: `launch --transport tcp` spawns one OS process
/// per synchronous process, meshes them over loopback TCP, and merges
/// their node reports into a trace byte-identical to the in-process run.
#[test]
fn launch_tcp_matches_run_local() {
    let (local, stderr, ok) = synctime(&["run", "--ring", "5", "--rounds", "2"]);
    assert!(ok, "{stderr}");
    let (tcp, stderr, ok) = synctime(&["launch", "--ring", "5", "--rounds", "2"]);
    assert!(ok, "{stderr}");
    assert_eq!(local, tcp);
    assert!(tcp.contains("\"processes\": 5"), "{tcp}");
    // A failed process fails the command alike on every path: the lone
    // sender's peer ends without receiving.
    let dir = std::env::temp_dir().join("synctime-bin-e2e-lone");
    std::fs::create_dir_all(&dir).unwrap();
    let lone = dir.join("lone.json");
    std::fs::write(&lone, r#"{"programs": [[{"send_to": 1}], []]}"#).unwrap();
    let lone = lone.to_str().unwrap();
    let workload = ["--programs", lone, "--topology", "path:2"];
    let (stdout, stderr, ok) = synctime(&[&["run"][..], &workload].concat());
    assert!(!ok && stdout.is_empty(), "{stdout}");
    assert_eq!(
        stderr,
        "error: peer process 1 terminated during a rendezvous\n"
    );
    for transport in ["local", "tcp"] {
        let args = [&["launch", "--transport", transport][..], &workload].concat();
        assert_eq!(synctime(&args), (String::new(), stderr.clone(), false));
    }
}

/// A failed TCP launch kills and reaps every node before it returns: here
/// every node fails to mesh, and the launcher's own error comes after all
/// of theirs.
#[test]
fn launch_reaps_every_node_on_failure() {
    let (stdout, stderr, ok) = synctime(&[
        "launch",
        "--ring",
        "4",
        "--rounds",
        "2",
        "--establish-timeout-ms",
        "0",
    ]);
    assert!(!ok && stdout.is_empty(), "{stdout}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 5, "{stderr}");
    for line in &lines[..4] {
        assert!(
            line.starts_with("error: mesh establishment failed"),
            "{stderr}"
        );
    }
    assert_eq!(lines[4], "error: node 0 exited without a report");
}

/// `serve-query` + `query --connect`: start the server on an ephemeral
/// port, scrape the announced address, and ask it the fixture's three
/// known answers over TCP.
#[test]
fn serve_query_binary_roundtrip() {
    use std::io::{BufRead as _, BufReader};

    let dir = std::env::temp_dir().join("synctime-bin-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("q.json");
    std::fs::write(
        &trace,
        r#"{"processes": 4, "events": [
            {"message": [2, 0]}, {"message": [3, 1]}, {"message": [2, 1]}
        ]}"#,
    )
    .unwrap();
    let mut server = Command::new(env!("CARGO_BIN_EXE_synctime"))
        .args([
            "serve-query",
            "--topology",
            "clients:2x2",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut line = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("announce line")
        .to_string();

    let (verdict, _, ok) = synctime(&["query", "--connect", &addr, "--m1", "1", "--m2", "2"]);
    assert!(ok);
    assert_eq!(verdict, "m1 and m2 are concurrent\n");
    let (verdict, _, ok) = synctime(&["query", "--connect", &addr, "--m1", "2", "--m2", "3"]);
    assert!(ok);
    assert_eq!(verdict, "m1 synchronously precedes m2\n");
    let (chain, _, ok) = synctime(&["query", "--connect", &addr, "--chain", "3"]);
    assert!(ok);
    assert_eq!(chain, "chain of m3: m1 m2 m3\n");

    server.kill().ok();
    server.wait().ok();
}

/// The reconfiguration control plane end-to-end: `launch --churn-plan`
/// spawns one OS process per universe slot, the nodes drive RECONFIGURE
/// rounds over loopback TCP at every boundary, and the final-epoch trace
/// is byte-identical to the same plan run in-process by the sim engine.
#[test]
fn launch_churn_tcp_matches_local() {
    let dir = std::env::temp_dir().join("synctime-bin-e2e-churn");
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("plan.json");
    let (plan, stderr, ok) = synctime(&[
        "churn",
        "--universe",
        "5",
        "--boundaries",
        "2",
        "--mean-rounds",
        "2",
        "--seed",
        "4",
    ]);
    assert!(ok, "{stderr}");
    std::fs::write(&plan_path, &plan).unwrap();
    let p = plan_path.to_str().unwrap();

    let (local, stderr, ok) = synctime(&["launch", "--transport", "local", "--churn-plan", p]);
    assert!(ok, "{stderr}");
    let (tcp, stderr, ok) = synctime(&["launch", "--churn-plan", p]);
    assert!(ok, "{stderr}");
    assert_eq!(local, tcp, "distributed churn diverged from the sim engine");
    assert!(tcp.contains("\"processes\": 5"), "{tcp}");
}

/// Persist a distributed churn run, then serve it: `serve-query
/// --store-dir` recovers the store, materialises the latest epoch, and
/// answers precedence queries over it. The same plan persisted in process
/// writes the same store bytes: one run, two transports.
#[test]
fn churn_store_serves_latest_epoch() {
    use std::io::{BufRead as _, BufReader};

    let dir = std::env::temp_dir().join("synctime-bin-e2e-churn-store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plan_path = dir.join("plan.json");
    std::fs::write(
        &plan_path,
        r#"{
            "universe": 4,
            "initial": [0, 1, 2, 3],
            "events": [{"after_rounds": 2, "kind": {"leave": {"process": 1}}}],
            "tail_rounds": 3
        }"#,
    )
    .unwrap();
    let root = dir.join("store");
    let (_, stderr, ok) = synctime(&[
        "launch",
        "--churn-plan",
        plan_path.to_str().unwrap(),
        "--persist",
        root.to_str().unwrap(),
        "--trace-name",
        "churn",
    ]);
    assert!(ok, "{stderr}");
    let local_root = dir.join("store-local");
    let (_, stderr, ok) = synctime(&[
        "launch",
        "--churn-plan",
        plan_path.to_str().unwrap(),
        "--transport",
        "local",
        "--persist",
        local_root.to_str().unwrap(),
        "--trace-name",
        "churn",
    ]);
    assert!(ok, "{stderr}");
    let log = |root: &std::path::Path| std::fs::read(root.join("churn").join("log.st")).unwrap();
    assert!(
        log(&root) == log(&local_root),
        "tcp and local churn stores differ"
    );

    let mut server = Command::new(env!("CARGO_BIN_EXE_synctime"))
        .args(["serve-query", "--store-dir", root.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut reader = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("announce line")
        .to_string();

    // The final epoch is a 3-ring for 3 rounds: 9 messages, and the ring
    // token chain makes m1 precede m9.
    let (verdict, _, ok) = synctime(&[
        "query",
        "--connect",
        &addr,
        "--trace",
        "churn",
        "--m1",
        "1",
        "--m2",
        "9",
    ]);
    assert!(ok, "{verdict}");
    assert_eq!(verdict, "m1 synchronously precedes m2\n");

    server.kill().ok();
    server.wait().ok();
}

#[test]
fn simulate_binary() {
    let dir = std::env::temp_dir().join("synctime-bin-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let progs = dir.join("p.json");
    std::fs::write(
        &progs,
        r#"{"programs": [[{"send_to": 1}], [{"receive_from": 0}, {"send_to": 2}], ["receive_any"]]}"#,
    )
    .unwrap();
    let (json, _, ok) = synctime(&["simulate", "--programs", progs.to_str().unwrap()]);
    assert!(ok, "{json}");
    assert!(json.contains("\"processes\": 3"));
    assert_eq!(json.matches("message").count(), 2);
}
