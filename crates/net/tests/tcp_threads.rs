//! A TCP mesh starts no thread: the process waiting on a connection
//! reads its socket itself. Linux only, as it counts `/proc/self/task`;
//! the test has its own binary so that no other test's threads are
//! counted.

#![cfg(target_os = "linux")]

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use synctime_net::{TcpMesh, TcpMeshBuilder};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn an_established_mesh_runs_no_thread_per_connection() {
    let n = 4;
    let before = threads();
    let builders: Vec<TcpMeshBuilder> = (0..n)
        .map(|_| TcpMeshBuilder::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = builders.iter().map(TcpMeshBuilder::local_addr).collect();
    let meshes: Vec<TcpMesh> = std::thread::scope(|s| {
        let nodes: Vec<_> = builders
            .into_iter()
            .enumerate()
            .map(|(p, builder)| {
                let addrs = &addrs;
                s.spawn(move || {
                    let ring = [(p + n - 1) % n, (p + 1) % n];
                    builder.establish(p, addrs, &ring, 0x7e57, Duration::from_secs(10))
                })
            })
            .collect();
        nodes
            .into_iter()
            .map(|node| node.join().expect("node thread").expect("establish"))
            .collect()
    });
    // A joined thread may still be listed for a moment after it exits;
    // a thread serving a connection is listed for as long as the mesh
    // lives.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut alive = threads();
    while alive != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        alive = threads();
    }
    assert_eq!(alive, before, "threads with {n} meshes of a ring alive");
    drop(meshes);
}
