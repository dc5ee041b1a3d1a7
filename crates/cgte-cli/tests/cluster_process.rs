//! Multi-process fault tolerance: real `cgte serve` shard processes, a
//! real `cgte cluster` coordinator process, and a real `SIGKILL` — the
//! closest in-tree approximation of the CI cluster-smoke job. The
//! coordinator must finish successfully and verify bit-exact against the
//! single-box reference whether or not the kill lands mid-run (the
//! in-process tests in `cgte-serve` pin the mid-run timing
//! deterministically; this one pins the process plumbing).

#![cfg(unix)]

use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::store::write_bundle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgte-cli-proc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_planted(dir: &Path) {
    let mut rng = StdRng::seed_from_u64(1);
    let cfg = PlantedConfig {
        category_sizes: vec![40, 80, 160],
        k: 6,
        alpha: 0.3,
    };
    let pg = planted_partition(&cfg, &mut rng).unwrap();
    let mut bytes = Vec::new();
    write_bundle(&mut bytes, &pg.graph, Some(&pg.partition)).unwrap();
    std::fs::write(dir.join("planted.cgteg"), bytes).unwrap();
}

/// A child process killed on drop, so a failing assert never leaks
/// servers.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boots `cgte serve` on an ephemeral port and parses the bound address
/// from its stderr banner.
fn spawn_shard(dir: &Path) -> (Reaped, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cgte"))
        .args([
            "serve",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "shard exited before announcing its address"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    // Keep draining stderr so the shard can never block on a full pipe.
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    (Reaped(child), addr)
}

#[test]
fn coordinator_survives_a_sigkilled_shard_process() {
    let dir = temp_store("sigkill");
    write_planted(&dir);
    let (shard_a, addr_a) = spawn_shard(&dir);
    let (mut shard_b, addr_b) = spawn_shard(&dir);

    let coordinator = Command::new(env!("CARGO_BIN_EXE_cgte"))
        .args([
            "cluster",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--graph",
            "planted",
            "--partition",
            "main",
            "--shards",
            &format!("{addr_a},{addr_b}"),
            "--walkers",
            "4",
            "--steps",
            "60000",
            "--batch",
            "200",
            "--snapshot-every",
            "10",
            "--timeout-ms",
            "2000",
            "--retries",
            "4",
            "--verify",
            "true",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Let the run get going, then SIGKILL one shard outright. If the
    // machine is fast enough that the run already finished, the kill is a
    // no-op and the assertions below still hold.
    std::thread::sleep(Duration::from_millis(300));
    let _ = shard_b.0.kill();
    let _ = shard_b.0.wait();

    let out = coordinator.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "coordinator failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("\"verified\":true"), "{stdout}");
    assert!(stdout.contains("\"degraded\":false"), "{stdout}");
    assert!(stdout.contains("\"walkers_completed\":4"), "{stdout}");

    drop(shard_a);
}
