//! Span wiring of the parallel coordinator: `cluster.walker` spans are
//! executed on pool worker threads, where thread-local span context does
//! not follow, so the coordinator threads the `cluster.round` span id
//! across the handoff explicitly (`span_with_parent`). Checkpoint
//! downloads nest under the walker trip that made them, and the final
//! merge is one span per run. This test lives in its own integration
//! binary because the tracer is process-global.

mod common;

use cgte_sampling::ObservationContext;
use cgte_serve::cluster::{run_cluster, ClusterConfig, RetryPolicy};
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn field_u64(line: &str, key: &str) -> Option<u64> {
    line.split(&format!("\"{key}\":"))
        .nth(1)?
        .split([',', '}'])
        .next()?
        .parse()
        .ok()
}

#[test]
fn walker_spans_parent_to_their_round_across_the_pool() {
    let dir = temp_store("trace");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);

    let server = Server::bind(&ServeConfig {
        cache_dir: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();

    let sink = Arc::new(cgte_obs::MemorySink::new());
    cgte_obs::install(sink.clone(), cgte_obs::LEVEL_DETAIL);
    let cfg = ClusterConfig {
        partition: Some("main".to_string()),
        walkers: 4,
        steps_per_walker: 60,
        batch: 20,
        snapshot_every: 1,
        round_threads: 2,
        policy: RetryPolicy {
            connect_timeout: Duration::from_millis(300),
            request_timeout: Duration::from_secs(2),
            ..RetryPolicy::default()
        },
        ..ClusterConfig::new("planted")
    };
    let ctx = ObservationContext::new(&g, &p);
    let run = run_cluster(&cfg, &[server.addr().to_string()], &ctx).unwrap();
    cgte_obs::shutdown();
    assert!(!run.degraded);

    let lines = sink.lines();
    let round_ids: BTreeSet<u64> = lines
        .iter()
        .filter(|l| l.contains("\"name\":\"cluster.round\""))
        .filter_map(|l| field_u64(l, "id"))
        .collect();
    let named = |name: &str| -> Vec<&String> {
        let tag = format!("\"name\":\"{name}\"");
        lines.iter().filter(|l| l.contains(&tag)).collect()
    };
    let walkers = named("cluster.walker");
    let walker_ids: BTreeSet<u64> = walkers.iter().filter_map(|l| field_u64(l, "id")).collect();
    assert_eq!(round_ids.len(), run.rounds, "one span per round");
    // 4 walkers × 3 rounds, every trip executed on a pool thread.
    assert_eq!(walkers.len(), cfg.walkers * run.rounds, "{walkers:?}");
    for line in walkers {
        let parent = field_u64(line, "parent").unwrap_or(0);
        assert!(
            round_ids.contains(&parent),
            "walker span not parented to a round span: {line}"
        );
    }
    // snapshot_every = 1: every walker trip downloads a checkpoint, inside
    // its own walker span on the pool thread.
    let checkpoints = named("cluster.checkpoint");
    assert_eq!(
        checkpoints.len(),
        cfg.walkers * run.rounds,
        "{checkpoints:?}"
    );
    for line in checkpoints {
        let parent = field_u64(line, "parent").unwrap_or(0);
        assert!(
            walker_ids.contains(&parent),
            "checkpoint span not parented to a walker span: {line}"
        );
    }
    assert_eq!(named("cluster.merge").len(), 1, "one merge span per run");

    server.shutdown();
    server.join();
}
