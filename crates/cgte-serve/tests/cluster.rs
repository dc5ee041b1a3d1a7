//! Fault-tolerance tests of the sharded coordinator against real
//! `Server` instances over real TCP — including runs through the
//! deterministic fault-injection proxy and runs where a shard is killed
//! mid-flight. The invariant under test everywhere: the merged stream is
//! **bit-exact** against the single-box reference whenever the run is not
//! degraded, and a degraded run says so loudly (flag + coverage) instead
//! of hanging or answering silently wrong.

mod common;

use cgte_core::{estimate_stream, StarSizeOptions};
use cgte_sampling::ObservationContext;
use cgte_serve::cluster::{
    run_cluster, run_cluster_with, single_box_reference, ClusterConfig, ClusterEvent, RetryPolicy,
};
use cgte_serve::fault::{FaultAction, FaultPlan, FaultProxy};
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn boot(dir: &Path) -> Server {
    Server::bind(&ServeConfig {
        cache_dir: dir.to_path_buf(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// Aggressive-but-calm timeouts for loopback tests: fast enough that a
/// dead shard is detected in milliseconds, long enough that a loaded CI
/// box never times out a healthy request.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_secs(2),
        max_retries: 3,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(20),
        breaker_threshold: 2,
    }
}

fn test_config(walkers: usize, steps: usize, batch: usize) -> ClusterConfig {
    ClusterConfig {
        partition: Some("main".to_string()),
        walkers,
        steps_per_walker: steps,
        batch,
        snapshot_every: 1,
        policy: test_policy(),
        ..ClusterConfig::new("planted")
    }
}

/// The healthy-path contract: a 2-shard cluster merges to the exact
/// stream — and therefore the exact estimate — one process computes
/// alone.
#[test]
fn two_shards_match_single_box_bit_exactly() {
    let dir = temp_store("exact");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let a = boot(&dir);
    let b = boot(&dir);
    let shards = vec![a.addr().to_string(), b.addr().to_string()];

    let mut cfg = test_config(4, 120, 30);
    cfg.snapshot_every = 2;
    let ctx = ObservationContext::new(&g, &p);
    let run = run_cluster(&cfg, &shards, &ctx).unwrap();

    assert!(!run.degraded);
    assert_eq!(run.walkers_completed, 4);
    assert_eq!(run.coverage, 1.0);
    assert_eq!(run.shards_alive, 2);

    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference, "merged stream is not bit-exact");
    // Estimation is a pure function of the stream, so this holds by
    // construction — asserted anyway as the user-visible contract.
    let opts = StarSizeOptions::default();
    let n = g.num_nodes() as f64;
    assert_eq!(
        estimate_stream(&run.stream, n, &opts),
        estimate_stream(&reference, n, &opts)
    );

    a.shutdown();
    b.shutdown();
    a.join();
    b.join();
}

/// A scripted gauntlet through the fault proxy: a slow-loris stall (the
/// client's timeout fires), a mid-body disconnect on a snapshot
/// download, and an injected 500 on an ingest — each recovered by the
/// retry/resync protocol with zero lost or duplicated samples.
#[test]
fn scripted_faults_recover_without_losing_or_duplicating_samples() {
    let dir = temp_store("script");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir);
    // Expected request sequence (one walker, 40 steps in batches of 20):
    //   0 open, 1 ingest (stalled → timeout), 2 resync estimate,
    //   3 ingest re-send, 4 checkpoint (truncated mid-body → retried),
    //   5 checkpoint retry, 6 ingest (injected 500), 7 resync estimate,
    //   8 ingest re-send, 9 final checkpoint, 10 delete.
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultPlan::Script(vec![
            FaultAction::Pass,
            FaultAction::Stall(1500),
            FaultAction::Pass,
            FaultAction::Pass,
            FaultAction::MidBodyDisconnect,
            FaultAction::Pass,
            FaultAction::ServerError,
        ]),
    )
    .unwrap();

    let mut cfg = test_config(1, 40, 20);
    cfg.policy.request_timeout = Duration::from_millis(300);
    cfg.policy.breaker_threshold = 10;
    let ctx = ObservationContext::new(&g, &p);
    let run = run_cluster(&cfg, &[proxy.addr().to_string()], &ctx).unwrap();

    assert!(!run.degraded, "faults must be survivable, not degrading");
    assert_eq!(run.walkers_completed, 1);
    assert!(run.retries >= 1, "the mid-body disconnect forces a retry");
    assert!(proxy.requests_seen() >= 11, "{}", proxy.requests_seen());
    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference);

    proxy.shutdown();
    server.shutdown();
    server.join();
}

/// Seeded pseudo-random fault soak: ~20% of all requests misbehave and
/// the answer must still come out bit-exact.
#[test]
fn seeded_fault_soak_stays_bit_exact() {
    let dir = temp_store("soak");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = boot(&dir);
    let proxy = FaultProxy::spawn(
        server.addr(),
        FaultPlan::Seeded {
            seed: 3,
            fault_percent: 20,
        },
    )
    .unwrap();

    let mut cfg = test_config(2, 60, 20);
    cfg.policy.request_timeout = Duration::from_millis(700);
    cfg.policy.max_retries = 4;
    cfg.policy.breaker_threshold = 100;
    let ctx = ObservationContext::new(&g, &p);
    let run = run_cluster(&cfg, &[proxy.addr().to_string()], &ctx).unwrap();

    assert!(!run.degraded);
    assert_eq!(run.walkers_completed, 2);
    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference);

    proxy.shutdown();
    server.shutdown();
    server.join();
}

/// The headline robustness scenario: one of two shards is killed
/// mid-run. Its walkers are restored from their last snapshots onto the
/// survivor and the final merged stream is still bit-exact — placement
/// never matters, only walker seeds and batch boundaries do.
#[test]
fn shard_killed_mid_run_recovers_bit_exactly() {
    let dir = temp_store("kill");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let a = boot(&dir);
    let b = boot(&dir);
    let shards = vec![a.addr().to_string(), b.addr().to_string()];

    let cfg = test_config(4, 120, 30);
    let ctx = ObservationContext::new(&g, &p);
    let killed = std::cell::Cell::new(false);
    let run = run_cluster_with(&cfg, &shards, &ctx, |e| {
        // Kill shard B right after every walker checkpointed round 1 —
        // a reproducible mid-run crash point.
        if e == (ClusterEvent::RoundDone { round: 1 }) && !killed.get() {
            b.shutdown();
            killed.set(true);
        }
    })
    .unwrap();

    assert!(killed.get());
    assert!(
        !run.degraded,
        "survivor must absorb the dead shard's walkers"
    );
    assert_eq!(run.walkers_completed, 4);
    assert!(
        run.reassignments >= 1,
        "walkers never moved off the dead shard"
    );
    assert_eq!(run.shards_alive, 1);
    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference, "recovery broke bit-exactness");

    a.shutdown();
    a.join();
    b.join();
}

/// Permanent total loss: every shard dies and stays dead. The run must
/// terminate (no hang), return `Ok`, and flag itself degraded with an
/// honest coverage number — never a silent partial answer.
#[test]
fn total_shard_loss_degrades_cleanly_without_hanging() {
    let dir = temp_store("loss");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let a = boot(&dir);
    let shards = vec![a.addr().to_string()];

    let cfg = test_config(2, 90, 30);
    let ctx = ObservationContext::new(&g, &p);
    let killed = std::cell::Cell::new(false);
    let run = run_cluster_with(&cfg, &shards, &ctx, |e| {
        if matches!(e, ClusterEvent::RoundDone { .. }) && !killed.get() {
            a.shutdown();
            killed.set(true);
        }
    })
    .unwrap();

    assert!(run.degraded);
    assert_eq!(run.walkers_completed, 0);
    assert_eq!(run.coverage, 0.0);
    assert_eq!(run.shards_alive, 0);
    assert!(run.stream.is_empty());

    a.join();
}

/// The threads×faults matrix: the merged stream must be bit-exact vs the
/// single-box reference at every `round_threads`, healthy or not. The
/// pool only moves HTTP trips off the coordinator thread — placement,
/// breaker transitions and the merge stay deterministic, so thread count
/// can never be observable in the result.
#[test]
fn round_threads_matrix_stays_bit_exact_under_faults() {
    let dir = temp_store("matrix");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let ctx = ObservationContext::new(&g, &p);

    for round_threads in [1usize, 4, 8] {
        // Axis 1: the seeded fault soak (~20% of requests misbehave).
        {
            let server = boot(&dir);
            let proxy = FaultProxy::spawn(
                server.addr(),
                FaultPlan::Seeded {
                    seed: 3,
                    fault_percent: 20,
                },
            )
            .unwrap();
            let mut cfg = test_config(8, 80, 20);
            cfg.round_threads = round_threads;
            cfg.policy.request_timeout = Duration::from_millis(700);
            cfg.policy.max_retries = 4;
            cfg.policy.breaker_threshold = 100;
            let run = run_cluster(&cfg, &[proxy.addr().to_string()], &ctx).unwrap();
            assert!(
                !run.degraded,
                "soak degraded at round_threads={round_threads}"
            );
            assert_eq!(run.walkers_completed, 8);
            let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
            assert_eq!(
                run.stream, reference,
                "soak not bit-exact at round_threads={round_threads}"
            );
            proxy.shutdown();
            server.shutdown();
            server.join();
        }
        // Axis 2: a shard killed mid-run, walkers restored on the survivor.
        {
            let a = boot(&dir);
            let b = boot(&dir);
            let shards = vec![a.addr().to_string(), b.addr().to_string()];
            let mut cfg = test_config(8, 80, 20);
            cfg.round_threads = round_threads;
            let killed = std::cell::Cell::new(false);
            let run = run_cluster_with(&cfg, &shards, &ctx, |e| {
                if e == (ClusterEvent::RoundDone { round: 1 }) && !killed.get() {
                    b.shutdown();
                    killed.set(true);
                }
            })
            .unwrap();
            assert!(killed.get());
            assert!(
                !run.degraded,
                "kill degraded at round_threads={round_threads}"
            );
            assert_eq!(run.walkers_completed, 8);
            assert!(run.reassignments >= 1);
            let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
            assert_eq!(
                run.stream, reference,
                "kill-recovery not bit-exact at round_threads={round_threads}"
            );
            a.shutdown();
            a.join();
            b.join();
        }
    }
}

/// Regression test for the half-open probe leak: a shard that keeps
/// failing its `/healthz` probe must stay quarantined. Before the fix,
/// `probe()` reset the breaker *before* the GET and never re-tripped it,
/// so one failed probe left the corpse looking alive — every later
/// placement then burned the full timeout budget against it, and the run
/// ended claiming both shards alive.
#[test]
fn failed_probes_keep_a_dead_shard_quarantined() {
    let dir = temp_store("probeleak");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let a = boot(&dir);
    let b = boot(&dir);
    // Shard B sits behind the gated proxy: flipping the gate makes every
    // request — probes included — answer 500 without touching B.
    let gate = Arc::new(AtomicBool::new(true));
    let proxy = FaultProxy::spawn(b.addr(), FaultPlan::Gated(Arc::clone(&gate))).unwrap();
    let shards = vec![a.addr().to_string(), proxy.addr().to_string()];

    let cfg = test_config(4, 120, 30);
    let ctx = ObservationContext::new(&g, &p);
    let down_at = std::cell::Cell::new(usize::MAX);
    let run = run_cluster_with(&cfg, &shards, &ctx, |e| {
        if e == (ClusterEvent::RoundDone { round: 0 }) && down_at.get() == usize::MAX {
            gate.store(false, Ordering::SeqCst);
            down_at.set(proxy.requests_seen());
        }
    })
    .unwrap();

    assert!(!run.degraded);
    assert_eq!(run.walkers_completed, 4);
    assert!(run.reassignments >= 1, "walkers never left the dead shard");
    assert_eq!(
        run.shards_alive, 1,
        "a failed probe leaked a closed breaker for the dead shard"
    );
    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference);

    // Trace the request indices: after the gate dropped, shard B may see
    // the dying round's ingest/resync traffic for sessions it already
    // hosted, plus half-open probes — but never another session open or
    // restore. A leaked breaker would send `open_or_restore` here.
    let log = proxy.request_log();
    assert!(down_at.get() < log.len(), "gate never dropped");
    let after_down = &log[down_at.get()..];
    assert!(
        after_down.iter().any(|r| r == "GET /healthz"),
        "the dead shard was never probed half-open: {after_down:?}"
    );
    for req in after_down {
        assert!(
            req != "POST /sessions" && req != "POST /sessions/restore",
            "placement attempted against the dead shard: {req} in {after_down:?}"
        );
    }

    proxy.shutdown();
    a.shutdown();
    b.shutdown();
    a.join();
    b.join();
}

/// Rejoin rebalancing: a shard that comes back (successful half-open
/// probe at a checkpoint boundary) gets walkers migrated back within one
/// checkpoint cadence, toward an even spread — and because every
/// migration restores a just-taken checkpoint, the merged stream stays
/// bit-exact through the whole down/up cycle.
#[test]
fn rejoined_shard_gets_walkers_back_within_one_cadence() {
    let dir = temp_store("rejoin");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let a = boot(&dir);
    let b = boot(&dir);
    let gate = Arc::new(AtomicBool::new(true));
    let proxy = FaultProxy::spawn(b.addr(), FaultPlan::Gated(Arc::clone(&gate))).unwrap();
    let shards = vec![a.addr().to_string(), proxy.addr().to_string()];

    let cfg = test_config(4, 300, 30);
    let ctx = ObservationContext::new(&g, &p);
    let events = std::cell::RefCell::new(Vec::new());
    let round = std::cell::Cell::new(0usize);
    let run = run_cluster_with(&cfg, &shards, &ctx, |e| {
        if e == (ClusterEvent::RoundDone { round: 1 }) {
            gate.store(false, Ordering::SeqCst); // B goes dark…
        }
        if e == (ClusterEvent::RoundDone { round: 4 }) {
            gate.store(true, Ordering::SeqCst); // …and comes back.
        }
        if let ClusterEvent::RoundDone { round: r } = e {
            round.set(r + 1);
        } else {
            events.borrow_mut().push((round.get(), e));
        }
    })
    .unwrap();

    assert!(!run.degraded);
    assert_eq!(run.walkers_completed, 4);
    assert_eq!(run.shards_alive, 2, "the rejoined shard counts as alive");
    let reference = single_box_reference(&cfg, &g, &p, &ctx).unwrap();
    assert_eq!(run.stream, reference, "rejoin cycle broke bit-exactness");

    let events = events.into_inner();
    let rejoin_round = events
        .iter()
        .find_map(|(r, e)| (*e == ClusterEvent::ShardRejoined { shard: 1 }).then_some(*r))
        .expect("shard 1 never rejoined");
    let back_round = events
        .iter()
        .find_map(|(r, e)| match e {
            ClusterEvent::WalkerMoved { to: 1, .. } if *r >= rejoin_round => Some(*r),
            _ => None,
        })
        .expect("no walker migrated back to the rejoined shard");
    // With snapshot_every = 1 the cadence is one round: the rebalance
    // fires at the same checkpoint boundary that observed the rejoin.
    assert!(
        back_round <= rejoin_round + cfg.snapshot_every,
        "migration back took {} rounds, cadence is {}",
        back_round - rejoin_round,
        cfg.snapshot_every
    );
    // The moved walkers really run there: B serves their restores.
    assert!(
        proxy
            .request_log()
            .iter()
            .any(|r| r == "POST /sessions/restore"),
        "the rejoined shard never restored a walker"
    );

    proxy.shutdown();
    a.shutdown();
    b.shutdown();
    a.join();
    b.join();
}

/// Two cluster runs in one process at the same time: each must report
/// its *own* transport retries. The pre-fix accounting diffed the
/// process-global retry counter around the run, so a concurrent run's
/// retries bled into the clean run's report.
#[test]
fn concurrent_runs_attribute_retries_to_their_own_run() {
    let dir = temp_store("retrown");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let noisy_server = boot(&dir);
    // The noisy run's final checkpoint download dies mid-body → ≥1 retry.
    let proxy = FaultProxy::spawn(
        noisy_server.addr(),
        FaultPlan::Script(vec![
            FaultAction::Pass,
            FaultAction::Pass,
            FaultAction::MidBodyDisconnect,
        ]),
    )
    .unwrap();
    let clean_server = boot(&dir);
    let ctx = ObservationContext::new(&g, &p);

    let barrier = std::sync::Barrier::new(2);
    let (noisy, clean) = std::thread::scope(|s| {
        let noisy = s.spawn(|| {
            let mut cfg = test_config(1, 20, 20);
            cfg.policy.request_timeout = Duration::from_millis(300);
            cfg.policy.breaker_threshold = 10;
            barrier.wait();
            run_cluster(&cfg, &[proxy.addr().to_string()], &ctx).unwrap()
        });
        let clean = s.spawn(|| {
            let cfg = test_config(4, 120, 30);
            barrier.wait();
            run_cluster(&cfg, &[clean_server.addr().to_string()], &ctx).unwrap()
        });
        (noisy.join().unwrap(), clean.join().unwrap())
    });

    assert!(!noisy.degraded);
    assert!(noisy.retries >= 1, "the mid-body disconnect forces a retry");
    assert!(!clean.degraded);
    assert_eq!(
        clean.retries, 0,
        "a concurrent run's retries bled into this run's accounting"
    );

    proxy.shutdown();
    noisy_server.shutdown();
    clean_server.shutdown();
    noisy_server.join();
    clean_server.join();
}
