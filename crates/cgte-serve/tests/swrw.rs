//! S-WRW sessions end to end: a server-side S-WRW walk must estimate
//! byte-identically to an in-process `Session` replay of the same seed,
//! survive snapshot → restore → continue bit-exactly, and share one walk
//! table per partition across sessions (no session open builds one).

mod common;

use cgte_sampling::{AnySampler, Swrw};
use cgte_scenarios::artifact::{parse_json, Json};
use cgte_serve::client::Client;
use cgte_serve::registry::Registry;
use cgte_serve::session::{Session, SessionSpec};
use cgte_serve::{ServeConfig, Server};
use common::{planted, temp_store, write_graph, RequestOk};

const SEED: u64 = 0x5EED;

fn session_id(body: &str) -> String {
    match parse_json(body).unwrap().get("session") {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("no session id in {body}: {other:?}"),
    }
}

fn swrw_of(s: &Session) -> &Swrw {
    match s.sampler() {
        AnySampler::Swrw(w) => w,
        other => panic!("expected S-WRW, got {}", other.name()),
    }
}

#[test]
fn swrw_session_replays_restores_and_shares_its_table() {
    let dir = temp_store("swrw");
    let (g, p) = planted();
    write_graph(&dir, "planted", &g, &p);
    let server = Server::bind(&ServeConfig {
        cache_dir: dir.clone(),
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Walk 300 steps, checkpoint, walk 150 more: the uninterrupted run.
    let (st, body) = client.request_ok(
        "POST",
        "/sessions",
        &format!("{{\"graph\":\"planted\",\"sampler\":\"swrw\",\"seed\":{SEED}}}"),
    );
    assert_eq!(st, 200, "{body}");
    assert!(body.contains("\"design\":\"weighted\""), "{body}");
    let id = session_id(&body);
    let (st, _) = client.request_ok("POST", &format!("/sessions/{id}/ingest"), "{\"steps\":300}");
    assert_eq!(st, 200);
    let (st, body) = client.request_ok("POST", &format!("/sessions/{id}/snapshot"), "");
    assert_eq!(st, 200, "{body}");
    let (st, _) = client.request_ok("POST", &format!("/sessions/{id}/ingest"), "{\"steps\":150}");
    assert_eq!(st, 200);
    let (st, uninterrupted) = client.request_ok("GET", &format!("/sessions/{id}/estimate"), "");
    assert_eq!(st, 200, "{uninterrupted}");

    // Restore the checkpoint and walk the same 150 steps.
    let (st, body) = client.request_ok(
        "POST",
        "/sessions/restore",
        &format!("{{\"snapshot\":\"{id}\"}}"),
    );
    assert_eq!(st, 200, "{body}");
    let restored_id = session_id(&body);
    assert_ne!(restored_id, id);
    let (st, _) = client.request_ok(
        "POST",
        &format!("/sessions/{restored_id}/ingest"),
        "{\"steps\":150}",
    );
    assert_eq!(st, 200);
    let (st, restored) = client.request_ok("GET", &format!("/sessions/{restored_id}/estimate"), "");
    assert_eq!(st, 200);
    // The documents differ only in the session id.
    let restored = restored.replacen(
        &format!("\"session\":\"{restored_id}\""),
        &format!("\"session\":\"{id}\""),
        1,
    );
    assert_eq!(
        restored, uninterrupted,
        "continuation diverged after restore"
    );
    server.shutdown();
    server.join();

    // The same seed and batches in process give the same bytes.
    let registry = Registry::new(&dir);
    let lg = registry.get("planted").unwrap();
    let spec = SessionSpec {
        graph: "planted".to_string(),
        partition: None,
        sampler: "swrw".to_string(),
        design: None,
        seed: SEED,
        burn_in: 0,
        thinning: 1,
    };
    let mut a = Session::open(id, lg.clone(), &spec, 1).unwrap();
    a.ingest_steps(300).unwrap();
    a.ingest_steps(150).unwrap();
    assert_eq!(a.estimate_json(None), uninterrupted);

    // A second session on the partition reuses the first one's table; a
    // sampler built for itself does not.
    let b = Session::open("b".to_string(), lg.clone(), &spec, 1).unwrap();
    assert!(std::ptr::eq(swrw_of(&a).factors(), swrw_of(&b).factors()));
    let own = Swrw::equal_category_target(&lg.graph, &lg.partitions[0].1).unwrap();
    assert!(!std::ptr::eq(swrw_of(&a).factors(), own.factors()));
    assert_eq!(swrw_of(&a).factors(), own.factors());
    std::fs::remove_dir_all(&dir).ok();
}
