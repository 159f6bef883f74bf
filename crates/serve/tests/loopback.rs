//! Loopback end-to-end tests: the acceptance criteria of the serving
//! layer, asserted on real TCP connections against in-process servers.
//!
//! Every server here is configured through explicit [`ServeConfig`]
//! fields, never environment variables — the test binary is one process
//! and env vars would leak across tests.

use litsynth_core::{encode_suite_body, synthesize_union_up_to, SynthConfig};
use litsynth_models::{MemoryModel, Tso};
use litsynth_serve::{
    Client, ClientConfig, ClientError, FaultKind, QueryRequest, ServeConfig, Server, WorkerConfig,
    WorkerFault, WorkerHandle,
};
use std::sync::Arc;

fn direct_tso_bytes(bounds: std::ops::RangeInclusive<usize>) -> String {
    encode_suite_body(&synthesize_union_up_to(
        &Tso::new(),
        bounds,
        SynthConfig::new,
    ))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("litsynth-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cold_query_matches_the_direct_sweep_and_warm_repeat_is_free() {
    let server = Server::start(ServeConfig::default()).expect("loopback server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    client.ping().expect("server answers ping");

    // Cold: computed through the shard layer, byte-identical to a direct
    // synthesize_union_up_to call, with real solver work.
    let req = QueryRequest::sweep("tso", 2, 3);
    let cold = client.query(&req).expect("cold query succeeds");
    assert!(!cold.reply.cached);
    assert!(cold.reply.compilations > 0, "cold queries compile");
    assert_eq!(cold.reply.degraded, 0);
    assert_eq!(cold.reply.suite, direct_tso_bytes(2..=3), "byte identity");
    assert_eq!(cold.reply.tests, cold.suite().expect("body decodes").len());
    assert_eq!(
        cold.progress.len(),
        2 * Tso::new().axioms().len(),
        "one PROGRESS frame per (axiom, bound) unit"
    );

    // Warm: the identical query is a cache hit with zero solver work —
    // the acceptance criterion, asserted on the served counters.
    let warm = client.query(&req).expect("warm query succeeds");
    assert!(warm.reply.cached, "repeat must hit the suite cache");
    assert_eq!(warm.reply.compilations, 0, "zero compilations when warm");
    assert_eq!(warm.reply.suite, cold.reply.suite, "same bytes warm");
    assert!(warm.progress.is_empty(), "no units run on a hit");
    assert_eq!(warm.reply.fingerprint, cold.reply.fingerprint);

    let stats = client.stats().expect("stats round-trip");
    assert!(stats["cache_hits"] >= 1, "{stats:?}");
    assert!(stats["queries"] >= 2);

    // A fresh connection shares the same cache.
    let mut other = Client::connect(server.addr()).expect("second client connects");
    assert!(other.query(&req).expect("query succeeds").reply.cached);
    server.shutdown();
}

#[test]
fn axiom_subsets_are_order_insensitive_and_validated() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let mut fwd = QueryRequest::sweep("tso", 2, 2);
    fwd.axioms = vec!["sc_per_loc".to_string(), "causality".to_string()];
    let mut rev = QueryRequest::sweep("tso", 2, 2);
    rev.axioms = vec!["causality".to_string(), "sc_per_loc".to_string()];
    let a = client.query(&fwd).expect("subset query succeeds");
    let b = client.query(&rev).expect("reordered subset succeeds");
    assert_eq!(a.reply.fingerprint, b.reply.fingerprint, "same cache entry");
    assert!(b.reply.cached, "spelling order must not defeat the cache");
    assert_eq!(a.reply.suite, b.reply.suite);

    // Validation: bad model, bad axiom, over-cap bound all ERR without
    // killing the connection.
    for bad in [
        QueryRequest::sweep("riscv", 2, 2),
        QueryRequest::sweep("tso", 2, 99),
        QueryRequest::sweep("tso", 1, 2),
        {
            let mut r = QueryRequest::sweep("tso", 2, 2);
            r.axioms = vec!["nonsense".to_string()];
            r
        },
    ] {
        assert!(client.query(&bad).is_err(), "{bad:?} must be rejected");
    }
    client.ping().expect("connection survives rejected queries");
    server.shutdown();
}

#[test]
fn cube_level_fault_plan_is_retried_under_the_shard_layer() {
    // The PR 3 fault machinery composes with sharding: a cube-level panic
    // inside one unit is retried by the unit's resilient runner (not by
    // the shard layer) and the served bytes are unchanged. The plan is an
    // explicit config field — never the LITSYNTH_FAULT_PLAN env var,
    // which would leak into sibling tests.
    let plan = litsynth_sat::FaultPlan::parse("tso/sc_per_loc/2@0@0@0@panic").expect("plan parses");
    let server = Server::start(ServeConfig {
        fault_plan: Some(Arc::new(plan)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    let served = client
        .query(&QueryRequest::sweep("tso", 2, 2))
        .expect("query survives the injected cube fault");
    assert_eq!(served.reply.degraded, 0);
    assert!(served.reply.retries > 0, "the cube panic must be retried");
    assert_eq!(served.reply.suite, direct_tso_bytes(2..=2), "byte identity");
    server.shutdown();
}

#[test]
fn journal_tier_survives_a_server_restart_with_zero_compilations() {
    // Restarting the server empties the in-memory cache, but the on-disk
    // journal is the persistent tier: the rebuilt reply is a cache miss
    // served entirely from journal replays — zero compilations.
    let dir = temp_dir("restart");
    let cfg = || ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let req = QueryRequest::sweep("tso", 2, 3);
    let first = Server::start(cfg()).expect("first server starts");
    let mut client = Client::connect(first.addr()).expect("client connects");
    let cold = client.query(&req).expect("cold query succeeds");
    assert!(cold.reply.compilations > 0);
    first.shutdown();

    let second = Server::start(cfg()).expect("second server starts");
    let mut client = Client::connect(second.addr()).expect("client reconnects");
    let replayed = client.query(&req).expect("replayed query succeeds");
    assert!(!replayed.reply.cached, "restart must empty the warm tier");
    assert_eq!(
        replayed.reply.compilations, 0,
        "every unit must replay from the journal"
    );
    assert!(
        replayed.progress.iter().all(|p| p.from_journal),
        "progress must say where the units came from"
    );
    assert_eq!(replayed.reply.suite, cold.reply.suite, "byte identity");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `n` in-process workers against `addr`, the first carrying
/// `fault`, and waits until all have registered.
fn spawn_workers(server: &Server, n: usize, fault: Option<WorkerFault>) -> Vec<WorkerHandle> {
    let workers: Vec<WorkerHandle> = (0..n)
        .map(|i| {
            WorkerHandle::spawn(
                server.addr().to_string(),
                WorkerConfig {
                    jitter_seed: i as u64 + 1,
                    fault: if i == 0 { fault.clone() } else { None },
                    ..WorkerConfig::default()
                },
            )
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().remote.workers_live < n as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "workers must register within 5s"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    workers
}

#[test]
fn remote_workers_serve_byte_identical_suites_with_no_local_fallback() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let workers = spawn_workers(&server, 2, None);
    let mut client = Client::connect(server.addr()).expect("client connects");
    let served = client
        .query(&QueryRequest::sweep("tso", 2, 3))
        .expect("remote query succeeds");
    assert_eq!(served.reply.suite, direct_tso_bytes(2..=3), "byte identity");
    assert_eq!(
        served.progress.len(),
        2 * Tso::new().axioms().len(),
        "remote completion still streams one PROGRESS per unit"
    );
    let stats = server.stats().remote;
    assert_eq!(
        stats.completed_remote,
        2 * Tso::new().axioms().len() as u64,
        "every unit must have run remotely: {stats:?}"
    );
    assert_eq!(stats.degraded_to_local, 0, "{stats:?}");
    assert_eq!(stats.reclaimed_leases, 0, "{stats:?}");

    // Warm repeat is still a pure cache hit — no worker involved.
    let warm = client.query(&QueryRequest::sweep("tso", 2, 3)).unwrap();
    assert!(warm.reply.cached);
    for w in workers {
        w.stop();
    }
    server.shutdown();
}

#[test]
fn remote_results_are_journaled_and_replayed_by_the_coordinator() {
    // Workers run journal-less, so the coordinator journals what they
    // send back, and after a restart replays it without leasing anything.
    let dir = temp_dir("remote-journal");
    let cfg = || ServeConfig {
        journal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let req = QueryRequest::sweep("tso", 2, 3);
    let units = 2 * Tso::new().axioms().len();

    let first = Server::start(cfg()).expect("first coordinator starts");
    let workers = spawn_workers(&first, 2, None);
    let mut client = Client::connect(first.addr()).expect("client connects");
    let cold = client.query(&req).expect("cold remote query succeeds");
    assert_eq!(cold.reply.suite, direct_tso_bytes(2..=3), "byte identity");
    let stats = first.stats().remote;
    assert_eq!(stats.completed_remote, units as u64, "{stats:?}");
    assert_eq!(stats.degraded_to_local, 0, "{stats:?}");
    for w in workers {
        w.stop();
    }
    first.shutdown();
    let journal = litsynth_core::Journal::open(&dir).expect("journal opens");
    assert_eq!(journal.entries(), units, "one journal entry per unit");

    let second = Server::start(cfg()).expect("second coordinator starts");
    let workers = spawn_workers(&second, 1, None);
    let mut client = Client::connect(second.addr()).expect("client reconnects");
    let replayed = client.query(&req).expect("replayed query succeeds");
    assert!(!replayed.reply.cached, "restart must empty the warm tier");
    assert_eq!(replayed.reply.compilations, 0, "every unit replays");
    assert_eq!(replayed.progress.len(), units);
    assert!(
        replayed.progress.iter().all(|p| p.from_journal),
        "progress must say where the units came from"
    );
    assert_eq!(replayed.reply.suite, cold.reply.suite, "byte identity");
    let stats = second.stats().remote;
    assert_eq!(
        stats.units_remote, 0,
        "a replayed unit is never leased: {stats:?}"
    );
    for w in workers {
        w.stop();
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_injected_worker_fault_preserves_byte_identity() {
    // One worker per fault kind, so the faulted unit is deterministically
    // leased to the faulted worker. The coordinator must reclaim, reject,
    // or ignore as appropriate — re-dispatching to the reconnected worker
    // or degrading to local compute — and the served suite must be
    // byte-identical to the direct sweep either way.
    let direct = direct_tso_bytes(2..=3);
    let faults: Vec<(FaultKind, &str)> = vec![
        (FaultKind::ExitMidUnit, "kill mid-unit"),
        (FaultKind::DropMidFrame, "connection drop mid-frame"),
        (FaultKind::StallMs(2_000), "slow worker past its lease"),
        (FaultKind::DuplicateDone, "duplicate UNITDONE"),
        (FaultKind::WrongFingerprint, "fingerprint-mismatched result"),
        (FaultKind::CorruptBody, "checksum-corrupt result"),
    ];
    for (kind, what) in faults {
        let server = Server::start(ServeConfig {
            lease_ms: 400,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let fault = WorkerFault {
            key: "tso/sc_per_loc/2".to_string(),
            kind: kind.clone(),
        };
        let workers = spawn_workers(&server, 1, Some(fault));
        let mut client = Client::connect(server.addr()).expect("client connects");
        let served = client
            .query(&QueryRequest::sweep("tso", 2, 3))
            .unwrap_or_else(|e| panic!("query must survive {what}: {e}"));
        assert_eq!(served.reply.suite, direct, "byte identity under {what}");
        let stats = server.stats().remote;
        match kind {
            FaultKind::ExitMidUnit | FaultKind::DropMidFrame => {
                assert!(stats.reclaimed_leases >= 1, "{what}: {stats:?}");
            }
            FaultKind::StallMs(_) => {
                assert!(stats.lease_expiries >= 1, "{what}: {stats:?}");
                assert!(stats.reclaimed_leases >= 1, "{what}: {stats:?}");
            }
            FaultKind::DuplicateDone => {
                assert!(stats.duplicate_unitdone >= 1, "{what}: {stats:?}");
            }
            FaultKind::WrongFingerprint | FaultKind::CorruptBody => {
                assert!(stats.rejected_results >= 1, "{what}: {stats:?}");
            }
        }
        for w in workers {
            w.stop();
        }
        server.shutdown();
    }
}

#[test]
fn full_remote_outage_degrades_gracefully_to_local_compute() {
    // A single worker that dies mid-unit and never comes back: the
    // remaining units must degrade to the coordinator's local pool, the
    // query must complete, and the bytes must be unchanged. The suite is
    // complete, so it is cached — degradation never caches partials
    // because partials are never produced.
    let server = Server::start(ServeConfig {
        lease_ms: 400,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let workers = spawn_workers(
        &server,
        1,
        Some(WorkerFault {
            key: "tso/sc_per_loc/2".to_string(),
            kind: FaultKind::ExitMidUnit,
        }),
    );
    let mut client = Client::connect(server.addr()).expect("client connects");
    let served = client
        .query(&QueryRequest::sweep("tso", 2, 3))
        .expect("query completes despite total worker loss");
    assert_eq!(served.reply.suite, direct_tso_bytes(2..=3), "byte identity");
    assert_eq!(served.reply.tests, served.suite().expect("decodes").len());
    let stats = server.stats().remote;
    assert!(stats.reclaimed_leases >= 1, "{stats:?}");
    assert!(
        stats.degraded_to_local >= 1,
        "the outage must be counted, never silent: {stats:?}"
    );
    // The completed suite was cached — a warm repeat does zero work.
    let warm = client.query(&QueryRequest::sweep("tso", 2, 3)).unwrap();
    assert!(warm.reply.cached, "complete degraded suites are cacheable");
    assert_eq!(warm.reply.suite, served.reply.suite);
    for w in workers {
        w.stop();
    }
    server.shutdown();
}

#[test]
fn stalled_server_surfaces_as_a_typed_timeout() {
    // A listener that accepts and then never answers: the client's read
    // deadline must fire as ClientError::Timeout, not hang forever and
    // not masquerade as a server ERR.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(std::time::Duration::from_secs(3));
        drop(conn);
    });
    let mut client = Client::connect_with(addr, &ClientConfig { io_timeout_ms: 200 })
        .expect("connect succeeds (the stall is after accept)");
    let started = std::time::Instant::now();
    match client.ping() {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "the deadline must fire well before the stall ends"
    );
    let _ = hold.join();
}

#[test]
fn check_verb_serves_verdicts_with_witnesses_and_a_warm_cache() {
    use litsynth_litmus::suites::classics;

    let server = Server::start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");

    // Consistent path: SB's weak outcome is TSO's store-buffer relaxation.
    let (sb, weak) = classics::sb();
    let ok = client.check("tso", &sb, &weak).expect("CHECK round-trips");
    assert!(!ok.cached, "first query computes");
    assert!(ok.consistent, "sb is observable under TSO");
    assert!(ok.axiom.is_empty() && ok.cycle.is_empty());

    // Inconsistent path, with a violating-cycle witness: the same
    // outcome is forbidden under SC, and saturation names the cycle.
    let bad = client.check("sc", &sb, &weak).expect("CHECK round-trips");
    assert!(!bad.consistent, "sb is forbidden under SC");
    assert!(!bad.axiom.is_empty(), "saturation names the violated axiom");
    assert!(
        bad.cycle.len() >= 2,
        "a violating cycle has at least two events: {:?}",
        bad.cycle
    );
    assert!(
        bad.cycle.iter().all(|&gid| gid < sb.num_events()),
        "cycle events are test gids: {:?}",
        bad.cycle
    );
    assert_ne!(ok.fingerprint, bad.fingerprint, "model keys the cache");

    // Warm repeat: same fingerprint, served from the check cache, and
    // the counters say so — including the inconsistent tally.
    let warm = client.check("sc", &sb, &weak).expect("warm CHECK");
    assert!(warm.cached, "repeat must hit the check cache");
    assert_eq!(warm.fingerprint, bad.fingerprint);
    assert_eq!(
        (warm.consistent, &warm.axiom, &warm.cycle),
        (bad.consistent, &bad.axiom, &bad.cycle),
        "cached verdict is the computed verdict"
    );
    let stats = client.stats().expect("stats round-trip");
    assert_eq!(stats["check_requests"], 3, "{stats:?}");
    assert_eq!(stats["check_cache_hits"], 1, "{stats:?}");
    assert_eq!(stats["check_inconsistent"], 2, "{stats:?}");

    // Junk is an ERR, never a hang or a misparse.
    let mut raw = litsynth_serve::CheckRequest {
        model: "riscv".to_string(),
        test: litsynth_litmus::wire::encode(&sb, &weak),
    };
    assert!(matches!(
        client.check_raw(&raw),
        Err(ClientError::Server(_))
    ));
    raw.model = "tso".to_string();
    raw.test = "name=x\nthread=teleport,0\n".to_string();
    assert!(matches!(
        client.check_raw(&raw),
        Err(ClientError::Server(_))
    ));
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_ping_resets_the_deadline() {
    let server = Server::start(ServeConfig {
        idle_timeout_ms: 600,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("client connects");
    // Activity inside the window keeps the connection alive.
    for _ in 0..3 {
        std::thread::sleep(std::time::Duration::from_millis(300));
        client.ping().expect("PING resets the idle deadline");
    }
    // Going quiet past the deadline gets the connection reaped.
    std::thread::sleep(std::time::Duration::from_millis(1_200));
    assert!(
        client.ping().is_err(),
        "the reaped connection must be unusable"
    );
    let mut fresh = Client::connect(server.addr()).expect("fresh client connects");
    let stats = fresh.stats().expect("stats round-trip");
    assert!(stats["idle_reaped"] >= 1, "{stats:?}");
    server.shutdown();
}
