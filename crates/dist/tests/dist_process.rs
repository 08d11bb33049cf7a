//! Process-level tests of the coordinator/worker service: real forked
//! workers (the `dist_smoke_worker` bin), real pipes, real kills.

use readopt_dist::{run_sweep, CoordinatorConfig, DistError, WorkerSpec};
use std::path::PathBuf;
use std::time::Duration;

fn smoke_worker() -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_dist_smoke_worker")),
        args: Vec::new(),
        env: Vec::new(),
    }
}

fn quick_config(workers: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        heartbeat_timeout: Duration::from_secs(10),
        ..CoordinatorConfig::new(workers)
    }
}

#[test]
fn reassembles_in_submission_order() {
    let out = run_sweep(&smoke_worker(), &quick_config(3), "{}", "square", 17).expect("sweep");
    let want: Vec<String> = (0..17u64).map(|i| (i * i).to_string()).collect();
    assert_eq!(out.payloads, want);
    assert_eq!(out.wall_ms.len(), 17);
    assert_eq!(out.retries, 0);
    assert!((1..=3).contains(&out.workers_spawned), "spawned {}", out.workers_spawned);
}

#[test]
fn context_reaches_every_worker() {
    let ctx = "{\"seed\":1234}";
    let out = run_sweep(&smoke_worker(), &quick_config(2), ctx, "ctx-echo", 5).expect("sweep");
    for (i, payload) in out.payloads.iter().enumerate() {
        assert_eq!(payload, &format!("{ctx}#{i}"));
    }
}

#[test]
fn empty_sweep_spawns_nothing() {
    let out = run_sweep(&smoke_worker(), &quick_config(4), "{}", "square", 0).expect("sweep");
    assert!(out.payloads.is_empty());
    assert_eq!(out.workers_spawned, 0);
}

#[test]
fn slow_points_survive_on_heartbeats() {
    // Points take ~600 ms; the deadline is 1 s but heartbeats arrive every
    // 250 ms, so nothing times out even across several sequential points.
    let cfg = CoordinatorConfig {
        heartbeat_timeout: Duration::from_secs(1),
        ..CoordinatorConfig::new(2)
    };
    let out = run_sweep(&smoke_worker(), &cfg, "{}", "slow", 4).expect("sweep");
    assert_eq!(out.payloads, vec!["0", "1", "2", "3"]);
    assert_eq!(out.retries, 0);
}

#[test]
fn killed_worker_point_is_reassigned() {
    // Worker 0 aborts in place of sending its first result, with that point
    // in flight; the coordinator must respawn and every point must still
    // come back, in order.
    let mut spec = smoke_worker();
    spec.env.push((String::from("READOPT_DIST_KILL"), String::from("0:1")));
    let out = run_sweep(&spec, &quick_config(2), "{}", "square", 10).expect("sweep");
    let want: Vec<String> = (0..10u64).map(|i| (i * i).to_string()).collect();
    assert_eq!(out.payloads, want, "retried points must reproduce identical bytes");
    assert!(out.workers_spawned > 2, "a replacement worker must have spawned");
}

#[test]
fn hung_worker_times_out_and_point_is_reassigned() {
    // Worker 0 never heartbeats and stalls on its first assignment; a
    // short deadline declares it dead and the point lands elsewhere.
    let mut spec = smoke_worker();
    spec.env.push((String::from("READOPT_DIST_MUTE"), String::from("0")));
    let cfg = CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(500),
        ..CoordinatorConfig::new(2)
    };
    let out = run_sweep(&spec, &cfg, "{}", "square", 6).expect("sweep");
    let want: Vec<String> = (0..6u64).map(|i| (i * i).to_string()).collect();
    assert_eq!(out.payloads, want);
    assert!(out.retries >= 1, "the hung worker's point must have been retried");
}

#[test]
fn deterministic_point_failure_aborts_without_retry_storm() {
    let err = run_sweep(&smoke_worker(), &quick_config(2), "{}", "always-fails", 4)
        .expect_err("runner errors are fatal");
    match err {
        DistError::PointFailed { error, .. } => {
            assert!(error.contains("cannot be computed"), "got: {error}")
        }
        other => panic!("expected PointFailed, got {other:?}"),
    }
}

/// A "worker" that emits raw bytes and exits — for malformed-frame cases.
fn byte_emitter(printf_escape: &str) -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from("/bin/sh"),
        args: vec![
            String::from("-c"),
            // Linger briefly so the malformed bytes (not a racing broken
            // pipe on the coordinator's Hello) are what gets diagnosed.
            format!("printf '{printf_escape}'; sleep 1"),
        ],
        env: Vec::new(),
    }
}

fn reject_config() -> CoordinatorConfig {
    CoordinatorConfig {
        heartbeat_timeout: Duration::from_secs(2),
        max_respawns: 0,
        ..CoordinatorConfig::new(1)
    }
}

#[test]
fn truncated_length_prefix_rejects_worker_without_panicking() {
    let err = run_sweep(&byte_emitter(r"\005\000"), &reject_config(), "{}", "square", 2)
        .expect_err("truncated prefix");
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") || msg.contains("exited") || msg.contains("retired"),
        "got: {msg}"
    );
}

#[test]
fn bad_tag_rejects_worker_without_panicking() {
    // length 3, tag 0xEE, payload "{}"
    let err = run_sweep(&byte_emitter(r"\003\000\000\000\356{}"), &reject_config(), "{}", "square", 2)
        .expect_err("bad tag");
    assert!(err.to_string().contains("unknown frame tag"), "got: {err}");
}

#[test]
fn oversized_length_rejects_worker_without_panicking() {
    let err = run_sweep(&byte_emitter(r"\377\377\377\377"), &reject_config(), "{}", "square", 2)
        .expect_err("oversized frame");
    assert!(err.to_string().contains("oversized frame"), "got: {err}");
}

#[test]
fn version_mismatch_is_rejected_at_handshake() {
    // A well-formed Ready frame announcing protocol version 99.
    // payload: {"version":99,"worker":0} (25 bytes) + tag → length 26.
    let err = run_sweep(
        &byte_emitter(r#"\032\000\000\000\002{"version":99,"worker":0}"#),
        &reject_config(),
        "{}",
        "square",
        2,
    )
    .expect_err("version mismatch");
    match err {
        DistError::Version { ours, theirs } => {
            assert_eq!(ours, readopt_dist::PROTOCOL_VERSION);
            assert_eq!(theirs, 99);
        }
        other => panic!("expected Version, got {other:?}"),
    }
}
