//! End-to-end distributed-sweep tests against the real `repro` binary:
//! `--workers 2` must produce byte-identical artifacts to `--jobs 1`, with
//! and without a worker being killed mid-sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

fn run_table4(dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = repro();
    cmd.args(["table4", "--scale", "64", "--intervals", "4", "--json"])
        .arg(dir)
        .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("repro runs");
    assert!(
        out.status.success(),
        "repro {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file))
        .unwrap_or_else(|e| panic!("read {}/{file}: {e}", dir.display()))
}

fn assert_artifacts_match(reference: &Path, candidate: &Path, what: &str) {
    for file in ["table4.json", "table4.metrics.json", "table4.hist.json"] {
        assert_eq!(
            read(reference, file),
            read(candidate, file),
            "{what}: {file} must be byte-identical to the --jobs 1 reference"
        );
    }
}

/// The dist summary line, e.g.
/// `  [dist] table4: 15 points on 2 workers (2 spawned, 0 retries)`.
fn dist_summary(stderr: &[u8]) -> (u32, u64) {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find(|l| l.contains("[dist] table4:"))
        .unwrap_or_else(|| panic!("no dist summary in stderr:\n{text}"));
    let (_, counts) = line.split_once(':').expect("summary line has a colon");
    let nums: Vec<u64> = counts
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    // points, workers, spawned, retries
    assert_eq!(nums.len(), 4, "unexpected dist summary shape: {line}");
    assert_eq!(nums[0], 15, "table4 distributes 15 points: {line}");
    assert_eq!(nums[1], 2, "ran with 2 workers: {line}");
    (u32::try_from(nums[2]).unwrap(), nums[3])
}

#[test]
fn workers_two_matches_jobs_one_byte_for_byte() {
    let ref_dir = out_dir("t4-jobs1");
    run_table4(&ref_dir, &["--jobs", "1"], &[]);

    let w2_dir = out_dir("t4-workers2");
    let out = run_table4(&w2_dir, &["--workers", "2"], &[]);
    let (spawned, _retries) = dist_summary(&out.stderr);
    assert!(spawned >= 2, "both worker slots connected");
    assert_artifacts_match(&ref_dir, &w2_dir, "clean distributed run");

    // The timing profile files the distributed run under the dist/ family
    // so the perf gate tracks it separately from in-process history.
    assert!(
        read(&w2_dir, "profile.json").contains("\"dist/table4\""),
        "profile entry must be labeled dist/table4"
    );
    assert!(
        read(&ref_dir, "profile.json").contains("\"table4\""),
        "in-process profile keeps the plain label"
    );
}

#[test]
fn killed_worker_is_respawned_and_artifacts_stay_identical() {
    let ref_dir = out_dir("t4-kill-ref");
    run_table4(&ref_dir, &["--jobs", "1"], &[]);

    // Worker 0 aborts (SIGKILL-equivalent) with its first point in flight:
    // the coordinator must respawn the slot, retry the lost point, and
    // still reassemble the exact reference bytes.
    let kill_dir = out_dir("t4-kill-w2");
    let out = run_table4(&kill_dir, &["--workers", "2"], &[("READOPT_DIST_KILL", "0:1")]);
    let (spawned, _retries) = dist_summary(&out.stderr);
    assert!(spawned >= 3, "the killed slot was respawned at least once ({spawned} spawned)");
    assert_artifacts_match(&ref_dir, &kill_dir, "kill-retry distributed run");
}
