//! Distributed-sweep registry: the bridge between the experiment drivers
//! and the `readopt-dist` coordinator/worker runtime.
//!
//! Every distributable experiment exposes its sweep as a `dist_jobs(ctx)`
//! builder that enumerates the identical, deterministic job list in every
//! process. That shared enumeration is the whole protocol contract: a point
//! is addressed purely by `(experiment, index)`, so the coordinator never
//! ships closures — a worker agent rebuilds the list from the context JSON
//! and runs the one index it was assigned. Because each point builds its own
//! simulation from the context seed (see `runner`), the reassembled sweep is
//! bit-identical to an in-process `--jobs N` run at any worker count, and a
//! retried point reproduces the exact bytes of the attempt it replaces.
//!
//! [`run_jobs_ctx`] is the single entry point the drivers call: it forks
//! worker agents when `ctx.workers >= 2` and the experiment is registered,
//! and otherwise (or if the distributed run fails outright) falls back to
//! the in-process thread runner.

use crate::context::ExperimentContext;
use crate::runner::{self, Job, JobTiming, RunOutcome};
use readopt_dist::{CoordinatorConfig, WorkerSpec};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Environment variable naming the worker binary to exec. Tests point this
/// at a freshly built `repro`; the repro binary itself defaults to
/// `current_exe`, so normal runs re-exec themselves.
pub const WORKER_BIN_ENV: &str = "REPRO_WORKER_BIN";

/// Experiments whose sweeps are registered for distribution. An experiment
/// qualifies when its point list is a pure function of the context (no
/// cross-point state) — which is every §3-suite sweep. The wall-clock
/// study `users_1e6` and the sub-second table stubs stay in-process.
pub const DIST_EXPERIMENTS: &[&str] =
    &["diag", "fig1", "fig2", "fig4", "fig5", "fig6", "table3", "table4"];

/// Whether `experiment` is registered for distribution.
pub fn supports(experiment: &str) -> bool {
    DIST_EXPERIMENTS.contains(&experiment)
}

/// Number of sweep points `experiment` enumerates under `ctx`, or `None`
/// for unregistered experiments.
pub fn point_count(ctx: &ExperimentContext, experiment: &str) -> Option<usize> {
    match experiment {
        "diag" => Some(crate::diag::dist_jobs(ctx).len()),
        "fig1" => Some(crate::fig1::dist_jobs(ctx).len()),
        "fig2" => Some(crate::fig2::dist_jobs(ctx).len()),
        "fig4" => Some(crate::fig4::dist_jobs(ctx).len()),
        "fig5" => Some(crate::fig5::dist_jobs(ctx).len()),
        "fig6" => Some(crate::fig6::dist_jobs(ctx).len()),
        "table3" => Some(crate::table3::dist_jobs(ctx).len()),
        "table4" => Some(crate::table4::dist_jobs(ctx).len()),
        _ => None,
    }
}

/// Runs one sweep point by `(experiment, index)` and serializes its full
/// output (result + metrics + histogram triple) as the frame payload the
/// coordinator reassembles. This is what a worker agent executes per Assign.
pub fn run_point(ctx: &ExperimentContext, experiment: &str, index: u64) -> Result<String, String> {
    match experiment {
        "diag" => run_one(crate::diag::dist_jobs(ctx), index),
        "fig1" => run_one(crate::fig1::dist_jobs(ctx), index),
        "fig2" => run_one(crate::fig2::dist_jobs(ctx), index),
        "fig4" => run_one(crate::fig4::dist_jobs(ctx), index),
        "fig5" => run_one(crate::fig5::dist_jobs(ctx), index),
        "fig6" => run_one(crate::fig6::dist_jobs(ctx), index),
        "table3" => run_one(crate::table3::dist_jobs(ctx), index),
        "table4" => run_one(crate::table4::dist_jobs(ctx), index),
        _ => Err(format!("unknown distributed experiment {experiment:?}")),
    }
}

fn run_one<T: Serialize>(jobs: Vec<Job<'static, T>>, index: u64) -> Result<String, String> {
    let n = jobs.len();
    let idx = usize::try_from(index).map_err(|_| format!("point index {index} overflows usize"))?;
    let Some(job) = jobs.into_iter().nth(idx) else {
        return Err(format!("point index {index} out of range ({n} points)"));
    };
    serde_json::to_string(&job.run()).map_err(|e| format!("serialize point result: {e}"))
}

/// Runs `list` either across `ctx.workers` forked worker agents (when the
/// experiment is registered and `ctx.workers >= 2`) or across `ctx.jobs`
/// in-process threads. Results come back in submission order either way,
/// bit-identical between the two paths.
///
/// A distributed run that fails outright (spawn failure, retry budget
/// exhausted, a deterministically failing point) logs a warning and falls
/// back to the in-process runner rather than aborting the experiment.
pub fn run_jobs_ctx<T>(
    ctx: &ExperimentContext,
    experiment: &str,
    list: Vec<Job<'static, T>>,
) -> RunOutcome<T>
where
    T: Send + Serialize + Deserialize,
{
    if ctx.workers >= 2 && supports(experiment) && list.len() > 1 {
        match run_dist(ctx, experiment, &list) {
            Ok(out) => return out,
            Err(e) => eprintln!(
                "  [dist] {experiment}: distributed run failed ({e}); \
                 falling back to in-process threads"
            ),
        }
    }
    let out = runner::run_jobs(ctx.jobs, list);
    // Registered sweeps mirror every point into the open results store in
    // submission order, re-serializing with the exact same serializer the
    // worker agents use — so the store bytes are identical between the
    // in-process and distributed paths. (The dist path streams its
    // worker-serialized payloads instead; a fallback after a partial
    // distributed run re-records the already-streamed prefix, which the
    // store verifies byte-for-byte rather than duplicating.)
    if supports(experiment) && crate::storex::active() {
        for (i, result) in out.results.iter().enumerate() {
            let payload = serde_json::to_string(result)
                .unwrap_or_else(|e| panic!("serialize {experiment} point {i}: {e}"));
            crate::storex::record(experiment, i as u64, &payload)
                .unwrap_or_else(|e| panic!("results store: {e}"));
        }
    }
    out
}

fn run_dist<T: Deserialize>(
    ctx: &ExperimentContext,
    experiment: &str,
    list: &[Job<'static, T>],
) -> Result<RunOutcome<T>, String> {
    // Worker agents run one point per Assign and must not fork workers of
    // their own. The field does not influence results.
    let mut worker_ctx = *ctx;
    worker_ctx.workers = 0;
    let ctx_json =
        serde_json::to_string(&worker_ctx).map_err(|e| format!("serialize context: {e}"))?;

    let program = match std::env::var_os(WORKER_BIN_ENV) {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe().map_err(|e| format!("resolve worker binary: {e}"))?,
    };
    let spec = WorkerSpec {
        program,
        args: vec!["--worker-agent".to_string()],
        env: Vec::new(),
    };
    let cfg = CoordinatorConfig::new(ctx.workers);
    // The coordinator streams each payload as soon as the done-prefix is
    // contiguous, so the store grows in sweep order even while later
    // points are still in flight; a store append failure is parked and
    // surfaced after the sweep (the in-process fallback then re-records
    // with byte verification).
    let stream_err: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    let on_point = |i: usize, payload: &str| {
        if let Err(e) = crate::storex::record(experiment, i as u64, payload) {
            let mut slot = stream_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            slot.get_or_insert(e);
        }
    };
    let outcome =
        readopt_dist::run_sweep_with(&spec, &cfg, &ctx_json, experiment, list.len(), &on_point)
            .map_err(|e| e.to_string())?;
    if let Some(e) = stream_err.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        return Err(format!("results store: {e}"));
    }

    let mut results = Vec::with_capacity(list.len());
    for (i, payload) in outcome.payloads.iter().enumerate() {
        results
            .push(serde_json::from_str(payload).map_err(|e| format!("parse point {i}: {e}"))?);
    }
    let timings = list
        .iter()
        .zip(&outcome.wall_ms)
        .map(|(job, &wall_ms)| JobTiming { label: job.label().to_string(), wall_ms })
        .collect();
    eprintln!(
        "  [dist] {experiment}: {} points on {} workers ({} spawned, {} retries)",
        list.len(),
        ctx.workers,
        outcome.workers_spawned,
        outcome.retries
    );
    Ok(RunOutcome { results, timings })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_exactly_the_sweep_experiments() {
        for exp in DIST_EXPERIMENTS {
            assert!(supports(exp));
        }
        assert!(!supports("users_1e6"));
        assert!(!supports("table1"));
    }

    #[test]
    fn point_counts_match_the_sweep_shapes() {
        let ctx = ExperimentContext::fast(64);
        assert_eq!(point_count(&ctx, "fig1"), Some(48));
        assert_eq!(point_count(&ctx, "fig2"), Some(48));
        assert_eq!(point_count(&ctx, "fig4"), Some(30));
        assert_eq!(point_count(&ctx, "fig5"), Some(30));
        assert_eq!(point_count(&ctx, "fig6"), Some(12));
        assert_eq!(point_count(&ctx, "diag"), Some(12));
        assert_eq!(point_count(&ctx, "table3"), Some(6));
        assert_eq!(point_count(&ctx, "table4"), Some(15));
        assert_eq!(point_count(&ctx, "nope"), None);
    }

    #[test]
    fn out_of_range_and_unknown_points_are_errors() {
        let ctx = ExperimentContext::fast(64);
        assert!(run_point(&ctx, "table3", 999).unwrap_err().contains("out of range"));
        assert!(run_point(&ctx, "bogus", 0).unwrap_err().contains("unknown"));
    }
}
