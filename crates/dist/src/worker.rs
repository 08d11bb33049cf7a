//! The worker agent: a serve loop that computes assigned points.
//!
//! A worker reads frames off stdin, computes each assigned point through
//! the caller-supplied [`PointRunner`], and writes `Result`/`Failed`
//! frames back on stdout — flushing after every frame so the coordinator
//! never waits on a buffered result. While a point computes, a scoped
//! heartbeat thread emits `Heartbeat` frames at a fixed interval; the
//! output writer sits behind a mutex so heartbeat and result frames can
//! never interleave bytes on the pipe.
//!
//! The worker is intentionally dumb about failure: any protocol breach
//! from the coordinator, or a runner init failure, makes `serve` return
//! an error (→ nonzero exit, which the coordinator observes as EOF).
//! Deterministic *point* errors are reported in-band as `Failed` frames
//! and leave the worker alive.
//!
//! Fault injection (tests only), keyed on the coordinator-assigned worker
//! id from `Hello`:
//!
//! * `READOPT_DIST_KILL="<id>:<n>"` — worker `<id>` calls
//!   `std::process::abort()` in place of sending its `<n>`-th result
//!   frame (a SIGKILL-equivalent death with that point in flight, so the
//!   coordinator always sees it and must retry the point).
//! * `READOPT_DIST_MUTE="<id>"` — worker `<id>` sends no heartbeats and
//!   stalls on its first assignment (a hung process: alive, silent).

use crate::proto::{self, Heartbeat, Msg, Ready, TaskFailed, TaskResult, PROTOCOL_VERSION};
use crate::DistError;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// What a worker process knows how to do: bind to a serialized experiment
/// context once, then compute points by (experiment, index).
pub trait PointRunner {
    /// Binds the runner to the coordinator's serialized context. Called
    /// exactly once, from the `Hello` frame, before any point runs.
    fn init(&mut self, ctx_json: &str) -> Result<(), String>;

    /// Computes one sweep point and returns its serialized result tuple.
    /// `Err` means the point *deterministically* cannot be computed
    /// (unknown experiment, index out of range, …) — reported in-band as
    /// a `Failed` frame, which aborts the whole sweep coordinator-side.
    fn run(&mut self, experiment: &str, index: u64) -> Result<String, String>;
}

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Gap between heartbeat frames while a point computes. Must be well
    /// under the coordinator's `heartbeat_timeout`.
    pub heartbeat_interval: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions { heartbeat_interval: Duration::from_millis(250) }
    }
}

/// Sentinel for "no point in flight" in the busy-task atomic.
const IDLE: u64 = u64::MAX;

/// Serves the coordinator over stdin/stdout until `Shutdown` or EOF.
/// This is the whole body of a `--worker-agent` process.
pub fn serve_stdio(runner: &mut dyn PointRunner, opts: &WorkerOptions) -> Result<(), DistError> {
    serve(std::io::stdin().lock(), std::io::stdout(), runner, opts)
}

/// Serves one coordinator connection over arbitrary byte streams
/// (separated from [`serve_stdio`] so tests can drive a worker in-memory).
pub fn serve<R, W>(
    mut input: R,
    output: W,
    runner: &mut dyn PointRunner,
    opts: &WorkerOptions,
) -> Result<(), DistError>
where
    R: Read,
    W: Write + Send,
{
    let writer = Mutex::new(output);
    let busy = AtomicU64::new(IDLE);
    let stop = AtomicBool::new(false);
    let mute = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| heartbeat_loop(&writer, &busy, &stop, &mute, opts.heartbeat_interval));
        let outcome = serve_loop(&mut input, &writer, &busy, &mute, runner);
        stop.store(true, Ordering::Relaxed);
        outcome
    })
}

fn send<W: Write>(writer: &Mutex<W>, msg: &Msg) -> Result<(), DistError> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    proto::write_msg(&mut *w, msg)?;
    w.flush().map_err(|e| DistError::Io(format!("flush frame: {e}")))
}

fn heartbeat_loop<W: Write>(
    writer: &Mutex<W>,
    busy: &AtomicU64,
    stop: &AtomicBool,
    mute: &AtomicBool,
    interval: Duration,
) {
    loop {
        std::thread::sleep(interval);
        if stop.load(Ordering::Relaxed) {
            return;
        }
        if mute.load(Ordering::Relaxed) {
            continue;
        }
        let task = busy.load(Ordering::Relaxed);
        if task == IDLE {
            continue;
        }
        if send(writer, &Msg::Heartbeat(Heartbeat { task })).is_err() {
            return; // pipe gone; the main loop will notice on its next write
        }
    }
}

fn serve_loop<R: Read, W: Write>(
    input: &mut R,
    writer: &Mutex<W>,
    busy: &AtomicU64,
    mute: &AtomicBool,
    runner: &mut dyn PointRunner,
) -> Result<(), DistError> {
    let mut inited = false;
    let mut results_sent = 0u64;
    let mut kill_after: Option<u64> = None;
    loop {
        let Some(msg) = proto::read_msg(input)? else {
            return Ok(()); // coordinator closed the pipe; treat as shutdown
        };
        match msg {
            Msg::Hello(hello) => {
                if inited {
                    return Err(DistError::Protocol(String::from("second Hello")));
                }
                if hello.version != PROTOCOL_VERSION {
                    return Err(DistError::Version {
                        ours: PROTOCOL_VERSION,
                        theirs: hello.version,
                    });
                }
                runner
                    .init(&hello.ctx_json)
                    .map_err(|e| DistError::Protocol(format!("runner init: {e}")))?;
                let sabotage = Sabotage::from_env(hello.worker);
                kill_after = sabotage.kill_after;
                if sabotage.mute {
                    mute.store(true, Ordering::Relaxed);
                }
                send(writer, &Msg::Ready(Ready { version: PROTOCOL_VERSION, worker: hello.worker }))?;
                inited = true;
            }
            Msg::Assign(assign) => {
                if !inited {
                    return Err(DistError::Protocol(String::from("Assign before Hello")));
                }
                if mute.load(Ordering::Relaxed) {
                    // Fault injection: a hung worker — alive but silent.
                    // The coordinator's heartbeat deadline kills us.
                    std::thread::sleep(Duration::from_secs(3600));
                }
                busy.store(assign.task, Ordering::Relaxed);
                // Process supervision, not simulation logic: the per-point
                // wall time feeds the coordinator's profiling sidecar.
                // simlint::allow(r2, "worker-side wall-clock timing of a point for profile.json; simulated time is untouched")
                let start = std::time::Instant::now();
                let outcome = runner.run(&assign.experiment, assign.index);
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                busy.store(IDLE, Ordering::Relaxed);
                match outcome {
                    Ok(payload) => {
                        results_sent += 1;
                        if kill_after.is_some_and(|n| results_sent >= n) {
                            // Fault injection: die without unwinding, like
                            // a SIGKILL'd process, before the result leaves.
                            std::process::abort();
                        }
                        send(
                            writer,
                            &Msg::Result(TaskResult {
                                task: assign.task,
                                index: assign.index,
                                payload,
                                wall_ms,
                            }),
                        )?;
                    }
                    Err(error) => {
                        send(
                            writer,
                            &Msg::Failed(TaskFailed {
                                task: assign.task,
                                index: assign.index,
                                error,
                            }),
                        )?;
                    }
                }
            }
            Msg::Shutdown => return Ok(()),
            other => {
                return Err(DistError::Protocol(format!(
                    "unexpected frame from coordinator: {other:?}"
                )))
            }
        }
    }
}

struct Sabotage {
    kill_after: Option<u64>,
    mute: bool,
}

impl Sabotage {
    fn from_env(worker: u32) -> Self {
        let kill_after = std::env::var("READOPT_DIST_KILL").ok().and_then(|v| {
            let (id, n) = v.split_once(':')?;
            if id.parse::<u32>().ok()? != worker {
                return None;
            }
            n.parse::<u64>().ok()
        });
        let mute = std::env::var("READOPT_DIST_MUTE")
            .ok()
            .is_some_and(|v| v.parse::<u32>().ok() == Some(worker));
        Sabotage { kill_after, mute }
    }
}
