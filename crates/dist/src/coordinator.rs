//! The coordinator: spawns workers, hands out points, reassembles results.
//!
//! One supervisor thread per worker slot owns the child process end to
//! end: spawn, handshake, assign/await loop, graceful shutdown. A
//! dedicated reader thread per child pumps frames off the child's stdout
//! into an mpsc channel so the supervisor can wait with a timeout
//! (`recv_timeout`) — that timeout *is* the heartbeat deadline, so no
//! wall-clock reads are needed here (r2 stays token-clean; liveness is
//! delegated to the channel primitive).
//!
//! Shared state is a single mutex (pending queue, result slots, retry
//! bookkeeping) plus a condvar for "new work or sweep over". Results are
//! parked in per-index slots, so reassembly is in submission order no
//! matter which worker finished which point when — the property the
//! byte-identity tests pin.
//!
//! Failure model:
//!
//! * **Worker death** (EOF, read error, write error, heartbeat silence,
//!   unexpected frame): the supervisor kills/reaps the child, charges the
//!   in-flight point one attempt, and at once respawns a replacement that
//!   retries the point, if the shared respawn budget allows; otherwise it
//!   requeues the point, the slot retires, and the surviving workers drain
//!   the queue.
//! * **Deterministic point failure** (worker sends `Failed`): fatal for
//!   the whole sweep — a deterministic computation will fail identically
//!   on every retry.
//! * **Budget exhaustion** (a point out of attempts, or every slot
//!   retired with work remaining): the sweep aborts with
//!   [`DistError::Exhausted`].

use crate::proto::{self, Assign, Hello, Msg, PROTOCOL_VERSION};
use crate::DistError;
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How to launch one worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Worker executable (typically `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments selecting agent mode (e.g. `["--worker-agent"]`).
    pub args: Vec<String>,
    /// Extra environment variables (the child also inherits the
    /// coordinator's environment). Used by fault-injection tests.
    pub env: Vec<(String, String)>,
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker process count (clamped to at least 1, at most the point count).
    pub workers: usize,
    /// A worker that produces no frame (result *or* heartbeat) for this
    /// long is declared hung and killed; its point is reassigned.
    pub heartbeat_timeout: Duration,
    /// Times a single point may be attempted before the sweep aborts.
    pub max_point_attempts: u32,
    /// Replacement workers the whole sweep may spawn beyond the initial
    /// fleet (a crashing *point* would otherwise respawn forever).
    pub max_respawns: u32,
}

impl CoordinatorConfig {
    /// Defaults: 30 s heartbeat deadline, 3 attempts per point, 4 respawns.
    pub fn new(workers: usize) -> Self {
        CoordinatorConfig {
            workers: workers.max(1),
            heartbeat_timeout: Duration::from_secs(30),
            max_point_attempts: 3,
            max_respawns: 4,
        }
    }
}

/// A completed sweep, in submission order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-point serialized result payloads, index-aligned with the
    /// submitted job list.
    pub payloads: Vec<String>,
    /// Per-point worker-side wall-clock milliseconds (profiling only).
    pub wall_ms: Vec<f64>,
    /// Points that were reassigned after a worker died or hung.
    pub retries: u64,
    /// Total worker processes spawned, including replacements.
    pub workers_spawned: u32,
}

struct Shared {
    pending: VecDeque<usize>,
    slots: Vec<Option<(String, f64)>>,
    attempts: Vec<u32>,
    done: usize,
    /// Length of the contiguous done-prefix already handed to the
    /// streaming observer — results stream strictly in submission order,
    /// each exactly once, no matter which worker finished when.
    streamed: usize,
    retries: u64,
    respawns_left: u32,
    live_slots: usize,
    fatal: Option<DistError>,
}

struct Coord {
    state: Mutex<Shared>,
    wake: Condvar,
}

fn lock(coord: &Coord) -> MutexGuard<'_, Shared> {
    coord.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Frames (or the lack of them) surfaced by a child's reader thread.
enum Event {
    Frame(Msg),
    Eof,
    ReadError(DistError),
}

struct Conn {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Event>,
}

/// Runs `points` sweep points across `cfg.workers` processes launched
/// from `spec`, reassembling payloads in submission order.
pub fn run_sweep(
    spec: &WorkerSpec,
    cfg: &CoordinatorConfig,
    ctx_json: &str,
    experiment: &str,
    points: usize,
) -> Result<SweepOutcome, DistError> {
    run_sweep_with(spec, cfg, ctx_json, experiment, points, &|_, _| {})
}

/// As [`run_sweep`], additionally streaming each completed payload to
/// `on_point(index, payload)` **in submission order** as soon as the
/// contiguous prefix of the sweep is done. A crashed-and-retried point
/// streams exactly once (the committed attempt); a sweep that later
/// aborts has streamed only a clean prefix — which is exactly what an
/// append-only results store can resume from.
pub fn run_sweep_with(
    spec: &WorkerSpec,
    cfg: &CoordinatorConfig,
    ctx_json: &str,
    experiment: &str,
    points: usize,
    on_point: &(dyn Fn(usize, &str) + Sync),
) -> Result<SweepOutcome, DistError> {
    if points == 0 {
        return Ok(SweepOutcome {
            payloads: Vec::new(),
            wall_ms: Vec::new(),
            retries: 0,
            workers_spawned: 0,
        });
    }
    let fleet = cfg.workers.max(1).min(points);
    let coord = Coord {
        state: Mutex::new(Shared {
            pending: (0..points).collect(),
            slots: (0..points).map(|_| None).collect(),
            attempts: vec![0; points],
            done: 0,
            streamed: 0,
            retries: 0,
            respawns_left: cfg.max_respawns,
            live_slots: fleet,
            fatal: None,
        }),
        wake: Condvar::new(),
    };
    let next_worker_id = AtomicU32::new(0);
    let spawned = AtomicU32::new(0);
    let next_task = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..fleet {
            scope.spawn(|| {
                supervise(
                    &coord,
                    spec,
                    cfg,
                    ctx_json,
                    experiment,
                    &next_worker_id,
                    &spawned,
                    &next_task,
                    on_point,
                );
            });
        }
    });

    let st = coord.state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(fatal) = st.fatal {
        return Err(fatal);
    }
    if st.done != points {
        return Err(DistError::Exhausted(format!(
            "sweep ended with {} of {points} points done",
            st.done
        )));
    }
    let mut payloads = Vec::with_capacity(points);
    let mut wall_ms = Vec::with_capacity(points);
    for slot in st.slots {
        match slot {
            Some((payload, ms)) => {
                payloads.push(payload);
                wall_ms.push(ms);
            }
            None => {
                return Err(DistError::Exhausted(String::from(
                    "internal: done count full but a result slot is empty",
                )))
            }
        }
    }
    Ok(SweepOutcome { payloads, wall_ms, retries: st.retries, workers_spawned: spawned.load(Ordering::Relaxed) })
}

/// One worker slot's lifecycle: claim points, keep a child alive to run
/// them, retire when the sweep completes/aborts or budgets run out.
#[allow(clippy::too_many_arguments)]
fn supervise(
    coord: &Coord,
    spec: &WorkerSpec,
    cfg: &CoordinatorConfig,
    ctx_json: &str,
    experiment: &str,
    next_worker_id: &AtomicU32,
    spawned: &AtomicU32,
    next_task: &AtomicU64,
    on_point: &(dyn Fn(usize, &str) + Sync),
) {
    let mut conn: Option<Conn> = None;
    let mut first_spawn_free = true;
    // A point whose worker just died: this slot retries it on a
    // replacement child instead of putting it back on the queue, so the
    // respawn happens at once rather than whenever the slot next finds
    // pending work (which a surviving worker may have drained by then).
    let mut retry: Option<usize> = None;

    loop {
        // Claim the next pending point, or learn the sweep is over.
        let index = {
            let mut st = lock(coord);
            loop {
                if st.fatal.is_some() || st.done == st.slots.len() {
                    break None;
                }
                if let Some(i) = retry.take().or_else(|| st.pending.pop_front()) {
                    break Some(i);
                }
                st = coord.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(index) = index else { break };

        // Make sure a handshaken child exists (spawning draws on the
        // shared respawn budget after this slot's first child).
        if conn.is_none() {
            if !first_spawn_free {
                let mut st = lock(coord);
                if st.respawns_left == 0 {
                    st.pending.push_front(index);
                    coord.wake.notify_all();
                    drop(st);
                    retire(coord);
                    return;
                }
                st.respawns_left -= 1;
            }
            first_spawn_free = false;
            match connect(spec, cfg, ctx_json, next_worker_id, spawned) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    // The point never ran; requeue without charging an
                    // attempt and retire this slot — a spawn failure is
                    // environmental and will repeat.
                    let mut st = lock(coord);
                    st.pending.push_front(index);
                    if st.fatal.is_none() {
                        st.fatal = Some(e);
                    }
                    coord.wake.notify_all();
                    drop(st);
                    retire(coord);
                    return;
                }
            }
        }
        let Some(ref mut c) = conn else { break };

        let task = next_task.fetch_add(1, Ordering::Relaxed);
        match run_point(c, cfg, experiment, task, index) {
            Ok((payload, wall_ms)) => {
                let mut st = lock(coord);
                if st.slots[index].is_none() {
                    st.slots[index] = Some((payload, wall_ms));
                    st.done += 1;
                }
                // Stream the newly contiguous done-prefix, in order, under
                // the lock (appends are cheap; holding it keeps the order
                // and exactly-once guarantees trivially true).
                loop {
                    let i = st.streamed;
                    let Some(Some((payload, _))) = st.slots.get(i) else { break };
                    on_point(i, payload);
                    st.streamed = i + 1;
                }
                coord.wake.notify_all();
            }
            Err(PointError::Fatal(e)) => {
                let mut st = lock(coord);
                if st.fatal.is_none() {
                    st.fatal = Some(e);
                }
                coord.wake.notify_all();
                break;
            }
            Err(PointError::WorkerDead(cause)) => {
                if let Some(dead) = conn.take() {
                    dispose(dead);
                }
                let mut st = lock(coord);
                st.attempts[index] += 1;
                if st.attempts[index] >= cfg.max_point_attempts {
                    if st.fatal.is_none() {
                        st.fatal = Some(DistError::Exhausted(format!(
                            "point {index} failed {} attempts (last worker loss: {cause})",
                            st.attempts[index]
                        )));
                    }
                    coord.wake.notify_all();
                    break;
                }
                st.retries += 1;
                retry = Some(index);
            }
        }
    }

    if let Some(c) = conn.take() {
        shutdown(c);
    }
    retire(coord);
}

/// Marks a supervisor slot gone; if it was the last one and work remains,
/// the sweep can never finish — record that as the fatal error.
fn retire(coord: &Coord) {
    let mut st = lock(coord);
    st.live_slots -= 1;
    if st.live_slots == 0 && st.done != st.slots.len() && st.fatal.is_none() {
        st.fatal = Some(DistError::Exhausted(String::from(
            "all workers retired (respawn budget spent) with points unfinished",
        )));
    }
    coord.wake.notify_all();
}

/// Spawns a child, starts its reader thread, and completes the handshake.
fn connect(
    spec: &WorkerSpec,
    cfg: &CoordinatorConfig,
    ctx_json: &str,
    next_worker_id: &AtomicU32,
    spawned: &AtomicU32,
) -> Result<Conn, DistError> {
    let worker_id = next_worker_id.fetch_add(1, Ordering::Relaxed);
    let mut command = Command::new(&spec.program);
    command.args(&spec.args).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    for (k, v) in &spec.env {
        command.env(k, v);
    }
    let mut child = command
        .spawn()
        .map_err(|e| DistError::Io(format!("spawn worker {}: {e}", spec.program.display())))?;
    spawned.fetch_add(1, Ordering::Relaxed);
    let stdin = match child.stdin.take() {
        Some(s) => s,
        None => {
            dispose_child(child);
            return Err(DistError::Io(String::from("worker stdin not piped")));
        }
    };
    let stdout = match child.stdout.take() {
        Some(s) => s,
        None => {
            dispose_child(child);
            return Err(DistError::Io(String::from("worker stdout not piped")));
        }
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut stdout = stdout;
        loop {
            match proto::read_msg(&mut stdout) {
                Ok(Some(msg)) => {
                    if tx.send(Event::Frame(msg)).is_err() {
                        return; // supervisor gone; stop pumping
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Event::Eof);
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Event::ReadError(e));
                    return;
                }
            }
        }
    });
    let mut conn = Conn { child, stdin, rx };

    let hello = Msg::Hello(Hello {
        version: PROTOCOL_VERSION,
        worker: worker_id,
        ctx_json: ctx_json.to_string(),
    });
    if let Err(e) = send(&mut conn.stdin, &hello) {
        dispose(conn);
        return Err(e);
    }
    match conn.rx.recv_timeout(cfg.heartbeat_timeout) {
        Ok(Event::Frame(Msg::Ready(ready))) if ready.version == PROTOCOL_VERSION => Ok(conn),
        Ok(Event::Frame(Msg::Ready(ready))) => {
            let theirs = ready.version;
            dispose(conn);
            Err(DistError::Version { ours: PROTOCOL_VERSION, theirs })
        }
        Ok(Event::Frame(other)) => {
            dispose(conn);
            Err(DistError::Protocol(format!("expected Ready, got {other:?}")))
        }
        Ok(Event::ReadError(e)) => {
            dispose(conn);
            Err(e)
        }
        Ok(Event::Eof) => {
            dispose(conn);
            Err(DistError::Io(String::from("worker exited during handshake")))
        }
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            dispose(conn);
            Err(DistError::Io(String::from("worker unresponsive during handshake")))
        }
    }
}

/// Why one point assignment did not produce a result.
enum PointError {
    /// The sweep must abort (deterministic point failure, …).
    Fatal(DistError),
    /// The worker died or hung; the point is retryable elsewhere.
    WorkerDead(String),
}

/// Assigns one point and waits for its result, treating heartbeat silence
/// longer than the configured deadline as worker death.
fn run_point(
    conn: &mut Conn,
    cfg: &CoordinatorConfig,
    experiment: &str,
    task: u64,
    index: usize,
) -> Result<(String, f64), PointError> {
    let assign =
        Msg::Assign(Assign { task, experiment: experiment.to_string(), index: index as u64 });
    send(&mut conn.stdin, &assign).map_err(|e| PointError::WorkerDead(e.to_string()))?;
    loop {
        match conn.rx.recv_timeout(cfg.heartbeat_timeout) {
            // Any heartbeat proves liveness — a stale task id only means
            // the beat raced the previous result onto the pipe.
            Ok(Event::Frame(Msg::Heartbeat(_))) => continue,
            Ok(Event::Frame(Msg::Result(res))) if res.task == task && res.index == index as u64 => {
                return Ok((res.payload, res.wall_ms));
            }
            Ok(Event::Frame(Msg::Failed(failed))) if failed.task == task => {
                return Err(PointError::Fatal(DistError::PointFailed {
                    index: failed.index,
                    error: failed.error,
                }));
            }
            Ok(Event::Frame(other)) => {
                return Err(PointError::WorkerDead(format!("unexpected frame {other:?}")));
            }
            Ok(Event::ReadError(e)) => return Err(PointError::WorkerDead(e.to_string())),
            Ok(Event::Eof) => {
                return Err(PointError::WorkerDead(String::from("pipe closed mid-point")))
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err(PointError::WorkerDead(format!(
                    "no frame for {:?} (heartbeat deadline)",
                    cfg.heartbeat_timeout
                )));
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(PointError::WorkerDead(String::from("reader thread gone")));
            }
        }
    }
}

fn send(stdin: &mut ChildStdin, msg: &Msg) -> Result<(), DistError> {
    proto::write_msg(stdin, msg)?;
    stdin.flush().map_err(|e| DistError::Io(format!("flush to worker: {e}")))
}

/// Graceful stop: ask, close stdin, give the child ~2 s, then kill.
fn shutdown(mut conn: Conn) {
    let _ = send(&mut conn.stdin, &Msg::Shutdown);
    drop(conn.stdin);
    for _ in 0..200 {
        match conn.child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    dispose_child(conn.child);
}

/// Hard stop for a worker we no longer trust.
fn dispose(conn: Conn) {
    dispose_child(conn.child);
}

fn dispose_child(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait(); // reap; never leave zombies behind
}
