//! Benchmark entry point: runs one workload for a fixed time, checks every
//! point's output, and prints the metrics, the last line as one JSON
//! object.
//!
//! usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                  [--record-reference]
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs one
//! untraced pass and then traced passes, reports the per-layer metrics and
//! writes the spans of the last traced pass to
//! `out/spans-<workload>-<seed>.json` in this crate's directory.
//! `--record-reference` runs one pass on one runner thread and prints the
//! `reference.tsv` line holding every point's output digest for this
//! workload and seed. Measured passes run on `Workload::jobs` threads, so
//! the reference check also compares one thread against two.

use readopt_perfbench::trace::{self, Layer};
use readopt_perfbench::{
    median, percentile, reference_digests, reference_line, run_rep, Counts, Point, PointTimes,
    RepRun, Workload, DEFAULT_SEED,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record-reference" => record = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

fn crate_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The `reference.tsv` line for one single-threaded pass.
fn record_reference(args: &Args, rep: &RepRun) -> Result<String, String> {
    let mut digests = Vec::new();
    for p in &rep.points {
        let output = p
            .output
            .as_ref()
            .map_err(|e| format!("{} panicked: {e}", p.label))?;
        output
            .check_invariants()
            .map_err(|e| format!("{}: {e}", p.label))?;
        digests.push(output.digest());
    }
    Ok(reference_line(args.workload, args.seed, &digests))
}

/// Checks every point of every pass. A point run fails when it panicked,
/// broke an invariant, or differs from the first pass (digest or counts)
/// or from the recorded reference. Extent counts, which only traced passes
/// take, are compared with the first traced pass. Returns the failed count
/// and prints a reason for each failure. Where the seed has no recorded
/// reference, says so: the outputs are then checked only against the
/// first pass and the invariants.
fn check_reps(args: &Args, reps: &[&RepRun]) -> usize {
    let reference = reference_digests(args.workload, args.seed);
    let first = reps[0];
    let first_traced = reps.iter().find(|r| !r.spans.is_empty());
    let mut failed = 0;
    for rep in reps {
        for (i, p) in rep.points.iter().enumerate() {
            let verdict = match &p.output {
                Err(e) => Err(format!("panicked: {e}")),
                Ok(out) => out.check_invariants().and_then(|()| {
                    let digest = out.digest();
                    let base = &first.points[i];
                    if base.output.as_ref().map(|o| o.digest()).ok() != Some(digest) {
                        return Err("output differs from the first pass".into());
                    }
                    let extents = match first_traced {
                        Some(t) if !rep.spans.is_empty() => t.points[i].counts.extents,
                        _ => p.counts.extents,
                    };
                    if p.counts
                        != (Counts {
                            extents: p.counts.extents,
                            ..base.counts
                        })
                        || p.counts.extents != extents
                    {
                        return Err("counts differ from the first pass".into());
                    }
                    match reference.as_ref().and_then(|r| r.get(i)) {
                        Some(&r) if r != digest => Err(format!(
                            "digest {digest:016x} differs from the reference {r:016x}"
                        )),
                        _ => Ok(()),
                    }
                }),
            };
            if let Err(why) = verdict {
                eprintln!("FAILED {}: {why}", p.label);
                failed += 1;
            }
        }
    }
    for p in &first.points {
        for note in p
            .output
            .as_ref()
            .map(|o| o.paper_deviations())
            .unwrap_or_default()
        {
            eprintln!("NOTE {}: {note}", p.label);
        }
    }
    match reference {
        None => println!(
            "NOTE no reference digests for {} at seed {}: outputs checked against the first pass and the invariants only",
            args.workload.name(),
            args.seed
        ),
        Some(r) if r.len() != first.points.len() => {
            eprintln!(
                "FAILED reference holds {} points, the workload {}",
                r.len(),
                first.points.len()
            );
            failed += 1;
        }
        Some(_) => {}
    }
    failed
}

/// Runs passes until the next one would end past `budget` seconds; at
/// least one pass.
fn run_for(args: &Args, points: &[Point], traced: bool, budget: f64) -> Vec<RepRun> {
    let start = Instant::now();
    let mut reps: Vec<RepRun> = Vec::new();
    loop {
        let rep = run_rep(points, args.workload.jobs(), traced);
        let last = rep.wall_s;
        reps.push(rep);
        if start.elapsed().as_secs_f64() + last > budget {
            return reps;
        }
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn med(reps: &[RepRun], f: impl Fn(&RepRun) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(reps: &[RepRun], passed_share: f64) -> Metrics {
    let mut m = Metrics(Vec::new());
    m.put("wall_s", med(reps, |r| r.wall_s), "s");
    m.put("cpu_s", med(reps, |r| r.cpu_s), "s");
    m.put("setup_s", med(reps, |r| r.times().setup_ns as f64 / 1e9), "s");
    m.put(
        "sim_events_per_s",
        med(reps, |r| {
            r.counts().events as f64 / (r.times().test_ns() as f64 / 1e9)
        }),
        "1/s",
    );
    // The first pass runs in a fresh process, as a `repro` run does; later
    // passes also hold what the allocator kept from earlier ones, so their
    // peak grows with the number of passes the host had time for.
    m.put("peak_rss_mb", reps[0].peak_rss_mb, "MB");
    m.put("passed_share", passed_share, "share");
    m
}

fn per_layer(traced: &[RepRun], untraced: &RepRun, jobs: usize) -> Metrics {
    let mut m = Metrics(Vec::new());
    let c = traced[0].counts();
    let secs = |f: fn(&PointTimes) -> u64| med(traced, |r| f(&r.times()) as f64 / 1e9);
    let point_ms = |q: f64| {
        med(traced, |r| {
            percentile(&r.timings.iter().map(|t| t.wall_ms).collect::<Vec<_>>(), q)
        })
    };
    let selfs: Vec<[f64; 3]> = traced
        .iter()
        .map(|r| trace::layer_self_seconds(&r.spans))
        .collect();
    let layer_self = |l: Layer| {
        let i = Layer::ALL
            .iter()
            .position(|&x| x == l)
            .expect("known layer");
        median(&selfs.iter().map(|s| s[i]).collect::<Vec<_>>())
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    m.put("core.points", traced[0].points.len() as f64, "count");
    m.put("core.point_p50_ms", point_ms(0.5), "ms");
    m.put("core.point_p90_ms", point_ms(0.9), "ms");
    m.put("core.point_max_ms", point_ms(1.0), "ms");
    m.put(
        "core.parallel_efficiency",
        med(traced, |r| {
            r.timings.iter().map(|t| t.wall_ms).sum::<f64>() / 1e3 / (jobs as f64 * r.wall_s)
        }),
        "share",
    );
    m.put("core.self_s", layer_self(Layer::Core), "s");

    m.put("sim.alloc_test_s", secs(|t| t.alloc_test_ns), "s");
    m.put("sim.app_test_s", secs(|t| t.app_test_ns), "s");
    m.put("sim.seq_test_s", secs(|t| t.seq_test_ns), "s");
    m.put("sim.observe_s", secs(|t| t.observe_ns), "s");
    m.put(
        "sim.populate_s",
        secs(|t| t.setup_ns.saturating_sub(t.alloc_build_ns)),
        "s",
    );
    m.put("sim.self_s", layer_self(Layer::Sim), "s");
    m.put("sim.events", c.events as f64, "count");
    m.put("sim.ops", c.ops as f64, "count");
    m.put("sim.transfers", c.transfers as f64, "count");
    m.put("sim.refill_passes", c.refill_passes as f64, "count");
    m.put(
        "sim.host_us_per_event",
        med(traced, |r| {
            r.times().test_ns() as f64 / 1e3 / r.counts().events.max(1) as f64
        }),
        "us",
    );
    m.put("sim.latency_samples", c.latency_samples as f64, "count");
    m.put("sim.latency_dropped", c.latency_dropped as f64, "count");
    m.put(
        "sim.throughput_over_max",
        c.throughput_over_max as f64,
        "count",
    );

    m.put("alloc.build_s", secs(|t| t.alloc_build_ns), "s");
    m.put("alloc.self_s", layer_self(Layer::Alloc), "s");
    m.put("alloc.extents", c.extents as f64, "count");
    m.put("alloc.free_extents", c.free_extents as f64, "count");
    m.put("alloc.failed_share", ratio(c.disk_full, c.ops), "share");
    m.put(
        "alloc.tests_outside_band",
        c.tests_outside_band as f64,
        "count",
    );

    m.put("disk.logical_requests", c.logical_requests as f64, "count");
    m.put("disk.requests", c.requests as f64, "count");
    m.put("disk.seeks", c.seeks as f64, "count");
    m.put("disk.queued_requests", c.queued_requests as f64, "count");
    m.put("disk.bytes", c.bytes as f64, "bytes");
    m.put(
        "disk.physical_per_logical",
        ratio(c.requests, c.logical_requests),
        "ratio",
    );

    let traced_wall = med(traced, |r| r.wall_s);
    m.put("trace.wall_s", traced_wall, "s");
    m.put("trace.untraced_wall_s", untraced.wall_s, "s");
    m.put("trace.overhead_s", traced_wall - untraced.wall_s, "s");
    m.put("trace.spans", traced[0].spans.len() as f64, "count");
    m
}

fn write_spans(args: &Args, rep: &RepRun) -> Result<PathBuf, String> {
    let dir = crate_path("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    let labels: Vec<String> = rep.points.iter().map(|p| p.label.clone()).collect();
    std::fs::write(&path, trace::to_json(&rep.spans, &labels))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper_alloc|paper_perf|users_fill|users_queue [--seed N] [--seconds S] [--trace 0|1] [--record-reference]");
            return ExitCode::from(2);
        }
    };
    let points = args.workload.points(args.seed);
    let jobs = if args.record { 1 } else { args.workload.jobs() };
    eprintln!(
        "perfbench: {} ({} points, seed {}, {} jobs, {} s{})",
        args.workload.name(),
        points.len(),
        args.seed,
        jobs,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );

    if args.record {
        let rep = run_rep(&points, jobs, false);
        return match record_reference(&args, &rep) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: not recorded: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (metrics, attempted, mut failed) = if args.trace {
        let start = Instant::now();
        let untraced = run_rep(&points, jobs, false);
        let rest = args.seconds - start.elapsed().as_secs_f64();
        let traced = run_for(&args, &points, true, rest);
        let mut all: Vec<&RepRun> = vec![&untraced];
        all.extend(traced.iter());
        let mut failed = check_reps(&args, &all);
        for (i, r) in traced.iter().enumerate() {
            if let Err(e) = trace::check_integrity(&r.spans) {
                eprintln!("FAILED span integrity, traced pass {i}: {e}");
                failed += 1;
            }
        }
        let m = per_layer(&traced, &untraced, jobs);
        let last = traced.last().expect("at least one traced pass");
        match write_spans(&args, last) {
            Ok(path) => eprintln!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("FAILED writing spans: {e}");
                failed += 1;
            }
        }
        let traced_wall = median(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        println!(
            "tracing overhead, {}: traced wall {traced_wall:.3} s, untraced {:.3} s, overhead {:+.3} s ({} traced passes)",
            args.workload.name(),
            untraced.wall_s,
            traced_wall - untraced.wall_s,
            traced.len()
        );
        (m, all.len() * points.len(), failed)
    } else {
        let reps = run_for(&args, &points, false, args.seconds);
        let all: Vec<&RepRun> = reps.iter().collect();
        let failed = check_reps(&args, &all);
        let attempted = reps.len() * points.len();
        let passed = 1.0 - failed as f64 / attempted as f64;
        let walls: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
        eprintln!("{} passes (wall s: {})", reps.len(), walls.join(" "));
        (end_to_end(&reps, passed), attempted, failed)
    };
    failed = failed.min(attempted);
    for (name, value, unit) in &metrics.0 {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
