//! Paper-scale benchmark of the readopt simulator.
//!
//! The harness drives the program only through public functions of
//! `readopt-core`, `readopt-sim`, `readopt-alloc`, `readopt-disk` and
//! `readopt-workloads`. Each workload is a list of simulation points built
//! exactly the way the experiment it mirrors builds them
//! ([`ExperimentContext::sim_config`] + [`Simulation::new`] +
//! `run_{allocation,application,sequential}_test`). Points fan out over
//! the program's own sweep runner ([`readopt_core::runner::run_jobs`]), so
//! the `core` layer is measured too. Host time is taken only around calls
//! into the program; nothing is traced inside it.
//!
//! See `README.md` next to this crate for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

pub mod trace;

use readopt_alloc::{ExtentConfig, FitStrategy, PolicyConfig, RestrictedConfig};
use readopt_core::runner::{self, Job, JobTiming};
use readopt_core::{fig1, fig6, ExperimentContext};
use readopt_disk::{ArrayConfig, SimDuration};
use readopt_sim::{
    EventQueueKind, FileTypeConfig, FragReport, PerfReport, SimConfig, SimRng, Simulation,
    TestHist, TestMetrics,
};
use readopt_workloads::WorkloadKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Span, SpanName};

/// Default workload seed (the `repro` default).
pub const DEFAULT_SEED: u64 = 1991;

/// Recorded output digests, one line per (workload, seed):
/// `workload \t seed \t digest,digest,...`, one hex digest per point in
/// point order, each taken on one runner thread.
const REFERENCE: &str = include_str!("../reference.tsv");

/// The recorded digest of every point of `workload` at `seed`, in point
/// order; `None` where that seed was never recorded. A malformed digest is
/// left out, so the list no longer matches the points.
pub fn reference_digests(workload: Workload, seed: u64) -> Option<Vec<u64>> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split('\t').collect();
        (f.len() == 3 && f[0] == workload.name() && f[1].parse() == Ok(seed)).then(|| {
            f[2].split(',')
                .filter_map(|d| u64::from_str_radix(d, 16).ok())
                .collect()
        })
    })
}

/// The `reference.tsv` line recording `digests` for `workload` at `seed`.
pub fn reference_line(workload: Workload, seed: u64, digests: &[u64]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{}\t{seed}\t{}", workload.name(), hex.join(","))
}

/// Users in the `users_fill` point: the `users_1e6` rung whose fill to the
/// lower utilization bound dominates at paper scale.
const FILL_USERS: u32 = 4_000;

/// Users in the `users_queue` point: the top `users_1e6` rung.
const QUEUE_USERS: u32 = 1_000_000;

/// Array scale divisor of the `users_queue` point.
const QUEUE_SCALE: u32 = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every allocation-test point of table3, fig1, fig4 and table4.
    PaperAlloc,
    /// Every performance-test point of table3, fig2, fig5 and fig6.
    PaperPerf,
    /// One `users_1e6`-shaped point with 4,000 users on the full array.
    UsersFill,
    /// One `users_1e6`-shaped point with 1,000,000 users at scale 1/64.
    UsersQueue,
}

impl Workload {
    /// Every workload the harness runs.
    pub const ALL: [Workload; 4] = [
        Workload::PaperAlloc,
        Workload::PaperPerf,
        Workload::UsersFill,
        Workload::UsersQueue,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAlloc => "paper_alloc",
            Workload::PaperPerf => "paper_perf",
            Workload::UsersFill => "users_fill",
            Workload::UsersQueue => "users_queue",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runner threads a measured pass uses: two for the paper sweeps, as
    /// `repro --jobs 2` runs them; one for the `users_*` points, which run
    /// alone as `users_1e6` runs its rungs.
    pub fn jobs(self) -> usize {
        match self {
            Workload::PaperAlloc | Workload::PaperPerf => 2,
            Workload::UsersFill | Workload::UsersQueue => 1,
        }
    }

    /// The workload's points at paper scale (`repro --scale 1`).
    pub fn points(self, seed: u64) -> Vec<Point> {
        match self {
            Workload::PaperAlloc | Workload::PaperPerf => {
                self.paper_points(&ExperimentContext::full().with_seed(seed))
            }
            Workload::UsersFill => {
                vec![users_point(ArrayConfig::paper_default(), FILL_USERS, seed)]
            }
            Workload::UsersQueue => {
                vec![users_point(
                    ArrayConfig::scaled(QUEUE_SCALE),
                    QUEUE_USERS,
                    seed,
                )]
            }
        }
    }

    /// The `paper_*` points under `ctx` (any scale), labelled and ordered
    /// as the mirrored experiments label and order them. Empty for the
    /// `users_*` workloads.
    pub fn paper_points(self, ctx: &ExperimentContext) -> Vec<Point> {
        let alloc = self == Workload::PaperAlloc;
        let mut out = Vec::new();
        if !matches!(self, Workload::PaperAlloc | Workload::PaperPerf) {
            return out;
        }
        let paper = |label: String, wl, policy| Point::paper(ctx, label, wl, policy, alloc);
        let by_table = [
            WorkloadKind::Supercomputer,
            WorkloadKind::TransactionProcessing,
            WorkloadKind::Timesharing,
        ];
        let test = if alloc { "alloc" } else { "perf" };
        for wl in by_table {
            let label = format!("table3/{}/{test}", wl.short_name());
            out.push(paper(label, wl, PolicyConfig::paper_buddy()));
        }
        // fig1 (allocation) and fig2 (performance) share one sweep grid.
        let fig = if alloc { "fig1" } else { "fig2" };
        for wl in WorkloadKind::all() {
            for (nsizes, grow, clustered) in fig1::sweep_configs() {
                let label = format!(
                    "{fig}/{}/n{nsizes}-g{grow}-{}",
                    wl.short_name(),
                    if clustered { "c" } else { "u" }
                );
                let policy = PolicyConfig::Restricted(RestrictedConfig::sweep_point(
                    nsizes, grow, clustered,
                ));
                out.push(paper(label, wl, policy));
            }
        }
        // fig4 (allocation) and fig5 (performance) share one sweep grid.
        let fig = if alloc { "fig4" } else { "fig5" };
        for wl in WorkloadKind::all() {
            for n_ranges in 1..=5usize {
                for fit in [FitStrategy::FirstFit, FitStrategy::BestFit] {
                    let label = format!("{fig}/{}/r{n_ranges}-{fit:?}", wl.short_name());
                    out.push(paper(label, wl, ctx.extent_policy(wl, n_ranges, fit)));
                }
            }
        }
        if alloc {
            for n_ranges in 1..=5usize {
                for wl in by_table {
                    let label = format!("table4/{}/r{n_ranges}", wl.short_name());
                    let policy = ctx.extent_policy(wl, n_ranges, FitStrategy::FirstFit);
                    out.push(paper(label, wl, policy));
                }
            }
        } else {
            for wl in by_table {
                for (name, policy) in fig6::policies_for(ctx, wl) {
                    out.push(paper(
                        format!("fig6/{}/{name}", wl.short_name()),
                        wl,
                        policy,
                    ));
                }
            }
        }
        out
    }
}

/// Which of the paper's test procedures a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// §3 allocation test (`ExperimentContext::run_allocation_observed`).
    Allocation,
    /// §3 application then sequential test
    /// (`ExperimentContext::run_performance_observed`).
    Performance,
    /// Application test only, as a `users_1e6` rung runs it.
    Application,
}

/// One simulation point: its configuration, the seed `Simulation::new`
/// gets, and the test procedure it runs.
#[derive(Debug, Clone)]
pub struct Point {
    /// Label, identical to the mirrored experiment's point label.
    pub label: String,
    /// Test procedure.
    pub test: TestKind,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Seed handed to [`Simulation::new`].
    pub seed: u64,
}

impl Point {
    fn paper(
        ctx: &ExperimentContext,
        label: String,
        wl: WorkloadKind,
        policy: PolicyConfig,
        alloc: bool,
    ) -> Point {
        let config = ctx.sim_config(wl, policy);
        if alloc {
            Point {
                label,
                test: TestKind::Allocation,
                config,
                seed: ctx.seed,
            }
        } else {
            // The performance procedure seeds its simulation one past the
            // context seed.
            Point {
                label,
                test: TestKind::Performance,
                config,
                seed: ctx.seed.wrapping_add(1),
            }
        }
    }
}

/// A `users_1e6`-shaped point: `users` users over 512 files of 64 KB,
/// extent first-fit `{8K, 64K}`, six 1 s intervals, heap queue, unsharded,
/// seeded with `seed + 1` — the configuration `users_1e6` gives each rung.
pub fn users_point(array: ArrayConfig, users: u32, seed: u64) -> Point {
    let policy = PolicyConfig::Extent(ExtentConfig {
        range_means_bytes: vec![8 * 1024, 64 * 1024],
        fit: FitStrategy::FirstFit,
        sigma_frac: 0.1,
    });
    let mut config = SimConfig::new(array, policy, vec![FileTypeConfig::many_users(users)]);
    config.interval = SimDuration::from_secs(1.0);
    config.max_intervals = 6;
    config.shards = 1;
    config.shard_workers = 1;
    config.event_queue = EventQueueKind::Heap;
    Point {
        label: format!("users_1e6/u{users}"),
        test: TestKind::Application,
        config,
        seed: seed.wrapping_add(1),
    }
}

/// What a point's simulation produced: the reports, one `TestMetrics` and
/// one `TestHist` per test, in test order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutput {
    /// Allocation-test report (allocation points only).
    pub frag: Option<FragReport>,
    /// Performance reports in test order (application, then sequential).
    pub perf: Vec<PerfReport>,
    /// Observability snapshot per test.
    pub metrics: Vec<TestMetrics>,
    /// Latency histogram per test.
    pub hists: Vec<TestHist>,
}

impl PointOutput {
    /// FNV-1a digest of the serialized output: equal digests mean equal
    /// reports, metrics and histograms, to the last bit of every float.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(&(&self.frag, &self.perf, &self.metrics, &self.hists))
            .expect("simulation outputs serialize");
        fnv1a(json.as_bytes())
    }

    /// Deterministic work counts, summed over the point's tests.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for m in &self.metrics {
            let e = &m.engine;
            c.events += e.events;
            c.ops += e.operations;
            c.transfers += e.transfers;
            c.refill_passes += e.refill_passes;
            c.disk_full += e.disk_full_events;
            let s = &m.storage;
            c.logical_requests += s.logical_reads + s.logical_writes;
            c.requests += s.combined.requests;
            c.seeks += s.combined.seeks;
            c.queued_requests += s.combined.queued_requests;
            c.bytes += s.combined.bytes_read + s.combined.bytes_written;
            c.free_extents += m.alloc.frag.free_extents;
        }
        c.tests_outside_band = self.metrics.iter().filter(|m| outside_band(m)).count() as u64;
        c.throughput_over_max = self
            .perf
            .iter()
            .filter(|p| p.throughput_pct > 100.0)
            .count() as u64;
        for h in &self.hists {
            c.latency_samples += h.count;
            c.latency_dropped += h.dropped;
        }
        c
    }

    /// Invariants every output holds; `Err` names the first broken one.
    /// Fragmentation lies in [0, 100] %, throughput is positive and
    /// utilization lies in (0, 1].
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(f) = &self.frag {
            for (what, v) in [("internal", f.internal_pct), ("external", f.external_pct)] {
                if !(0.0..=100.0).contains(&v) {
                    return Err(format!("{what} fragmentation {v} % outside [0, 100]"));
                }
            }
        }
        for p in &self.perf {
            if !(p.throughput_pct > 0.0 && p.throughput_pct.is_finite()) {
                return Err(format!("throughput {} % is not positive", p.throughput_pct));
            }
        }
        for m in &self.metrics {
            let u = m.alloc.utilization;
            if !(u > 0.0 && u <= 1.0) {
                return Err(format!("{} test utilization {u} outside (0, 1]", m.test));
            }
        }
        Ok(())
    }

    /// Where the output leaves the paper's bounds for a performance test:
    /// utilization outside [90 %, 95 %] after the test, or
    /// throughput above 100 % of the calibrated maximum. The engine does
    /// not guarantee either bound: it fills to `N` before measuring, tops
    /// up only when utilization falls below `N − 2` points (looked at every
    /// 256 steps), refuses extends that *start* above `M`, and meters
    /// throughput against a calibrated, not a proven, maximum. These are
    /// reported, not failed.
    pub fn paper_deviations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| outside_band(m))
            .map(|m| {
                format!(
                    "{} test ends at utilization {}",
                    m.test, m.alloc.utilization
                )
            })
            .collect();
        for (p, test) in self.perf.iter().zip(["application", "sequential"]) {
            if p.throughput_pct > 100.0 {
                out.push(format!(
                    "{test} throughput {} % of the maximum",
                    p.throughput_pct
                ));
            }
        }
        out
    }
}

/// Whether a performance test's snapshot lies outside the paper's
/// utilization band.
fn outside_band(m: &TestMetrics) -> bool {
    m.test != "allocation" && !(UTIL_LOWER..=UTIL_UPPER).contains(&m.alloc.utilization)
}

/// The paper's lower utilization bound `N` for performance tests.
const UTIL_LOWER: f64 = 0.90;
/// The paper's upper utilization bound `M` for performance tests.
const UTIL_UPPER: f64 = 0.95;

/// Work counts a point's layers expose. All repeat exactly for a given
/// point and seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Engine events popped.
    pub events: u64,
    /// File operations executed.
    pub ops: u64,
    /// Logical transfers that reached the disk system.
    pub transfers: u64,
    /// Mid-measurement refill passes.
    pub refill_passes: u64,
    /// Allocation failures (disk-full events).
    pub disk_full: u64,
    /// Latency samples recorded.
    pub latency_samples: u64,
    /// Latency samples beyond the exact-buffer cap.
    pub latency_dropped: u64,
    /// Logical requests submitted to the array.
    pub logical_requests: u64,
    /// Physical requests the disks serviced.
    pub requests: u64,
    /// Physical requests that moved the head.
    pub seeks: u64,
    /// Physical requests that waited behind earlier work.
    pub queued_requests: u64,
    /// Bytes moved to or from the media.
    pub bytes: u64,
    /// Free extents reported by the policy after each test.
    pub free_extents: u64,
    /// Performance tests that ended outside the 90–95 % utilization band.
    pub tests_outside_band: u64,
    /// Performance tests whose throughput exceeds 100 % of the maximum.
    pub throughput_over_max: u64,
    /// Extents of live files after each test (traced runs only).
    pub extents: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.ops += o.ops;
        self.transfers += o.transfers;
        self.refill_passes += o.refill_passes;
        self.disk_full += o.disk_full;
        self.latency_samples += o.latency_samples;
        self.latency_dropped += o.latency_dropped;
        self.logical_requests += o.logical_requests;
        self.requests += o.requests;
        self.seeks += o.seeks;
        self.queued_requests += o.queued_requests;
        self.bytes += o.bytes;
        self.free_extents += o.free_extents;
        self.tests_outside_band += o.tests_outside_band;
        self.throughput_over_max += o.throughput_over_max;
        self.extents += o.extents;
    }
}

/// Host time of one point, split by the call it was spent in
/// (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointTimes {
    /// Inside `Simulation::new`.
    pub setup_ns: u64,
    /// Inside `run_allocation_test`.
    pub alloc_test_ns: u64,
    /// Inside `run_application_test`.
    pub app_test_ns: u64,
    /// Inside `run_sequential_test`.
    pub seq_test_ns: u64,
    /// Inside `metrics_snapshot` and `latency_hist`.
    pub observe_ns: u64,
    /// Inside the standalone `PolicyConfig::build` (traced runs only).
    pub alloc_build_ns: u64,
}

impl PointTimes {
    /// Host time inside the three test procedures.
    pub fn test_ns(&self) -> u64 {
        self.alloc_test_ns + self.app_test_ns + self.seq_test_ns
    }

    fn add(&mut self, o: &PointTimes) {
        self.setup_ns += o.setup_ns;
        self.alloc_test_ns += o.alloc_test_ns;
        self.app_test_ns += o.app_test_ns;
        self.seq_test_ns += o.seq_test_ns;
        self.observe_ns += o.observe_ns;
        self.alloc_build_ns += o.alloc_build_ns;
    }
}

/// One point's run: its output (or the panic that stopped it), host times,
/// and spans when traced.
#[derive(Debug)]
pub struct PointRun {
    /// The point's label.
    pub label: String,
    /// The simulation output, or the panic message.
    pub output: Result<PointOutput, String>,
    /// Work counts (zero when the point panicked).
    pub counts: Counts,
    /// Host time per call.
    pub times: PointTimes,
    /// Spans of this point (traced runs only).
    pub spans: Vec<Span>,
}

/// Records spans for one point when tracing; a no-op otherwise.
struct Recorder<'a> {
    epoch: Option<&'a Instant>,
    point: usize,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// Times `f`, returning its result and the nanoseconds it took, and
    /// records a span under the point's span when tracing.
    fn time<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(epoch) = self.epoch {
            self.spans.push(Span {
                name,
                start_ns: ns_since(epoch, start),
                end_ns: ns_since(epoch, end),
                parent: Some(0),
                point: Some(self.point),
            });
        }
        (out, (end - start).as_nanos() as u64)
    }
}

fn ns_since(epoch: &Instant, t: Instant) -> u64 {
    t.saturating_duration_since(*epoch).as_nanos() as u64
}

/// Runs one point the way its experiment does. With `epoch` set, the run
/// is traced: every call into the program gets a span, the policy is also
/// built standalone to time `alloc.build`, and live files' extents are
/// counted after each test.
fn run_point(point: &Point, index: usize, epoch: Option<&Instant>) -> PointRun {
    let start = Instant::now();
    let mut rec = Recorder {
        epoch,
        point: index,
        spans: Vec::new(),
    };
    let mut times = PointTimes::default();
    let mut extents = 0u64;
    let output = catch_unwind(AssertUnwindSafe(|| {
        simulate(point, &mut rec, &mut times, &mut extents)
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    });
    let mut counts = output.as_ref().map(PointOutput::counts).unwrap_or_default();
    counts.extents = extents;
    let mut spans = Vec::new();
    if let Some(epoch) = epoch {
        // The point's own span comes first; its children (index ≥ 1 within
        // the point) were recorded with parent 0, i.e. this span.
        spans.push(Span {
            name: SpanName::Point,
            start_ns: ns_since(epoch, start),
            end_ns: ns_since(epoch, Instant::now()),
            parent: None,
            point: Some(index),
        });
        spans.append(&mut rec.spans);
    }
    PointRun {
        label: point.label.clone(),
        output,
        counts,
        times,
        spans,
    }
}

fn simulate(
    point: &Point,
    rec: &mut Recorder<'_>,
    times: &mut PointTimes,
    extents: &mut u64,
) -> PointOutput {
    let cfg = &point.config;
    if rec.epoch.is_some() {
        // The policy `Simulation::new` builds, built alone: same capacity,
        // unit and seed (the first draw of the simulation's RNG).
        let policy_seed = SimRng::new(point.seed).uniform_u64(0, u64::MAX - 1);
        let capacity = cfg.array.capacity_units();
        let unit = cfg.array.disk_unit_bytes;
        let ((), ns) = rec.time(SpanName::AllocBuild, || {
            std::hint::black_box(cfg.policy.build(capacity, unit, policy_seed));
        });
        times.alloc_build_ns += ns;
    }
    let (mut sim, ns) = rec.time(SpanName::SimNew, || Simulation::new(cfg, point.seed));
    times.setup_ns += ns;
    let mut out = PointOutput {
        frag: None,
        perf: Vec::new(),
        metrics: Vec::new(),
        hists: Vec::new(),
    };
    let mut obs = Observer {
        rec,
        times,
        extents,
        out: &mut out,
    };
    match point.test {
        TestKind::Allocation => {
            let (frag, ns) = obs
                .rec
                .time(SpanName::AllocTest, || sim.run_allocation_test());
            obs.times.alloc_test_ns += ns;
            obs.observe(&sim, "allocation", sim.now().as_ms());
            obs.out.frag = Some(frag);
        }
        TestKind::Performance | TestKind::Application => {
            sim.reset_counters();
            sim.storage_reset_for_probe();
            let (app, ns) = obs
                .rec
                .time(SpanName::AppTest, || sim.run_application_test());
            obs.times.app_test_ns += ns;
            obs.observe(&sim, "application", app.measured_ms);
            obs.out.perf.push(app);
            if point.test == TestKind::Performance {
                sim.reset_counters();
                sim.storage_reset_for_probe();
                let (seq, ns) = obs
                    .rec
                    .time(SpanName::SeqTest, || sim.run_sequential_test());
                obs.times.seq_test_ns += ns;
                obs.observe(&sim, "sequential", seq.measured_ms);
                obs.out.perf.push(seq);
            }
        }
    }
    out
}

/// Collects a point's per-test observations.
struct Observer<'a, 'r> {
    rec: &'a mut Recorder<'r>,
    times: &'a mut PointTimes,
    extents: &'a mut u64,
    out: &'a mut PointOutput,
}

impl Observer<'_, '_> {
    /// Snapshots the metrics and latency histogram of the test that just
    /// ran, as its experiment does, and counts live extents when traced.
    fn observe(&mut self, sim: &Simulation, test: &str, window_ms: f64) {
        let ((m, h), ns) = self.rec.time(SpanName::SimObserve, || {
            (
                sim.metrics_snapshot(test, window_ms),
                sim.latency_hist(test),
            )
        });
        self.times.observe_ns += ns;
        self.out.metrics.push(m);
        self.out.hists.push(h);
        if self.rec.epoch.is_some() {
            let (n, _) = self.rec.time(SpanName::AllocWalk, || live_extents(sim));
            *self.extents += n;
        }
    }
}

/// Σ extent count over the policy's live files.
fn live_extents(sim: &Simulation) -> u64 {
    let policy = sim.policy();
    policy
        .live_files()
        .into_iter()
        .map(|f| policy.extent_count(f).expect("live_files lists live files") as u64)
        .sum()
}

/// One pass over every point of a workload.
#[derive(Debug)]
pub struct RepRun {
    /// Host wall time of the pass, seconds.
    pub wall_s: f64,
    /// Process CPU time (user + system) over the pass, seconds.
    pub cpu_s: f64,
    /// Per-point runs, in point order.
    pub points: Vec<PointRun>,
    /// The runner's per-point wall times, in point order.
    pub timings: Vec<JobTiming>,
    /// Peak resident set size of the process so far, MB, read when the
    /// pass ends.
    pub peak_rss_mb: f64,
    /// The pass's root span followed by every point's spans (traced only).
    pub spans: Vec<Span>,
}

impl RepRun {
    /// Host times summed over points.
    pub fn times(&self) -> PointTimes {
        let mut t = PointTimes::default();
        for p in &self.points {
            t.add(&p.times);
        }
        t
    }

    /// Counts summed over points.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for p in &self.points {
            c.add(&p.counts);
        }
        c
    }
}

/// Runs every point once on `jobs` runner threads, traced when `traced`.
pub fn run_rep(points: &[Point], jobs: usize, traced: bool) -> RepRun {
    let epoch = Instant::now();
    let cpu0 = cpu_seconds();
    let epoch_ref = traced.then_some(&epoch);
    let list: Vec<Job<'_, PointRun>> = points
        .iter()
        .enumerate()
        .map(|(i, p)| Job::new(p.label.clone(), move || run_point(p, i, epoch_ref)))
        .collect();
    let out = runner::run_jobs(jobs, list);
    let end = Instant::now();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mb = peak_rss_mb();
    let mut spans = Vec::new();
    if traced {
        spans.push(Span {
            name: SpanName::Rep,
            start_ns: 0,
            end_ns: ns_since(&epoch, end),
            parent: None,
            point: None,
        });
        for p in &out.results {
            // Re-base each point's spans: its own span's parent is the
            // pass's root (0), its children's parent is its own span.
            let base = spans.len();
            for s in &p.spans {
                let parent = match s.parent {
                    None => Some(0),
                    Some(local) => Some(base + local),
                };
                spans.push(Span {
                    parent,
                    ..s.clone()
                });
            }
        }
    }
    RepRun {
        wall_s: (end - epoch).as_secs_f64(),
        cpu_s,
        points: out.results,
        timings: out.timings,
        peak_rss_mb,
        spans,
    }
}

/// User + system CPU time of this process so far, seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s; 0 where unavailable).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set size of this process, MB (`VmHWM`; 0 where
/// unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated `q`-quantile of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
