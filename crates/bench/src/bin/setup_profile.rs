//! Where set-up time goes: host seconds inside `Simulation::new` over the
//! paper's performance-test points, one thread, split into rows.
//!
//! `Simulation::new` runs §2.2's two-phase initialization: it creates
//! every file and grows it to its sampled size by rw-sized extends. The
//! points are those of `table3`, `fig2`, `fig5` and `fig6`'s performance
//! tests, built exactly as the experiments build them (same
//! configuration, seed one past the context seed). Rows: the `fig2`
//! timesharing points split by clustering, the `fig5` and `fig6`
//! timesharing points, and everything else. Each row's figure is the
//! median over five passes of the row's summed `Simulation::new` time,
//! at the paper-scale seed 1991.
//!
//! ```bash
//! cargo run --release -p readopt-bench --bin setup_profile
//! ```
//!
//! Wall-clock here is measurement, not simulation: the bench crate is the
//! one place the workspace reads real time (simlint r2 exemption).

use readopt_alloc::{FitStrategy, PolicyConfig, RestrictedConfig};
use readopt_core::{fig1, fig6, ExperimentContext};
use readopt_sim::{SimConfig, Simulation};
use readopt_workloads::WorkloadKind;
use std::time::Instant;

/// The table's rows, in print order.
const ROWS: [&str; 5] =
    ["fig2/TS clustered", "fig2/TS unclustered", "fig5/TS", "fig6/TS", "everything else"];

/// Passes whose per-row medians are printed.
const PASSES: usize = 5;

/// Context seed of the paper-scale runs.
const SEED: u64 = 1991;

/// One performance-test point and the row it is summed into.
struct Point {
    row: usize,
    config: SimConfig,
}

/// The 93 performance-test points at paper scale. This list must match
/// `perfbench`'s `Workload::paper_points` for `paper_perf`, point for
/// point.
fn points(ctx: &ExperimentContext) -> Vec<Point> {
    let ts = |wl: WorkloadKind| wl == WorkloadKind::Timesharing;
    let mut out = Vec::new();
    let mut push = |row: usize, wl: WorkloadKind, policy: PolicyConfig| {
        out.push(Point { row, config: ctx.sim_config(wl, policy) });
    };
    for wl in WorkloadKind::all() {
        push(4, wl, PolicyConfig::paper_buddy());
        for (nsizes, grow, clustered) in fig1::sweep_configs() {
            let policy =
                PolicyConfig::Restricted(RestrictedConfig::sweep_point(nsizes, grow, clustered));
            let row = match (ts(wl), clustered) {
                (true, true) => 0,
                (true, false) => 1,
                (false, _) => 4,
            };
            push(row, wl, policy);
        }
        for n_ranges in 1..=5usize {
            for fit in [FitStrategy::FirstFit, FitStrategy::BestFit] {
                push(if ts(wl) { 2 } else { 4 }, wl, ctx.extent_policy(wl, n_ranges, fit));
            }
        }
        for (_, policy) in fig6::policies_for(ctx, wl) {
            push(if ts(wl) { 3 } else { 4 }, wl, policy);
        }
    }
    out
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn main() {
    let ctx = ExperimentContext::full().with_seed(SEED);
    let points = points(&ctx);
    let mut counts = [0usize; ROWS.len()];
    for p in &points {
        counts[p.row] += 1;
    }

    // per_pass[row] holds that row's summed seconds, one entry per pass.
    let mut per_pass: Vec<Vec<f64>> = vec![Vec::new(); ROWS.len()];
    let mut totals = Vec::new();
    for _ in 0..PASSES {
        let mut sums = [0.0f64; ROWS.len()];
        for p in &points {
            let start = Instant::now();
            let sim = Simulation::new(&p.config, SEED.wrapping_add(1));
            sums[p.row] += start.elapsed().as_secs_f64();
            drop(sim);
        }
        for (row, s) in sums.iter().enumerate() {
            per_pass[row].push(*s);
        }
        totals.push(sums.iter().sum());
    }

    println!("{:<22} {:>6} {:>10}", "row", "points", "new s");
    for (row, name) in ROWS.iter().enumerate() {
        println!("{name:<22} {:>6} {:>10.3}", counts[row], median(per_pass[row].clone()));
    }
    println!("{:<22} {:>6} {:>10.3}", "total", points.len(), median(totals));
}
