//! The benchmark measures the shipped program: every point it builds
//! reproduces what `repro` writes for the mirrored experiment, its counts
//! repeat exactly, and its traces hang together. Runs at 1/64 scale.

use readopt_core::metrics::ExperimentHist;
use readopt_core::ExperimentMetrics;
use readopt_core::{fig1, fig2, fig4, fig5, fig6, table3, table4, users_scale, ExperimentContext};
use readopt_disk::ArrayConfig;
use readopt_perfbench::{
    reference_digests, run_rep, trace, users_point, PointOutput, RepRun, Workload, DEFAULT_SEED,
};
use readopt_sim::{TestHist, TestMetrics};

/// Per point, in sweep order: label, the experiment's metrics, histograms
/// and headline values.
type Expected = Vec<(String, Vec<TestMetrics>, Vec<TestHist>, Vec<f64>)>;

fn ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::fast(64);
    ctx.max_intervals = 4;
    ctx
}

/// Folds one experiment's sidecars and per-point headline values in.
fn add(
    out: &mut Expected,
    metrics: ExperimentMetrics,
    hists: ExperimentHist,
    values: Vec<Vec<f64>>,
) {
    assert_eq!(metrics.points.len(), values.len(), "{}", metrics.experiment);
    for ((m, h), v) in metrics.points.into_iter().zip(hists.points).zip(values) {
        assert_eq!(m.label, h.label);
        out.push((m.label, m.tests, h.tests, v));
    }
}

fn expected(workload: Workload, ctx: &ExperimentContext) -> Expected {
    let mut out = Expected::new();
    let (t3, _, m, h) = table3::run_profiled(ctx);
    // table3 runs alloc then perf per workload; keep the matching half.
    let keep = if workload == Workload::PaperAlloc {
        "/alloc"
    } else {
        "/perf"
    };
    let t3_values: Vec<Vec<f64>> = t3
        .rows
        .iter()
        .flat_map(|r| {
            [
                vec![r.internal_pct, r.external_pct],
                vec![r.application_pct, r.sequential_pct],
            ]
        })
        .collect();
    let mut t3_points = Expected::new();
    add(&mut t3_points, m, h, t3_values);
    out.extend(t3_points.into_iter().filter(|p| p.0.ends_with(keep)));
    if workload == Workload::PaperAlloc {
        let (f1, _, m, h) = fig1::run_profiled(ctx);
        add(
            &mut out,
            m,
            h,
            f1.points
                .iter()
                .map(|p| vec![p.internal_pct, p.external_pct])
                .collect(),
        );
        let (f4, _, m, h) = fig4::run_profiled(ctx);
        let v = f4
            .points
            .iter()
            .map(|p| vec![p.internal_pct, p.external_pct, p.avg_extents_per_file])
            .collect();
        add(&mut out, m, h, v);
        let (t4, _, m, h) = table4::run_profiled(ctx);
        // Metrics run ranges-major, SC/TP/TS within a row.
        let v = t4
            .rows
            .iter()
            .flat_map(|r| [vec![r.sc], vec![r.tp], vec![r.ts]])
            .collect();
        add(&mut out, m, h, v);
    } else {
        let (f2, _, m, h) = fig2::run_profiled(ctx);
        let v = f2
            .points
            .iter()
            .map(|p| vec![p.application_pct, p.sequential_pct])
            .collect();
        add(&mut out, m, h, v);
        let (f5, _, m, h) = fig5::run_profiled(ctx);
        let v = f5
            .points
            .iter()
            .map(|p| vec![p.application_pct, p.sequential_pct, p.avg_extents_per_file])
            .collect();
        add(&mut out, m, h, v);
        let (f6, _, m, h) = fig6::run_profiled(ctx);
        add(
            &mut out,
            m,
            h,
            f6.cells
                .iter()
                .map(|c| vec![c.application_pct, c.sequential_pct])
                .collect(),
        );
    }
    out
}

/// The headline values the experiments report, read from our output.
fn headline(label: &str, out: &PointOutput) -> Vec<f64> {
    if let Some(f) = &out.frag {
        if label.starts_with("table4/") {
            vec![f.avg_extents_per_file]
        } else if label.starts_with("fig4/") {
            vec![f.internal_pct, f.external_pct, f.avg_extents_per_file]
        } else {
            vec![f.internal_pct, f.external_pct]
        }
    } else {
        let (app, seq) = (&out.perf[0], &out.perf[1]);
        if label.starts_with("fig5/") {
            vec![
                app.throughput_pct,
                seq.throughput_pct,
                seq.avg_extents_per_file,
            ]
        } else {
            vec![app.throughput_pct, seq.throughput_pct]
        }
    }
}

fn outputs(rep: &RepRun) -> Vec<&PointOutput> {
    rep.points
        .iter()
        .map(|p| p.output.as_ref().expect("no point panics"))
        .collect()
}

#[test]
fn paper_points_reproduce_the_experiments() {
    let ctx = ctx();
    for workload in [Workload::PaperAlloc, Workload::PaperPerf] {
        let points = workload.paper_points(&ctx);
        let want = expected(workload, &ctx);
        let labels: Vec<&String> = points.iter().map(|p| &p.label).collect();
        let want_labels: Vec<&String> = want.iter().map(|w| &w.0).collect();
        assert_eq!(
            labels, want_labels,
            "{workload:?}: every experiment point, in sweep order"
        );
        let rep = run_rep(&points, 2, false);
        for ((p, out), (_, metrics, hists, values)) in
            rep.points.iter().zip(outputs(&rep)).zip(&want)
        {
            assert_eq!(&out.metrics, metrics, "{}: metrics", p.label);
            assert_eq!(&out.hists, hists, "{}: histograms", p.label);
            assert_eq!(&headline(&p.label, out), values, "{}: report", p.label);
            out.check_invariants()
                .unwrap_or_else(|e| panic!("{}: {e}", p.label));
        }
    }
}

#[test]
fn users_points_reproduce_the_users_1e6_rungs() {
    for (users, seed) in [(1_000, DEFAULT_SEED), (4_000, 7)] {
        let ctx = ExperimentContext::fast(64).with_seed(seed);
        let (rungs, _, hists) = users_scale::run_ladder(&ctx, &[users]);
        let rep = run_rep(
            &[users_point(ArrayConfig::scaled(64), users, seed)],
            1,
            false,
        );
        let out = outputs(&rep)[0];
        assert_eq!(out.metrics[0].engine.events, rungs[0].events, "event count");
        assert_eq!(
            out.perf[0].throughput_pct, rungs[0].application_pct,
            "report"
        );
        assert_eq!(out.hists, hists[0].tests, "latency histogram");
    }
}

#[test]
fn counts_repeat_across_passes_jobs_and_tracing() {
    let ctx = ctx().with_seed(5);
    for workload in [Workload::PaperAlloc, Workload::PaperPerf] {
        let points = workload.paper_points(&ctx);
        let base = run_rep(&points, 1, false);
        let runs = [
            run_rep(&points, 2, false),
            run_rep(&points, 2, true),
            run_rep(&points, 1, true),
        ];
        for rep in &runs {
            for (a, b) in base.points.iter().zip(&rep.points) {
                let (oa, ob) = (a.output.as_ref().unwrap(), b.output.as_ref().unwrap());
                assert_eq!(oa.digest(), ob.digest(), "{}", a.label);
                assert_eq!(
                    a.counts,
                    readopt_perfbench::Counts {
                        extents: 0,
                        ..b.counts
                    },
                    "{}",
                    a.label
                );
            }
        }
        assert_eq!(
            runs[1].counts(),
            runs[2].counts(),
            "traced passes agree, extents included"
        );
        assert!(runs[1].counts().extents > 0);
        for traced in &runs[1..] {
            trace::check_integrity(&traced.spans).unwrap();
            let points_in_trace = traced
                .spans
                .iter()
                .filter(|s| s.name == trace::SpanName::Point)
                .count();
            assert_eq!(points_in_trace, points.len());
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    let ctx = ctx();
    let points = Workload::PaperAlloc.paper_points(&ctx);
    let a = run_rep(&points[..6], 2, false);
    let points = Workload::PaperAlloc.paper_points(&ctx.with_seed(DEFAULT_SEED + 1));
    let b = run_rep(&points[..6], 2, false);
    assert_ne!(a.counts(), b.counts(), "another seed, other work");
    for out in outputs(&b) {
        out.check_invariants().unwrap();
    }
}

/// Seeds `reference.tsv` records for every workload but `users_fill`,
/// whose single point is recorded at the default seed only.
const RECORDED_SEEDS: std::ops::Range<u64> = 0..32;

#[test]
fn reference_covers_every_point_at_the_recorded_seeds() {
    for workload in Workload::ALL {
        let extra = if workload == Workload::UsersFill {
            0..0
        } else {
            RECORDED_SEEDS
        };
        for seed in extra.chain([DEFAULT_SEED]) {
            let digests = reference_digests(workload, seed)
                .unwrap_or_else(|| panic!("{} seed {seed} not recorded", workload.name()));
            assert_eq!(
                digests.len(),
                workload.points(seed).len(),
                "{} seed {seed}",
                workload.name()
            );
        }
    }
    assert_eq!(reference_digests(Workload::PaperPerf, 1 << 40), None);
}
