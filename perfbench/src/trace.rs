//! Spans recorded around calls into the program, and the per-layer self
//! times derived from them.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Spans are kept in memory during a run and
//! written out as JSON when the run ends.

use std::fmt::Write as _;

/// Where a span was recorded: the pass over a workload, one point, or one
/// call into the program inside a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One pass over every point of a workload (root; `core`).
    Rep,
    /// One point, as the runner runs it (`core`).
    Point,
    /// Standalone `PolicyConfig::build` on the point's config (`alloc`).
    AllocBuild,
    /// `Simulation::new` (`sim`).
    SimNew,
    /// `run_allocation_test` (`sim`).
    AllocTest,
    /// `run_application_test` (`sim`).
    AppTest,
    /// `run_sequential_test` (`sim`).
    SeqTest,
    /// `metrics_snapshot` + `latency_hist` (`sim`).
    SimObserve,
    /// Extent count over the policy's live files (`alloc`).
    AllocWalk,
}

impl SpanName {
    /// The span's name in the written trace.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Rep => "core.rep",
            SpanName::Point => "core.point",
            SpanName::AllocBuild => "alloc.build",
            SpanName::SimNew => "sim.new",
            SpanName::AllocTest => "sim.alloc_test",
            SpanName::AppTest => "sim.app_test",
            SpanName::SeqTest => "sim.seq_test",
            SpanName::SimObserve => "sim.observe",
            SpanName::AllocWalk => "alloc.walk",
        }
    }

    /// The layer the span's self time is charged to.
    pub fn layer(self) -> Layer {
        match self {
            SpanName::Rep | SpanName::Point => Layer::Core,
            SpanName::AllocBuild | SpanName::AllocWalk => Layer::Alloc,
            _ => Layer::Sim,
        }
    }
}

/// Layers host time is charged to. The disk model runs inside the sim
/// layer's test calls, so it is measured by counts, not by spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The sweep runner and the harness around it.
    Core,
    /// Engine, queue, meter and histograms.
    Sim,
    /// Allocation policies.
    Alloc,
}

impl Layer {
    /// Every layer that has spans.
    pub const ALL: [Layer; 3] = [Layer::Core, Layer::Sim, Layer::Alloc];

    /// Metric-name prefix.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Alloc => "alloc",
        }
    }
}

/// One timed interval, in nanoseconds since the pass started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: SpanName,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Index of the point the span belongs to (none for the pass's root).
    pub point: Option<usize>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, ns: its duration minus the union of its
/// children's intervals (children may overlap, as points on two runner
/// threads do).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered.min(s.dur())
        })
        .collect()
}

/// Self time per layer, seconds, in [`Layer::ALL`] order.
pub fn layer_self_seconds(spans: &[Span]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let i = Layer::ALL
            .iter()
            .position(|&l| l == s.name.layer())
            .expect("known layer");
        out[i] += t as f64 / 1e9;
    }
    out
}

/// Checks the span tree: every child lies within its parent and belongs to
/// the same point, and each point's self times (its own plus its
/// descendants') sum exactly to the point span's duration.
pub fn check_integrity(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!(
                "span {i} ({}) ends before it starts",
                s.name.as_str()
            ));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {i} has no parent {p}"))?;
        if p >= i {
            return Err(format!(
                "span {i} ({}) listed before its parent",
                s.name.as_str()
            ));
        }
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) [{}, {}] escapes its parent {} [{}, {}]",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                parent.name.as_str(),
                parent.start_ns,
                parent.end_ns
            ));
        }
        if parent.point.is_some() && parent.point != s.point {
            return Err(format!("span {i} ({}) crosses points", s.name.as_str()));
        }
    }
    let selfs = self_times(spans);
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == SpanName::Point)
    {
        let mut total = selfs[i];
        // Children of a point are listed after it and carry its index.
        for (j, c) in spans.iter().enumerate().skip(i + 1) {
            if c.point == s.point && c.name != SpanName::Point {
                total += selfs[j];
            }
        }
        if total != s.dur() {
            return Err(format!(
                "point {:?}: layer self times sum to {total} ns, point wall is {} ns",
                s.point,
                s.dur()
            ));
        }
    }
    Ok(())
}

/// The spans of one traced pass as JSON, one object per span with its
/// name, layer, start, end, parent index and point id (labels resolved).
pub fn to_json(spans: &[Span], labels: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let point = s.point.map_or("null".to_string(), |p| {
            format!("{:?}", labels.get(p).map_or("", |l| l.as_str()))
        });
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"point\": {point}}}",
            s.name.as_str(),
            s.name.layer().as_str(),
            s.start_ns,
            s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: SpanName,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        point: Option<usize>,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(SpanName::Rep, 0, 100, None, None),
            span(SpanName::Point, 10, 60, Some(0), Some(0)),
            span(SpanName::Point, 40, 90, Some(0), Some(1)),
            span(SpanName::SimNew, 15, 25, Some(1), Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 50, 10]);
        let [core, sim, alloc] = layer_self_seconds(&spans);
        assert_eq!((core * 1e9).round(), 110.0);
        assert_eq!((sim * 1e9).round(), 10.0);
        assert_eq!(alloc, 0.0);
        check_integrity(&spans).unwrap();
    }

    #[test]
    fn integrity_rejects_a_child_outside_its_parent() {
        let spans = vec![
            span(SpanName::Rep, 0, 100, None, None),
            span(SpanName::Point, 10, 60, Some(0), Some(0)),
            span(SpanName::AppTest, 50, 70, Some(1), Some(0)),
        ];
        assert!(check_integrity(&spans).unwrap_err().contains("escapes"));
    }
}
