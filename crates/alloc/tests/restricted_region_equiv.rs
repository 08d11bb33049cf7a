//! Differential property tests for the restricted buddy's by-length
//! region availability index.
//!
//! Steps 2–3 of the paper's region-selection algorithm ("select a region
//! with a block of the correct size", "select the next region with
//! available space") used to walk every bookkeeping region linearly. The
//! index replaces those walks with per-class bitmap scans; these tests pin
//! that the indexed policy makes decisions *identical* to the linear scan
//! under arbitrary op streams, across free-list backends, and that the
//! index itself never drifts out of sync with the regions.

use proptest::prelude::*;
use readopt_alloc::blockset::{BTreeBlockSet, BitmapBlockSet};
use readopt_alloc::{FileHints, FileId, Policy, RestrictedPolicy};

/// One step of the policy op stream; fields are raw entropy shaped inside
/// the driver.
type RawOp = (u8, u16);

/// Replays `ops` against both policies, asserting identical behaviour
/// after every step. The mix leans on extend so files ladder through the
/// block classes and regions fill (forcing the step 2/3 spill paths).
fn run_differential(a: &mut dyn Policy, b: &mut dyn Policy, ops: &[RawOp]) {
    let mut files: Vec<FileId> = Vec::new();
    for &(sel, arg) in ops {
        let arg = u64::from(arg);
        match sel % 5 {
            0 => {
                let ra = a.create(&FileHints::default());
                let rb = b.create(&FileHints::default());
                assert_eq!(ra, rb, "create diverged");
                if let Ok(id) = ra {
                    files.push(id);
                }
            }
            // Two extend arms keep utilization high so the optimal region
            // runs dry and allocation falls through to steps 2–3.
            1 | 2 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                // 1..=17 units: crosses class boundaries on the 1/8/64
                // ladder, so splits and spills both fire.
                let units = arg % 17 + 1;
                let ra = a.extend(f, units);
                let rb = b.extend(f, units);
                // Extend reports only its outcome; where the new space
                // landed is checked through every live file's map below.
                assert_eq!(ra, rb, "extend({units}) diverged");
            }
            3 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                let units = arg % 11 + 1;
                let ra = a.truncate(f, units);
                let rb = b.truncate(f, units);
                assert_eq!(ra, rb, "truncate({units}) diverged");
            }
            4 if !files.is_empty() => {
                let f = files.swap_remove(arg as usize % files.len());
                let ra = a.delete(f);
                let rb = b.delete(f);
                assert_eq!(ra, rb, "delete diverged");
            }
            _ => {}
        }
        assert_eq!(a.free_units(), b.free_units(), "free_units diverged");
        assert_eq!(a.frag_gauges(), b.frag_gauges(), "frag gauges diverged");
        for &f in &files {
            assert_eq!(
                a.file_map(f).map(|m| m.extents().to_vec()),
                b.file_map(f).map(|m| m.extents().to_vec()),
                "extent maps diverged"
            );
        }
    }
    a.check_invariants();
    b.check_invariants();
}

const CAPACITY: u64 = 4096;

/// 1K/8K/64K ladder over 32 × 128-unit clustered regions: small enough to
/// fill within an op stream, many enough that the wrap search matters.
fn clustered<S: readopt_alloc::blockset::FreeBlockSet>() -> RestrictedPolicy<S> {
    RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 1, Some(128))
}

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 1..160)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The availability index picks exactly the region the linear scan
    /// picks, step for step, with the index invariant held throughout.
    #[test]
    fn region_index_matches_linear_scan(ops in raw_ops()) {
        let mut indexed: RestrictedPolicy<BitmapBlockSet> = clustered();
        let mut linear: RestrictedPolicy<BitmapBlockSet> = clustered();
        linear.set_linear_region_scan(true);
        run_differential(&mut indexed, &mut linear, &ops);
        indexed.check_region_index();
        linear.check_region_index();
    }

    /// The index is backend-independent: indexed bitmap-set vs linear
    /// BTree-set restricted buddy still agree (crossing both axes).
    #[test]
    fn region_index_is_backend_independent(ops in raw_ops()) {
        let mut indexed: RestrictedPolicy<BitmapBlockSet> = clustered();
        let mut linear: RestrictedPolicy<BTreeBlockSet> = clustered();
        linear.set_linear_region_scan(true);
        run_differential(&mut indexed, &mut linear, &ops);
        indexed.check_region_index();
    }

    /// The unclustered configuration (one region) degenerates cleanly:
    /// steps 2–3 have no other region to offer either way.
    #[test]
    fn single_region_configuration_agrees(ops in raw_ops()) {
        let mut indexed: RestrictedPolicy<BitmapBlockSet> =
            RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 1, None);
        let mut linear: RestrictedPolicy<BitmapBlockSet> =
            RestrictedPolicy::new(CAPACITY, &[1, 8, 64], 1, None);
        linear.set_linear_region_scan(true);
        run_differential(&mut indexed, &mut linear, &ops);
        indexed.check_region_index();
    }
}
