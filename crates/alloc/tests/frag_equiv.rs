//! Differential property tests for the fragmentation-indexed fast paths.
//!
//! Two equivalences are pinned here, both load-bearing for bit-identical
//! simulation results:
//!
//! 1. `FfsPolicy` with the per-group run-length `FragIndex` makes decisions
//!    *identical* to the pre-index linear `frag_blocks` scan under
//!    arbitrary fragment-heavy op streams (the index is the same structure
//!    either way; only the lookup strategy differs).
//! 2. `FreeBitmap`'s run scans — now steered by the lazily maintained
//!    per-word longest-run cache — agree exactly with a naive bit-vector
//!    reference, including on ragged (non-multiple-of-64) lengths.

use proptest::prelude::*;
use readopt_alloc::bitmap::FreeBitmap;
use readopt_alloc::blockset::{BTreeBlockSet, BitmapBlockSet};
use readopt_alloc::{FfsPolicy, FileHints, FileId, Policy};

/// One step of the policy op stream; fields are raw entropy shaped inside
/// the driver.
type RawOp = (u8, u16);

/// Replays `ops` against both policies, asserting identical behaviour after
/// every step. The op mix is fragment-heavy: extends are mostly sub-block
/// so nearly every operation goes through `alloc_frags`/`free_frags`.
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
            // Two extend arms (vs one each for truncate/delete) keep
            // utilization high and the fragment maps busy.
            1 | 2 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                // 1..=7 fragments: always exercises the tail paths.
                let units = arg % 7 + 1;
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

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 1..160)
}

/// Naive longest-run reference: the first index where a free run of `k`
/// begins, from a plain bool vector.
fn naive_first_free_run(bits: &[bool], k: usize) -> Option<usize> {
    let mut run = 0usize;
    for (i, &free) in bits.iter().enumerate() {
        if free {
            run += 1;
            if run >= k {
                return Some(i + 1 - k);
            }
        } else {
            run = 0;
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The run-length index picks exactly the block the linear scan picks,
    /// step for step, with the index invariant held throughout.
    #[test]
    fn frag_index_matches_linear_scan(ops in raw_ops()) {
        let mut indexed: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        let mut linear: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        linear.set_linear_scan(true);
        run_differential(&mut indexed, &mut linear, &ops);
        indexed.check_frag_index();
        linear.check_frag_index();
    }

    /// The index is backend-independent: indexed bitmap-set vs linear
    /// BTree-set ffs still agree (crossing both axes at once).
    #[test]
    fn frag_index_is_backend_independent(ops in raw_ops()) {
        let mut indexed: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        let mut linear: FfsPolicy<BTreeBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        linear.set_linear_scan(true);
        run_differential(&mut indexed, &mut linear, &ops);
    }

    /// The cached-run bitmap scan agrees with a naive reference under
    /// arbitrary set/clear churn, on a ragged length, for every `k` probed.
    #[test]
    fn bitmap_run_scan_matches_naive(
        flips in proptest::collection::vec(0usize..1601, 1..300),
        ks in proptest::collection::vec(1usize..130, 1..8),
    ) {
        let n = 1601usize;
        let mut b = FreeBitmap::new(n);
        let mut bits = vec![false; n];
        for &i in &flips {
            if bits[i] {
                b.set_used(i);
            } else {
                b.set_free(i);
            }
            bits[i] = !bits[i];
            for &k in &ks {
                assert_eq!(
                    b.first_free_run(k),
                    naive_first_free_run(&bits, k),
                    "first_free_run({k}) diverged"
                );
            }
        }
    }
}
