//! Differential property tests: every bitmap-backed free-space structure
//! must make decisions *identical* to its `BTreeSet`/`BTreeMap` reference
//! backend under arbitrary operation sequences.
//!
//! The same pseudo-random op stream is replayed against both backends of
//! each policy; after every single operation the extent maps of every
//! live file, freed extents, error outcomes, free-unit counts, and
//! fragmentation gauges must match exactly. This is the invariant that lets the word-level structures
//! replace the ordered sets without perturbing a byte of the paper's
//! simulation results.

use proptest::prelude::*;
use readopt_alloc::blockset::{BTreeBlockSet, BitmapBlockSet};
use readopt_alloc::freespace::{BTreeFreeSpaceMap, FreeSpaceMap};
use readopt_alloc::{
    BuddyPolicy, Extent, ExtentPolicy, FfsPolicy, FileHints, FileId, FitStrategy, Policy,
    RestrictedPolicy,
};

/// One step of the policy op stream; fields are raw entropy shaped inside
/// the driver.
type RawOp = (u8, u16);

/// Replays `ops` against both policies, asserting identical behaviour
/// after every step.
fn run_differential(a: &mut dyn Policy, b: &mut dyn Policy, ops: &[RawOp]) {
    let mut files: Vec<FileId> = Vec::new();
    for &(sel, arg) in ops {
        let arg = u64::from(arg);
        match sel % 4 {
            0 => {
                // Create with an allocation-size hint spanning sub-unit to
                // multi-block sizes.
                let hints = FileHints { mean_extent_bytes: (arg % 64 + 1) * 1024 };
                let ra = a.create(&hints);
                let rb = b.create(&hints);
                assert_eq!(ra, rb, "create diverged");
                if let Ok(id) = ra {
                    files.push(id);
                }
            }
            1 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                let units = arg % 96 + 1;
                let ra = a.extend(f, units);
                let rb = b.extend(f, units);
                // Extend reports only its outcome; where the new space
                // landed is checked through every live file's map below.
                assert_eq!(ra, rb, "extend({units}) diverged");
            }
            2 if !files.is_empty() => {
                let f = files[arg as usize % files.len()];
                let units = arg % 128 + 1;
                let ra = a.truncate(f, units);
                let rb = b.truncate(f, units);
                assert_eq!(ra, rb, "truncate({units}) diverged");
            }
            3 if !files.is_empty() => {
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
    proptest::collection::vec((any::<u8>(), any::<u16>()), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FFS cylinder groups: bitmap block sets vs ordered sets.
    #[test]
    fn ffs_backends_are_equivalent(ops in raw_ops()) {
        let mut a: FfsPolicy<BitmapBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        let mut b: FfsPolicy<BTreeBlockSet> = FfsPolicy::new(CAPACITY, 8, 512);
        run_differential(&mut a, &mut b, &ops);
    }

    /// Restricted-buddy per-class free lists: bitmap vs ordered sets.
    #[test]
    fn restricted_backends_are_equivalent(ops in raw_ops()) {
        let mut a: RestrictedPolicy<BitmapBlockSet> =
            RestrictedPolicy::new(CAPACITY, &[1, 4, 16, 64], 2, Some(1024));
        let mut b: RestrictedPolicy<BTreeBlockSet> =
            RestrictedPolicy::new(CAPACITY, &[1, 4, 16, 64], 2, Some(1024));
        run_differential(&mut a, &mut b, &ops);
    }

    /// Binary-buddy per-order free lists: bitmap vs ordered sets.
    #[test]
    fn buddy_backends_are_equivalent(ops in raw_ops()) {
        let mut a: BuddyPolicy<BitmapBlockSet> = BuddyPolicy::new(CAPACITY, 256);
        let mut b: BuddyPolicy<BTreeBlockSet> = BuddyPolicy::new(CAPACITY, 256);
        run_differential(&mut a, &mut b, &ops);
    }

    /// Extent policy: bitmap free-space map vs the BTree run map. Both
    /// sides share an RNG seed, so extent-size draws line up and any
    /// divergence is the free-space search itself.
    #[test]
    fn extent_backends_are_equivalent(ops in raw_ops(), seed in any::<u64>()) {
        let mut a: ExtentPolicy<FreeSpaceMap> =
            ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::FirstFit, 0.1, 1024, seed);
        let mut b: ExtentPolicy<BTreeFreeSpaceMap> =
            ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::FirstFit, 0.1, 1024, seed);
        run_differential(&mut a, &mut b, &ops);
        let mut a: ExtentPolicy<FreeSpaceMap> =
            ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::BestFit, 0.1, 1024, seed);
        let mut b: ExtentPolicy<BTreeFreeSpaceMap> =
            ExtentPolicy::new(CAPACITY, &[8, 64], FitStrategy::BestFit, 0.1, 1024, seed);
        run_differential(&mut a, &mut b, &ops);
    }

    /// The raw free-space maps under direct fit/release traffic, including
    /// targeted `allocate_at` splits — exercises run coalescing and the
    /// by-length index far harder than the policy layer above.
    #[test]
    fn freespace_maps_are_equivalent(ops in proptest::collection::vec(
        (any::<u8>(), 0u64..CAPACITY, 1u64..128),
        1..200,
    )) {
        let mut a = FreeSpaceMap::with_capacity(CAPACITY);
        let mut b = BTreeFreeSpaceMap::with_capacity(CAPACITY);
        let mut held: Vec<Extent> = Vec::new();
        for &(sel, addr, len) in &ops {
            match sel % 4 {
                0 => {
                    let ra = a.allocate_first_fit(len);
                    let rb = b.allocate_first_fit(len);
                    assert_eq!(ra, rb, "first-fit diverged");
                    held.extend(ra);
                }
                1 => {
                    let ra = a.allocate_best_fit(len);
                    let rb = b.allocate_best_fit(len);
                    assert_eq!(ra, rb, "best-fit diverged");
                    held.extend(ra);
                }
                2 => {
                    let ra = a.allocate_at(addr, len);
                    let rb = b.allocate_at(addr, len);
                    assert_eq!(ra, rb, "allocate_at({addr}, {len}) diverged");
                    held.extend(ra);
                }
                3 if !held.is_empty() => {
                    let e = held.swap_remove(addr as usize % held.len());
                    a.release(e);
                    b.release(e);
                }
                _ => {}
            }
            assert_eq!(a.free_units(), b.free_units(), "free_units diverged");
            assert_eq!(a.run_count(), b.run_count(), "run_count diverged");
            assert_eq!(a.largest_run(), b.largest_run(), "largest_run diverged");
            assert_eq!(
                a.runs().collect::<Vec<_>>(),
                b.runs().collect::<Vec<_>>(),
                "run lists diverged"
            );
        }
        a.check_invariants();
        b.check_invariants();
    }
}
