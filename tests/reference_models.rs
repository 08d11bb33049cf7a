//! Differential tests of the low-level data structures against naive
//! reference implementations.

use proptest::prelude::*;
use readopt::alloc::filemap::{FileMap, INDEX_STRIDE};
use readopt::alloc::freespace::FreeSpaceMap;
use readopt::alloc::types::Extent;

/// Naive free-space model: one bool per unit.
#[derive(Debug)]
struct NaiveSpace {
    free: Vec<bool>,
}

impl NaiveSpace {
    fn new(capacity: usize) -> Self {
        NaiveSpace { free: vec![true; capacity] }
    }

    fn free_units(&self) -> u64 {
        self.free.iter().filter(|&&b| b).count() as u64
    }

    /// First-fit over the bitmap.
    fn first_fit(&mut self, len: usize) -> Option<u64> {
        let mut run = 0;
        for i in 0..self.free.len() {
            if self.free[i] {
                run += 1;
                if run == len {
                    let start = i + 1 - len;
                    for b in &mut self.free[start..=i] {
                        *b = false;
                    }
                    return Some(start as u64);
                }
            } else {
                run = 0;
            }
        }
        None
    }

    fn release(&mut self, start: u64, len: u64) {
        for i in start..start + len {
            assert!(!self.free[i as usize], "naive double free");
            self.free[i as usize] = true;
        }
    }

    fn largest_run(&self) -> u64 {
        let mut best = 0;
        let mut run = 0;
        for &b in &self.free {
            if b {
                run += 1;
                best = best.max(run);
            } else {
                run = 0;
            }
        }
        best
    }
}

/// Reference range mapping: a linear scan from the first extent.
fn linear_map_range(extents: &[Extent], total: u64, offset: u64, len: u64) -> Vec<Extent> {
    let mut out = Vec::new();
    let end = (offset + len).min(total);
    let mut logical = 0u64;
    for e in extents {
        let e_end = logical + e.len;
        let (lo, hi) = (offset.max(logical), end.min(e_end));
        if lo < hi {
            out.push(Extent::new(e.start + (lo - logical), hi - lo));
        }
        logical = e_end;
    }
    out
}

/// A map of `n` extents that never merge.
fn fragmented_map(n: u64) -> FileMap {
    let mut m = FileMap::new();
    for i in 0..n {
        m.push(Extent::new(i * 40, 1 + i % 17));
    }
    m
}

/// The serialized form is the one the derived impl produced: exactly the
/// extents and the total. Loading rebuilds the offset index.
#[test]
fn filemap_serde_keeps_its_format_and_rebuilds_the_index() {
    #[derive(serde::Serialize)]
    struct Legacy {
        extents: Vec<Extent>,
        total: u64,
    }
    for n in [0u64, 1, INDEX_STRIDE as u64, INDEX_STRIDE as u64 + 1, 10 * INDEX_STRIDE as u64 + 7] {
        let m = fragmented_map(n);
        let legacy = Legacy { extents: m.extents().to_vec(), total: m.total_units() };
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, serde_json::to_string(&legacy).unwrap(), "format of a {n}-extent map");
        let back: FileMap = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m, "a {n}-extent map round-trips with its index");
        let total = m.total_units();
        for offset in (0..total + 2).step_by(7) {
            assert_eq!(back.map_range(offset, 9), linear_map_range(m.extents(), total, offset, 9));
        }
    }
}

/// A snapshot whose `total` disagrees with its extents is refused.
#[test]
fn filemap_snapshot_with_wrong_total_is_rejected() {
    let m = fragmented_map(3 * INDEX_STRIDE as u64);
    let json = serde_json::to_string(&m).unwrap();
    let total = m.total_units();
    for wrong in [total - 1, total + 1, 0] {
        let corrupt = json.replace(&format!("\"total\":{total}"), &format!("\"total\":{wrong}"));
        assert_ne!(corrupt, json);
        let err = serde_json::from_str::<FileMap>(&corrupt).unwrap_err().to_string();
        assert!(err.contains("corrupt FileMap snapshot"), "{err}");
    }
    let missing = json.replace(&format!(",\"total\":{total}"), "");
    assert!(serde_json::from_str::<FileMap>(&missing).is_err(), "a snapshot without a total");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// First-fit allocation over the coalescing map returns exactly what a
    /// unit-granular bitmap scan would, through arbitrary alloc/free mixes.
    #[test]
    fn freespace_first_fit_matches_bitmap_scan(
        steps in proptest::collection::vec((1u64..64, any::<bool>()), 1..100),
    ) {
        const CAP: u64 = 2048;
        let mut fast = FreeSpaceMap::with_capacity(CAP);
        let mut naive = NaiveSpace::new(CAP as usize);
        let mut held: Vec<Extent> = Vec::new();
        for (len, do_free) in steps {
            if do_free && !held.is_empty() {
                let e = held.remove(held.len() / 2);
                fast.release(e);
                naive.release(e.start, e.len);
            } else {
                let a = fast.allocate_first_fit(len);
                let b = naive.first_fit(len as usize);
                prop_assert_eq!(a.map(|e| e.start), b, "first-fit position diverged");
                if let Some(e) = a {
                    held.push(e);
                }
            }
            prop_assert_eq!(fast.free_units(), naive.free_units());
            prop_assert_eq!(fast.largest_run(), naive.largest_run());
            fast.check_invariants();
        }
    }

    /// `FileMap::map_range` agrees with a unit-by-unit translation table,
    /// on maps long enough to cross many index strides.
    #[test]
    fn filemap_map_range_matches_unit_table(
        extents in proptest::collection::vec((0u64..10_000, 1u64..50), 1..8 * INDEX_STRIDE),
        offset_permille in 0u64..1001,
        len in 1u64..600,
    ) {
        // Make the extents disjoint by spacing them out deterministically.
        let mut m = FileMap::new();
        let mut table: Vec<u64> = Vec::new(); // logical unit -> physical unit
        let mut base = 0;
        for (gap, elen) in extents {
            let start = base + gap + 1; // ≥1 gap so pushes may or may not merge
            m.push(Extent::new(start, elen));
            for k in 0..elen {
                table.push(start + k);
            }
            base = start + elen;
        }
        // Offsets spread over the whole file, plus a little past its end.
        let offset = table.len() as u64 * offset_permille / 1000 + offset_permille % 3;
        let runs = m.map_range(offset, len);
        // Reassemble the runs into a flat physical-unit list.
        let mut got: Vec<u64> = Vec::new();
        for r in &runs {
            for k in 0..r.len {
                got.push(r.start + k);
            }
        }
        let end = ((offset + len) as usize).min(table.len());
        let want: Vec<u64> = if (offset as usize) < table.len() {
            table[offset as usize..end].to_vec()
        } else {
            Vec::new()
        };
        prop_assert_eq!(got, want);
        // Runs must be maximal (no two adjacent runs physically contiguous).
        for w in runs.windows(2) {
            prop_assert!(w[0].end() != w[1].start, "non-maximal run split");
        }
    }

    /// The offset index stays exact through any interleaving of merging
    /// and non-merging pushes, whole and partial `pop_back`s (including
    /// pops that land exactly on a stride boundary), `clear` and
    /// `take_all`: after every step, `map_range_into` agrees with a linear
    /// scan of the extents.
    #[test]
    fn filemap_index_matches_linear_scan_through_edits(
        steps in proptest::collection::vec((0u32..1000, 0u64..1_000_000, 1u64..40), 100..800),
        probes in proptest::collection::vec((0u64..1001, 1u64..400), 1..8),
    ) {
        // Pushes outweigh pops so maps grow across several strides.
        let mut m = FileMap::new();
        let mut out = Vec::new();
        for (op, a, b) in steps {
            match op {
                // Non-merging push: leave a gap after the tail.
                0..=699 => {
                    let start = m.next_sequential_unit().unwrap_or(0) + 1 + a % 5;
                    m.push(Extent::new(start, b));
                }
                // Merging push: continue the tail extent.
                700..=899 => {
                    let start = m.next_sequential_unit().unwrap_or(a);
                    m.push(Extent::new(start, b));
                }
                // Pop a few units, splitting or removing tail extents.
                900..=949 => {
                    let freed = m.pop_back(a % 30);
                    prop_assert!(freed.iter().all(|e| e.len > 0));
                }
                // Pop whole extents down to the last stride boundary, or
                // one extent either side of it; half the time also cut
                // into the new tail extent.
                950..=997 => {
                    let n = m.extent_count();
                    let boundary = n / INDEX_STRIDE * INDEX_STRIDE;
                    let target = (boundary + (a as usize % 3)).saturating_sub(1).min(n);
                    let drop: u64 = m.extents()[target..].iter().map(|e| e.len).sum();
                    let cut = match (b % 2, target.checked_sub(1)) {
                        (1, Some(i)) => m.extents()[i].len - 1,
                        _ => 0,
                    };
                    m.pop_back(drop + cut);
                    prop_assert_eq!(m.extent_count(), target);
                }
                998 => m.clear(),
                _ => {
                    let all = m.take_all();
                    prop_assert!(all.iter().all(|e| e.len > 0));
                }
            }
            let total = m.total_units();
            prop_assert_eq!(total, m.extents().iter().map(|e| e.len).sum::<u64>());
            // The edited map equals one built afresh from its extents, so
            // no stale index entry survives an edit (extents never abut,
            // so the fresh pushes do not merge).
            let mut fresh = FileMap::new();
            for e in m.extents() {
                fresh.push(*e);
            }
            prop_assert_eq!(&fresh, &m);
            for &(permille, len) in &probes {
                let offset = total * permille / 1000;
                m.map_range_into(offset, len, &mut out);
                prop_assert_eq!(&out, &linear_map_range(m.extents(), total, offset, len));
            }
            // Probe every stride boundary, one unit either side.
            for j in 1..=m.extent_count() / INDEX_STRIDE {
                let at: u64 = m.extents()[..j * INDEX_STRIDE].iter().map(|e| e.len).sum();
                for offset in [at.saturating_sub(1), at, at + 1] {
                    m.map_range_into(offset, 3, &mut out);
                    prop_assert_eq!(&out, &linear_map_range(m.extents(), total, offset, 3));
                }
            }
        }
    }

    /// pop_back is the exact inverse of the tail of the map.
    #[test]
    fn filemap_pop_back_inverts_push(
        lens in proptest::collection::vec(1u64..40, 1..15),
        take in 1u64..300,
    ) {
        let mut m = FileMap::new();
        let mut base = 0;
        for len in &lens {
            m.push(Extent::new(base, *len));
            base += len + 7; // never adjacent
        }
        let total = m.total_units();
        let freed = m.pop_back(take);
        let freed_units: u64 = freed.iter().map(|e| e.len).sum();
        prop_assert_eq!(freed_units, take.min(total));
        prop_assert_eq!(m.total_units(), total - freed_units);
        // What remains plus what was freed is exactly the original layout.
        let mut all: Vec<Extent> = m.extents().to_vec();
        all.extend(freed.iter().rev().cloned());
        let mut reassembled = FileMap::new();
        for e in all {
            reassembled.push(e);
        }
        prop_assert_eq!(reassembled.total_units(), total);
    }
}
