//! Per-file extent maps: the logical-to-physical translation layer.

use crate::types::Extent;
use serde::{de_field, Deserialize, Error, Serialize, Value};

/// Extents per entry of [`FileMap`]'s offset index: a lookup scans at most
/// this many extents before it reaches the requested offset.
pub const INDEX_STRIDE: usize = 32;

/// The ordered list of extents backing one file.
///
/// Extent `i` holds the file's logical units starting at the sum of the
/// lengths of extents `0..i`. Appends that are physically adjacent to the
/// tail extent are merged, so a perfectly sequential allocation shows up as
/// a single extent regardless of how many allocation calls produced it.
///
/// A strided index keeps range lookups independent of the map's length:
/// `marks[j]` is the logical start of extent `(j + 1) * INDEX_STRIDE`. A
/// map of at most `INDEX_STRIDE` extents has no index, and pays one null
/// pointer for it: most files are short, and there is one map per file.
/// The index is derived from the extents, so it is never serialized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileMap {
    extents: Vec<Extent>,
    total: u64,
    /// `Some` exactly when the map holds more than `INDEX_STRIDE` extents.
    marks: Option<Box<Vec<u64>>>,
}

impl FileMap {
    /// An empty map.
    pub fn new() -> Self {
        FileMap::default()
    }

    /// Total allocated units.
    pub fn total_units(&self) -> u64 {
        self.total
    }

    /// Number of (merged) extents.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// The extents in logical order.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// Physical address of the unit immediately after the file's last
    /// allocated unit — where a contiguity-seeking allocator would like the
    /// next block to land. `None` for an empty file.
    pub fn next_sequential_unit(&self) -> Option<u64> {
        self.extents.last().map(Extent::end)
    }

    /// Appends an extent, merging with the tail when physically adjacent.
    pub fn push(&mut self, e: Extent) {
        debug_assert!(e.len > 0);
        if let Some(last) = self.extents.last_mut() {
            if last.abuts(&e) {
                last.len += e.len;
                self.total += e.len;
                return;
            }
        }
        self.append(e);
    }

    /// Appends `e` as a new extent, indexing it when it opens a stride.
    fn append(&mut self, e: Extent) {
        let index = self.extents.len();
        if index > 0 && index.is_multiple_of(INDEX_STRIDE) {
            self.marks.get_or_insert_with(Box::default).push(self.total);
        }
        self.extents.push(e);
        self.total += e.len;
    }

    /// Removes `units` from the end of the file, returning the freed
    /// physical runs (tail first). Removes at most the whole file.
    pub fn pop_back(&mut self, units: u64) -> Vec<Extent> {
        let mut remaining = units.min(self.total);
        let mut freed = Vec::new();
        while remaining > 0 {
            // `total > 0` implies extents exist; if the two ever disagreed,
            // stopping early loses nothing (the freed list is still exact).
            let Some(last) = self.extents.last_mut() else {
                debug_assert!(false, "total > 0 with no extents");
                break;
            };
            if last.len <= remaining {
                remaining -= last.len;
                self.total -= last.len;
                freed.push(*last);
                self.extents.pop();
            } else {
                last.len -= remaining;
                self.total -= remaining;
                freed.push(Extent::new(last.end(), remaining));
                remaining = 0;
            }
        }
        // Drop the index entries of the extents popped: a map of `n`
        // extents indexes `(n - 1) / INDEX_STRIDE` of them.
        let keep = self.extents.len().saturating_sub(1) / INDEX_STRIDE;
        match &mut self.marks {
            Some(marks) if keep > 0 => marks.truncate(keep),
            _ => self.marks = None,
        }
        freed
    }

    /// Empties the map, keeping its storage for the next pushes.
    pub fn clear(&mut self) {
        self.total = 0;
        self.extents.clear();
        self.marks = None;
    }

    /// Removes and returns every extent, emptying the map.
    pub fn take_all(&mut self) -> Vec<Extent> {
        self.total = 0;
        self.marks = None;
        std::mem::take(&mut self.extents)
    }

    /// Maps the logical range `[offset, offset + len)` (in units) to
    /// physical runs, in logical order. The range is clamped to the
    /// allocated size.
    pub fn map_range(&self, offset: u64, len: u64) -> Vec<Extent> {
        let mut out = Vec::new();
        self.map_range_into(offset, len, &mut out);
        out
    }

    /// As [`map_range`], writing the runs into `out` (cleared first). Lets
    /// the simulator's per-operation hot path reuse one scratch buffer
    /// instead of allocating a fresh `Vec` for every transfer.
    pub fn map_range_into(&self, offset: u64, len: u64, out: &mut Vec<Extent>) {
        out.clear();
        let end = (offset + len).min(self.total);
        if offset >= end {
            return;
        }
        // Start at the last indexed extent that begins at or before
        // `offset`; at most one stride lies between it and the range.
        let marks = self.marks.as_deref().map_or(&[][..], Vec::as_slice);
        let stride = marks.partition_point(|&m| m <= offset);
        let mut logical = if stride == 0 { 0 } else { marks[stride - 1] };
        for e in &self.extents[stride * INDEX_STRIDE..] {
            let e_end = logical + e.len;
            if e_end > offset && logical < end {
                let lo = offset.max(logical);
                let hi = end.min(e_end);
                out.push(Extent::new(e.start + (lo - logical), hi - lo));
            }
            logical = e_end;
            if logical >= end {
                break;
            }
        }
    }
}

impl Serialize for FileMap {
    fn to_value(&self) -> Value {
        // The offset index is derived data: serialize only the extents.
        Value::Object(vec![
            ("extents".to_string(), self.extents.to_value()),
            ("total".to_string(), self.total.to_value()),
        ])
    }
}

impl Deserialize for FileMap {
    /// Rebuilds the offset index, rejecting a snapshot whose `total`
    /// disagrees with the sum of its extent lengths.
    fn from_value(v: &Value) -> Result<Self, Error> {
        let extents: Vec<Extent> = de_field(v, "extents")?;
        let total: u64 = de_field(v, "total")?;
        let sum = extents.iter().try_fold(0u64, |acc, e| acc.checked_add(e.len));
        if sum != Some(total) {
            return Err(Error::msg(format!(
                "corrupt FileMap snapshot: total {total} but extents sum to {sum:?}"
            )));
        }
        let mut map = FileMap { extents: Vec::with_capacity(extents.len()), ..FileMap::default() };
        for e in extents {
            map.append(e);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_merges_adjacent() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4));
        m.push(Extent::new(4, 4));
        m.push(Extent::new(100, 8));
        assert_eq!(m.extent_count(), 2);
        assert_eq!(m.total_units(), 16);
        assert_eq!(m.extents()[0], Extent::new(0, 8));
    }

    #[test]
    fn next_sequential_tracks_tail() {
        let mut m = FileMap::new();
        assert_eq!(m.next_sequential_unit(), None);
        m.push(Extent::new(10, 6));
        assert_eq!(m.next_sequential_unit(), Some(16));
    }

    #[test]
    fn pop_back_splits_extents() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 8));
        m.push(Extent::new(100, 8));
        let freed = m.pop_back(10);
        assert_eq!(freed, vec![Extent::new(100, 8), Extent::new(6, 2)]);
        assert_eq!(m.total_units(), 6);
        assert_eq!(m.extents(), &[Extent::new(0, 6)]);
    }

    #[test]
    fn pop_back_clamps_to_size() {
        let mut m = FileMap::new();
        m.push(Extent::new(5, 3));
        let freed = m.pop_back(100);
        assert_eq!(freed, vec![Extent::new(5, 3)]);
        assert_eq!(m.total_units(), 0);
        assert_eq!(m.extent_count(), 0);
    }

    #[test]
    fn take_all_empties() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 2));
        m.push(Extent::new(9, 2));
        let all = m.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(m.total_units(), 0);
    }

    #[test]
    fn map_range_spans_extents() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4)); // logical 0..4
        m.push(Extent::new(10, 4)); // logical 4..8
        m.push(Extent::new(20, 4)); // logical 8..12
        assert_eq!(m.map_range(2, 8), vec![
            Extent::new(2, 2),
            Extent::new(10, 4),
            Extent::new(20, 2),
        ]);
    }

    #[test]
    fn map_range_clamps_and_handles_empty() {
        let mut m = FileMap::new();
        m.push(Extent::new(0, 4));
        assert_eq!(m.map_range(3, 100), vec![Extent::new(3, 1)]);
        assert!(m.map_range(4, 1).is_empty());
        assert!(m.map_range(0, 0).is_empty());
    }

    #[test]
    fn map_range_whole_file() {
        let mut m = FileMap::new();
        m.push(Extent::new(7, 5));
        m.push(Extent::new(50, 5));
        let runs = m.map_range(0, m.total_units());
        assert_eq!(runs.iter().map(|e| e.len).sum::<u64>(), 10);
    }
}
