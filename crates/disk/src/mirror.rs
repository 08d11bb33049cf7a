//! Mirrored configuration: "all data is stored on two identical disks"
//! (§2.1). Data is striped across disk *pairs*; every write goes to both
//! replicas, every read is served by whichever replica can finish it first
//! (shortest completion time given queue backlog and head position).

use crate::array::StripeRuns;
use crate::disk::Disk;
use crate::geometry::DiskGeometry;
use crate::request::{IoKind, IoRequest, IoSpan, Storage};
use crate::stats::StorageStats;
use crate::time::SimTime;

/// A striped array of mirrored disk pairs.
///
/// Pair `i` consists of physical disks `2i` (primary) and `2i + 1` (mirror).
/// Usable capacity is half the raw capacity.
#[derive(Debug, Clone)]
pub struct MirroredArray {
    disks: Vec<Disk>,
    stripe_unit_bytes: u64,
    disk_unit_bytes: u64,
    stats: StorageStats,
}

impl MirroredArray {
    /// Builds a mirrored array; `ndisks` must be even and ≥ 2.
    pub fn new(geom: DiskGeometry, ndisks: usize, stripe_unit_bytes: u64, disk_unit_bytes: u64) -> Self {
        assert!(ndisks >= 2 && ndisks.is_multiple_of(2), "mirroring requires an even disk count");
        assert!(disk_unit_bytes > 0 && disk_unit_bytes.is_multiple_of(geom.sector_bytes),
            "disk unit must be a positive multiple of the sector size");
        assert!(stripe_unit_bytes > 0 && stripe_unit_bytes.is_multiple_of(disk_unit_bytes),
            "stripe unit must be a positive multiple of the disk unit");
        assert!(geom.capacity_bytes().is_multiple_of(stripe_unit_bytes),
            "disk capacity must be a whole number of stripe units");
        MirroredArray {
            disks: (0..ndisks).map(|_| Disk::new(geom)).collect(),
            stripe_unit_bytes,
            disk_unit_bytes,
            stats: StorageStats::new(ndisks),
        }
    }

    /// Number of mirrored pairs (the striping width).
    pub fn pairs(&self) -> usize {
        self.disks.len() / 2
    }

}

impl Storage for MirroredArray {
    fn disk_unit_bytes(&self) -> u64 {
        self.disk_unit_bytes
    }

    fn capacity_units(&self) -> u64 {
        self.pairs() as u64 * self.disks[0].geometry().capacity_bytes() / self.disk_unit_bytes
    }

    fn ndisks(&self) -> usize {
        self.disks.len()
    }

    fn submit(&mut self, ready: SimTime, req: &IoRequest) -> IoSpan {
        debug_assert!(req.units > 0 && req.end() <= self.capacity_units());
        let bytes = req.units * self.disk_unit_bytes;
        match req.kind {
            IoKind::Read => {
                self.stats.logical_reads += 1;
                self.stats.logical_bytes_read += bytes;
            }
            IoKind::Write => {
                self.stats.logical_writes += 1;
                self.stats.logical_bytes_written += bytes;
            }
        }
        let start = req.unit * self.disk_unit_bytes;
        let len = req.units * self.disk_unit_bytes;
        let mut begin = SimTime::MAX;
        let mut end = ready;
        for run in StripeRuns::new(start, len, self.stripe_unit_bytes, self.pairs()) {
            let (a, b) = (2 * run.disk, 2 * run.disk + 1);
            let sector = run.start_byte / self.disks[a].geometry().sector_bytes;
            let nsectors = run.len / self.disks[a].geometry().sector_bytes;
            match req.kind {
                IoKind::Write => {
                    // Both replicas must be updated; the write completes when
                    // the slower copy lands.
                    begin = begin
                        .min(self.disks[a].free_at().max(ready))
                        .min(self.disks[b].free_at().max(ready));
                    let ea = self.disks[a].service(ready, sector, nsectors, IoKind::Write);
                    let eb = self.disks[b].service(ready, sector, nsectors, IoKind::Write);
                    end = end.max(ea.max(eb));
                }
                IoKind::Read => {
                    // Serve from the replica that finishes first.
                    let (est_a, _) = self.disks[a].estimate(ready, sector, nsectors);
                    let (est_b, _) = self.disks[b].estimate(ready, sector, nsectors);
                    let pick = if est_a <= est_b { a } else { b };
                    begin = begin.min(self.disks[pick].free_at().max(ready));
                    let completion = self.disks[pick].service(ready, sector, nsectors, IoKind::Read);
                    end = end.max(completion);
                }
            }
        }
        IoSpan { begin: begin.min(end), end }
    }

    fn next_idle(&self) -> SimTime {
        self.disks.iter().map(Disk::free_at).max().unwrap_or(SimTime::ZERO)
    }

    fn stats(&self) -> StorageStats {
        let mut snap = self.stats.clone();
        for (i, d) in self.disks.iter().enumerate() {
            snap.per_disk[i] = d.stats().clone();
        }
        snap
    }

    fn reset_stats(&mut self) {
        for d in &mut self.disks {
            d.reset_stats();
        }
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::KB;

    fn mirror() -> MirroredArray {
        MirroredArray::new(DiskGeometry::wren_iv(), 8, 24 * KB, KB)
    }

    #[test]
    fn capacity_is_half_of_raw() {
        let m = mirror();
        assert_eq!(m.capacity_bytes(), 4 * DiskGeometry::wren_iv().capacity_bytes());
    }

    #[test]
    fn writes_hit_both_replicas() {
        let mut m = mirror();
        m.submit(SimTime::ZERO, &IoRequest::write(0, 8));
        assert_eq!(m.stats().per_disk[0].bytes_written, 8 * KB);
        assert_eq!(m.stats().per_disk[1].bytes_written, 8 * KB);
        assert!((m.stats().write_amplification() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reads_hit_one_replica() {
        let mut m = mirror();
        m.submit(SimTime::ZERO, &IoRequest::read(0, 8));
        let touched = m.stats().per_disk[..2].iter().filter(|d| d.bytes_read > 0).count();
        assert_eq!(touched, 1);
    }

    #[test]
    fn read_prefers_idle_replica() {
        let mut m = mirror();
        // Load replica 0 of pair 0 with a long write queue by writing, then
        // immediately read: the read should land on whichever replica is
        // free sooner — after a mirrored write both are equally busy, so
        // issue an extra read (goes to one) and then another read, which
        // must go to the *other* one.
        m.submit(SimTime::ZERO, &IoRequest::read(0, 24)); // occupies one replica
        m.submit(SimTime::ZERO, &IoRequest::read(0, 24)); // should pick the other
        let reads0 = m.stats().per_disk[0].bytes_read;
        let reads1 = m.stats().per_disk[1].bytes_read;
        assert!(reads0 > 0 && reads1 > 0, "load spreads across replicas: {reads0} vs {reads1}");
    }

    #[test]
    #[should_panic(expected = "even disk count")]
    fn rejects_odd_disk_count() {
        MirroredArray::new(DiskGeometry::wren_iv(), 7, 24 * KB, KB);
    }
}
