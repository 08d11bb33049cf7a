//! Engine hot-path microbenchmarks: the per-operation extent-map transfer
//! path (whose scratch-buffer reuse removed a Vec allocation per simulated
//! operation, and whose offset index keeps lookups in long maps short),
//! the striped array's request mapping, and the first-fit allocator's
//! early-exit on oversized requests.

use criterion::{criterion_group, criterion_main, Criterion};
use readopt_alloc::freespace::FreeSpaceMap;
use readopt_alloc::{Extent, FileMap, PolicyConfig};
use readopt_bench::bench_context;
use readopt_disk::geometry::KB;
use readopt_disk::{DiskGeometry, IoRequest, SimTime, Storage, StripedArray};
use readopt_workloads::WorkloadKind;
use std::hint::black_box;

fn bench_map_range(c: &mut Criterion) {
    // A deliberately fragmented 256-extent map, queried across extent
    // boundaries the way `Simulation::transfer` does per operation.
    let mut map = FileMap::new();
    for i in 0..256u64 {
        map.push(Extent::new(i * 37, 16));
    }
    let total = map.total_units();
    let mut group = c.benchmark_group("engine_hot_path");
    group.bench_function("map_range/alloc_per_call", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            let mut off = 0;
            while off < total {
                sum += map.map_range(off, 40).iter().map(|e| e.len).sum::<u64>();
                off += 40;
            }
            black_box(sum)
        })
    });
    group.bench_function("map_range/reused_scratch", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut sum = 0u64;
            let mut off = 0;
            while off < total {
                map.map_range_into(off, 40, &mut scratch);
                sum += scratch.iter().map(|e| e.len).sum::<u64>();
                off += 40;
            }
            black_box(sum)
        })
    });
    // A 16k-extent map (a badly fragmented large file), queried at offsets
    // spread over the whole file: each lookup lands deep in the map.
    let mut long = FileMap::new();
    for i in 0..16_384u64 {
        long.push(Extent::new(i * 37, 16));
    }
    let long_total = long.total_units();
    group.bench_function("map_range/long_map_spread_offsets", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut sum = 0u64;
            for k in 0..256u64 {
                let off = k * 7919 % long_total;
                long.map_range_into(off, 40, &mut scratch);
                sum += scratch.iter().map(|e| e.len).sum::<u64>();
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_striped_submit(c: &mut Criterion) {
    // The paper's array: 8 Wren IVs, 24 KB stripe unit, 1 KB disk unit.
    // A 4 MB read spans 171 stripe units, about 21 rows, mapped to one
    // run per disk.
    let array = StripedArray::new(DiskGeometry::wren_iv(), 8, 24 * KB, KB);
    let units = 4 * 1024;
    let mut group = c.benchmark_group("engine_hot_path");
    group.bench_function("striped_submit/4mb_read", |b| {
        b.iter(|| {
            let mut a = array.clone();
            let mut end = SimTime::ZERO;
            for k in 0..16u64 {
                end = a.submit(end, &IoRequest::read(k * 3 * units + 5, units)).end;
            }
            black_box(end)
        })
    });
    group.finish();
}

fn bench_first_fit_early_exit(c: &mut Criterion) {
    // A heavily fragmented free map: many small runs, nothing large. The
    // early-exit answers oversized requests from the by_len index instead
    // of scanning every run.
    let mut fragmented = FreeSpaceMap::new();
    for i in 0..4096u64 {
        fragmented.release(Extent::new(i * 8, 4));
    }
    let mut group = c.benchmark_group("first_fit");
    group.bench_function("oversized_request_misses", |b| {
        b.iter(|| {
            let mut m = fragmented.clone();
            for _ in 0..64 {
                black_box(m.allocate_first_fit(64));
            }
        })
    });
    group.bench_function("satisfiable_requests", |b| {
        b.iter(|| {
            let mut m = fragmented.clone();
            for _ in 0..64 {
                black_box(m.allocate_first_fit(4));
            }
        })
    });
    group.finish();
}

fn bench_application_slice(c: &mut Criterion) {
    // End-to-end guard: a short TS application run exercises transfer()'s
    // scratch path thousands of times.
    let ctx = bench_context();
    let mut group = c.benchmark_group("engine_hot_path");
    group.bench_function("ts_application_run", |b| {
        b.iter(|| {
            black_box(
                ctx.run_performance(WorkloadKind::Timesharing, PolicyConfig::paper_restricted()),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = readopt_bench::criterion();
    targets = bench_map_range, bench_striped_submit, bench_first_fit_early_exit, bench_application_slice
}
criterion_main!(benches);
