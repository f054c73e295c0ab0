//! Layer drivers: small loops that call one layer's public functions
//! directly and time them per call.
//!
//! Each driver runs [`BATCHES`] timed batches after one untimed warm-up
//! batch and reports the median per-call time and its spread (the
//! interquartile range over the median). Sizes follow the workloads:
//! the host swap cycle uses `anon-swap`'s 4:1 overcommit, and the
//! virtual-disk requests use `file-mapper`'s request sizes.

use crate::workload::{GRANT_MB, GUEST_MB};
use sim_core::{DeterministicRng, SimDuration, SimTime};
use sim_obs::{Event, EventLog};
use std::hint::black_box;
use std::time::Instant;
use vswap_disk::{DiskModel, DiskSpec, IoKind, IoTag, SectorRange, PAGE_SECTORS};
use vswap_guestos::{GuestCtx, GuestKernel, GuestSpec, MockHardware};
use vswap_hostos::{HostKernel, HostSpec, VmMmConfig};
use vswap_mem::{Backing, Ept, FrameId, FrameOwner, Gfn, HostFrameTable, IndexList, VmId};

/// Timed batches per driver (odd, so the median is one batch).
pub const BATCHES: usize = 15;

/// `file-mapper`'s mean virtual-disk read, in pages: a guest swap-in of
/// one page plus about one page of guest swap readahead (506,790 mapped
/// reads carry 503,878 swap-ins and 392,838 readahead pages).
pub const VDISK_READ_PAGES: usize = 2;

/// `file-mapper`'s virtual-disk write, in pages: one guest swap-out
/// (559,202 mapped writes for 555,174 guest swap-outs).
pub const VDISK_WRITE_PAGES: usize = 1;

/// Pages a host swap-cycle VM believes it has; it gets a quarter of
/// them, as the `anon-swap` guest does.
const CYCLE_GFNS: u64 = 16_384;

/// One driver's result.
#[derive(Debug, Clone)]
pub struct DriverResult {
    /// Metric name of the per-call median.
    pub name: &'static str,
    /// Median host nanoseconds per call.
    pub median_ns: f64,
    /// Interquartile range of the per-batch figures over their median.
    pub spread: f64,
}

/// Median and quartiles of `v` (sorted in place), linear interpolation.
pub fn quartiles(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = (v.len() - 1) as f64 * q;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Times `calls` invocations of `f` per batch.
fn measure(name: &'static str, calls: u64, mut f: impl FnMut(u64)) -> DriverResult {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for batch in 0..=BATCHES {
        let t = Instant::now();
        for _ in 0..calls {
            f(i);
            i += 1;
        }
        if batch > 0 {
            per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
    }
    let (q1, median, q3) = quartiles(&mut per_call);
    DriverResult { name, median_ns: median, spread: (q3 - q1) / median }
}

/// Runs every driver, seeded by `seed`.
pub fn run_all(seed: u64) -> Vec<DriverResult> {
    let mut out = Vec::new();
    out.extend(disk_drivers(seed));
    out.extend(host_drivers(seed));
    out.extend(guest_drivers(seed));
    out.extend(obs_drivers());
    out.extend(mem_drivers(seed));
    out
}

fn disk_drivers(seed: u64) -> Vec<DriverResult> {
    let mut rng = DeterministicRng::seed_from(seed);
    let span_pages = HostSpec::paper_testbed().swap_pages;
    let page = |p: u64| SectorRange::new(p * PAGE_SECTORS, PAGE_SECTORS);

    let mut hdd = DiskModel::new(DiskSpec::hdd_7200());
    let mut now = SimTime::ZERO;
    let seq = measure("disk.submit_ns.hdd_seq", 20_000, |i| {
        let done = hdd.submit(now, IoKind::Write, page(i % span_pages), IoTag::HostSwap);
        now = done.expect("no fault plan is installed").finished;
    });

    let targets: Vec<u64> = (0..4096).map(|_| rng.next_u64() % span_pages).collect();
    let mut hdd = DiskModel::new(DiskSpec::hdd_7200());
    let mut now = SimTime::ZERO;
    let scattered = measure("disk.submit_ns.hdd_scattered", 20_000, |i| {
        let target = targets[(i % 4096) as usize];
        let done = hdd.submit(now, IoKind::Read, page(target), IoTag::HostSwap);
        now = done.expect("no fault plan is installed").finished;
    });

    let mut nvme = DiskModel::with_queue_depth(DiskSpec::nvme(), 32);
    let mut now = SimTime::ZERO;
    let nvme_qd32 = measure("disk.submit_ns.nvme_qd32", 20_000, |i| {
        let target = targets[(i % 4096) as usize];
        let done = nvme.submit(now, IoKind::Read, page(target), IoTag::GuestImage);
        black_box(done.expect("no fault plan is installed"));
        // Submit faster than one completion per request so the 32-deep
        // rings stay busy.
        now += SimDuration::from_micros(1);
    });
    vec![seq, scattered, nvme_qd32]
}

/// Image size of every host-driver VM: 1 GiB.
const IMAGE_PAGES: u64 = 262_144;

fn host_with_vm(gfns: u64, limit: u64, mapper: bool) -> (HostKernel, VmId) {
    let mut host = HostKernel::new(HostSpec::paper_testbed()).expect("the testbed spec is valid");
    let vm = host
        .create_vm(VmMmConfig {
            gfn_count: gfns,
            image_pages: IMAGE_PAGES,
            mem_limit_pages: limit,
            mapper_enabled: mapper,
        })
        .expect("a 1 GiB image fits the testbed disk");
    (host, vm)
}

/// A VM granted a quarter of its `CYCLE_GFNS` pages, every page written
/// once, so further accesses cycle pages through reclaim.
fn overcommitted_vm(mapper: bool) -> (HostKernel, VmId, SimTime) {
    let (mut host, vm) = host_with_vm(CYCLE_GFNS, CYCLE_GFNS * GRANT_MB / GUEST_MB, mapper);
    let mut now = SimTime::ZERO;
    for g in 0..CYCLE_GFNS {
        now += host.guest_access(now, vm, Gfn::new(g), true).latency;
    }
    (host, vm, now)
}

fn host_drivers(seed: u64) -> Vec<DriverResult> {
    let (mut host, vm) = host_with_vm(4096, 4096, false);
    let mut now = SimTime::ZERO;
    for g in 0..4096 {
        now += host.guest_access(now, vm, Gfn::new(g), true).latency;
    }
    let resident = measure("host.guest_access_ns.resident", 50_000, |i| {
        now += host.guest_access(now, vm, Gfn::new(i % 4096), false).latency;
    });

    let zero_gfns = 1 << 20;
    let (mut host, vm) = host_with_vm(zero_gfns, zero_gfns, false);
    let mut now = SimTime::ZERO;
    let zero_fill = measure("host.guest_access_ns.zero_fill", 20_000, |i| {
        now += host.guest_access(now, vm, Gfn::new(i % zero_gfns), true).latency;
    });

    // Random image pages, each read into the next gfns in turn, in
    // fixed-size arrays that keep the allocator out of the timed calls.
    let mut rng = DeterministicRng::seed_from(seed ^ 0x6057);
    let images: Vec<u64> =
        (0..4096).map(|_| rng.next_u64() % (IMAGE_PAGES - VDISK_READ_PAGES as u64)).collect();
    let read_request = |i: u64| -> (u64, [Gfn; VDISK_READ_PAGES]) {
        let first = i * VDISK_READ_PAGES as u64;
        let dest = std::array::from_fn(|k| Gfn::new((first + k as u64) % CYCLE_GFNS));
        (images[(i % 4096) as usize], dest)
    };

    let (mut host, vm, mut now) = overcommitted_vm(false);
    let swap_cycle = measure("host.guest_access_ns.swap_cycle", 5_000, |i| {
        now += host.guest_access(now, vm, Gfn::new(i % CYCLE_GFNS), true).latency;
    });
    let read_unmapped = measure("host.virt_disk_read_ns.unmapped", 5_000, |i| {
        let (image, dest) = read_request(i);
        now += host.virt_disk_read(now, vm, image, &dest);
    });

    let (mut host, vm, mut now) = overcommitted_vm(true);
    let read = measure("host.virt_disk_read_ns", 5_000, |i| {
        let (image, dest) = read_request(i);
        now += host.virt_disk_read_mapped(now, vm, image, &dest);
    });
    let write = measure("host.virt_disk_write_ns", 5_000, |i| {
        let src: [Gfn; VDISK_WRITE_PAGES] =
            std::array::from_fn(|k| Gfn::new((i * 7 + k as u64) % CYCLE_GFNS));
        now += host.virt_disk_write(now, vm, &src, images[(i % 4096) as usize], true);
    });
    vec![resident, zero_fill, swap_cycle, read_unmapped, read, write]
}

fn guest_drivers(seed: u64) -> Vec<DriverResult> {
    let spec = GuestSpec::small_test();
    let mem_pages = spec.memory.pages();
    let mut guest = GuestKernel::new(spec.clone(), seed);
    let mut hw = MockHardware::new(spec.disk.pages());
    guest.boot(&mut hw).expect("the test guest boots");
    let (file, proc, vpn) = {
        let mut ctx = GuestCtx::new(&mut guest, &mut hw);
        let file = ctx.create_file(4 * mem_pages).expect("the file fits the test disk");
        let proc = ctx.spawn_process();
        let vpn = ctx.alloc_anon(proc, mem_pages / 2).expect("half of memory is free");
        (file, proc, vpn)
    };
    // A file four times the guest's memory, read page by page: cache
    // hits on readahead, misses, and guest reclaim in steady state.
    let read_file = measure("guest.read_file_ns", 20_000, |i| {
        let mut ctx = GuestCtx::new(&mut guest, &mut hw);
        ctx.read_file(file, i % (4 * mem_pages), 1).expect("reads stay inside the file");
    });
    let touch_anon = measure("guest.touch_anon_ns", 50_000, |i| {
        let mut ctx = GuestCtx::new(&mut guest, &mut hw);
        let page = vswap_mem::Vpn::new(vpn.get() + i % (mem_pages / 2));
        ctx.touch_anon(proc, page, true).expect("the page is mapped");
    });
    vec![read_file, touch_anon]
}

fn obs_drivers() -> Vec<DriverResult> {
    let ring = EventLog::bounded(1 << 14);
    let on = measure("obs.emit_ns.ring", 200_000, |i| {
        black_box(&ring).emit(
            SimTime::from_nanos(i),
            Some(0),
            Event::SwapIn { gfn: i, readahead: 7 },
        );
    });
    let disabled = EventLog::disabled();
    let off = measure("obs.emit_ns.disabled", 200_000, |i| {
        black_box(&disabled).emit(
            SimTime::from_nanos(i),
            Some(0),
            Event::SwapIn { gfn: i, readahead: 7 },
        );
    });
    black_box((ring.emitted(), disabled.emitted()));
    vec![on, off]
}

fn mem_drivers(seed: u64) -> Vec<DriverResult> {
    const FRAMES: u64 = 262_144;
    let owner = FrameOwner::Guest { vm: VmId::new(0), gfn: Gfn::new(0) };
    let mut table = HostFrameTable::new(FRAMES);
    for _ in 0..FRAMES / 2 {
        table.alloc(owner).expect("the table has room");
    }
    let alloc = measure("mem.frame_alloc_ns", 200_000, |_| {
        let f = table.alloc(owner).expect("half the table is free");
        table.set_accessed(f, true);
        table.free(black_box(f));
    });

    let n = 65_536usize;
    let mut lru = IndexList::with_capacity(n);
    for i in 0..n {
        lru.push_back(i);
    }
    let mut rng = DeterministicRng::seed_from(seed ^ 0x1f0);
    let order: Vec<usize> = (0..4096).map(|_| (rng.next_u64() % n as u64) as usize).collect();
    let requeue = measure("mem.lru_requeue_ns", 200_000, |i| {
        lru.move_to_back(order[(i % 4096) as usize]);
        black_box(lru.front());
    });

    let gfns = 1 << 17;
    let mut ept = Ept::new(gfns);
    let map_unmap = measure("mem.ept_map_unmap_ns", 200_000, |i| {
        let gfn = Gfn::new((i * 7919) % gfns);
        ept.map(gfn, FrameId::new((i % FRAMES) as u32));
        black_box(ept.unmap(gfn, Backing::SwapSlot(i)));
    });
    vec![alloc, requeue, map_unmap]
}
