//! Footprint regression: per-page state must cost memory in proportion to
//! what a run touches, not to configured capacity. A counting global
//! allocator measures the bytes each test's own thread allocates, so the
//! tests may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vswap_core::{Machine, MachineConfig, SwapPolicy};
use vswap_guestos::{GuestSpec, ProcId};
use vswap_hostos::HostSpec;
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::kernbench::{Kernbench, KernbenchConfig};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f` (growth by `realloc`
/// included, frees not subtracted).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Builds a host of `scale` × the paper testbed's DRAM and swap and adds
/// one 512 MB guest with a 20 GB image, returning the bytes allocated.
fn build(scale: u64) -> u64 {
    let testbed = HostSpec::paper_testbed();
    let host = HostSpec {
        dram: MemBytes::from_bytes(testbed.dram.bytes() * scale),
        swap_pages: testbed.swap_pages * scale,
        disk_pages: testbed.disk_pages * scale,
        ..testbed
    };
    let memory = MemBytes::from_mb(512);
    let guest = GuestSpec { memory, disk: MemBytes::from_gb(20), ..GuestSpec::linux_default() };
    let (machine, bytes) = allocated_by(|| {
        let mut m =
            Machine::new(MachineConfig::preset(SwapPolicy::Vswapper).with_host(host)).unwrap();
        m.add_vm(VmSpec::linux("g", memory, MemBytes::from_mb(128)).with_guest(guest)).unwrap();
        m
    });
    drop(machine);
    bytes
}

#[test]
fn building_a_machine_costs_what_the_guest_uses_not_what_the_host_has() {
    let testbed = build(1);
    // The guest's own gfn-indexed tables (EPT, page states, LRU links,
    // free list, origin map) come to about 8 MiB for 512 MB; 16 GiB of DRAM,
    // 16 GiB of swap and a 20 GiB image must add next to nothing.
    assert!(testbed < 16 << 20, "Machine::new + add_vm allocated {testbed} bytes");
    let big = build(4);
    assert!(big <= testbed, "4x the DRAM and swap allocated {big} bytes, testbed {testbed}");
}

#[test]
fn finished_kernbench_jobs_hold_no_page_tables() {
    let host = HostSpec {
        dram: MemBytes::from_mb(96),
        disk_pages: MemBytes::from_mb(512).pages(),
        swap_pages: MemBytes::from_mb(96).pages(),
        hypervisor_code_pages: 16,
        ..HostSpec::paper_testbed()
    };
    let guest = GuestSpec {
        memory: MemBytes::from_mb(16),
        disk: MemBytes::from_mb(256),
        swap: MemBytes::from_mb(16),
        kernel_pages: MemBytes::from_mb(2).pages(),
        boot_file_pages: MemBytes::from_mb(4).pages(),
        boot_anon_pages: MemBytes::from_mb(2).pages(),
        ..GuestSpec::linux_default()
    };
    let mut m = Machine::new(MachineConfig::preset(SwapPolicy::Baseline).with_host(host)).unwrap();
    let vm = m
        .add_vm(VmSpec::linux("g", MemBytes::from_mb(16), MemBytes::from_mb(6)).with_guest(guest))
        .unwrap();
    let jobs = 40;
    let cfg = KernbenchConfig {
        jobs,
        source_pages: MemBytes::from_mb(12).pages(),
        read_pages_per_job: 32,
        anon_pages_per_job: 128,
        output_pages_per_job: 2,
        cpu_per_job: sim_core::SimDuration::from_millis(20),
    };
    m.launch(vm, Box::new(Kernbench::new(cfg)));
    let report = m.run();
    assert!(report.workloads.last().unwrap().completed());
    m.host().audit().unwrap();

    let g = m.guest(vm);
    g.audit().unwrap();
    // pid 0 is the boot-time init process; every later pid is a job.
    assert_eq!(g.process_count(), 1 + jobs as u32);
    assert!(g.is_alive(ProcId::new(0)));
    for pid in 1..g.process_count() {
        let job = ProcId::new(pid);
        assert!(!g.is_alive(job), "{job} exited, so the OOM killer cannot pick it");
        assert_eq!(g.address_space_pages(job), 0, "{job} still holds a page table");
    }
    assert_eq!(g.stats().oom_kills, 0);
}
