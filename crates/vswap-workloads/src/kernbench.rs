//! The Kernbench workload (Figure 12): building the Linux kernel.
//!
//! What the memory system sees: a stream of compile jobs, each reading a
//! small slice of a large cached source tree, spawning a short-lived
//! compiler process whose address space is allocated (zeroed!) at birth
//! and freed at exit, and appending a small object file. The constant
//! page-zeroing over recycled frames is what feeds the False Reads
//! Preventer its 80 K remaps (Figure 12b).

use sim_core::SimDuration;
use vswap_guestos::{FileId, GuestCtx, GuestError, GuestProgram, StepOutcome};
use vswap_mem::MemBytes;

/// Tuning of the Kernbench analogue.
#[derive(Debug, Clone)]
pub struct KernbenchConfig {
    /// Number of compile jobs (one per translation unit).
    pub jobs: u64,
    /// Source-tree size in pages (cached by the guest across jobs).
    pub source_pages: u64,
    /// Source pages read per job.
    pub read_pages_per_job: u64,
    /// Compiler process image in pages (allocated and zeroed per job).
    pub anon_pages_per_job: u64,
    /// Object-file output pages per job.
    pub output_pages_per_job: u64,
    /// Pure compile CPU time per job.
    pub cpu_per_job: SimDuration,
}

impl Default for KernbenchConfig {
    fn default() -> Self {
        KernbenchConfig {
            jobs: 3000,
            source_pages: MemBytes::from_mb(128).pages(),
            read_pages_per_job: 16,
            anon_pages_per_job: 512,
            output_pages_per_job: 4,
            cpu_per_job: SimDuration::from_millis(350),
        }
    }
}

/// The Kernbench analogue. See the module docs.
#[derive(Debug)]
pub struct Kernbench {
    cfg: KernbenchConfig,
    source: Option<FileId>,
    output: Option<FileId>,
    job: u64,
    src_cursor: u64,
    out_cursor: u64,
}

impl Kernbench {
    /// Creates the workload with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if any size in the config is zero.
    pub fn new(cfg: KernbenchConfig) -> Self {
        assert!(cfg.jobs > 0 && cfg.source_pages > 0 && cfg.anon_pages_per_job > 0);
        Kernbench { cfg, source: None, output: None, job: 0, src_cursor: 0, out_cursor: 0 }
    }

    /// The workload at the paper's scale (~20 simulated minutes).
    pub fn paper_default() -> Self {
        Kernbench::new(KernbenchConfig::default())
    }
}

impl GuestProgram for Kernbench {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> Result<StepOutcome, GuestError> {
        let source = match self.source {
            Some(f) => f,
            None => {
                let src = ctx.create_file(self.cfg.source_pages)?;
                // Object files accumulate; bound the file by recycling.
                let out = ctx.create_file(
                    (self.cfg.output_pages_per_job * self.cfg.jobs)
                        .min(MemBytes::from_mb(64).pages()),
                )?;
                self.source = Some(src);
                self.output = Some(out);
                return Ok(StepOutcome::Running);
            }
        };
        let output = self.output.expect("setup ran");

        // Read this job's source slice (wrapping over the tree).
        let read = self.cfg.read_pages_per_job.min(self.cfg.source_pages - self.src_cursor);
        ctx.read_file(source, self.src_cursor, read)?;
        self.src_cursor = (self.src_cursor + read) % self.cfg.source_pages;

        // Fork the compiler: a fresh address space, zeroed page by page.
        let cc = ctx.spawn_process();
        let image = ctx.alloc_anon(cc, self.cfg.anon_pages_per_job)?;
        for i in 0..self.cfg.anon_pages_per_job {
            ctx.touch_anon(cc, image.offset(i), true)?;
        }
        ctx.compute(self.cfg.cpu_per_job);

        // Emit the object file.
        let out_len = ctx.file_len(output);
        let n = self.cfg.output_pages_per_job.min(out_len - self.out_cursor);
        ctx.write_file(output, self.out_cursor, n)?;
        self.out_cursor = (self.out_cursor + n) % out_len;

        // The compiler exits; its memory returns to the free pool.
        ctx.exit_process(cc)?;

        self.job += 1;
        if self.job == self.cfg.jobs {
            ctx.sync();
            Ok(StepOutcome::Done)
        } else {
            Ok(StepOutcome::Running)
        }
    }

    fn name(&self) -> &str {
        "kernbench"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vswap_core::{Machine, MachineConfig, SwapPolicy};
    use vswap_guestos::GuestSpec;
    use vswap_hostos::HostSpec;
    use vswap_hypervisor::VmSpec;

    fn small_cfg() -> KernbenchConfig {
        KernbenchConfig {
            jobs: 80,
            // The source tree rivals guest memory, as a kernel checkout
            // rivals a 512 MiB guest: the cache must churn.
            source_pages: MemBytes::from_mb(12).pages(),
            read_pages_per_job: 32,
            anon_pages_per_job: 128,
            output_pages_per_job: 2,
            cpu_per_job: SimDuration::from_millis(20),
        }
    }

    fn run(policy: SwapPolicy, actual_mb: u64) -> vswap_core::RunReport {
        let host = HostSpec {
            dram: MemBytes::from_mb(96),
            disk_pages: MemBytes::from_mb(512).pages(),
            swap_pages: MemBytes::from_mb(96).pages(),
            hypervisor_code_pages: 16,
            ..HostSpec::paper_testbed()
        };
        let mut m = Machine::new(MachineConfig::preset(policy).with_host(host)).unwrap();
        let spec = VmSpec::linux("g", MemBytes::from_mb(16), MemBytes::from_mb(actual_mb))
            .with_guest(GuestSpec {
                memory: MemBytes::from_mb(16),
                disk: MemBytes::from_mb(256),
                swap: MemBytes::from_mb(16),
                kernel_pages: MemBytes::from_mb(2).pages(),
                boot_file_pages: MemBytes::from_mb(4).pages(),
                boot_anon_pages: MemBytes::from_mb(2).pages(),
                ..GuestSpec::linux_default()
            });
        let vm = m.add_vm(spec).unwrap();
        m.launch(vm, Box::new(Kernbench::new(small_cfg())));
        let report = m.run();
        m.host().audit().unwrap();
        report
    }

    #[test]
    fn completes_on_all_policies_even_squeezed() {
        // Kernbench's per-job working set is small: every policy,
        // including ballooning, survives the squeeze (Figure 12 has no
        // missing bars).
        for policy in SwapPolicy::ALL {
            let report = run(policy, 6);
            assert_eq!(report.kill_count(), 0, "{policy} must not kill kernbench");
            assert!(report.workloads.last().unwrap().completed());
        }
    }

    #[test]
    fn preventer_remaps_appear_under_pressure() {
        let report = run(SwapPolicy::Vswapper, 6);
        assert!(
            report.preventer.get("preventer_remaps") > 0,
            "compiler-image zeroing must produce remaps (Figure 12b)"
        );
    }

    #[test]
    fn pressure_slowdown_is_modest_relative_to_vswapper() {
        // The paper reports ~15% baseline vs ~5% balloon overhead at
        // moderate squeeze; at minimum the ordering must hold.
        let base = run(SwapPolicy::Baseline, 6).workloads.last().unwrap().runtime_secs();
        let vswap = run(SwapPolicy::Vswapper, 6).workloads.last().unwrap().runtime_secs();
        assert!(
            vswap <= base * 1.02,
            "vswapper ({vswap:.2}s) must not lose to baseline ({base:.2}s)"
        );
    }
}
