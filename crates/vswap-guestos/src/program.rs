//! The interface between workloads and the guest they run in.
//!
//! A workload is a [`GuestProgram`]: a state machine whose
//! [`step`](GuestProgram::step) is invoked repeatedly by the machine
//! scheduler with a [`GuestCtx`] — a facade over the guest kernel and the
//! virtual hardware that accumulates the simulated time the step consumed.

use crate::fs::FileId;
use crate::hardware::VirtualHardware;
use crate::kernel::{GuestError, GuestKernel};
use crate::process::ProcId;
use sim_core::SimDuration;
use vswap_mem::Vpn;

/// What a program step reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More steps to run.
    Running,
    /// The program finished successfully.
    Done,
}

/// A workload running inside a guest.
///
/// Programs must make *bounded* progress per step (roughly milliseconds of
/// simulated time) so the machine scheduler can interleave VMs fairly.
pub trait GuestProgram {
    /// Runs one bounded slice of the workload.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError`] if the guest killed the workload (OOM) or an
    /// operation failed; the scheduler marks the workload as crashed.
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> Result<StepOutcome, GuestError>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// The facade a program drives its guest through. Accumulates the
/// simulated time consumed by the step in [`GuestCtx::elapsed`].
///
/// # Examples
///
/// ```
/// use sim_core::SimDuration;
/// use vswap_guestos::{GuestCtx, GuestKernel, GuestSpec, MockHardware};
///
/// let mut guest = GuestKernel::new(GuestSpec::small_test(), 1);
/// let mut hw = MockHardware::new(1024);
/// let file = guest.create_file(8)?;
/// let mut ctx = GuestCtx::new(&mut guest, &mut hw);
/// ctx.read_file(file, 0, 8)?;
/// ctx.compute(SimDuration::from_millis(1));
/// assert!(ctx.elapsed() >= SimDuration::from_millis(1));
/// # Ok::<(), vswap_guestos::GuestError>(())
/// ```
pub struct GuestCtx<'a> {
    kernel: &'a mut GuestKernel,
    hw: &'a mut dyn VirtualHardware,
    elapsed: SimDuration,
}

impl std::fmt::Debug for GuestCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestCtx").field("elapsed", &self.elapsed).finish_non_exhaustive()
    }
}

impl<'a> GuestCtx<'a> {
    /// Pairs a guest kernel with the hardware beneath it.
    pub fn new(kernel: &'a mut GuestKernel, hw: &'a mut dyn VirtualHardware) -> Self {
        GuestCtx { kernel, hw, elapsed: SimDuration::ZERO }
    }

    /// Simulated time consumed so far by this step.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Direct access to the guest kernel (for assertions and probes).
    pub fn kernel(&self) -> &GuestKernel {
        self.kernel
    }

    /// Charges pure CPU time (the computation between memory accesses).
    pub fn compute(&mut self, time: SimDuration) {
        self.elapsed += time;
    }

    /// Creates a file on the guest filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::FsFull`] if the disk has no room.
    pub fn create_file(&mut self, pages: u64) -> Result<FileId, GuestError> {
        self.kernel.create_file(pages)
    }

    /// Spawns a guest process.
    pub fn spawn_process(&mut self) -> ProcId {
        self.kernel.spawn_process()
    }

    /// True if the process has neither exited nor been OOM-killed.
    pub fn is_alive(&self, proc: ProcId) -> bool {
        self.kernel.is_alive(proc)
    }

    /// Grows a process's anonymous address space.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead.
    pub fn alloc_anon(&mut self, proc: ProcId, pages: u64) -> Result<Vpn, GuestError> {
        self.kernel.alloc_anon(proc, pages)
    }

    /// Reads file pages through the guest page cache.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    pub fn read_file(&mut self, file: FileId, offset: u64, count: u64) -> Result<(), GuestError> {
        let d = self.kernel.read_file(self.hw, file, offset, count)?;
        self.elapsed += d;
        Ok(())
    }

    /// Writes whole file pages through the guest page cache.
    ///
    /// # Errors
    ///
    /// Propagates guest allocation failures.
    pub fn write_file(&mut self, file: FileId, offset: u64, count: u64) -> Result<(), GuestError> {
        let d = self.kernel.write_file(self.hw, file, offset, count)?;
        self.elapsed += d;
        Ok(())
    }

    /// Flushes dirty cache pages (fsync).
    pub fn sync(&mut self) {
        let d = self.kernel.sync(self.hw);
        self.elapsed += d;
    }

    /// Drops the guest page cache (benchmark hygiene between phases).
    pub fn drop_caches(&mut self) {
        let d = self.kernel.drop_caches(self.hw);
        self.elapsed += d;
    }

    /// Touches one anonymous page (read or partial write).
    ///
    /// # Errors
    ///
    /// Propagates OOM kills and allocation failures.
    pub fn touch_anon(&mut self, proc: ProcId, vpn: Vpn, write: bool) -> Result<(), GuestError> {
        let d = self.kernel.touch_anon(self.hw, proc, vpn, write)?;
        self.elapsed += d;
        Ok(())
    }

    /// Overwrites one whole anonymous page (memset/memcpy destination).
    ///
    /// # Errors
    ///
    /// Propagates OOM kills and allocation failures.
    pub fn overwrite_anon(&mut self, proc: ProcId, vpn: Vpn) -> Result<(), GuestError> {
        let d = self.kernel.overwrite_anon(self.hw, proc, vpn)?;
        self.elapsed += d;
        Ok(())
    }

    /// Frees anonymous pages.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead.
    pub fn free_anon(&mut self, proc: ProcId, vpn: Vpn, count: u64) -> Result<(), GuestError> {
        self.kernel.free_anon(proc, vpn, count)
    }

    /// Ends a process, releasing all its memory and its page table.
    ///
    /// # Errors
    ///
    /// Returns [`GuestError::ProcessKilled`] if the process is dead.
    pub fn exit_process(&mut self, proc: ProcId) -> Result<(), GuestError> {
        self.kernel.exit_process(proc)
    }

    /// Size of a file in pages.
    pub fn file_len(&self, file: FileId) -> u64 {
        self.kernel.file_len(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::MockHardware;
    use crate::spec::GuestSpec;

    struct CountedReads {
        file: Option<FileId>,
        rounds: u32,
    }

    impl GuestProgram for CountedReads {
        fn step(&mut self, ctx: &mut GuestCtx<'_>) -> Result<StepOutcome, GuestError> {
            let file = match self.file {
                Some(f) => f,
                None => {
                    let f = ctx.create_file(16)?;
                    self.file = Some(f);
                    f
                }
            };
            ctx.read_file(file, 0, 16)?;
            self.rounds -= 1;
            Ok(if self.rounds == 0 { StepOutcome::Done } else { StepOutcome::Running })
        }

        fn name(&self) -> &str {
            "counted-reads"
        }
    }

    #[test]
    fn program_runs_to_completion() {
        let mut guest = GuestKernel::new(GuestSpec::small_test(), 3);
        let mut hw = MockHardware::new(4096);
        let mut prog = CountedReads { file: None, rounds: 3 };
        let mut steps = 0;
        loop {
            let mut ctx = GuestCtx::new(&mut guest, &mut hw);
            match prog.step(&mut ctx).unwrap() {
                StepOutcome::Running => steps += 1,
                StepOutcome::Done => break,
            }
        }
        assert_eq!(steps, 2);
        assert_eq!(prog.name(), "counted-reads");
        // Second and third rounds were cache hits.
        assert!(guest.stats().cache_hits > 0);
        guest.audit().unwrap();
    }

    #[test]
    fn compute_accumulates_elapsed() {
        let mut guest = GuestKernel::new(GuestSpec::small_test(), 3);
        let mut hw = MockHardware::new(64);
        let mut ctx = GuestCtx::new(&mut guest, &mut hw);
        ctx.compute(SimDuration::from_micros(5));
        ctx.compute(SimDuration::from_micros(7));
        assert_eq!(ctx.elapsed(), SimDuration::from_micros(12));
    }
}
