//! The three workloads, one repetition each, with the correctness gate.
//!
//! A repetition builds everything from the seed, runs the workload to
//! completion, checks its output, and returns its timings, its exact
//! simulated counters and the digest of those counters.

use crate::out::counter_digest;
use crate::trace::{snapshot, SharedTracer, TimedProgram, Tracer};
use sim_core::SimTime;
use sim_obs::MetricsRegistry;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};
use vswap_bench::suite::{events_emitted, pages_simulated, ExperimentResult, DEFAULT_SEED};
use vswap_bench::{golden, run_suite, suite_experiments, Scale, SuiteOptions};
use vswap_core::{Machine, MachineConfig, RunReport, SwapPolicy};
use vswap_guestos::{GuestProgram, GuestSpec};
use vswap_hypervisor::VmSpec;
use vswap_mem::MemBytes;
use vswap_workloads::kernbench::Kernbench;
use vswap_workloads::mapreduce::MapReduce;

/// Worker threads for the `suite` workload: `vswap figures --smoke
/// --jobs 2`, one per vCPU of the reference machine.
pub const SUITE_JOBS: usize = 2;

/// Guest memory of the single-guest workloads.
pub const GUEST_MB: u64 = 512;

/// Host grant of the single-guest workloads: a 4:1 overcommit.
pub const GRANT_MB: u64 = 128;

/// Counter digests of the single-guest workloads at [`DEFAULT_SEED`],
/// recorded from the simulator this benchmark was written against. A
/// change that alters simulated behaviour changes them.
pub const GOLDEN_DIGESTS: [(Workload, u64); 2] =
    [(Workload::AnonSwap, 0x2eb2_28e6_0ec6_48fa), (Workload::FileMapper, 0x8eee_f59d_16c9_8b09)];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All smoke experiments on [`SUITE_JOBS`] workers.
    Suite,
    /// Kernbench under `baseline`: host anonymous swapping.
    AnonSwap,
    /// MapReduce under `vswapper`: the Mapper and Preventer paths.
    FileMapper,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "suite" => Some(Workload::Suite),
            "anon-swap" => Some(Workload::AnonSwap),
            "file-mapper" => Some(Workload::FileMapper),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::AnonSwap => "anon-swap",
            Workload::FileMapper => "file-mapper",
        }
    }
}

/// The outcome of one repetition.
#[derive(Debug)]
pub struct Rep {
    /// Process start to the first simulated step.
    pub setup: Duration,
    /// First simulated step to the finished report.
    pub wall: Duration,
    /// Pages of simulated paging work (`suite::pages_simulated`).
    pub pages: u64,
    /// Operations attempted: suite experiments, or guest workloads.
    pub attempted: u64,
    /// Operations failed, at most `attempted`.
    pub failed: u64,
    /// What went wrong; one operation may fail in several ways.
    pub failures: Vec<String>,
    /// Digest of [`Rep::counters`].
    pub digest: u64,
    /// Exact simulated counters, named as the benchmark reports them.
    pub counters: Vec<(String, u64)>,
    /// Host-time per-layer figures taken from the spans (traced only).
    pub timings: Vec<(String, f64)>,
    /// The recorded spans (traced only).
    pub tracer: Option<Tracer>,
}

/// Runs one repetition. `start` is the process start; `traced` records
/// spans around every layer call.
pub fn run(workload: Workload, seed: u64, traced: bool, start: Instant) -> Rep {
    match workload {
        Workload::Suite => run_suite_rep(seed, traced, start),
        Workload::AnonSwap | Workload::FileMapper => {
            run_guest_rep(workload, seed, traced, start, golden_digest(workload, seed))
        }
    }
}

/// Takes the recorded spans back once every other owner is gone.
fn into_spans(tracer: Option<SharedTracer>) -> Option<Tracer> {
    tracer.map(|t| Rc::try_unwrap(t).expect("the tracer has one owner left").into_inner())
}

/// Times `f` as a span when tracing.
fn span<T>(tracer: &Option<SharedTracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let id = t.borrow_mut().open(name);
            let out = f();
            t.borrow_mut().close(id);
            out
        }
        None => f(),
    }
}

fn machine_config(policy: SwapPolicy, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::preset(policy).with_seed(seed);
    // Room for the swap area and the guest's 20 GiB image, as `vswap run`
    // sizes it for one guest.
    cfg.host.disk_pages = cfg.host.swap_pages + 2 * MemBytes::from_gb(21).pages();
    cfg
}

fn guest_vm_spec() -> VmSpec {
    let memory = MemBytes::from_mb(GUEST_MB);
    VmSpec::linux("guest0", memory, MemBytes::from_mb(GRANT_MB))
        .with_guest(GuestSpec { memory, ..GuestSpec::linux_default() })
}

/// The digest a single-guest workload must reproduce at `seed`, if one
/// is recorded.
pub fn golden_digest(workload: Workload, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    GOLDEN_DIGESTS.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d)
}

/// Checks a digest against the golden one; a mismatch is a failed
/// operation.
pub fn check_digest(workload: Workload, digest: u64, golden: Option<u64>) -> Option<String> {
    match golden {
        Some(want) if want != digest => Some(format!(
            "{}: counter digest {digest:016x} differs from the golden {want:016x}",
            workload.name()
        )),
        _ => None,
    }
}

fn run_guest_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    start: Instant,
    golden: Option<u64>,
) -> Rep {
    let tracer: Option<SharedTracer> = traced.then(|| Rc::new(RefCell::new(Tracer::new(start))));
    let (policy, program): (SwapPolicy, Box<dyn GuestProgram>) = match workload {
        Workload::AnonSwap => (SwapPolicy::Baseline, Box::new(Kernbench::paper_default())),
        _ => (SwapPolicy::Vswapper, Box::new(MapReduce::paper_default(seed))),
    };
    let mut m = span(&tracer, "Machine::new", || Machine::new(machine_config(policy, seed)))
        .expect("the benchmark host spec is consistent");
    let vm = span(&tracer, "Machine::add_vm", || m.add_vm(guest_vm_spec()))
        .expect("a 512 MB guest fits the benchmark host");
    let program: Box<dyn GuestProgram> = match &tracer {
        Some(t) => Box::new(TimedProgram::new(program, Rc::clone(t))),
        None => program,
    };
    m.launch_at(vm, program, SimTime::ZERO);

    let setup = start.elapsed();
    let begin = Instant::now();
    match &tracer {
        Some(t) => loop {
            let before = snapshot(&m);
            let id = t.borrow_mut().open("Machine::step");
            let more = m.step();
            t.borrow_mut().close(id);
            let after = snapshot(&m);
            let mut deltas = [0u64; 16];
            for (d, (a, b)) in deltas.iter_mut().zip(after.iter().zip(&before)) {
                *d = a - b;
            }
            t.borrow_mut().set_deltas(id, deltas);
            if !more {
                break;
            }
        },
        None => while m.step() {},
    }
    let report = span(&tracer, "Machine::report", || m.report());
    let wall = begin.elapsed();

    let mut failures = Vec::new();
    let (host_audit, guest_audit) =
        span(&tracer, "audit", || (m.host().audit(), m.guest(vm).audit()));
    if let Err(e) = host_audit {
        failures.push(format!("{}: host audit: {e}", workload.name()));
    }
    if let Err(e) = guest_audit {
        failures.push(format!("{}: guest audit: {e}", workload.name()));
    }
    match report.workloads.as_slice() {
        [w] if w.killed.is_none() && w.completed() => {}
        [w] => failures.push(format!(
            "{}: workload `{}` did not complete: {}",
            workload.name(),
            w.workload,
            w.killed.as_deref().unwrap_or("unfinished")
        )),
        ws => failures.push(format!(
            "{}: expected 1 workload report, got {}",
            workload.name(),
            ws.len()
        )),
    }

    let counters = guest_counters(&m, vm, &report);
    let digest = counter_digest(&counters);
    failures.extend(check_digest(workload, digest, golden));
    let mut host_work = MetricsRegistry::new();
    host_work.absorb_stat_set("rep/host", &report.host);

    // The launched program holds the other tracer handle; drop it first.
    drop(m);
    let tracer = into_spans(tracer);
    let timings = tracer.as_ref().map(guest_timings).unwrap_or_default();
    Rep {
        setup,
        wall,
        pages: pages_simulated(&host_work),
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        digest,
        counters,
        timings,
        tracer,
    }
}

/// The simulated counters of a single-guest run.
fn guest_counters(m: &Machine, vm: vswap_core::VmHandle, report: &RunReport) -> Vec<(String, u64)> {
    let h = m.host().stats();
    let d = m.host().disk_stats();
    let g = m.guest(vm).stats();
    let mp = m.mapper().stats();
    let p = m.preventer().stats();
    let steps: u64 = report.workloads.iter().map(|w| w.steps).sum();
    let runtime_ns = report.workloads.iter().map(|w| w.runtime().map_or(0, |r| r.as_nanos())).sum();
    let list: [(&str, u64); 38] = [
        ("sim.ended_at_ns", report.ended_at.as_nanos()),
        ("sim.workload_runtime_ns", runtime_ns),
        ("sim.workload_steps", steps),
        ("guest.cache_hits", g.cache_hits),
        ("guest.cache_misses", g.cache_misses),
        ("guest.readahead_pages", g.readahead_pages),
        ("guest.reclaim_runs", g.reclaim_runs),
        ("guest.swap_outs", g.guest_swap_outs),
        ("guest.swap_ins", g.guest_swap_ins),
        ("guest.writebacks", g.writebacks),
        ("guest.pages_zeroed", g.pages_zeroed),
        ("host.swap_ins", h.swap_ins),
        ("host.swap_outs", h.swap_outs),
        ("host.pages_scanned", h.pages_scanned),
        ("host.reclaim_runs", h.reclaim_runs),
        ("host.named_discards", h.named_discards),
        ("host.named_refaults", h.named_refaults),
        ("host.virtual_io_requests", h.virtual_io_requests),
        ("host.false_swap_reads", h.false_swap_reads),
        ("host.stale_swap_reads", h.stale_swap_reads),
        ("host.silent_swap_writes", h.silent_swap_writes),
        ("host.guest_major_faults", h.guest_major_faults),
        ("host.guest_minor_faults", h.guest_minor_faults),
        ("host.host_context_faults", h.host_context_faults),
        ("host.zero_fills", h.zero_fills),
        ("disk.ops", d.ops),
        ("disk.seeks", d.seeks),
        ("disk.sequential_ops", d.sequential_ops),
        ("disk.doorbells", d.doorbells),
        ("disk.sectors_read", d.sectors_read),
        ("disk.sectors_written", d.sectors_written),
        ("disk.busy_ns", d.busy.as_nanos()),
        ("mapper.mapped_reads", mp.mapped_reads),
        ("mapper.mapped_writes", mp.mapped_writes),
        ("preventer.buffers_opened", p.buffers_opened),
        ("preventer.merges", p.merges),
        ("preventer.timeouts", p.timeouts),
        ("obs.events_emitted", m.event_log().emitted()),
    ];
    list.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer host times from a single-guest run's spans.
fn guest_timings(tracer: &Tracer) -> Vec<(String, f64)> {
    let spans = tracer.spans();
    let total =
        |name: &str| -> Duration { spans.iter().filter(|s| s.name == name).map(|s| s.len()).sum() };
    let mut steps: Vec<Duration> =
        spans.iter().filter(|s| s.name == "Machine::step").map(|s| s.len()).collect();
    steps.sort_unstable();
    let pct = |q: f64| -> f64 {
        steps
            .get(((steps.len() as f64 - 1.0) * q).round() as usize)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6)
    };
    let step = total("Machine::step");
    let program = total("GuestProgram::step");
    vec![
        ("core.new_ms".to_owned(), ms(total("Machine::new"))),
        ("core.add_vm_ms".to_owned(), ms(total("Machine::add_vm"))),
        ("core.steps".to_owned(), steps.len() as f64),
        ("core.step_self_ms".to_owned(), ms(step.saturating_sub(program))),
        ("core.step_us.p50".to_owned(), pct(0.5)),
        ("core.step_us.p99".to_owned(), pct(0.99)),
        ("core.report_ms".to_owned(), ms(total("Machine::report"))),
        ("core.audit_ms".to_owned(), ms(total("audit"))),
        ("guest.program_step_ms".to_owned(), ms(program)),
    ]
}

fn run_suite_rep(seed: u64, traced: bool, start: Instant) -> Rep {
    let tracer: Option<SharedTracer> = traced.then(|| Rc::new(RefCell::new(Tracer::new(start))));
    let registry = suite_experiments();
    let attempted = registry.len() as u64;
    // Planning is what `run_suite` does before its pool starts; it is
    // repeated here on its own so that set-up time covers it.
    let units: usize = span(&tracer, "plan", || {
        registry.iter().map(|e| (e.plan)(Scale::Smoke).unit_count()).sum()
    });
    let opts = SuiteOptions::new(Scale::Smoke).with_jobs(SUITE_JOBS).with_seed(seed);

    let setup = start.elapsed();
    let begin = Instant::now();
    let outcome =
        span(&tracer, "run_suite", || catch_unwind(AssertUnwindSafe(|| run_suite(&opts))));
    let wall = begin.elapsed();

    let Ok(result) = outcome else {
        return Rep {
            setup,
            wall,
            pages: 0,
            attempted,
            failed: attempted,
            failures: registry
                .iter()
                .map(|e| format!("suite: {} did not finish: a unit panicked", e.id))
                .collect(),
            digest: 0,
            counters: Vec::new(),
            timings: Vec::new(),
            tracer: into_spans(tracer),
        };
    };
    let mut failures = Vec::new();
    if seed == DEFAULT_SEED {
        failures.extend(span(&tracer, "golden::verify", || golden_failures(&result.experiments)));
    }
    // `golden::verify` reports at most one drift per experiment; a
    // missing or extra experiment fails them all.
    let mut failed = failures.len() as u64;
    if result.experiments.len() != registry.len() {
        failures.push(format!(
            "suite: {} experiments reported, {} registered",
            result.experiments.len(),
            registry.len()
        ));
        failed = attempted;
    }

    let flat = result.metrics.flatten();
    let sum = |in_scope: &dyn Fn(&str) -> bool, name: &str| -> u64 {
        flat.iter()
            .filter(|(k, _)| {
                k.rsplit_once('/').is_some_and(|(scope, n)| n == name && in_scope(scope))
            })
            .map(|(_, v)| v)
            .sum()
    };
    // tab01 counts the repository's own source lines, so it moves with
    // every edit; the digest leaves it out to stay a behaviour digest.
    let rendered: String = result
        .experiments
        .iter()
        .filter(|e| e.id != "tab01")
        .map(|e| vswap_bench::suite::render_experiment(e.id, e.title, &e.tables))
        .collect();
    let pages = pages_simulated(&result.metrics);
    let mut counters: Vec<(String, u64)> = vec![
        ("sim.rendered_fnv".to_owned(), crate::out::fnv1a(rendered.as_bytes())),
        ("sim.pages_simulated".to_owned(), pages),
        ("suite.units".to_owned(), units as u64),
        ("obs.events_emitted".to_owned(), events_emitted(&result.metrics)),
        ("obs.events_dropped".to_owned(), sum(&|scope| scope.contains("/events/"), "dropped")),
    ];
    for (name, layer, key) in SUITE_COUNTERS {
        counters.push((name.to_owned(), sum(&|scope| scope.ends_with(layer), key)));
    }
    let digest = counter_digest(&counters);

    let busy: Duration = result.experiments.iter().map(|e| e.busy).sum();
    let mut timings = vec![
        ("suite.busy_s".to_owned(), busy.as_secs_f64()),
        (
            "suite.idle_frac".to_owned(),
            1.0 - busy.as_secs_f64() / (result.wall.as_secs_f64() * result.jobs as f64),
        ),
    ];
    for e in &result.experiments {
        timings.push((format!("suite.exp.{}.busy_s", e.id), e.busy.as_secs_f64()));
    }
    Rep {
        setup,
        wall,
        pages,
        attempted,
        failed: failed.min(attempted),
        failures,
        digest,
        counters,
        timings,
        tracer: into_spans(tracer),
    }
}

/// One failed operation per experiment whose rendering drifts from the
/// golden corpus (which holds the [`DEFAULT_SEED`] output).
pub fn golden_failures(experiments: &[ExperimentResult]) -> Vec<String> {
    golden::verify(experiments).iter().map(|d| format!("suite: golden drift: {d}")).collect()
}

/// Suite-wide counters summed over every unit's report scopes:
/// (reported name, scope suffix, counter key).
const SUITE_COUNTERS: [(&str, &str, &str); 21] = [
    ("host.swap_ins", "/host", "swap_ins"),
    ("host.swap_outs", "/host", "swap_outs"),
    ("host.pages_scanned", "/host", "pages_scanned"),
    ("host.reclaim_runs", "/host", "reclaim_runs"),
    ("host.named_discards", "/host", "named_discards"),
    ("host.named_refaults", "/host", "named_refaults"),
    ("host.virtual_io_requests", "/host", "virtual_io_requests"),
    ("host.false_swap_reads", "/host", "false_swap_reads"),
    ("host.stale_swap_reads", "/host", "stale_swap_reads"),
    ("host.silent_swap_writes", "/host", "silent_swap_writes"),
    ("host.zero_fills", "/host", "zero_fills"),
    ("disk.ops", "/disk", "disk_ops"),
    ("disk.seeks", "/disk", "disk_seeks"),
    ("disk.sequential_ops", "/disk", "disk_sequential_ops"),
    ("disk.doorbells", "/disk", "disk_doorbells"),
    ("mapper.mapped_reads", "/mapper", "mapper_mapped_reads"),
    ("mapper.mapped_writes", "/mapper", "mapper_mapped_writes"),
    ("preventer.buffers_opened", "/preventer", "preventer_buffers_opened"),
    ("preventer.merges", "/preventer", "preventer_merges"),
    ("preventer.timeouts", "/preventer", "preventer_timeouts"),
    ("host.guest_major_faults", "/host", "guest_major_faults"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_digests_apply_at_the_default_seed_only() {
        assert!(golden_digest(Workload::AnonSwap, DEFAULT_SEED).is_some());
        assert!(golden_digest(Workload::FileMapper, DEFAULT_SEED).is_some());
        assert_eq!(golden_digest(Workload::AnonSwap, 7), None);
        assert_eq!(golden_digest(Workload::Suite, DEFAULT_SEED), None);
    }

    #[test]
    fn a_perturbed_golden_digest_is_a_failed_operation() {
        let golden = golden_digest(Workload::AnonSwap, DEFAULT_SEED).expect("recorded");
        let start = Instant::now();
        let good = run_guest_rep(Workload::AnonSwap, DEFAULT_SEED, false, start, Some(golden));
        assert_eq!((good.attempted, good.failed), (1, 0), "{:?}", good.failures);
        let bad = run_guest_rep(Workload::AnonSwap, DEFAULT_SEED, false, start, Some(golden ^ 1));
        assert_eq!((bad.attempted, bad.failed, bad.failures.len()), (1, 1, 1));
        assert!(bad.failures[0].contains("differs from the golden"), "{:?}", bad.failures);
        assert_eq!(bad.digest, good.digest, "the run itself is deterministic");
    }

    #[test]
    fn a_perturbed_golden_table_is_a_failed_operation() {
        let opts = SuiteOptions::new(Scale::Smoke).with_jobs(1).with_only(vec!["fig15".to_owned()]);
        let mut result = run_suite(&opts);
        assert!(golden_failures(&result.experiments).is_empty());
        result.experiments[0].title = "a perturbed title";
        let failures = golden_failures(&result.experiments);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("fig15"), "{failures:?}");
    }

    #[test]
    fn traced_and_untraced_runs_share_a_digest() {
        let start = Instant::now();
        let plain = run(Workload::FileMapper, 3, false, start);
        let traced = run(Workload::FileMapper, 3, true, start);
        assert_eq!(plain.digest, traced.digest);
        assert!(plain.failures.is_empty() && traced.failures.is_empty());
        let tracer = traced.tracer.expect("traced");
        let spans = tracer.spans();
        let steps = spans.iter().filter(|s| s.name == "GuestProgram::step");
        for s in steps {
            let parent = &spans[s.parent.expect("a program step has a parent")];
            assert_eq!(parent.name, "Machine::step");
            assert!(parent.start <= s.start && s.end <= parent.end);
        }
    }
}
