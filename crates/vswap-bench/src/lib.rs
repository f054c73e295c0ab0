//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5), plus ablations.
//!
//! [`suite_experiments`] is the one place an experiment is declared: its
//! id, title, unit decomposition ([`ExperimentPlan`]) and golden
//! rendering. `vswap figures` runs the registry through the parallel
//! [`run_suite`], `vswap verify-tables` diffs it against the golden
//! corpus, [`run_experiment`] runs one experiment serially (module
//! tests, the Criterion benches), and `EXPERIMENTS.md` records the
//! paper-scale tables.
//!
//! # Scales
//!
//! [`Scale::Paper`] reproduces the published experiment sizes (200 MB
//! files in 512 MB guests, ten 2 GB guests on an 8 GB host, …).
//! [`Scale::Smoke`] shrinks everything ~16× so the full suite runs in
//! seconds — used by integration tests and the Criterion timing benches.

#![warn(missing_docs)]

pub mod experiments;
pub mod golden;
pub mod suite;
pub mod table;

pub use experiments::Scale;
pub use suite::{run_suite, ExperimentPlan, SuiteOptions, SuiteResult, TaskCtx};
pub use table::Table;

/// A function decomposing one experiment into parallel units.
pub type ExperimentPlanFn = fn(Scale) -> ExperimentPlan;

/// One experiment as the suite scheduler sees it.
pub struct SuiteExperiment {
    /// Stable id (`fig03`, ..., `ablate`) — CLI selector, RNG-stream and
    /// golden-file name.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Decomposes the experiment into parallel units.
    pub plan: ExperimentPlanFn,
    /// The checked-in smoke-scale rendering, `golden/<id>.golden` (see
    /// [`golden`]).
    pub golden: &'static str,
}

/// Every experiment in the suite, in the paper's order.
pub fn suite_experiments() -> Vec<SuiteExperiment> {
    use experiments::*;
    macro_rules! experiment {
        ($id:literal, $title:literal, $plan:path) => {
            SuiteExperiment {
                id: $id,
                title: $title,
                plan: $plan,
                golden: include_str!(concat!("../golden/", $id, ".golden")),
            }
        };
    }
    vec![
        experiment!(
            "fig03",
            "Figure 3: sequential read of a 200MB file (best case for ballooning)",
            fig03::plan
        ),
        experiment!(
            "fig04",
            "Figure 4: ten phased MapReduce guests (dynamic conditions)",
            fig04::plan
        ),
        experiment!(
            "fig05",
            "Figure 5: pbzip2 runtime vs actual memory (over-ballooning)",
            fig05::plan
        ),
        experiment!("fig09", "Figure 9: iterated Sysbench — pathology anatomy", fig09::plan),
        experiment!("fig10", "Figure 10: false-reads microbenchmark", fig10::plan),
        experiment!("fig11", "Figure 11: pbzip2 I/O and reclaim-scan counters", fig11::plan),
        experiment!("fig12", "Figure 12: Kernbench runtime and Preventer remaps", fig12::plan),
        experiment!("fig13", "Figure 13: DaCapo Eclipse runtime", fig13::plan),
        experiment!("fig14", "Figure 14: MapReduce scaling, 1-10 phased guests", fig14::plan),
        experiment!("fig15", "Figure 15: guest page cache vs Mapper-tracked pages", fig15::plan),
        experiment!("tab01", "Table 1: lines of code of the VSwapper components", tab01::plan),
        experiment!("tab02", "Table 2: foreign-hypervisor profile, balloon on/off", tab02::plan),
        experiment!("tab03", "Section 5.3: overheads when memory is plentiful", tab03::plan),
        experiment!("tab04", "Section 5.4: Windows guests", tab04::plan),
        experiment!(
            "tab05",
            "Section 7 (implemented): VSwapper-enhanced live migration",
            tab05::plan
        ),
        experiment!(
            "ablate",
            "Ablations: preventer caps, readahead, reclaim preference, SSD",
            ablation::plan
        ),
        experiment!(
            "chaos",
            "Chaos: fault-profile sweep — slowdown and recovery counters",
            chaos::plan
        ),
        experiment!(
            "latency",
            "Latency: fault-lifecycle p50/p99/p999 per class and configuration",
            latency::plan
        ),
        experiment!(
            "cluster",
            "Cluster: multi-host overcommit with live migration, 10-1000 guests",
            cluster::plan
        ),
        experiment!(
            "devices",
            "Devices: policy x {HDD, SSD, NVMe} x queue-depth matrix",
            devices::plan
        ),
        experiment!(
            "cluster-chaos",
            "Cluster chaos: host crashes, brown-outs, and link failures across the fleet",
            cluster_chaos::plan
        ),
    ]
}

/// Runs one registered experiment serially under the default seed — the
/// same tables [`run_suite`] assembles for it.
///
/// # Panics
///
/// Panics if `id` names no registered experiment.
pub fn run_experiment(id: &str, scale: Scale) -> Vec<Table> {
    let exp = suite_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("unknown experiment id `{id}`"));
    suite::run_plan_serial(exp.id, (exp.plan)(scale), suite::DEFAULT_SEED)
}
