//! Figure 4: the dynamic-conditions headline — average completion time
//! of ten phased MapReduce guests (the 10-guest point of Figure 14).
//!
//! Paper values (seconds): balloon+base 153→167, baseline 153,
//! vswapper 88, balloon+vswapper 97 — "VSwapper configurations are up to
//! twice as fast as baseline ballooning" because the balloon manager
//! cannot reapportion memory fast enough.

use super::common::{paper_rows, FOUR_CONFIGS};
use super::fig14::run_point;
use super::Scale;
use crate::suite::{ExperimentPlan, Panel};

/// Paper-reported mean runtimes for the four configurations.
pub const PAPER_SECONDS: [(&str, f64); 4] =
    [("baseline", 153.0), ("balloon+base", 167.0), ("vswapper", 88.0), ("balloon+vswap", 97.0)];

/// One unit per configuration: each ten-guest consolidation run is an
/// independent (and expensive) simulation.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let guests = match scale {
        Scale::Paper => 10,
        Scale::Smoke => 5,
    };
    let panels = || {
        vec![Panel::new(
            "Figure 4: mean completion time of ten phased MapReduce guests [s]",
            "config",
            ["measured [s]", "paper [s]"],
        )]
    };
    let rows = paper_rows(&FOUR_CONFIGS, &PAPER_SECONDS);
    ExperimentPlan::per_row(rows, panels, move |(policy, paper), ctx| {
        let (mean, _) = run_point(scale, policy, guests, ctx);
        vec![mean.into(), paper.into()]
    })
}
