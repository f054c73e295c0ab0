//! Figure 5: over-ballooning — pbzip2 inside a 512 MB guest whose actual
//! memory drops from 512 MB to 128 MB.
//!
//! The paper's observation: "Ballooning delivers better performance, but
//! the guest kills bzip2 when its memory drops below 240MB", while the
//! uncooperative configurations (baseline, mapper, vswapper) keep the
//! job alive at every size.

use super::common::{mb_columns, policy_rows, sweep_panel, SWEEP_CONFIGS};
use super::fig11::run_point;
use super::Scale;
use crate::suite::ExperimentPlan;
use crate::table::Cell;

/// The actual-memory points of Figure 5 (MB).
pub const SWEEP_MB: [u64; 3] = [512, 240, 128];

/// One unit per `(policy, actual-MB)` point of the over-ballooning sweep.
pub fn plan(scale: Scale) -> ExperimentPlan {
    let panels = |keys: &[String]| {
        vec![sweep_panel(
            "Figure 5: pbzip2 runtime [s] vs actual guest memory ('-' = killed by guest OOM)",
            keys,
        )]
    };
    let (rows, cols) = (policy_rows(&SWEEP_CONFIGS), mb_columns(&SWEEP_MB));
    ExperimentPlan::grid(rows, cols, panels, move |policy, mb, ctx| {
        let p = run_point(scale, policy, mb, ctx);
        vec![if p.killed { Cell::Missing } else { p.runtime_secs.into() }]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::TaskCtx;
    use vswap_core::SwapPolicy;

    fn ctx(label: &str) -> TaskCtx {
        TaskCtx::standalone(crate::suite::DEFAULT_SEED, label)
    }

    #[test]
    fn smoke_balloon_kills_only_at_deep_squeeze() {
        let fine = run_point(Scale::Smoke, SwapPolicy::BalloonBaseline, 512, &mut ctx("fine"));
        assert!(!fine.killed, "no kill with full memory");
        let deep = run_point(Scale::Smoke, SwapPolicy::BalloonBaseline, 128, &mut ctx("deep"));
        assert!(deep.killed, "over-ballooning must kill pbzip2 at 128MB-equivalent");
        // Uncooperative swapping keeps the job alive at the same point.
        let base = run_point(Scale::Smoke, SwapPolicy::Baseline, 128, &mut ctx("base"));
        assert!(!base.killed);
    }
}
