//! The built-in scenarios: every figure/table binary of the reproduction,
//! shipped as embedded `.scn` strings plus a reporter that renders the
//! job outputs into the binary's exact legacy stdout (verified
//! byte-for-byte by the golden-output tests in `crates/bench`).

mod ablations;
mod facebook_figs;
mod fig3;
mod fig4;
mod tables;

use crate::report::RunContext;
use crate::{CacheStats, EngineError, RunOptions};

/// A builtin's report function: renders job outputs to stdout/CSV.
pub type Reporter = fn(&RunContext<'_>) -> Result<(), EngineError>;

const BUILTINS: &[(&str, &str, Reporter)] = &[
    (
        "fig3",
        include_str!("../../scenarios/fig3.scn"),
        fig3::report,
    ),
    (
        "fig4",
        include_str!("../../scenarios/fig4.scn"),
        fig4::report,
    ),
    (
        "fig5",
        include_str!("../../scenarios/fig5.scn"),
        facebook_figs::fig5_report,
    ),
    (
        "fig6",
        include_str!("../../scenarios/fig6.scn"),
        facebook_figs::fig6_report,
    ),
    (
        "fig7",
        include_str!("../../scenarios/fig7.scn"),
        facebook_figs::fig7_report,
    ),
    (
        "table1",
        include_str!("../../scenarios/table1.scn"),
        tables::table1_report,
    ),
    (
        "table2",
        include_str!("../../scenarios/table2.scn"),
        tables::table2_report,
    ),
    (
        "ablation_model_based",
        include_str!("../../scenarios/ablation_model_based.scn"),
        ablations::model_based_report,
    ),
    (
        "ablation_swrw",
        include_str!("../../scenarios/ablation_swrw.scn"),
        ablations::swrw_report,
    ),
    (
        "ablation_thinning",
        include_str!("../../scenarios/ablation_thinning.scn"),
        ablations::thinning_report,
    ),
    (
        "huge",
        include_str!("../../scenarios/huge.scn"),
        huge_report,
    ),
];

/// The `huge` scenario has no legacy binary to replicate; it renders with
/// the generic reporter.
fn huge_report(ctx: &RunContext<'_>) -> Result<(), EngineError> {
    crate::report::generic_report(ctx)
}

/// Names of all built-in scenarios, in figure order.
pub fn builtin_names() -> Vec<&'static str> {
    BUILTINS.iter().map(|(n, _, _)| *n).collect()
}

/// The embedded `.scn` source of a builtin.
pub fn builtin_scenario(name: &str) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, s, _)| *s)
}

/// The reporter registered for a scenario name (builtins only).
pub fn reporter_for(name: &str) -> Option<Reporter> {
    BUILTINS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, r)| *r)
}

/// Runs a builtin end to end (`cgte run --builtin NAME`).
pub fn run_builtin(name: &str, opts: &RunOptions) -> Result<CacheStats, EngineError> {
    let scn = builtin_scenario(name)
        .ok_or_else(|| EngineError::msg(format!("unknown builtin scenario {name:?}")))?;
    crate::run_scenario_str(scn, opts)
}
