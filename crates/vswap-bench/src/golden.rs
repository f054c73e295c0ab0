//! The golden-table corpus: checked-in canonical `Scale::Smoke` output
//! for every experiment, rendered by
//! [`crate::suite::render_experiment`] under the suite's
//! [default seed](crate::suite::DEFAULT_SEED).
//!
//! `vswap verify-tables` re-runs the smoke suite and diffs against this
//! corpus; CI runs it on every push, so any change to simulator
//! numerics — intended or not — shows up as a reviewable diff of the
//! affected table lines. To accept an intended change, regenerate with
//! `vswap verify-tables --bless` and commit the updated `golden/` files.

use crate::suite::{render_experiment, ExperimentResult};
use std::path::PathBuf;

/// Returns the checked-in golden rendering for an experiment id (the
/// registry entry's [`golden`](crate::SuiteExperiment::golden)), or
/// `None` for unregistered ids.
pub fn golden(id: &str) -> Option<&'static str> {
    crate::suite_experiments().into_iter().find(|e| e.id == id).map(|e| e.golden)
}

/// One experiment whose fresh output no longer matches its golden file.
#[derive(Debug, Clone)]
pub struct Drift {
    /// The drifting experiment.
    pub id: String,
    /// First differing line (1-based) in the rendered output.
    pub line: usize,
    /// The golden line at that position (empty if the golden ended).
    pub expected: String,
    /// The fresh line at that position (empty if the output ended).
    pub actual: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: first difference at line {}", self.id, self.line)?;
        writeln!(f, "  - golden: {}", self.expected)?;
        write!(f, "  + actual: {}", self.actual)
    }
}

/// Locates the first differing line between two renderings.
fn first_diff(id: &str, expected: &str, actual: &str) -> Option<Drift> {
    if expected == actual {
        return None;
    }
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut line = 1;
    loop {
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => line += 1,
            (e, a) => {
                return Some(Drift {
                    id: id.to_owned(),
                    line,
                    expected: e.unwrap_or("<end of golden>").to_owned(),
                    actual: a.unwrap_or("<end of output>").to_owned(),
                });
            }
        }
    }
}

/// Diffs freshly produced experiment results against the embedded
/// corpus. Returns one [`Drift`] per experiment that no longer matches
/// (empty = everything is canonical). An empty golden file is reported
/// as drifting from line 1 so a forgotten `--bless` cannot pass
/// silently.
pub fn verify(results: &[ExperimentResult]) -> Vec<Drift> {
    let registry = crate::suite_experiments();
    results
        .iter()
        .filter_map(|exp| {
            let fresh = render_experiment(exp.id, exp.title, &exp.tables);
            let want = registry.iter().find(|e| e.id == exp.id).map_or("", |e| e.golden);
            first_diff(exp.id, want, &fresh)
        })
        .collect()
}

/// Rewrites the golden files under `crates/vswap-bench/golden/` from
/// fresh results; returns the paths written. Only meaningful when run
/// from a source checkout (the paths are compiled in via
/// `CARGO_MANIFEST_DIR`).
///
/// # Errors
///
/// Propagates I/O errors from writing the corpus files.
pub fn bless(results: &[ExperimentResult]) -> std::io::Result<Vec<PathBuf>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    std::fs::create_dir_all(&dir)?;
    let mut written = Vec::with_capacity(results.len());
    for exp in results {
        let path = dir.join(format!("{}.golden", exp.id));
        std::fs::write(&path, render_experiment(exp.id, exp.title, &exp.tables))?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_ids_have_no_golden() {
        assert!(golden("not-an-experiment").is_none());
    }

    #[test]
    fn first_diff_pinpoints_the_line() {
        assert!(first_diff("x", "a\nb\n", "a\nb\n").is_none());
        let d = first_diff("x", "a\nb\nc\n", "a\nB\nc\n").expect("differs");
        assert_eq!((d.line, d.expected.as_str(), d.actual.as_str()), (2, "b", "B"));
        let d = first_diff("x", "a\n", "a\nextra\n").expect("length differs");
        assert_eq!(
            (d.line, d.expected.as_str(), d.actual.as_str()),
            (2, "<end of golden>", "extra")
        );
    }
}
