//! Reporting: the emit helpers shared by every scenario reporter (the
//! exact printing/CSV/SVG conventions of the legacy figure binaries) and
//! the generic reporter used for ad-hoc `.scn` files.

use crate::plan::Plan;
use crate::runner::{JobOutput, ReportSection};
use crate::{EngineError, Scale};
use cgte_eval::Table;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Formats an NRMSE value compactly, with a placeholder for undefined.
pub fn fmt_nrmse(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "-".into()
    }
}

/// Logarithmically spaced sample sizes from `lo` to `hi` (inclusive-ish),
/// `points` per decade boundary style of the paper's x-axes.
pub fn log_sizes(lo: usize, hi: usize, points: usize) -> Vec<usize> {
    assert!(lo >= 1 && hi >= lo && points >= 2);
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    let mut v: Vec<usize> = (0..points)
        .map(|i| (l + (h - l) * i as f64 / (points - 1) as f64).exp().round() as usize)
        .collect();
    v.dedup();
    v
}

/// Prints tables and saves CSV/SVG artifacts exactly like the legacy
/// hand-coded figure binaries did, so every builtin's stdout stays
/// byte-identical to its golden.
#[derive(Debug, Clone, Default)]
pub struct Emitter {
    /// Where to dump CSV series and plots, if requested (`--csv DIR`).
    pub csv_dir: Option<PathBuf>,
}

impl Emitter {
    /// Prints a table under a heading and optionally saves it as CSV.
    pub fn emit(&self, name: &str, heading: &str, table: &Table) {
        println!("\n## {heading}\n");
        print!("{table}");
        if let Some(dir) = &self.csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir:?}: {e}");
                return;
            }
            let path = dir.join(format!("{name}.csv"));
            match table.save_csv(&path) {
                Ok(()) => eprintln!("saved {path:?}"),
                Err(e) => eprintln!("cannot save {path:?}: {e}"),
            }
        }
    }

    /// Saves an SVG log-log plot of the given series next to the CSVs
    /// (no-op without a CSV directory).
    pub fn emit_plot(&self, name: &str, title: &str, series: Vec<cgte_viz::PlotSeries>) {
        let Some(dir) = &self.csv_dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            return;
        }
        let opts = cgte_viz::PlotOptions {
            title: title.into(),
            ..Default::default()
        };
        let svg = cgte_viz::svg_line_plot(&series, &opts);
        let path = dir.join(format!("{name}.svg"));
        match std::fs::write(&path, svg) {
            Ok(()) => eprintln!("saved {path:?}"),
            Err(e) => eprintln!("cannot save {path:?}: {e}"),
        }
    }

    /// Saves an exported file (fig7's DOT/JSON/GraphML dumps) next to the
    /// CSVs, matching the legacy binaries' messages.
    pub fn emit_file(&self, name: &str, ext: &str, content: &str) {
        let Some(dir) = &self.csv_dir else { return };
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.{ext}"));
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("saved {path:?}"),
            Err(e) => eprintln!("cannot save {path:?}: {e}"),
        }
    }

    /// Renders one report section (tables through [`Emitter::emit`]).
    pub fn section(&self, s: &ReportSection) {
        match s {
            ReportSection::Table {
                name,
                heading,
                table,
            } => self.emit(name, heading, table),
            // Text sections carry their exact bytes (including newlines).
            ReportSection::Text(t) => print!("{t}"),
            ReportSection::File { name, ext, content } => self.emit_file(name, ext, content),
            ReportSection::Values(_) => {}
        }
    }
}

/// Everything a reporter needs: the plan (for headings/params), the job
/// outputs, and the emit sink.
pub struct RunContext<'a> {
    /// The expanded plan the run executed.
    pub plan: &'a Plan,
    /// Outputs keyed by job id.
    pub outputs: &'a BTreeMap<String, JobOutput>,
    /// Print/CSV sink.
    pub emitter: Emitter,
    /// The run scale (some legacy headings depend on it).
    pub scale: Scale,
}

impl RunContext<'_> {
    /// A job's output, by id.
    pub fn output(&self, id: &str) -> Result<&JobOutput, EngineError> {
        self.outputs
            .get(id)
            .ok_or_else(|| EngineError::msg(format!("no output for job {id:?}")))
    }

    /// A rebuilt [`cgte_eval::ExperimentResult`] for an experiment job.
    pub fn experiment(&self, id: &str) -> Result<cgte_eval::ExperimentResult, EngineError> {
        match self.output(id)? {
            JobOutput::Experiment(e) => Ok(e.to_result()),
            _ => Err(EngineError::msg(format!(
                "job {id:?} did not produce an experiment output"
            ))),
        }
    }

    /// The raw experiment output (sizes/graph info) for a job.
    pub fn experiment_raw(
        &self,
        id: &str,
    ) -> Result<&crate::runner::ExperimentOutput, EngineError> {
        match self.output(id)? {
            JobOutput::Experiment(e) => Ok(e),
            _ => Err(EngineError::msg(format!(
                "job {id:?} did not produce an experiment output"
            ))),
        }
    }

    /// A custom job's columns.
    pub fn columns(&self, id: &str) -> Result<&[crate::runner::NamedSeries], EngineError> {
        match self.output(id)? {
            JobOutput::Columns(c) => Ok(c),
            _ => Err(EngineError::msg(format!(
                "job {id:?} did not produce column output"
            ))),
        }
    }

    /// A custom job's report sections.
    pub fn sections(&self, id: &str) -> Result<&[ReportSection], EngineError> {
        match self.output(id)? {
            JobOutput::Sections(s) => Ok(s),
            _ => Err(EngineError::msg(format!(
                "job {id:?} did not produce sections"
            ))),
        }
    }

    /// The `Values` entries of a sections-producing job, flattened.
    pub fn values(&self, id: &str) -> Result<Vec<(String, String)>, EngineError> {
        let mut out = Vec::new();
        for s in self.sections(id)? {
            if let ReportSection::Values(v) = s {
                out.extend(v.iter().cloned());
            }
        }
        Ok(out)
    }
}

/// The fallback reporter for ad-hoc scenarios: every job's output is
/// rendered in plan order (experiment series as a `|S|` table, columns as
/// a labelled table, sections verbatim).
pub fn generic_report(ctx: &RunContext<'_>) -> Result<(), EngineError> {
    for job in &ctx.plan.jobs {
        let Some(out) = ctx.outputs.get(&job.id) else {
            continue;
        };
        match out {
            JobOutput::None => {}
            JobOutput::Experiment(e) => {
                let mut headers = vec!["|S|".to_string()];
                for (k, t, _, _) in &e.entries {
                    headers.push(format!(
                        "{}|{}",
                        k.name(),
                        match t {
                            cgte_eval::Target::Size(c) => format!("size:{c}"),
                            cgte_eval::Target::Weight(a, b) => format!("weight:{a}-{b}"),
                        }
                    ));
                }
                let mut table = Table::new(headers);
                for (i, s) in e.sizes.iter().enumerate() {
                    let mut row = vec![s.to_string()];
                    for (_, _, _, series) in &e.entries {
                        row.push(fmt_nrmse(series[i]));
                    }
                    table.row(row);
                }
                ctx.emitter.emit(
                    &sanitize_name(&job.id),
                    &format!("{} — NRMSE", job.id),
                    &table,
                );
            }
            JobOutput::Columns(cols) => {
                let headers: Vec<String> = cols.iter().map(|c| c.label.clone()).collect();
                let rows = cols.iter().map(|c| c.values.len()).max().unwrap_or(0);
                let mut table = Table::new(headers);
                for i in 0..rows {
                    table.row(
                        cols.iter()
                            .map(|c| c.values.get(i).map(|v| fmt_nrmse(*v)).unwrap_or_default())
                            .collect(),
                    );
                }
                ctx.emitter
                    .emit(&sanitize_name(&job.id), &job.id.to_string(), &table);
            }
            JobOutput::Sections(sections) => {
                for s in sections {
                    ctx.emitter.section(s);
                }
            }
        }
    }
    Ok(())
}

fn sanitize_name(id: &str) -> String {
    id.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sizes_spans_range() {
        let v = log_sizes(100, 10_000, 5);
        assert_eq!(v.first(), Some(&100));
        assert_eq!(v.last(), Some(&10_000));
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fmt_nrmse_handles_nan() {
        assert_eq!(fmt_nrmse(f64::NAN), "-");
        assert_eq!(fmt_nrmse(0.12345), "0.1235");
    }
}
