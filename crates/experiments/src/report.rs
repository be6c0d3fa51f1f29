//! Experiment outputs and the dispatch used by the `grp-experiments` binary,
//! with the pieces an output is made of: markdown/CSV [`Table`]s, per-round
//! [`TimeSeries`] and replicate [`Summary`] statistics.

use crate::runner::Scale;
pub use crate::series::TimeSeries;
pub use crate::stats::Summary;
pub use crate::table::Table;
use std::fs;
use std::io;
use std::path::Path;

/// Everything an experiment produces: tables (for "Table" experiments),
/// series (for "Figure" experiments) and free-form notes.
#[derive(Clone, Debug, Default)]
pub struct ExperimentOutput {
    pub id: String,
    pub title: String,
    pub tables: Vec<Table>,
    pub series: Vec<TimeSeries>,
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// A new, empty output.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentOutput {
            id: id.into(),
            title: title.into(),
            ..Default::default()
        }
    }

    /// Render the whole output as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id.to_uppercase(), self.title);
        for note in &self.notes {
            out.push_str(&format!("> {note}\n"));
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        for series in &self.series {
            out.push_str(&format!(
                "### series: {}\n\n```csv\n{}```\n\n",
                series.name,
                series.to_csv()
            ));
        }
        out
    }
}

/// Run one experiment by identifier (`e1` … `e10`).
pub fn run_experiment(id: &str, scale: Scale) -> Option<ExperimentOutput> {
    let output = match id {
        "e1" => crate::e1_convergence::run(scale),
        "e2" => crate::e2_formation::run(scale),
        "e3" => crate::e3_predicates::run(scale),
        "e4" => crate::e4_continuity::run(scale),
        "e5" => crate::e5_churn::run(scale),
        "e6" => crate::e6_overhead::run(scale),
        "e7" => crate::e7_faults::run(scale),
        "e8" => crate::e8_merge::run(scale),
        "e9" => crate::e9_quarantine_ablation::run(scale),
        "e10" => crate::e10_compat_ablation::run(scale),
        _ => return None,
    };
    Some(output)
}

/// Write every output as a markdown file under `dir` and return the list of
/// written paths.
pub fn write_results(
    outputs: &[ExperimentOutput],
    dir: &Path,
) -> io::Result<Vec<std::path::PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for output in outputs {
        let path = dir.join(format!("{}.md", output.id));
        fs::write(&path, output.to_markdown())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_id_returns_none() {
        assert!(run_experiment("nope", Scale::Quick).is_none());
    }

    #[test]
    fn markdown_rendering_includes_tables_and_series() {
        let mut out = ExperimentOutput::new("e0", "demo");
        let mut t = Table::new("tbl", &["a"]);
        t.push([1]);
        out.tables.push(t);
        let mut s = TimeSeries::new("ser");
        s.push(0, 1.0);
        out.series.push(s);
        out.notes.push("note".into());
        let md = out.to_markdown();
        assert!(md.contains("## E0"));
        assert!(md.contains("### tbl"));
        assert!(md.contains("### series: ser"));
        assert!(md.contains("> note"));
    }

    #[test]
    fn write_results_creates_files() {
        let dir = std::env::temp_dir().join("grp_experiments_test_out");
        let _ = std::fs::remove_dir_all(&dir);
        let outputs = vec![ExperimentOutput::new("e0", "demo")];
        let written = write_results(&outputs, &dir).unwrap();
        assert_eq!(written.len(), 1);
        assert!(written[0].exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
