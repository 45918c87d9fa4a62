//! One report type for every `experiments` artifact.
//!
//! Each report module renders its rows with its own hand-written
//! formatters (so the committed bytes never move) and hands back a
//! [`Report`]: the deterministic JSON, the full artifact, the optional
//! decision table and the contract flags, computed from the same typed
//! rows the JSON renders. The `experiments` CLI writes any report by
//! name through [`report`] and exits non-zero on a false flag; the
//! artifact gate (`crates/bench/tests/artifacts.rs`) builds every report
//! twice and checks it against the committed files.

/// Every report as `(name, JSON artifact, decision-table artifact)`, in
/// CLI order. The paths are the committed artifacts at the repository
/// root and the CLI's default output paths.
pub const REPORTS: [(&str, &str, Option<&str>); 7] = [
    ("obs", "BENCH_pr3.json", None),
    ("kernels", "BENCH_pr4.json", None),
    ("comm", "BENCH_pr5.json", None),
    ("tune", "BENCH_pr7.json", Some("TUNE_pr7.table")),
    ("serve", "BENCH_pr8.json", None),
    ("codec", "BENCH_pr9.json", Some("TUNE_pr9.table")),
    ("pipeline", "BENCH_pr10.json", None),
];

/// A built report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The deterministic sections: byte-identical from run to run.
    pub counters: String,
    /// The full artifact: `counters` plus any wall-clock section (equal
    /// to `counters` for reports that measure no wall time).
    pub full: String,
    /// The `msa-tune-v1` decision table, for the reports that emit one.
    pub table: Option<String>,
    /// Contract flags; a report holds when every one is true. A flag
    /// the JSON does not render is still checked.
    pub flags: Vec<(&'static str, bool)>,
}

impl Report {
    /// A report with no wall-clock section and no table.
    pub(crate) fn deterministic(json: String, flags: Vec<(&'static str, bool)>) -> Report {
        Report {
            full: json.clone(),
            counters: json,
            table: None,
            flags,
        }
    }

    /// Names of the flags that read false.
    pub fn failed(&self) -> Vec<&'static str> {
        self.flags
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|&(name, _)| name)
            .collect()
    }
}

/// Builds the named report, or `None` for an unknown name. `fast`
/// shrinks `kernels` and `comm` to smoke size (`comm`'s speedup flag
/// becomes informational); the other reports have one size. With
/// `counters_only`, `pipeline` skips its measured epoch timing, which
/// only the full artifact carries.
pub fn report(name: &str, fast: bool, counters_only: bool) -> Option<Report> {
    Some(match name {
        "obs" => crate::obs_report(),
        "kernels" => crate::kernels::kernel_report(fast),
        "comm" => crate::comm::comm_report(fast),
        "tune" => crate::tune::tune_report(),
        "serve" => crate::serve::serve_report(),
        "codec" => crate::codec::codec_report(),
        "pipeline" => crate::pipeline::pipeline_report(!counters_only),
        _ => return None,
    })
}
