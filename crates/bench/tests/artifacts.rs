//! The artifact gate. Every `experiments` report is built twice at the
//! size its committed evidence was checked at, and must
//!
//! 1. be byte-identical across the two builds (JSON and table);
//! 2. reproduce its committed artifact at the repository root;
//! 3. hold every contract flag;
//!
//! and 4. the measured contracts of the timed reports must read true in
//! their committed artifacts. One table row per report, one loop.

use std::path::Path;

use bench::report::{report, Report, REPORTS};

/// The size a report is built at, and how much of the committed JSON
/// artifact it reproduces.
#[derive(Clone, Copy)]
enum Match {
    /// Built at `MSA_BENCH_FAST` size, so none of the committed
    /// full-size timed artifact is reproduced.
    Smoke,
    /// The whole file, byte for byte.
    Whole,
    /// The deterministic sections: the fresh counters, through their
    /// last closed array (before the flag block), open the artifact.
    Sections,
}

struct Gate {
    name: &'static str,
    json: Match,
    /// `"key": value` fields the committed JSON must carry: the measured
    /// contracts of a timed report.
    measured: &'static [(&'static str, &'static str)],
}

const GATES: [Gate; 7] = [
    Gate {
        name: "obs",
        json: Match::Whole,
        measured: &[],
    },
    Gate {
        name: "kernels",
        json: Match::Smoke,
        measured: &[],
    },
    Gate {
        name: "comm",
        json: Match::Smoke,
        measured: &[
            ("steady_state_allocs", "0"),
            ("bit_equal_fused_vs_serialized", "true"),
            ("speedup_ge_1_3x", "true"),
        ],
    },
    Gate {
        name: "tune",
        json: Match::Whole,
        measured: &[],
    },
    Gate {
        name: "serve",
        json: Match::Whole,
        measured: &[],
    },
    Gate {
        name: "codec",
        json: Match::Whole,
        measured: &[],
    },
    Gate {
        name: "pipeline",
        json: Match::Sections,
        measured: &[
            ("prefetch_bit_identical", "true"),
            ("overlap_saves_time", "true"),
            ("zero_steady_state_allocs", "true"),
            ("input_bound_at_scale", "true"),
            ("real_epoch_speedup_ge_1_2x", "true"),
        ],
    },
];

/// Every way `runs` (two builds of one report) falls short of `gate`,
/// given the committed JSON and decision table.
fn verdict(gate: &Gate, runs: [&Report; 2], json: &str, table: Option<&str>) -> Vec<String> {
    let [a, b] = runs;
    let mut errors = Vec::new();
    if a.counters.is_empty() {
        errors.push("empty JSON".to_string());
    }
    if a.counters != b.counters || a.table != b.table {
        errors.push("two builds differ".to_string());
    }
    let reproduced = match gate.json {
        Match::Smoke => true,
        Match::Whole => a.counters == json,
        Match::Sections => a
            .counters
            .rfind("],\n")
            .is_some_and(|i| json.starts_with(&a.counters[..i + 3])),
    };
    if !reproduced {
        errors.push(format!("JSON {}", first_difference(&a.counters, json)));
    }
    match (&a.table, table) {
        (Some(fresh), Some(committed)) if fresh != committed => {
            errors.push(format!("table {}", first_difference(fresh, committed)));
        }
        (None, Some(_)) => errors.push("no decision table".to_string()),
        _ => {}
    }
    let failed = a.failed();
    if !failed.is_empty() {
        errors.push(format!("false flags: {}", failed.join(", ")));
    }
    for &(key, value) in gate.measured {
        if !reads(json, key, value) {
            errors.push(format!("committed \"{key}\" does not read {value}"));
        }
    }
    errors
}

/// Where `fresh` and `committed` first part, line by line.
fn first_difference(fresh: &str, committed: &str) -> String {
    let (f, c): (Vec<_>, Vec<_>) = (fresh.lines().collect(), committed.lines().collect());
    let line = f
        .iter()
        .zip(&c)
        .position(|(x, y)| x != y)
        .unwrap_or(f.len().min(c.len()));
    format!(
        "differs from the committed artifact at line {}:\n  fresh:     {:?}\n  committed: {:?}",
        line + 1,
        f.get(line),
        c.get(line)
    )
}

/// True when `json` has a `"key": ` field and every one reads `value`.
fn reads(json: &str, key: &str, value: &str) -> bool {
    let field = format!("\"{key}\": ");
    let mut found = false;
    for (at, _) in json.match_indices(&field) {
        let rest = &json[at + field.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .unwrap_or(rest.len());
        if &rest[..end] != value {
            return false;
        }
        found = true;
    }
    found
}

fn committed(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn check(gate: &Gate) -> Vec<String> {
    let &(_, json_file, table_file) = REPORTS
        .iter()
        .find(|r| r.0 == gate.name)
        .unwrap_or_else(|| panic!("{} is not a registered report", gate.name));
    let fast = matches!(gate.json, Match::Smoke);
    let build =
        || report(gate.name, fast, true).unwrap_or_else(|| panic!("no report {}", gate.name));
    let (a, b) = (build(), build());
    verdict(
        gate,
        [&a, &b],
        &committed(json_file),
        table_file.map(committed).as_deref(),
    )
}

#[test]
fn every_report_meets_its_gate() {
    assert_eq!(
        GATES.map(|g| g.name),
        REPORTS.map(|r| r.0),
        "one gate row per report"
    );
    // The rows are independent; building them side by side keeps the
    // gate near the cost of its slowest report.
    let failures: Vec<String> = std::thread::scope(|s| {
        let running: Vec<_> = GATES
            .iter()
            .map(|g| (g.name, s.spawn(|| check(g))))
            .collect();
        running
            .into_iter()
            .flat_map(|(name, run)| {
                run.join()
                    .unwrap_or_else(|_| vec!["panicked".to_string()])
                    .into_iter()
                    .map(move |e| format!("{name}: {e}"))
            })
            .collect()
    });
    assert!(
        failures.is_empty(),
        "artifact gate failed:\n{}",
        failures.join("\n")
    );
}

// ---------------------------------------------------------------------------
// The gate fires: one wrong bit of input, one failure.
// ---------------------------------------------------------------------------

const TOY_JSON: &str =
    "{\n  \"rows\": [\n    {\"bit_equal\": true}\n  ],\n  \"speedup_ge_1_3x\": true\n}";
const TOY_TABLE: &str = "msa-tune-v1\ncell ranks=96 bytes=1024\n";

fn toy_gate(json: Match) -> Gate {
    Gate {
        name: "toy",
        json,
        measured: &[("speedup_ge_1_3x", "true")],
    }
}

fn toy_report(flags: Vec<(&'static str, bool)>) -> Report {
    Report {
        counters: TOY_JSON.to_string(),
        full: TOY_JSON.to_string(),
        table: Some(TOY_TABLE.to_string()),
        flags,
    }
}

fn toy_verdict(gate: &Gate, report: &Report, json: &str, table: &str) -> Vec<String> {
    verdict(gate, [report, report], json, Some(table))
}

#[test]
fn gate_fails_on_one_false_flag() {
    let gate = toy_gate(Match::Whole);
    let holds = toy_report(vec![("bit_equal", true), ("winner_is_argmin", true)]);
    assert!(toy_verdict(&gate, &holds, TOY_JSON, TOY_TABLE).is_empty());
    let broken = toy_report(vec![("bit_equal", true), ("winner_is_argmin", false)]);
    let errors = toy_verdict(&gate, &broken, TOY_JSON, TOY_TABLE);
    assert_eq!(errors, ["false flags: winner_is_argmin"]);
}

#[test]
fn gate_fails_on_a_one_byte_difference_from_the_committed_artifact() {
    let report = toy_report(vec![("bit_equal", true)]);
    let json = TOY_JSON.replace("true}", "trUe}");
    let table = TOY_TABLE.replace("1024", "1025");
    for how in [Match::Whole, Match::Sections] {
        let gate = toy_gate(how);
        assert!(toy_verdict(&gate, &report, TOY_JSON, TOY_TABLE).is_empty());
        let errors = toy_verdict(&gate, &report, &json, TOY_TABLE);
        assert!(
            errors.len() == 1 && errors[0].starts_with("JSON differs"),
            "{errors:?}"
        );
        let errors = toy_verdict(&gate, &report, TOY_JSON, &table);
        assert!(
            errors.len() == 1 && errors[0].starts_with("table differs"),
            "{errors:?}"
        );
    }
    // The sections match leaves the flag block free to carry measured
    // fields, and only the flag block.
    let timed = TOY_JSON.replace("  ],\n", "  ],\n  \"real_timing\": 7,\n");
    assert!(toy_verdict(&toy_gate(Match::Sections), &report, &timed, TOY_TABLE).is_empty());
    assert!(!toy_verdict(&toy_gate(Match::Whole), &report, &timed, TOY_TABLE).is_empty());
}

#[test]
fn gate_fails_on_a_committed_measured_flag_reading_false() {
    let gate = toy_gate(Match::Smoke);
    let report = toy_report(vec![]);
    let json = TOY_JSON.replace("\"speedup_ge_1_3x\": true", "\"speedup_ge_1_3x\": false");
    let errors = toy_verdict(&gate, &report, &json, TOY_TABLE);
    assert_eq!(errors, ["committed \"speedup_ge_1_3x\" does not read true"]);
    // Absent counts as false, and a prefix of the wanted value is not it.
    assert!(!reads("{}", "speedup_ge_1_3x", "true"));
    assert!(!reads(
        "{\"zero_steady_state_allocs\": true}",
        "steady_state_allocs",
        "0"
    ));
    assert!(!reads(
        "{\"steady_state_allocs\": 01}",
        "steady_state_allocs",
        "0"
    ));
    assert!(reads(
        "{\"steady_state_allocs\": 0,",
        "steady_state_allocs",
        "0"
    ));
}
