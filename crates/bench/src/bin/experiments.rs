//! CLI for the experiment harness.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- e3
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- obs BENCH_pr3.json
//! cargo run --release -p bench --bin experiments -- kernels BENCH_pr4.json
//! cargo run --release -p bench --bin experiments -- comm BENCH_pr5.json
//! cargo run --release -p bench --bin experiments -- tune TUNE_pr7.table BENCH_pr7.json
//! cargo run --release -p bench --bin experiments -- serve BENCH_pr8.json
//! cargo run --release -p bench --bin experiments -- codec TUNE_pr9.table BENCH_pr9.json
//! cargo run --release -p bench --bin experiments -- pipeline BENCH_pr10.json
//! ```
//!
//! Every artifact report goes through one writer: it builds the
//! [`bench::report::Report`], writes the table (if any) and the JSON, and
//! exits non-zero when a contract flag is false. `MSA_BENCH_FAST=1`
//! shrinks `kernels` and `comm` to smoke size; the other reports have
//! one size. `crates/bench/tests/artifacts.rs` checks every report
//! against its committed artifact.

use bench::report::REPORTS;

const USAGE: &str = "usage: experiments <e1..e14|all> [more ids…]
       experiments <report> [--counters] [table path] [json path]
  e1  Table I + system inventories
  e2  workload/module affinity (Fig. 2)
  e3  distributed DL scaling + accuracy (Fig. 3)
  e4  parallel cascade SVM
  e5  GRU imputation of ICU series
  e6  COVID-Net, V100 vs A100
  e7  quantum-annealer SVM ensembles
  e8  GCE vs software allreduce
  e9  NAM staging vs duplicate downloads
  e10 analytics on DAM memory tiers
  e11 scheduler: MSA vs monolithic
  e12 modular workflow: train here, infer there
  e13 checkpoint/restart: NAM vs parallel FS
  e14 interactive sessions: reserved DAM vs shared queue
reports (default paths shown; each exits non-zero if a contract flag is
false; --counters writes only the deterministic sections, by default to
<json stem>_counters.json):
  obs      deterministic observability snapshot -> BENCH_pr3.json
  kernels  kernel throughput + bit-exactness -> BENCH_pr4.json
           (MSA_BENCH_FAST=1: smoke size)
  comm     collective wire counters, fused-vs-serialized bit-equality,
           overlap speedup + allreduce timing sweep -> BENCH_pr5.json
           (MSA_BENCH_FAST=1: smoke size)
  tune     measured collective autotuner grid (real executions up to 128
           ranks, priced virtual clocks) -> TUNE_pr7.table + BENCH_pr7.json
  serve    dynamic-batching inference grid (3 policies x 4 offered loads,
           CNN on ESB + GRU on DAM, SLO admission) -> BENCH_pr8.json
  codec    gradient wire codecs (dense f32 vs bf16 vs 1%-top-k): allreduce
           grid up to 128 ranks on the priced clock, fused trainer step
           times, 96/128-GPU scaling, convergence parity
           -> TUNE_pr9.table + BENCH_pr9.json
  pipeline overlapped input pipeline: prefetch-vs-eager bit-identity under
           all three codecs, modeled depth sweep, slab-pool zero-alloc
           proof, 96/128-GPU projection, measured stage-bound epoch
           speedup (full report only) -> BENCH_pr10.json";

/// Writes report `name`: `args` is `[--counters] [table path] [json
/// path]`, the table path only for reports that emit a table. Returns
/// the exit code.
fn write_report(
    name: &str,
    json_default: &str,
    table_default: Option<&str>,
    args: &[String],
) -> i32 {
    let counters_only = args.first().is_some_and(|a| a == "--counters");
    let mut paths = args[usize::from(counters_only)..]
        .iter()
        .map(String::as_str);
    let fast = std::env::var("MSA_BENCH_FAST").is_ok_and(|v| v == "1");
    let Some(report) = bench::report::report(name, fast, counters_only) else {
        // lint: allow(print) -- CLI diagnostic on stderr
        eprintln!("no report named {name}");
        return 2;
    };
    let table_path = table_default.map(|d| paths.next().unwrap_or(d));
    let counters_default = json_default.replace(".json", "_counters.json");
    let json_path = paths.next().unwrap_or(if counters_only {
        &counters_default
    } else {
        json_default
    });
    let json = if counters_only {
        &report.counters
    } else {
        &report.full
    };
    let table = table_path.zip(report.table.as_ref());
    for (path, body) in table.into_iter().chain([(json_path, json)]) {
        if let Err(e) = std::fs::write(path, body) {
            // lint: allow(print) -- CLI diagnostic on stderr
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    let failed = report.failed();
    if !failed.is_empty() {
        // lint: allow(print) -- CLI diagnostic on stderr
        eprintln!(
            "{name} contract flags failed: {}; see {json_path}",
            failed.join(", ")
        );
        return 1;
    }
    // lint: allow(print) -- CLI status output
    println!(
        "wrote {name} report to {}{json_path}",
        table_path.map_or(String::new(), |t| format!("{t} and "))
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        // lint: allow(print) -- CLI usage on stderr
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if let Some(&(name, json, table)) = REPORTS.iter().find(|r| r.0 == args[0]) {
        std::process::exit(write_report(name, json, table, &args[1..]));
    }
    for id in &args {
        // lint: allow(print) -- CLI report output
        print!("{}", bench::run(id));
        // lint: allow(print) -- CLI report output
        println!();
    }
}
