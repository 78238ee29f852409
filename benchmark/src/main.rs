//! The repo's benchmark runner.
//!
//! ```text
//! vbp-benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! vbp-benchmark [--seed N] [--seconds S] [--trace] [--quick]    every workload, each in a child process
//! vbp-benchmark compare A B                                     two sets of result files, metric by metric
//! ```
//!
//! One run prints every metric by name with its unit and, as the last
//! line of standard output, one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. It also writes the full record
//! (host, revision, seed, counts) under `--out`, which `compare` reads.
//! See `benchmark/README.md` for what is measured and why.

mod common;
mod compare;
mod inputs;
mod library;
mod metrics;
mod oracle;
mod probes;
mod quantile;
mod serve_hot;
mod serve_stream;
mod spans;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use variantdbscan::{JsonArray, JsonObject};

use common::{Ctx, Report};
use metrics::{END_TO_END, PER_LAYER};

/// The seed a plain `benchmark/run.sh` uses (the catalog's own seed:
/// the paper's workshop date).
const DEFAULT_SEED: u64 = 20160523;

/// Kept out of day-to-day runs: a later change that claims a gain must
/// also show it on this seed.
const HELD_OUT_SEED: u64 = 79192016;

/// Measured seconds of a plain run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;

/// The workloads, with the one-line reasons `BENCHMARK.json` repeats.
const WORKLOADS: [(&str, &str); 5] = [
    (
        "sweep_sw",
        "Paper's headline sweep: 57 variants on SW1@100000 from raw points; reuse and scheduling in core do most of the work, service and store none",
    ),
    (
        "scratch_cf",
        "Four variants that cannot reuse each other on cF_1M_5N@400000: rtree and the dbscan kernel do all the work, reuse and service none",
    ),
    (
        "serve_hot",
        "Closed loop of T HTTP clients through the router to two daemons, uniform over 32 warmed pairs, every submit a cache hit: doors, queue and batch window dominate, the engine is small",
    ),
    (
        "serve_stream",
        "One daemon with a store under APPEND+WATCH; gates the fresh, engine-bound SUBMIT while cache, rtree and index are written. Cache eviction is not reached; restart and p90 are per-layer only",
    ),
    (
        "stream_append",
        "The serve_stream traffic as the feed sees it: gates APPEND sent to DELTA received, which pays index maintenance and cache repair or drop and none of the kernel",
    ),
];

/// `T = min(nproc, 4)`: engine threads and load-generator threads.
fn default_threads() -> usize {
    cpus().min(4)
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "sweep_sw" => library::run(&library::sweep_sw(), ctx),
        "scratch_cf" => library::run(&library::scratch_cf(), ctx),
        "serve_hot" => serve_hot::run(ctx),
        "serve_stream" => serve_stream::run(ctx, serve_stream::Gate::FreshSubmit),
        "stream_append" => serve_stream::run(ctx, serve_stream::Gate::AppendDelta),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vbp-benchmark [--out DIR] --workload W --seed N --seconds S --trace 0|1\n       \
         vbp-benchmark [--out DIR] [--seed N] [--seconds S] [--trace] [--quick]\n       \
         vbp-benchmark compare A B\nworkloads: {}\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--quick" => args.quick = true,
            // `--trace 0|1` from the driver, a bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Output of `program args…`, trimmed; "unknown" when it cannot run
/// (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One printed metric: name, unit, value and a note on how to read it.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// The rows a run prints: every end-to-end metric (untraced run) or
/// every per-layer metric (traced run; 0 where the workload never set
/// it, because it never enters that layer).
fn rows(report: &Report, trace: bool) -> Vec<Row> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| Row {
                name: m.name,
                unit: m.unit,
                value: report.values.get(m.name).unwrap_or(0.0),
                note: format!(
                    "{} is better{}",
                    m.better.as_str(),
                    if m.exact { ", exact" } else { "" }
                ),
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| Row {
                name: m.name,
                unit: m.unit,
                value: report
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("the workload did not report {}", m.name)),
                note: format!(
                    "{} is better, bound {}%",
                    m.better.as_str(),
                    m.bound * 100.0
                ),
            })
            .collect()
    }
}

/// `{name: {"value": v, "unit": u}}`.
fn metrics_json(rows: &[Row]) -> String {
    let mut out = JsonObject::new();
    for r in rows {
        let body = JsonObject::new()
            .float("value", r.value)
            .str("unit", r.unit)
            .finish();
        out = out.raw(r.name, &body);
    }
    out.finish()
}

/// Path of the record a run with this process id writes.
fn record_path(out_dir: &Path, workload: &str, args: &Args, trace: bool, pid: u32) -> PathBuf {
    out_dir.join(format!(
        "run-{workload}-seed{}-{}s-trace{}-{pid}.json",
        args.seed,
        args.seconds,
        u8::from(trace)
    ))
}

/// One run of one workload in this process.
fn run_one(name: &str, args: &Args, started: Instant) -> ExitCode {
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: default_threads(),
        out_dir: args.out_dir.clone(),
        started,
    };
    let Some(report) = run_workload(name, &ctx) else {
        eprintln!("unknown workload {name}");
        return usage();
    };
    let correct = report.tally.failed == 0;

    let rows = rows(&report, args.trace);
    let table = metrics_json(&rows);
    println!(
        "{name}: seed {} · {} s window · T = {} of {} cpus · {}",
        args.seed,
        args.seconds,
        ctx.threads,
        cpus(),
        if args.trace {
            "traced run, per-layer metrics"
        } else {
            "end-to-end metrics"
        }
    );
    for r in &rows {
        println!(
            "  {:<34} {:>16.4} {:<6} ({})",
            r.name, r.value, r.unit, r.note
        );
    }
    println!(
        "  operations: {} attempted, {} succeeded, {} failed",
        report.tally.attempted,
        report.tally.attempted - report.tally.failed,
        report.tally.failed
    );
    for p in &report.tally.problems {
        println!("  FAILED: {p}");
    }
    for n in &report.notes {
        println!("  note: {n}");
    }

    if let Some(spans) = &report.spans {
        let path = args.out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, spans.to_json(name)).expect("write the span file");
        println!("  spans: {}", path.display());
        for (layer, t) in spans.self_times() {
            println!(
                "  self time {layer:<26} {:>12.6} s of {:>12.6} s in {} spans",
                t.self_ns as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                t.count
            );
        }
    }

    let here = args.out_dir.parent().unwrap_or(Path::new("."));
    let (mut problems, mut notes) = (JsonArray::new(), JsonArray::new());
    for p in &report.tally.problems {
        problems.push_str(p);
    }
    for n in &report.notes {
        notes.push_str(n);
    }
    let record = JsonObject::new()
        .str("workload", name)
        .boolean("trace", args.trace)
        .uint("seed", args.seed)
        .float("seconds", args.seconds)
        .uint("cpus", cpus() as u64)
        .uint("threads", ctx.threads as u64)
        .str("git", &tool_line("git", &["rev-parse", "HEAD"], here))
        .str("rustc", &tool_line("rustc", &["-V"], here))
        .boolean("correct", correct)
        .uint("sent", report.tally.attempted)
        .uint("succeeded", report.tally.attempted - report.tally.failed)
        .uint("failed", report.tally.failed)
        .raw("problems", &problems.finish())
        .raw("notes", &notes.finish())
        .raw("metrics", &table)
        .finish();
    let path = record_path(&args.out_dir, name, args, args.trace, std::process::id());
    std::fs::write(&path, record).expect("write the run record");

    println!(
        "{}",
        JsonObject::new()
            .boolean("correct", correct)
            .uint("attempted", report.tally.attempted)
            .uint("failed", report.tally.failed)
            .raw("metrics", &table)
            .finish()
    );
    // The result line is printed either way; a mismatch fails the command.
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of this runner so that
/// `peak_rss_mb` is the workload's own; with `--trace`, a second, traced
/// run of each. Fails when any run is incorrect.
fn run_suite(args: &Args) -> ExitCode {
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let exe = std::env::current_exe().expect("the runner's own path");
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut records = JsonArray::new();
    let mut ok = true;
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        for &trace in modes {
            let child = Command::new(&exe)
                .arg("--out")
                .arg(&args.out_dir)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a workload process");
            let pid = child.id();
            let output = child.wait_with_output().expect("wait for the workload");
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            let correct = output.status.success()
                && vbp_service::parse_json(last.as_bytes())
                    .ok()
                    .and_then(|doc| doc.get("correct").and_then(|c| c.as_bool()))
                    == Some(true);
            if !correct {
                println!("  {name} (trace {}) FAILED", u8::from(trace));
                ok = false;
            }
            let path = record_path(&args.out_dir, name, args, trace, pid);
            if let Ok(record) = std::fs::read_to_string(path) {
                records.push_raw(&record);
            }
        }
    }
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, records.finish()).expect("write the combined result");
    println!("result: {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => usage(),
        };
    }
    let args = match parse_args(&argv) {
        // `--quick`: a tenth of the window, for smoke tests.
        Ok(args) if args.quick => Args {
            seconds: args.seconds / 10.0,
            quick: false,
            ..args
        },
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args, started),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_service::{parse_json, JsonValue};

    fn repo_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The `[profile.release]` table of a manifest, comments and blank
    /// lines dropped.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.trim().to_string())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The measured code must be compiled the way `vbp` is.
    #[test]
    fn release_profile_equals_the_root_manifest() {
        let root = release_profile(&repo_file("Cargo.toml"));
        let own = release_profile(&repo_file("benchmark/Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, own);
    }

    fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key).and_then(JsonValue::as_str).unwrap()
    }

    /// `BENCHMARK.json` tells the driver what this runner prints; the
    /// two may not drift.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse_json(repo_file("BENCHMARK.json").as_bytes()).unwrap();
        let keys: Vec<&str> = doc
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((str_of(w, "name"), str_of(w, "why")), (name, why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        for (workload, _, _) in metrics::TIGHTER {
            assert!(WORKLOADS.iter().any(|(name, _)| name == workload));
        }

        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(JsonValue::as_f64), Some(m.bound));
        }

        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better.as_str());
        }
    }

    #[test]
    fn both_spellings_of_trace_parse() {
        let parse = |s: &str| {
            parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>()).map(|a| {
                (
                    a.workload,
                    a.seed,
                    a.seconds,
                    a.trace,
                    a.quick,
                    a.out_dir.display().to_string(),
                )
            })
        };
        assert_eq!(
            parse("--workload serve_hot --seed 5 --seconds 2 --trace 0"),
            Ok((
                Some("serve_hot".to_string()),
                5,
                2.0,
                false,
                false,
                "benchmark/out".to_string()
            ))
        );
        assert!(parse("--workload sweep_sw --trace 1").unwrap().3);
        let suite = parse("--trace --quick --out o").unwrap();
        assert_eq!(
            (suite.0, suite.3, suite.4, suite.5.as_str()),
            (None, true, true, "o")
        );
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
