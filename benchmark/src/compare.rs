//! `compare A B`: two sets of result files, metric by metric.
//!
//! Each side is a record file, a `result.json` array of records, or a
//! directory holding `run-*.json` records. For every workload either
//! side ran and every end-to-end metric it prints both medians, their
//! ratio with its base, the bound, and a verdict:
//!
//! - `unresolved`: a side's own run-to-run spread (distance between the
//!   quartiles over the median) is wider than the bound, so the runs
//!   cannot tell the two sides apart;
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `missing`: one side has no value for the row;
//! - `ok`: otherwise.
//!
//! It exits non-zero on `worse`, on `missing` and on an incorrect run of
//! B. Run on two sets from one commit it is the A/A check of the
//! benchmark itself.
//!
//! Result directories accumulate, so a side is refused when its records
//! were not made the same way: one window length, one thread count and
//! one revision per side, and the same window, thread count and seeds on
//! both sides.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use vbp_service::{parse_json, JsonValue};

use crate::metrics::{bound_for, Better, EndToEnd, END_TO_END};
use crate::quantile::sorted;

/// `(workload, metric) -> values`, from the untraced records of one side.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// The untraced records of one side.
#[derive(Default)]
struct Side {
    samples: Samples,
    incorrect: u64,
    /// How the runs were made, as their records say: the distinct values
    /// of `seconds`, `threads`, `git` and `seed`.
    seconds: BTreeSet<String>,
    threads: BTreeSet<String>,
    git: BTreeSet<String>,
    seeds: BTreeSet<String>,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// A record's setting as text, whether it was written as a number or a
/// string.
fn setting(doc: &JsonValue, key: &str) -> Result<String, String> {
    let v = doc
        .get(key)
        .ok_or_else(|| format!("a record has no {key}"))?;
    match (v.as_str(), v.as_f64()) {
        (Some(s), _) => Ok(s.to_string()),
        (_, Some(n)) => Ok(n.to_string()),
        _ => Err(format!("a record's {key} is neither text nor a number")),
    }
}

fn collect(doc: &JsonValue, side: &mut Side) -> Result<(), String> {
    if let Some(records) = doc.as_array() {
        return records.iter().try_for_each(|r| collect(r, side));
    }
    let workload = doc
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("a record has no workload")?;
    if doc.get("trace").and_then(JsonValue::as_bool) != Some(false) {
        return Ok(());
    }
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        side.incorrect += 1;
    }
    side.seconds.insert(setting(doc, "seconds")?);
    side.threads.insert(setting(doc, "threads")?);
    side.git.insert(setting(doc, "git")?);
    side.seeds.insert(setting(doc, "seed")?);
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::entries)
        .ok_or("a record has no metrics")?;
    for (name, body) in metrics {
        let value = body
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{workload}.{name} has no value"))?;
        side.samples
            .entry((workload.to_string(), name.clone()))
            .or_default()
            .push(value);
    }
    Ok(())
}

fn load(path: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("run-") && name.ends_with(".json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side = Side::default();
    for f in &files {
        let text = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        collect(&doc, &mut side).map_err(|e| format!("{}: {e}", f.display()))?;
    }
    if side.samples.is_empty() {
        return Err(format!("{}: no untraced run records", path.display()));
    }
    let one = |what: &str, values: &BTreeSet<String>| {
        if values.len() == 1 {
            Ok(())
        } else {
            Err(format!(
                "{}: mixes runs with {what} {}; compare one set at a time",
                path.display(),
                values.iter().cloned().collect::<Vec<_>>().join(" and ")
            ))
        }
    };
    one("windows of seconds", &side.seconds)?;
    one("thread counts", &side.threads)?;
    one("revisions", &side.git)?;
    Ok(side)
}

/// The two sides must have been run the same way.
fn comparable(a: &Side, b: &Side) -> Result<(), String> {
    for (what, x, y) in [
        ("window (seconds)", &a.seconds, &b.seconds),
        ("thread count", &a.threads, &b.threads),
        ("seeds", &a.seeds, &b.seeds),
    ] {
        if x != y {
            return Err(format!("the sides differ in {what}: {x:?} and {y:?}"));
        }
    }
    Ok(())
}

/// The three quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the driver's rule); `None` below two values.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let mut q = [0.0; 3];
    for (k, slot) in q.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(q)
}

/// Median and spread (interquartile distance over the median; 0 for a
/// single value) of one side's values.
pub fn summarize(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    match quartiles(&s) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q2, (q3 - q1) / q2.abs()),
        Some([_, q2, _]) => (q2, 0.0),
        None => (s[0], 0.0),
    }
}

/// Both medians, the wider of the two spreads, and the verdict under
/// `bound`.
pub fn verdict(metric: &EndToEnd, bound: f64, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let ((ma, sa), (mb, sb)) = (summarize(a), summarize(b));
    let spread = sa.max(sb);
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let v = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, v)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let loaded = load(a).and_then(|sa| {
        let sb = load(b)?;
        comparable(&sa, &sb)?;
        Ok((sa, sb))
    });
    let (sa, sb) = match loaded {
        Ok(sides) => sides,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, path, side) in [("A", a, &sa), ("B", b, &sb)] {
        println!(
            "{label} = {} (revision {}, {} s window, T = {}, seeds {}, {} incorrect runs)",
            path.display(),
            side.git.iter().next().map_or("?", String::as_str),
            side.seconds.iter().next().map_or("?", String::as_str),
            side.threads.iter().next().map_or("?", String::as_str),
            side.seeds.iter().cloned().collect::<Vec<_>>().join(" "),
            side.incorrect
        );
    }
    println!(
        "{:<13} {:<15} {:>3} {:>12} {:>3} {:>12} {:>18} {:>7} {:>7}  verdict",
        "workload", "metric", "nA", "median A", "nB", "median B", "B/A (base A)", "spread", "bound"
    );
    let (mut worse, mut unresolved, mut missing) = (0, 0, 0);
    let workloads: BTreeSet<&String> = sa
        .samples
        .keys()
        .chain(sb.samples.keys())
        .map(|(w, _)| w)
        .collect();
    for workload in workloads {
        for metric in END_TO_END {
            let key = (workload.clone(), metric.name.to_string());
            let (Some(va), Some(vb)) = (sa.samples.get(&key), sb.samples.get(&key)) else {
                println!("{workload:<13} {:<15} missing on one side", metric.name);
                missing += 1;
                continue;
            };
            let bound = bound_for(workload, metric);
            let (ma, mb, spread, v) = verdict(metric, bound, va, vb);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<13} {:<15} {:>3} {ma:>12.4} {:>3} {mb:>12.4} {:>9.4} ({ma:.4}) {:>6.1}% {:>6.1}%  {}",
                metric.name,
                va.len(),
                vb.len(),
                mb / ma,
                spread * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved, {missing} missing");
    if worse > 0 || missing > 0 || sb.incorrect > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(summarize(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let lower = END_TO_END.iter().find(|m| m.name == "op_p50_ms").unwrap();
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "throughput_ops")
            .unwrap();
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        let bound = 0.1;
        let base = [100.0, 101.0, 99.0];
        let slow = |f: f64| base.map(|v| v * f);
        let of = |m, a: &[f64], b: &[f64]| verdict(m, bound, a, b).3;
        assert_eq!(of(lower, &base, &base), Verdict::Ok);
        assert_eq!(of(lower, &base, &slow(1.09)), Verdict::Ok);
        assert_eq!(of(lower, &base, &slow(1.12)), Verdict::Worse);
        assert_eq!(of(lower, &base, &slow(0.5)), Verdict::Ok);
        assert_eq!(of(higher, &base, &slow(0.5)), Verdict::Worse);
        assert_eq!(of(higher, &base, &slow(2.0)), Verdict::Ok);
        assert_eq!(of(lower, &base, &[80.0, 100.0, 120.0]), Verdict::Unresolved);
    }

    fn record(workload: &str, value: f64, trace: bool, seconds: f64, seed: u64) -> String {
        format!(
            r#"{{"workload":"{workload}","trace":{trace},"correct":true,"seed":{seed},"seconds":{seconds},"threads":2,"git":"abc","metrics":{{"op_p50_ms":{{"value":{value},"unit":"ms"}}}}}}"#
        )
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_load_from_files_arrays_and_directories() {
        let dir = scratch_dir("compare-load");
        std::fs::write(dir.join("run-a.json"), record("w", 1.0, false, 20.0, 7)).unwrap();
        std::fs::write(dir.join("run-b.json"), record("w", 3.0, false, 20.0, 7)).unwrap();
        std::fs::write(dir.join("run-c.json"), record("w", 9.0, true, 20.0, 7)).unwrap();
        std::fs::write(
            dir.join("result.json"),
            format!(
                "[{},{}]",
                record("w", 2.0, false, 20.0, 7),
                record("w", 9.0, true, 20.0, 7)
            ),
        )
        .unwrap();
        let key = ("w".to_string(), "op_p50_ms".to_string());
        let from_dir = load(&dir).unwrap();
        assert_eq!(from_dir.samples[&key], vec![1.0, 3.0]);
        assert_eq!(from_dir.incorrect, 0);
        let from_array = load(&dir.join("result.json")).unwrap();
        assert_eq!(from_array.samples[&key], vec![2.0]);
        assert!(load(&dir.join("run-c.json")).is_err());
        assert!(load(&dir.join("nope.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A result directory that gathered quick and full runs, or runs of
    /// two seeds against runs of one, is not one sample set.
    #[test]
    fn sets_made_in_different_ways_are_refused() {
        let dir = scratch_dir("compare-mixed");
        let write = |name: &str, body: String| {
            let d = dir.join(name);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("run-1.json"), body).unwrap();
            d
        };
        let full = write("full", record("w", 1.0, false, 20.0, 7));
        let quick = write("quick", record("w", 1.0, false, 2.0, 7));
        let other_seed = write("seed", record("w", 1.0, false, 20.0, 8));
        std::fs::write(full.join("run-2.json"), record("w", 1.1, false, 20.0, 7)).unwrap();
        std::fs::write(quick.join("run-2.json"), record("w", 1.0, false, 20.0, 7)).unwrap();

        let mixed = load(&quick).err().expect("two windows in one side");
        assert!(mixed.contains("2 and 20"), "{mixed}");
        let (a, b) = (load(&full).unwrap(), load(&other_seed).unwrap());
        assert!(comparable(&a, &a).is_ok());
        assert!(comparable(&a, &b).unwrap_err().contains("seeds"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
