//! Black-box tests of the `vbp` binary: exit codes and the shape of
//! stdout/stderr for `main.rs`'s routing and for out-of-range numeric
//! flags, which no in-file test can reach.

use std::process::Command;

/// Runs `vbp <line>` (arguments split on whitespace; `DATA` stands for a
/// dataset small enough that a debug build generates it instantly) and
/// returns `(exit code, stdout, stderr)`.
fn vbp(line: &str) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vbp"))
        .args(line.replace("DATA", "cF_10k_5N@300").split_whitespace())
        .output()
        .expect("vbp binary runs");
    (
        out.status.code().expect("vbp exits, not killed"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

/// `vbp <line>` must fail the way every bad invocation does: exit 1,
/// nothing on stdout, an `error: …` line on stderr. Returns stderr.
fn refused(line: &str) -> String {
    let (code, stdout, stderr) = vbp(line);
    assert_eq!(code, 1, "vbp {line}: {stderr}");
    assert_eq!(stdout, "", "vbp {line}");
    assert!(stderr.starts_with("error: "), "vbp {line}: {stderr}");
    stderr
}

#[test]
fn help_in_every_spelling_prints_usage_and_exits_zero() {
    let (_, usage, _) = vbp("help");
    assert!(usage.starts_with("vbp — VariantDBSCAN command line"));
    assert!(usage.contains("\ncommands:\n"));
    for line in [
        "",
        "help",
        "--help",
        "-h",
        "sweep --help",
        "cluster --dataset DATA -h",
        "store --help",
    ] {
        let (code, stdout, stderr) = vbp(line);
        assert_eq!(code, 0, "vbp {line}");
        assert_eq!(stdout, usage, "vbp {line}");
        assert_eq!(stderr, "", "vbp {line}");
    }
}

#[test]
fn unknown_command_is_refused_with_the_usage_text() {
    let stderr = refused("frobnicate");
    assert!(stderr.starts_with("error: unknown command 'frobnicate'"));
    assert!(stderr.contains("\ncommands:\n"));
}

#[test]
fn bad_flags_and_missing_operands_are_refused() {
    let stderr = refused("cluster --eps 0.5");
    assert!(stderr.contains("one of --dataset or --input is required"));
    let stderr = refused("cluster --dataset DATA");
    assert!(stderr.contains("--eps is required"));
    for (line, flag) in [("sweep --nope 1", "nope"), ("sweep --shards 2", "shards")] {
        let stderr = refused(line);
        assert!(
            stderr.contains(&format!("unknown flag --{flag}")),
            "{stderr}"
        );
    }
    for line in ["store", "store inspect"] {
        let stderr = refused(line);
        assert!(stderr.contains("usage: vbp store inspect FILE | vbp store verify DIR"));
    }
}

#[test]
fn out_of_range_numbers_are_errors_not_panics() {
    for (line, refusal) in [
        ("cluster --dataset DATA --eps -1", "eps: must be "),
        ("cluster --dataset DATA --eps nan", "eps: must be "),
        ("cluster --dataset DATA --eps inf", "eps: must be "),
        (
            "cluster --dataset DATA --eps 0.5 --minpts 0",
            "minpts: must be ",
        ),
        ("cluster --dataset DATA --eps 0.5 --r 0", "r: must be "),
        (
            "sweep --dataset DATA --eps -1,0.5 --minpts 4",
            "eps: must be ",
        ),
        (
            "sweep --dataset DATA --eps 0.5 --minpts 0,4",
            "minpts: must be ",
        ),
        // `sweep` used to clamp these two to 1 silently.
        (
            "sweep --dataset DATA --eps 0.5 --minpts 4 --r 0",
            "r: must be ",
        ),
        (
            "sweep --dataset DATA --eps 0.5 --minpts 4 --threads 0",
            "threads: must be ",
        ),
        // `r` is a number; there is no automatic choice.
        (
            "sweep --dataset DATA --eps 0.5 --minpts 4 --r auto",
            "r: cannot parse 'auto'",
        ),
        ("trace --dataset DATA --eps nan --minpts 4", "eps: must be "),
        ("suggest --dataset DATA --minpts 0", "minpts: must be "),
        ("tune --dataset DATA --eps -1", "eps: must be "),
        (
            "simulate --eps 0.2,0.3 --minpts 4,8 --threads 0",
            "threads: must be ",
        ),
    ] {
        let stderr = refused(line);
        assert!(
            stderr.starts_with(&format!("error: --{refusal}")),
            "vbp {line}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "vbp {line}: {stderr}");
        assert!(!stderr.contains("panicked"), "vbp {line}: {stderr}");
    }
}

#[test]
fn boundary_values_the_library_accepts_still_run() {
    let (code, stdout, stderr) = vbp("cluster --dataset DATA --eps 0 --minpts 1 --r 1");
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("clusters"), "{stdout}");
    assert_eq!(stderr, "");
}
