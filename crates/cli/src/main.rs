//! `vbp` — the VariantDBSCAN command line.
//!
//! See [`commands::usage`] (or run `vbp help`) for the command list.

mod args;
mod commands;

use args::{Args, Spec};

/// Flags accepted by each command (one shared spec keeps the parser
/// simple; per-command validation happens in the command itself).
const SPEC: Spec = Spec {
    valued: &[
        "dataset",
        "input",
        "out",
        "eps",
        "minpts",
        "r",
        "threads",
        "scheduler",
        "reuse",
        "addr",
        "http",
        "datasets",
        "queue-cap",
        "cache-mb",
        "batch-ms",
        "level",
        "shards",
        "points",
        "count",
        "store",
        "backends",
        "vnodes",
        "pool",
    ],
    switches: &["render", "json", "labels"],
};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", commands::usage());
        return;
    }
    // `store` takes positional operands (`vbp store inspect FILE`,
    // `vbp store verify DIR`), which the flag grammar rejects — route
    // it before the parser.
    if raw[0] == "store" {
        match commands::store_cmd(&raw[1..]) {
            Ok(output) => print!("{output}"),
            Err(message) => {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
        return;
    }
    let result = Args::parse(&raw, &SPEC).and_then(|args| match args.command.as_str() {
        "datasets" => Ok(commands::datasets()),
        "generate" => commands::generate(&args),
        "info" => commands::info(&args),
        "cluster" => commands::cluster(&args),
        "suggest" => commands::suggest(&args),
        "tune" => commands::tune(&args),
        "sweep" => commands::sweep(&args),
        "trace" => commands::trace(&args),
        "simulate" => commands::simulate_cmd(&args),
        "serve" => commands::serve(&args),
        "route" => commands::route(&args),
        "submit" => commands::submit(&args),
        "append" => commands::append(&args),
        "watch" => commands::watch(&args),
        "metrics" => commands::metrics_cmd(&args),
        other => Err(format!(
            "unknown command '{other}'\n\n{}",
            commands::usage()
        )),
    });
    match result {
        Ok(output) => print!("{output}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
