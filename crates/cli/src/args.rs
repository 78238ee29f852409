//! Minimal dependency-free argument parsing.
//!
//! Grammar: `vbp <command> [--flag value]… [--switch]…`. Flags are
//! declared per command; unknown flags are errors (typos should not
//! silently change an experiment).

use std::collections::HashMap;

/// Parsed arguments: a command name plus flag values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// The subcommand.
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Which flags a command accepts.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Flags taking a value (`--eps 0.5`).
    pub valued: &'static [&'static str],
    /// Boolean switches (`--full`).
    pub switches: &'static [&'static str],
}

impl Args {
    /// Parses raw arguments (without the program name) against a spec.
    pub fn parse(raw: &[String], spec: &Spec) -> Result<Args, String> {
        let mut it = raw.iter();
        let command = it
            .next()
            .ok_or_else(|| "missing command".to_string())?
            .clone();
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{tok}'"));
            };
            if spec.switches.contains(&name) {
                args.switches.push(name.to_string());
            } else if spec.valued.contains(&name) {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                if args.flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(format!("--{name} given twice"));
                }
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(args)
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// Parsed numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    // The numeric flags below reach library constructors that assert their
    // preconditions (`DbscanParams::new`, `Variant::new`,
    // `PackedRTree::build`, `kdist_plot`, `tune_r`, `simulate_with`); a
    // value from the command line is checked here, once, so that it is an
    // `error:` line and exit 1 rather than a panic.

    /// Required `--eps E`: finite and ≥ 0.
    pub fn eps(&self) -> Result<f64, String> {
        let eps = self
            .require("eps")?
            .parse()
            .map_err(|_| "--eps: not a number".to_string())?;
        check_eps(eps)
    }

    /// Required `--eps E1,E2,…`: every ε finite and ≥ 0.
    pub fn eps_list(&self) -> Result<Vec<f64>, String> {
        parse_list(self.require("eps")?, "eps")?
            .into_iter()
            .map(check_eps)
            .collect()
    }

    /// `--minpts M` (default 4): ≥ 1.
    pub fn minpts(&self) -> Result<usize, String> {
        at_least_one("minpts", self.num("minpts", 4)?)
    }

    /// Required `--minpts M1,M2,…`: every minpts ≥ 1.
    pub fn minpts_list(&self) -> Result<Vec<usize>, String> {
        parse_list(self.require("minpts")?, "minpts")?
            .into_iter()
            .map(|m| at_least_one("minpts", m))
            .collect()
    }

    /// `--r R` (default 80, the middle of the paper's good range): ≥ 1.
    pub fn r(&self) -> Result<usize, String> {
        at_least_one("r", self.num("r", 80)?)
    }

    /// `--threads T`: ≥ 1.
    pub fn threads(&self, default: usize) -> Result<usize, String> {
        at_least_one("threads", self.num("threads", default)?)
    }
}

fn check_eps(eps: f64) -> Result<f64, String> {
    if eps.is_finite() && eps >= 0.0 {
        Ok(eps)
    } else {
        Err("--eps: must be finite and ≥ 0".into())
    }
}

fn at_least_one(name: &str, value: usize) -> Result<usize, String> {
    if value >= 1 {
        Ok(value)
    } else {
        Err(format!("--{name}: must be ≥ 1"))
    }
}

fn parse_list<T: std::str::FromStr>(raw: &str, name: &str) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, _> = raw.split(',').map(|s| s.trim().parse()).collect();
    let items = items.map_err(|_| format!("--{name}: cannot parse list '{raw}'"))?;
    if items.is_empty() {
        return Err(format!("--{name}: empty list"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        valued: &["eps", "minpts", "out"],
        switches: &["full"],
    };

    fn raw(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = Args::parse(
            &raw(&["sweep", "--eps", "0.2,0.4", "--full", "--minpts", "4"]),
            &SPEC,
        )
        .unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.eps_list().unwrap(), vec![0.2, 0.4]);
        assert_eq!(a.minpts_list().unwrap(), vec![4]);
        assert!(a.has("full"));
        assert!(!a.has("out"));
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = Args::parse(&raw(&["sweep", "--nope", "1"]), &SPEC).unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn rejects_missing_value_and_duplicates() {
        assert!(Args::parse(&raw(&["sweep", "--eps"]), &SPEC)
            .unwrap_err()
            .contains("requires a value"));
        assert!(
            Args::parse(&raw(&["sweep", "--eps", "1", "--eps", "2"]), &SPEC)
                .unwrap_err()
                .contains("twice")
        );
    }

    #[test]
    fn rejects_positional_garbage_and_missing_command() {
        assert!(Args::parse(&raw(&["sweep", "stray"]), &SPEC).is_err());
        assert!(Args::parse(&raw(&[]), &SPEC).is_err());
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = Args::parse(&raw(&["x", "--minpts", "8"]), &SPEC).unwrap();
        assert_eq!(a.num("minpts", 4usize).unwrap(), 8);
        assert_eq!(a.num("eps", 1.5f64).unwrap(), 1.5);
        let bad = Args::parse(&raw(&["x", "--minpts", "soup"]), &SPEC).unwrap();
        assert!(bad.num::<usize>("minpts", 4).is_err());
    }

    #[test]
    fn list_parsing_edge_cases() {
        let a = Args::parse(&raw(&["x", "--eps", " 0.1 , 0.2 "]), &SPEC).unwrap();
        assert_eq!(a.eps_list().unwrap(), vec![0.1, 0.2]);
        let bad = Args::parse(&raw(&["x", "--eps", "0.1,,0.2"]), &SPEC).unwrap();
        assert!(bad.eps_list().is_err());
    }
}
