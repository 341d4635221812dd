//! Minimal flag parsing: `--key value` pairs and boolean `--flag`s.

use std::collections::HashMap;

/// Parsed `--key value` / `--flag` arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["check", "quiet", "full"];

impl Flags {
    /// Parses an argument list for a subcommand that reads the flags in
    /// `known` (space-separated names without the `--`).
    ///
    /// # Errors
    ///
    /// Rejects non-flag tokens, flags not in `known` (a misspelt flag must
    /// not silently run the default) and value flags without a value.
    pub fn parse(args: &[String], known: &str) -> Result<Flags, String> {
        match Flags::parse_positional(args, known)? {
            (f, rest) if rest.is_empty() => Ok(f),
            (_, rest) => Err(format!("unexpected argument '{}'", rest[0])),
        }
    }

    /// [`Flags::parse`] for a subcommand that takes positional arguments:
    /// the non-flag tokens come back in order.
    pub fn parse_positional(args: &[String], known: &str) -> Result<(Flags, Vec<String>), String> {
        let mut f = Flags::default();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                positional.push(a.clone());
                continue;
            };
            if !known.split(' ').any(|k| k == key) {
                let takes = if known.is_empty() { "no flags" } else { known };
                return Err(format!(
                    "unknown flag --{key} (this subcommand takes: {takes})"
                ));
            }
            if SWITCHES.contains(&key) {
                f.switches.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                f.values.insert(key.to_string(), v.clone());
            }
        }
        Ok((f, positional))
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed numeric value with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: '{v}'")),
        }
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Comma-separated list value.
    pub fn list(&self, key: &str) -> Result<Vec<String>, String> {
        Ok(self
            .require(key)?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(
            &argv("--workload mcf,libquantum --insts 5000 --check"),
            "workload insts check quiet",
        )
        .unwrap();
        assert_eq!(f.get("workload"), Some("mcf,libquantum"));
        assert_eq!(f.num::<u64>("insts", 0).unwrap(), 5000);
        assert!(f.has("check"));
        assert!(!f.has("quiet"));
        assert_eq!(f.list("workload").unwrap(), vec!["mcf", "libquantum"]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Flags::parse(&argv("positional"), "insts").is_err());
        assert!(Flags::parse(&argv("--insts"), "insts").is_err());
        let f = Flags::parse(&argv("--insts abc"), "insts").unwrap();
        assert!(f.num::<u64>("insts", 0).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_that_name_the_flag() {
        let known = "workload insts check";
        // A typo of a value flag, and a switch this subcommand never reads.
        for (line, flag) in [
            ("--workload mcf --inst 5", "--inst "),
            ("--workload mcf --quiet", "--quiet "),
            ("--energy", "--energy "),
        ] {
            let err = Flags::parse(&argv(line), known).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
            assert!(err.contains("takes: workload insts check"), "{line}: {err}");
        }
    }

    /// Positional arguments come back in order, from anywhere among the
    /// flags; a switch takes no value, so the token after it is one.
    #[test]
    fn positionals_come_back_in_order() {
        let (f, positional) =
            Flags::parse_positional(&argv("a.jsonl --quiet b --jobs 2 c"), "jobs quiet").unwrap();
        assert_eq!(positional, ["a.jsonl", "b", "c"]);
        assert!(f.has("quiet"));
        assert_eq!(f.get("jobs"), Some("2"));
        assert!(Flags::parse_positional(&argv("a --bogus 1"), "jobs").is_err());
    }

    #[test]
    fn defaults_flow_through() {
        let f = Flags::parse(&[], "insts workload").unwrap();
        assert_eq!(f.num::<u64>("insts", 42).unwrap(), 42);
        assert!(f.require("workload").is_err());
    }
}
