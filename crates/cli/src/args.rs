//! Minimal `--key value` / `--flag` argument parsing (no external deps).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line options.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and bare `--flag`s.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got `{arg}`"))?;
            if let Some((k, v)) = key.split_once('=') {
                args.values.insert(k.to_string(), v.to_string());
            } else if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                args.values.insert(key.to_string(), argv[i + 1].clone());
                i += 1;
            } else {
                args.flags.push(key.to_string());
            }
            i += 1;
        }
        Ok(args)
    }

    /// The raw value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Parses the value of `--key` into `T`, if present.
    pub fn get_parse<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|e| format!("--{key} {v}: {e}")),
        }
    }

    /// `true` if the bare flag `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects every option (`--key value` or bare `--flag`) not in
    /// `known`, naming each one (sorted), so a misspelt flag is an error
    /// rather than a silent default.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .filter(|k| !known.contains(k))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let names: Vec<String> = unknown.iter().map(|k| format!("`--{k}`")).collect();
        Err(format!(
            "unknown option {} for `{command}`",
            names.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = Args::parse(&sv(&["--n", "64", "--trace", "--engine", "feedback"])).unwrap();
        assert_eq!(a.get("n"), Some("64"));
        assert_eq!(a.get("engine"), Some("feedback"));
        assert!(a.flag("trace"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn parses_equals_syntax() {
        let a = Args::parse(&sv(&["--n=128", "--seed=9"])).unwrap();
        assert_eq!(a.get_parse::<usize>("n").unwrap(), Some(128));
        assert_eq!(a.get_parse::<u64>("seed").unwrap(), Some(9));
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(&sv(&["oops"])).is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        let a = Args::parse(&sv(&["--n", "abc"])).unwrap();
        assert!(a.get_parse::<usize>("n").is_err());
    }

    #[test]
    fn unknown_options_are_named() {
        let a = Args::parse(&sv(&["--n", "16", "--wrokers", "2", "--no-scrach"])).unwrap();
        assert!(a
            .reject_unknown("route", &["n", "workers", "no-scratch"])
            .is_err());
        let err = a.reject_unknown("route", &["n"]).unwrap_err();
        assert_eq!(err, "unknown option `--no-scrach`, `--wrokers` for `route`");
        assert!(a
            .reject_unknown("route", &["n", "wrokers", "no-scrach"])
            .is_ok());
    }

    #[test]
    fn trailing_flag() {
        let a = Args::parse(&sv(&["--trace"])).unwrap();
        assert!(a.flag("trace"));
    }
}
