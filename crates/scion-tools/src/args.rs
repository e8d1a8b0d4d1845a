//! The one argument-vector reader: a declarative option table
//! ([`Spec`]) and what it read ([`Parsed`]). Every command line in the
//! workspace goes through [`Spec::parse`] — the SCION tools' under
//! [`crate::shell::execute`], `test_suite.sh`'s under
//! `SuiteConfig::from_args`, the `upin` command table and `figures`.
//!
//! Grammar: `[positional...] [--opt value]... [--flag]...`
//! Options may repeat (`--exclude-country US --exclude-country SG`).

use std::collections::HashMap;

/// Whether an option consumes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    Flag,
    Value,
}

/// Parsed arguments of one command.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Parsed {
    pub positional: Vec<String>,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

impl Parsed {
    /// Single-valued option (last occurrence wins).
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All occurrences of a repeatable option.
    pub fn opt_all(&self, name: &str) -> &[String] {
        self.options.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parse an option as a number.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} expects a number, got {v:?}")),
        }
    }

    /// [`Parsed::get`], or `default` when the option was not given.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// An option the command cannot run without; `what` is the error
    /// when it is missing (`"chaos run needs --schedule FILE"`).
    pub fn required(&self, name: &str, what: &str) -> Result<&str, String> {
        self.opt(name).ok_or_else(|| what.to_string())
    }
}

/// Declarative option table for one command.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    options: Vec<(&'static str, Arity)>,
    /// (alias, option): second spellings, such as `--count` for `-c`.
    aliases: Vec<(&'static str, &'static str)>,
    /// (min, max) positional arguments.
    pub positionals: (usize, usize),
}

impl Spec {
    pub fn new(min_pos: usize, max_pos: usize) -> Spec {
        Spec {
            options: Vec::new(),
            aliases: Vec::new(),
            positionals: (min_pos, max_pos),
        }
    }

    pub fn flag(mut self, name: &'static str) -> Spec {
        self.options.push((name, Arity::Flag));
        self
    }

    pub fn value(mut self, name: &'static str) -> Spec {
        self.options.push((name, Arity::Value));
        self
    }

    /// Accept `alias` as another spelling of the option `name`.
    pub(crate) fn alias(mut self, alias: &'static str, name: &'static str) -> Spec {
        self.aliases.push((alias, name));
        self
    }

    /// The options the table accepts (aliases not included).
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.options.iter().map(|(n, _)| *n)
    }

    /// The table's entry for `name` as typed, aliases resolved.
    fn entry(&self, name: &str) -> Option<(&'static str, Arity)> {
        let name = self
            .aliases
            .iter()
            .find(|(a, _)| *a == name)
            .map_or(name, |(_, n)| n);
        self.options.iter().find(|(n, _)| *n == name).copied()
    }

    /// Parse an argument vector against the spec.
    pub fn parse<I, S>(&self, args: I) -> Result<Parsed, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Parsed::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            if let Some(name) = arg.strip_prefix("--").or_else(|| {
                // Accept single-dash spellings the SCION tools use (-c, -m, -cs...).
                arg.strip_prefix('-')
                    .filter(|r| !r.is_empty() && !r.chars().next().unwrap().is_ascii_digit())
            }) {
                match self.entry(name) {
                    Some((option, Arity::Flag)) => out.flags.push(option.to_string()),
                    Some((option, Arity::Value)) => {
                        let v = iter
                            .next()
                            .ok_or_else(|| format!("--{name} expects a value"))?;
                        let v = v.as_ref();
                        // `--workers --parallel` should complain about the missing
                        // value, not record "--parallel" as the worker count.
                        if let Some(next_name) = v.strip_prefix("--") {
                            if self.entry(next_name).is_some() {
                                return Err(format!("--{name} expects a value"));
                            }
                        }
                        out.options
                            .entry(option.to_string())
                            .or_default()
                            .push(v.to_string());
                    }
                    None => return Err(format!("unknown option --{name}")),
                }
            } else {
                out.positional.push(arg.to_string());
            }
        }
        let n = out.positional.len();
        if n < self.positionals.0 || n > self.positionals.1 {
            return Err(format!(
                "expected between {} and {} positional arguments, got {n}",
                self.positionals.0, self.positionals.1
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::new(1, 2)
            .flag("extended")
            .value("m")
            .value("exclude-country")
    }

    #[test]
    fn parses_positionals_flags_and_options() {
        let p = spec()
            .parse(["16-ffaa:0:1002", "--extended", "-m", "40"])
            .unwrap();
        assert_eq!(p.positional, vec!["16-ffaa:0:1002"]);
        assert!(p.flag("extended"));
        assert_eq!(p.opt("m"), Some("40"));
        assert_eq!(p.get::<usize>("m").unwrap(), Some(40));
    }

    #[test]
    fn repeatable_options_accumulate() {
        let p = spec()
            .parse(["x", "--exclude-country", "US", "--exclude-country", "SG"])
            .unwrap();
        assert_eq!(p.opt_all("exclude-country"), vec!["US", "SG"]);
        assert_eq!(p.opt("exclude-country"), Some("SG"), "last wins for opt()");
    }

    #[test]
    fn unknown_option_rejected() {
        assert!(spec().parse(["x", "--wat"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(spec().parse(["x", "-m"]).is_err());
    }

    #[test]
    fn option_token_is_not_a_value() {
        assert!(spec().parse(["x", "-m", "--extended"]).is_err());
        // A value that merely starts with dashes but is not a known option
        // still parses (free-form strings are legal values).
        let p = spec().parse(["x", "--exclude-country", "--weird"]).unwrap();
        assert_eq!(p.opt("exclude-country"), Some("--weird"));
    }

    #[test]
    fn positional_count_enforced() {
        assert!(spec().parse(Vec::<&str>::new()).is_err());
        assert!(spec().parse(["a", "b", "c"]).is_err());
        assert!(spec().parse(["a", "b"]).is_ok());
    }

    #[test]
    fn negative_numbers_are_not_options() {
        let s = Spec::new(0, 3).value("k");
        let p = s.parse(["-5", "--k", "3", "-7.5"]).unwrap();
        assert_eq!(p.positional, vec!["-5", "-7.5"]);
        assert_eq!(p.opt("k"), Some("3"));
    }

    #[test]
    fn aliases_read_as_the_option_they_name() {
        let s = Spec::new(0, 0).value("c").alias("count", "c").value("m");
        let p = s.parse(["--count", "3"]).unwrap();
        assert_eq!(p.get::<u32>("c").unwrap(), Some(3));
        assert_eq!(s.names().collect::<Vec<_>>(), ["c", "m"]);
        // An alias is a known option when it stands where a value should.
        assert!(s.parse(["-m", "--count"]).is_err());
    }

    #[test]
    fn typed_getters_default_and_demand() {
        let p = spec().parse(["x", "-m", "7"]).unwrap();
        assert_eq!(p.get_or("m", 10usize).unwrap(), 7);
        assert_eq!(p.get_or("exclude-country", 1.5f64).unwrap(), 1.5);
        assert_eq!(p.required("m", "needs -m").unwrap(), "7");
        assert_eq!(
            p.required("exclude-country", "needs a country")
                .unwrap_err(),
            "needs a country"
        );
    }

    #[test]
    fn bad_numeric_option_reports() {
        let p = spec().parse(["x", "-m", "lots"]).unwrap();
        assert!(p.get::<usize>("m").is_err());
    }
}
