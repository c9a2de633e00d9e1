//! Minimal flag parser for the `pase` CLI (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse an iterator of arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.options.insert(key.to_string(), v);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(format!("unexpected positional argument: {a}"));
            }
        }
        Ok(out)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Boolean flag presence.
    pub fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Fail on the first option or flag whose name is not in `known`, so a
    /// misspelled or retired option is an error rather than a default.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .keys()
            .chain(&self.flags)
            .find(|name| !known.contains(&name.as_str()))
        {
            Some(name) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_and_options() {
        let a = parse("search --model alexnet --devices 32 --json");
        assert_eq!(a.command.as_deref(), Some("search"));
        assert_eq!(a.get("model"), Some("alexnet"));
        assert_eq!(a.get_or("devices", 8u32).unwrap(), 32);
        assert!(a.has("json"));
        assert!(!a.has("weak-scaling"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse("stats");
        assert_eq!(a.get_or("devices", 8u32).unwrap(), 8);
        assert_eq!(a.get("model"), None);
    }

    #[test]
    fn invalid_number_is_an_error() {
        let a = parse("search --devices banana");
        assert!(a.get_or("devices", 8u32).is_err());
    }

    #[test]
    fn extra_positional_rejected() {
        assert!(Args::parse(["a".to_string(), "b".to_string()]).is_err());
    }

    #[test]
    fn unknown_options_and_flags_are_rejected() {
        let known = ["model", "json"];
        assert_eq!(
            parse("search --model mlp --json").reject_unknown(&known),
            Ok(())
        );
        assert_eq!(
            parse("search --model mlp --colour red").reject_unknown(&known),
            Err("unknown option --colour".to_string())
        );
        assert_eq!(
            parse("search --json --verbose").reject_unknown(&known),
            Err("unknown option --verbose".to_string())
        );
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse("compare --machine 2080ti --verbose");
        assert_eq!(a.get("machine"), Some("2080ti"));
        assert!(a.has("verbose"));
    }
}
