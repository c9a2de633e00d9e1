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

    /// Check every option and flag against `known`, a list of `(name,
    /// takes a value)` pairs. An unknown name, a valued option given
    /// without its value, or a bare flag given a value is an error rather
    /// than a silent default.
    pub fn validate(&self, known: &[(&str, bool)]) -> Result<(), String> {
        let given = (self.options.keys().map(|name| (name, true)))
            .chain(self.flags.iter().map(|name| (name, false)));
        for (name, has_value) in given {
            match known.iter().find(|(k, _)| k == name) {
                None => return Err(format!("unknown option --{name}")),
                Some(&(_, true)) if !has_value => return Err(format!("--{name} needs a value")),
                Some(&(_, false)) if has_value => return Err(format!("--{name} takes no value")),
                Some(_) => {}
            }
        }
        Ok(())
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
        let known = [("model", true), ("json", false)];
        assert_eq!(parse("search --model mlp --json").validate(&known), Ok(()));
        assert_eq!(
            parse("search --model mlp --colour red").validate(&known),
            Err("unknown option --colour".to_string())
        );
        assert_eq!(
            parse("search --json --verbose").validate(&known),
            Err("unknown option --verbose".to_string())
        );
    }

    #[test]
    fn a_valued_option_without_its_value_is_rejected() {
        let known = [("model", true), ("devices", true), ("json", false)];
        // At the end of the line, and followed by another option: both
        // parse as a bare flag.
        for line in [
            "search --model alexnet --devices",
            "search --devices --model alexnet",
        ] {
            assert_eq!(
                parse(line).validate(&known),
                Err("--devices needs a value".to_string()),
                "{line}"
            );
        }
        assert_eq!(
            parse("search --json out.json").validate(&known),
            Err("--json takes no value".to_string())
        );
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse("compare --machine 2080ti --verbose");
        assert_eq!(a.get("machine"), Some("2080ti"));
        assert!(a.has("verbose"));
    }
}
