//! Tiny dependency-free argument parser for the `mrpf` CLI.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: String,
    /// Remaining positional tokens.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error for malformed command lines or option values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl Args {
    /// Parses raw tokens (without the program name).
    ///
    /// `--name` is a flag when `flags` lists it, and never takes a value;
    /// any other `--name` is an option and takes the next token as its
    /// value. Everything else is positional.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when no subcommand is present (a
    /// leading `--help` counts as one), or when an option is last or
    /// followed by another `--` token.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrp_cli::args::Args;
    /// let tokens = ["design", "--verbose", "x", "--order", "32"].map(String::from);
    /// let a = Args::parse(tokens, &["verbose"])?;
    /// assert_eq!(a.command, "design");
    /// assert_eq!(a.get_usize("order", 0)?, 32);
    /// assert!(a.flag("verbose"));
    /// assert_eq!(a.positional, ["x"]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn parse(
        tokens: impl IntoIterator<Item = String>,
        flags: &[&str],
    ) -> Result<Self, ParseArgsError> {
        let mut tokens = tokens.into_iter().peekable();
        let command = tokens
            .next()
            .ok_or_else(|| ParseArgsError("missing subcommand".into()))?;
        // `--help` is the one option that stands in for a subcommand.
        if command.starts_with("--") && command != "--help" {
            return Err(ParseArgsError(format!(
                "expected a subcommand, found option {command}"
            )));
        }
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(tok) = tokens.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if flags.contains(&name) {
                    args.flags.push(name.to_string());
                } else {
                    let value = tokens
                        .next_if(|next| !next.starts_with("--"))
                        .ok_or_else(|| ParseArgsError(format!("--{name} expects a value")))?;
                    args.options.insert(name.to_string(), value);
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Whether `--name` appeared as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The name of every `--option` and `--flag` given, sorted, without
    /// duplicates.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .options
            .keys()
            .chain(&self.flags)
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Raw option value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the value is not an integer.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, ParseArgsError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("--{name} expects an integer, got {v}"))),
        }
    }

    /// `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when the value is not a number.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, ParseArgsError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("--{name} expects a number, got {v}"))),
        }
    }

    /// String option with a default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(tokens: &[&str]) -> Result<Args, ParseArgsError> {
        Args::parse(tokens.iter().map(|s| s.to_string()), &["cse"])
    }

    fn parse(tokens: &[&str]) -> Args {
        try_parse(tokens).unwrap()
    }

    #[test]
    fn subcommand_required() {
        assert!(try_parse(&[]).is_err());
        assert!(try_parse(&["--oops"]).is_err());
    }

    #[test]
    fn options_and_flags() {
        let a = parse(&["optimize", "7,9,11", "--w", "12", "--cse"]);
        assert_eq!(a.command, "optimize");
        assert_eq!(a.get_usize("w", 16).unwrap(), 12);
        assert!(a.flag("cse"));
        assert_eq!(a.positional, vec!["7,9,11"]);
        // An option followed by a value token consumes it.
        let b = parse(&["optimize", "--depth", "3", "7,9"]);
        assert_eq!(b.get_usize("depth", 0).unwrap(), 3);
        assert_eq!(b.positional, vec!["7,9"]);
        // A flag never does.
        let c = parse(&["optimize", "--cse", "7,9"]);
        assert!(c.flag("cse"));
        assert_eq!(c.positional, vec!["7,9"]);
    }

    #[test]
    fn options_without_a_value_are_rejected() {
        for tokens in [
            &["optimize", "--depth"][..],
            &["optimize", "--depth", "--cse"],
        ] {
            let err = try_parse(tokens).unwrap_err();
            assert_eq!(err.0, "--depth expects a value", "{tokens:?}");
        }
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["design"]);
        assert_eq!(a.get_usize("order", 32).unwrap(), 32);
        assert_eq!(a.get_f64("beta", 0.5).unwrap(), 0.5);
        assert_eq!(a.get_str("scaling", "uniform"), "uniform");
    }

    #[test]
    fn bad_numbers_are_reported() {
        let a = parse(&["design", "--order", "many"]);
        assert!(a.get_usize("order", 0).is_err());
    }

    #[test]
    fn negative_values_parse_as_option_values() {
        // "-0.5" does not start with "--", so it is a value.
        let a = parse(&["x", "--gain", "-0.5"]);
        assert_eq!(a.get_f64("gain", 0.0).unwrap(), -0.5);
    }
}
