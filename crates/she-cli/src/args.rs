//! Tiny hand-rolled `--flag value` argument parser (no external deps).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// First positional token.
    pub command: String,
    flags: HashMap<String, String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse `tokens` (without the binary name).
    pub fn parse(tokens: &[String]) -> Result<Self, ArgError> {
        let mut it = tokens.iter();
        let command = it.next().ok_or_else(|| ArgError("missing subcommand".into()))?.clone();
        let mut flags = HashMap::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got '{tok}'")))?;
            let value = it.next().ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Self { command, flags })
    }

    /// String flag with a default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Whether the flag was given at all.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Integer flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => parse_size(v).ok_or_else(|| ArgError(format!("--{key}: bad number '{v}'"))),
        }
    }

    /// Float flag with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError(format!("--{key}: bad float '{v}'"))),
        }
    }

    /// Reject unknown flags (catches typos).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} for '{}' (allowed: {})",
                    self.command,
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Parse "4096", "64k"/"64K", "2m"/"2M", "1g".
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&toks("membership --window 64k --memory 32K --probes 1000")).unwrap();
        assert_eq!(a.command, "membership");
        assert_eq!(a.get_u64("window", 0).unwrap(), 65536);
        assert_eq!(a.get_u64("memory", 0).unwrap(), 32768);
        assert_eq!(a.get_u64("probes", 0).unwrap(), 1000);
        assert_eq!(a.get_u64("absent", 7).unwrap(), 7);
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("2m"), Some(2 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size("12kk"), None);
        // 2^34 · 2^30 = 2^64: out of range, not wrapped to 0.
        assert_eq!(parse_size("17179869184g"), None);
        assert_eq!(parse_size("17179869183g"), Some(u64::MAX - (1 << 30) + 1));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Args::parse(&[]).is_err());
        assert!(Args::parse(&toks("run --flag")).is_err());
        assert!(Args::parse(&toks("run positional")).is_err());
    }

    #[test]
    fn unknown_flags_flagged() {
        let a = Args::parse(&toks("run --good 1 --bad 2")).unwrap();
        assert!(a.expect_only(&["good"]).is_err());
        assert!(a.expect_only(&["good", "bad"]).is_ok());
    }

    #[test]
    fn float_flags() {
        let a = Args::parse(&toks("run --alpha 0.25")).unwrap();
        assert_eq!(a.get_f64("alpha", 1.0).unwrap(), 0.25);
        assert_eq!(a.get_f64("beta", 0.9).unwrap(), 0.9);
    }
}
