//! Experiment binaries and benches for the Thermal Herding reproduction.

use std::str::FromStr;

/// Parses one positional argument: `default` when it is absent, an error
/// naming the value and the expected type when it is malformed.
pub fn parse_arg<T: FromStr>(raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("`{s}` is not a valid {}", std::any::type_name::<T>())),
    }
}

/// Positional argument `n` of this process, parsed by [`parse_arg`]. A
/// malformed value prints the error and `usage` to stderr and exits with
/// status 2 instead of silently running with the default.
pub fn arg_or_usage<T: FromStr>(n: usize, default: T, usage: &str) -> T {
    let raw = std::env::args().nth(n);
    parse_arg(raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_arg;

    #[test]
    fn parse_arg_defaults_parses_and_rejects() {
        assert_eq!(parse_arg(None, u64::MAX), Ok(u64::MAX));
        assert_eq!(parse_arg(Some("4000"), u64::MAX), Ok(4000));
        assert_eq!(parse_arg(Some("371.5"), 376.0), Ok(371.5));
        let err = parse_arg(Some("4k"), u64::MAX).unwrap_err();
        assert!(err.contains("`4k`") && err.contains("u64"), "{err}");
        assert!(parse_arg::<usize>(Some(""), 32).is_err());
        assert!(parse_arg::<usize>(Some("-1"), 32).is_err());
    }
}
