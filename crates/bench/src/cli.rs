//! Minimal command-line helpers shared by the experiment binaries.

/// Returns the value following `--<name>` parsed as `T`, if present.
pub fn arg_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let flag = format!("--{name}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.chars().count()));
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_value_parses_when_absent() {
        // No such flag in the test harness args.
        assert_eq!(super::arg_value::<u32>("definitely-not-a-flag"), None);
    }
}
