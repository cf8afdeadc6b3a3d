//! The one command-line reader of the gate and figure binaries. Each
//! binary names the flags it takes; any other argument, or a flag
//! missing its value, is a usage error that exits 2 — a mistyped flag
//! must not silently run a different experiment.

/// What a binary was asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick`: the short sizing.
    pub quick: bool,
    /// `--schedules N`: fault schedules per invariant VC (the audit).
    pub schedules: Option<usize>,
}

/// Reads `argv` (without the program name), accepting only the flags
/// in `takes`.
pub fn parse(argv: &[String], takes: &[&str]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" if takes.contains(&"--quick") => args.quick = true,
            "--schedules" if takes.contains(&"--schedules") => {
                let v = it.next().ok_or("--schedules needs a value")?;
                let n = v
                    .parse()
                    .map_err(|_| format!("--schedules needs a number, got {v:?}"))?;
                args.schedules = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// [`parse`] over this process's arguments; a usage error is printed
/// and exits 2.
pub fn from_env(takes: &[&str]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(&argv, takes).unwrap_or_else(|e| {
        eprintln!("usage: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn takes_only_the_flags_a_binary_names() {
        assert_eq!(parse(&argv(&[]), &["--quick"]), Ok(Args::default()));
        assert!(parse(&argv(&["--quick"]), &["--quick"]).unwrap().quick);
        let audit = parse(&argv(&["--schedules", "16"]), &["--schedules"]).unwrap();
        assert_eq!(audit.schedules, Some(16));

        // A misspelt flag, a flag this binary does not take, a stray
        // value: each is refused, never ignored.
        for (bad, takes) in [
            (&["--basline", "BENCH_uring.json"][..], &["--quick"][..]),
            (&["--baseline", "BENCH_nr.json"], &["--quick"]),
            (&["--quick"], &[]),
            (&["--quick"], &["--schedules"]),
            (&["quick"], &["--quick"]),
        ] {
            let e = parse(&argv(bad), takes).unwrap_err();
            assert_eq!(e, format!("unknown argument {:?}", bad[0]));
        }

        // A flag missing its value, or given a non-number.
        let e = parse(&argv(&["--schedules"]), &["--schedules"]).unwrap_err();
        assert!(e.contains("needs a value"), "{e}");
        let e = parse(&argv(&["--schedules", "x"]), &["--schedules"]).unwrap_err();
        assert!(e.contains("needs a number"), "{e}");
    }
}
