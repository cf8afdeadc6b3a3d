//! The `veros-lint` binary: run the spec-discipline lints over a
//! workspace tree and report `file:line` findings.
//!
//! ```text
//! veros-lint [--root DIR] [--list]
//! ```
//!
//! Every error-severity finding fails the run; the only way to accept
//! one is a reasoned inline `// lint: allow(<id>) — reason`.
//!
//! Exit codes: 0 clean, 1 on an error-severity finding, 2 on usage or
//! I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use veros_lint::diag::Severity;
use veros_lint::lints;

struct Args {
    root: PathBuf,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--list" => args.list = true,
            "--help" | "-h" => {
                println!("veros-lint [--root DIR] [--list]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("veros-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        for lint in &lints::REGISTRY {
            println!("{:<22} {}", lint.id, lint.describe);
        }
        return ExitCode::SUCCESS;
    }

    let report = match veros_lint::check(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "veros-lint: cannot load workspace at {}: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };

    for d in &report.findings {
        println!("{d}");
    }
    let errors = report
        .findings
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.findings.len() - errors;
    println!(
        "veros-lint: {} files, {errors} errors, {warnings} warnings",
        report.files
    );

    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
