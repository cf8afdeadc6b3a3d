//! The `veros-lint` binary: run the spec-discipline lints and the
//! concurrency-protocol pass over a workspace tree and report
//! `file:line` findings.
//!
//! ```text
//! veros-lint [--root DIR] [--list] [--gate]
//! ```
//!
//! Every error-severity finding fails the run; the only way to accept
//! one is a reasoned inline `// lint: allow(<id>) — reason`. `--gate`
//! also writes the protocol counters to `LINT.json` in
//! `$VEROS_RESULTS_DIR` (default `<root>/results`) and enforces the
//! anti-vacuity floors, so CI fails when the analysis goes vacuous
//! rather than silently passing an empty population.
//!
//! Exit codes: 0 clean, 1 on an error-severity finding or a failed
//! `--gate` floor, 2 on usage or I/O errors.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use veros_lint::diag::Severity;
use veros_lint::lints;
use veros_lint::protocol::Counters;

struct Args {
    root: PathBuf,
    list: bool,
    gate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        list: false,
        gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--list" => args.list = true,
            "--gate" => args.gate = true,
            "--help" | "-h" => {
                println!("veros-lint [--root DIR] [--list] [--gate]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Renders the protocol counters as the `LINT.json` artifact.
fn counters_json(c: &Counters, findings: usize) -> String {
    format!(
        "{{\n  \"bench\": \"lint\",\n  \"findings\": {findings},\n  \
         \"atomic_fields\": {},\n  \"accesses\": {},\n  \"publication_pairs\": {},\n  \
         \"unknown_orderings\": {},\n  \
         \"unbound_accesses\": {},\n  \"ambiguous_fields\": {},\n  \
         \"unparsed\": {},\n  \"stray_headers\": {}\n}}\n",
        c.atomic_fields,
        c.accesses,
        c.publication_pairs,
        c.unknown_orderings,
        c.unbound_accesses,
        c.ambiguous_fields,
        c.unparsed.len(),
        c.stray_headers.len(),
    )
}

/// The anti-vacuity floors: the analyzer must have seen a real
/// population and resolved everything resolvable. Returns the list of
/// violated floors.
fn gate_failures(c: &Counters) -> Vec<String> {
    let mut out = Vec::new();
    let mut floor = |name: &str, got: usize, min: usize| {
        if got < min {
            out.push(format!("{name} = {got} (floor {min})"));
        }
    };
    floor("atomic_fields", c.atomic_fields, 20);
    floor("publication_pairs", c.publication_pairs, 10);
    let mut zero = |name: &str, got: usize| {
        if got != 0 {
            out.push(format!("{name} = {got} (must be 0)"));
        }
    };
    zero("unknown_orderings", c.unknown_orderings);
    zero("unbound_accesses", c.unbound_accesses);
    zero("ambiguous_fields", c.ambiguous_fields);
    for (name, blind) in [
        ("unparsed", &c.unparsed),
        ("stray_headers", &c.stray_headers),
    ] {
        if !blind.is_empty() {
            out.push(format!(
                "{name} = {} (must be 0): {}",
                blind.len(),
                blind.join(", ")
            ));
        }
    }
    out
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
    let (all, counters) = (&report.findings, &report.counters);

    for d in all {
        println!("{d}");
    }
    let errors = all.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = all.len() - errors;
    println!(
        "veros-lint: {} files, {errors} errors, {warnings} warnings",
        report.files
    );
    println!(
        "veros-lint: protocols: {} atomic fields, {} accesses, {} publication pairs",
        counters.atomic_fields, counters.accesses, counters.publication_pairs,
    );

    let mut failed = errors > 0;
    if args.gate {
        let json = counters_json(counters, all.len());
        let dir = match std::env::var_os("VEROS_RESULTS_DIR") {
            Some(d) => PathBuf::from(d),
            None => args.root.join("results"),
        };
        let write = std::fs::create_dir_all(&dir).and_then(|()| {
            let path = dir.join("LINT.json");
            std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes()))?;
            Ok(path)
        });
        match write {
            Ok(path) => eprintln!("veros-lint: report written to {}", path.display()),
            Err(e) => {
                eprintln!("veros-lint: cannot write LINT.json: {e}");
                return ExitCode::from(2);
            }
        }
        let violations = gate_failures(counters);
        for v in &violations {
            eprintln!("veros-lint: gate: {v}");
        }
        if violations.is_empty() {
            eprintln!("veros-lint: gate: all anti-vacuity floors hold");
        }
        failed |= !violations.is_empty();
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters that clear every floor.
    fn healthy() -> Counters {
        Counters {
            atomic_fields: 20,
            publication_pairs: 10,
            ..Counters::default()
        }
    }

    #[test]
    fn extractor_blind_spots_fail_the_gate() {
        assert!(gate_failures(&healthy()).is_empty());
        let c = Counters {
            unparsed: vec!["crates/x/src/lib.rs".into()],
            ..healthy()
        };
        assert_eq!(
            gate_failures(&c),
            ["unparsed = 1 (must be 0): crates/x/src/lib.rs"]
        );
        let c = Counters {
            stray_headers: vec!["crates/x/src/lib.rs:2".into()],
            ..healthy()
        };
        assert_eq!(
            gate_failures(&c),
            ["stray_headers = 1 (must be 0): crates/x/src/lib.rs:2"]
        );
    }
}
