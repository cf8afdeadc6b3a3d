//! What the bench writes and reads back: the result line of one run,
//! the full report (every workload, untraced and traced, each in its own
//! child process) with its `results/e2e/e2e.json` mirror, and
//! `--compare` over two such mirrors.

use std::process::{Command, Stdio};

use crate::catalogue::{self, Group, METRICS, WORKLOADS};
use crate::json::{self, Json};
use crate::RunResult;

/// The result object the benchmark driver reads from the last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values keep every digit the measurement produced.
pub fn result_line(workload: &str, r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = catalogue::def(name).map_or("", |d| d.unit);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    eprintln!(
        "e2e: {workload}: {} ops attempted, {} failed",
        r.attempted, r.failed
    );
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// One workload's numbers in a report.
struct Section {
    workload: String,
    attempted: u64,
    failed: u64,
    /// `(name, value)`, in catalogue order.
    metrics: Vec<(String, f64)>,
}

/// Runs `workload` in a child process and parses its result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-execute myself: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(traced),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    let v = json::parse(line).map_err(|e| format!("{workload} printed a malformed result: {e}"))?;
    if v.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload} did not report a correct run"));
    }
    Ok(v)
}

/// The report: every requested workload in its own child process,
/// untraced then traced (`traced_only` skips the untraced runs), every
/// metric printed by name with its unit, and the numbers mirrored to
/// `out` (default `results/e2e/e2e.json`).
pub fn full(
    only: Option<&str>,
    seed: u64,
    seconds: f64,
    traced_only: bool,
    out: Option<&str>,
) -> Result<(), String> {
    if let Some(name) = only {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    let mut sections = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        eprintln!("e2e: {} — {}", w.name, w.why);
        let mut section = Section {
            workload: w.name.into(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for traced in [false, true] {
            if traced_only && !traced {
                continue;
            }
            let v = child(w.name, seed, seconds, traced)?;
            let count = |key: &str| v.get(key).and_then(Json::num).unwrap_or(0.0) as u64;
            section.attempted += count("attempted");
            section.failed += count("failed");
            for (name, m) in v.get("metrics").map_or(&[][..], Json::members) {
                let value = m
                    .get("value")
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{name}: no value"))?;
                section.metrics.push((name.clone(), value));
            }
        }
        sections.push(section);
    }

    for s in &sections {
        println!(
            "\n== {} ({} ops attempted, {} failed)",
            s.workload, s.attempted, s.failed
        );
        for (title, want) in [
            (
                "end to end",
                &(|g| g != Group::Layer) as &dyn Fn(Group) -> bool,
            ),
            ("per layer", &|g| g == Group::Layer),
        ] {
            println!("-- {title}");
            for d in METRICS
                .iter()
                .filter(|d| want(d.group) && d.scope.covers(&s.workload))
            {
                if let Some((_, value)) = s.metrics.iter().find(|(n, _)| n == d.name) {
                    println!("{:<40} {:>16.4} {}", d.name, value, d.unit);
                }
            }
        }
    }

    let doc = to_json(&sections, seed, seconds);
    let written = match out {
        Some(path) => std::fs::write(path, &doc).map(|()| path.into()),
        None => std::fs::create_dir_all(veros_bench::out::results_dir().join("e2e"))
            .and_then(|()| veros_bench::out::write_result("e2e/e2e.json", &doc)),
    };
    let path = written.map_err(|e| format!("cannot write the report: {e}"))?;
    eprintln!("e2e: report written to {}", path.display());
    for s in sections.iter().filter(|s| s.failed > 0) {
        eprintln!(
            "e2e: WARNING: {} of {} operations failed on {}",
            s.failed, s.attempted, s.workload
        );
    }
    Ok(())
}

/// The report mirror: one metric per line, so two files diff cleanly.
fn to_json(sections: &[Section], seed: u64, seconds: f64) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"e2e\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"telemetry\": {},\n  \
         \"claim\": null,\n  \"workloads\": {{\n",
        veros_telemetry::enabled()
    );
    for (i, s) in sections.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"attempted\": {},\n      \"failed\": {},\n      \"metrics\": {{\n",
            s.workload, s.attempted, s.failed
        ));
        for (j, (name, value)) in s.metrics.iter().enumerate() {
            let unit = catalogue::def(name).map_or("", |d| d.unit);
            let comma = if j + 1 < s.metrics.len() { "," } else { "" };
            out.push_str(&format!(
                "        \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}{comma}\n"
            ));
        }
        out.push_str(if i + 1 < sections.len() {
            "      }\n    },\n"
        } else {
            "      }\n    }\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// How much worse `b` is than `a` as a share of `a` (negative when
/// better). An exact metric that was 0 and no longer is reads as
/// infinitely worse.
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let worse_by = if higher_is_better { a - b } else { b - a };
    if worse_by == 0.0 {
        0.0
    } else if a == 0.0 {
        worse_by.signum() * f64::INFINITY
    } else {
        worse_by / a.abs()
    }
}

/// Compares two report mirrors: each end-to-end metric's relative
/// difference per workload, one row per workload. `Err` lists every
/// metric of `b` that is worse than `a` by more than its bound (an
/// exact metric: worse at all), or that `b` lacks.
pub fn compare(a: &Json, b: &Json) -> Result<String, String> {
    let mut rows = String::new();
    let mut violations = Vec::new();
    let empty = Json::Obj(Vec::new());
    let workloads = a.get("workloads").unwrap_or(&empty);
    if workloads.members().is_empty() {
        return Err("the first file holds no workloads".into());
    }
    for (workload, section) in workloads.members() {
        let ma = section.get("metrics");
        let mb = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|s| s.get("metrics"));
        let mut cells = Vec::new();
        for d in METRICS
            .iter()
            .filter(|d| d.group != Group::Layer && d.scope.covers(workload))
        {
            let value = |m: Option<&Json>| {
                m.and_then(|m| m.get(d.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::num)
            };
            let Some(x) = value(ma) else { continue };
            let Some(y) = value(mb) else {
                violations.push(format!(
                    "{workload}/{}: missing from the second file",
                    d.name
                ));
                continue;
            };
            let w = worsening(x, y, d.higher_is_better);
            cells.push(format!("{} {:+.2}%", d.name, 100.0 * w));
            let allowed = if d.exact { 0.0 } else { d.bound };
            if w > allowed {
                let bound = if d.exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", 100.0 * d.bound)
                };
                violations.push(format!(
                    "{workload}/{}: {x} -> {y} is {:+.2}% worse (bound: {bound})",
                    d.name,
                    100.0 * w
                ));
            }
        }
        rows.push_str(&format!("{workload}: {}\n", cells.join(" | ")));
    }
    if violations.is_empty() {
        Ok(rows)
    } else {
        Err(format!("{rows}{}", violations.join("\n")))
    }
}

/// `--compare A.json B.json`.
pub fn compare_files(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|s| json::parse(&s).map_err(|e| format!("{path}: {e}")))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    print!("{rows}");
    println!("e2e: {b} is within every bound of {a}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(host_us: f64, failed_share: f64, get_p99: f64) -> Json {
        let sections = [Section {
            workload: "fleet_read_mostly".into(),
            attempted: 100,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.5),
                ("host_us_per_op".into(), host_us),
                ("failed_share".into(), failed_share),
                ("get_p99_ticks".into(), get_p99),
                ("net.frames_per_op".into(), 9.0),
            ],
        }];
        json::parse(&to_json(&sections, 11, 10.0)).expect("the mirror parses")
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("host_us_per_op", 123.456789)],
        };
        let v = json::parse(&result_line("w", &r)).expect("parses");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("host_us_per_op"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::num), Some(123.456789));
        assert_eq!(m.get("unit").and_then(Json::str), Some("us"));
    }

    #[test]
    fn compare_passes_within_bounds_and_names_what_exceeds_them() {
        let base = report(100.0, 0.0, 10.0);
        let rows = compare(&base, &report(108.0, 0.0, 10.0)).expect("8% is inside the 20% bound");
        assert!(rows.starts_with("fleet_read_mostly: "), "{rows}");
        assert!(
            rows.contains("host_us_per_op +8.00%") && rows.lines().count() == 1,
            "{rows}"
        );
        // Better is never a regression, per-layer cells are not gated.
        assert!(compare(&base, &report(50.0, 0.0, 9.0)).is_ok());
        let e = compare(&base, &report(121.0, 0.0, 10.0)).expect_err("21% worse");
        assert!(
            e.contains("fleet_read_mostly/host_us_per_op") && e.contains("bound: 20%"),
            "{e}"
        );
        // Exact metrics: any worsening fails, even from zero.
        let e = compare(&base, &report(100.0, 0.0, 11.0)).expect_err("p99 moved");
        assert!(e.contains("get_p99_ticks") && e.contains("exact"), "{e}");
        let e = compare(&base, &report(100.0, 0.001, 10.0)).expect_err("failures appeared");
        assert!(e.contains("failed_share"), "{e}");
        // A metric the second file lacks is a violation, not a pass.
        let e = compare(&base, &json::parse("{\"workloads\": {}}").expect("json"))
            .expect_err("missing");
        assert!(e.contains("missing from the second file"), "{e}");
        assert!(compare(&json::parse("{}").expect("json"), &base).is_err());
    }

    #[test]
    fn worsening_respects_direction() {
        assert_eq!(worsening(100.0, 110.0, false), 0.1);
        assert_eq!(worsening(100.0, 110.0, true), -0.1);
        assert_eq!(worsening(0.0, 0.0, false), 0.0);
        assert_eq!(worsening(0.0, 1.0, false), f64::INFINITY);
    }
}
