//! Steadiness mode: repeated runs of each workload on consecutive seeds,
//! with every end-to-end metric's run-to-run spread printed beside its
//! bound from `BENCHMARK.json`.
//!
//! The spread is the distance between the first and third quartiles over
//! the median (quartiles as Python's `statistics.quantiles(values, n=4)`
//! computes them). A metric is `steady` when its spread is below a third of
//! its bound, `within` when below the bound, and `UNRESOLVED` otherwise: a
//! change smaller than that spread cannot be told from noise on that
//! metric and workload.

use std::process::{Command, ExitCode, Stdio};

use crate::stats::{median, spread};

struct Bound {
    name: String,
    unit: String,
    bound: f64,
}

fn read_benchmark() -> Result<(Vec<String>, Vec<Bound>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let v = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match v.get(key) {
        Some(serde::Value::Array(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    };
    let name_of = |item: &serde::Value| match item.get("name") {
        Some(serde::Value::Str(s)) => Ok(s.clone()),
        _ => Err("an entry without a name".to_string()),
    };
    let workloads = list("workloads")?
        .iter()
        .map(name_of)
        .collect::<Result<Vec<_>, _>>()?;
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: name_of(m)?,
                unit: match m.get("unit") {
                    Some(serde::Value::Str(u)) => u.clone(),
                    _ => String::new(),
                },
                bound: m.get("bound").and_then(|b| b.as_f64()).unwrap_or(0.0),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let seconds = v.get("run_seconds").and_then(|s| s.as_u64()).unwrap_or(10);
    Ok((workloads, bounds, seconds))
}

/// Runs one workload once as a child process; returns its metrics.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}): {last}",
            out.status
        ));
    }
    let v = serde_json::parse(last).map_err(|e| format!("unparsable result line: {e}"))?;
    match v.get("metrics") {
        Some(serde::Value::Object(entries)) => Ok(entries
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                (name.clone(), value)
            })
            .collect()),
        _ => Err("result line without metrics".into()),
    }
}

pub fn run(workloads: &[String], runs: usize, first_seed: u64, seconds: Option<u64>) -> ExitCode {
    let (all, bounds, run_seconds) = match read_benchmark() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench --steady: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = seconds.unwrap_or(run_seconds);
    let chosen: Vec<String> = if workloads.is_empty() {
        all
    } else {
        workloads.to_vec()
    };
    let mut failed = false;
    for workload in &chosen {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for i in 0..runs {
            let seed = first_seed + i as u64;
            match run_once(workload, seed, seconds) {
                Ok(metrics) => {
                    for (b, slot) in bounds.iter().zip(values.iter_mut()) {
                        match metrics.iter().find(|(n, _)| *n == b.name) {
                            Some((_, v)) => slot.push(*v),
                            None => {
                                eprintln!("{workload} seed {seed}: metric {} missing", b.name);
                                failed = true;
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        println!(
            "{workload}: {runs} runs, seeds {first_seed}..{}, {seconds} s each",
            first_seed + runs as u64 - 1
        );
        println!(
            "  {:<20} {:>14} {:<6} {:>8} {:>6} {:>7}  verdict   values",
            "metric", "median", "unit", "spread", "bound", "ratio"
        );
        for (b, vals) in bounds.iter().zip(&values) {
            let s = spread(vals);
            let verdict = if s < b.bound / 3.0 {
                "steady"
            } else if s <= b.bound {
                "within"
            } else {
                "UNRESOLVED"
            };
            let shown: Vec<String> = vals.iter().map(|v| format!("{v:.6}")).collect();
            println!(
                "  {:<20} {:>14.6} {:<6} {:>8.4} {:>6.3} {:>7.3}  {:<9} [{}]",
                b.name,
                median(vals),
                b.unit,
                s,
                b.bound,
                if b.bound > 0.0 { s / b.bound } else { f64::NAN },
                verdict,
                shown.join(", ")
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
