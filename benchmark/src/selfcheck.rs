//! `--selfcheck N`: the driver's acceptance test, rehearsed. Runs the
//! whole benchmark `N` times as the driver does — one process per run and
//! workload, another seed each run — and checks that two alternating sets
//! of runs agree and that no metric's spread reaches its bound.

use std::process::Command;

use crate::metrics::END_TO_END;
use crate::stats::{iqr_over_median, median, quartiles};
use crate::workload::WORKLOADS;

/// The value of `"name": {"value": X` in a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    Ok(line)
}

/// Returns whether every metric passed.
pub fn selfcheck(runs: usize, seed: u64, seconds: u64) -> bool {
    assert!(runs >= 10, "selfcheck needs at least ten runs");
    // values[workload][metric][run]
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for run in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let line = match run_once(workload, seed + run as u64, seconds) {
                Ok(line) => line,
                Err(why) => {
                    println!("{why}");
                    return false;
                }
            };
            for (m, metric) in END_TO_END.iter().enumerate() {
                values[w][m].push(value_of(&line, metric.name).expect("metric in the result line"));
            }
            eprintln!("selfcheck: run {} of {runs}, {workload} done", run + 1);
        }
    }

    println!(
        "selfcheck: {runs} runs, seeds {seed}..{}, {seconds} s each",
        seed + runs as u64 - 1
    );
    println!(
        "{:<12} {:<15} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "set diff", "bound"
    );
    let mut passed = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let all = &values[w][m];
            let [q1, q2, q3] = quartiles(all);
            let spread = iqr_over_median(all);
            // Alternating sets: even runs against odd runs. Only a move in
            // the worse direction counts, as for the driver.
            let set = |parity: usize| -> Vec<f64> {
                all.iter().copied().skip(parity).step_by(2).collect()
            };
            let (a, b) = (median(&set(0)), median(&set(1)));
            let diff = (a - b).abs() / a.abs().min(b.abs());
            let ok = spread <= metric.bound && diff <= metric.bound / 2.0;
            passed &= ok;
            println!(
                "{:<12} {:<15} {:>14.6} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                workload,
                metric.name,
                q1,
                q2,
                q3,
                100.0 * spread,
                100.0 * diff,
                100.0 * metric.bound,
                if !ok {
                    "FAIL"
                } else if spread <= metric.bound / 3.0 {
                    "ok"
                } else {
                    "ok (spread above a third of the bound)"
                }
            );
        }
    }
    println!("selfcheck: {}", if passed { "passed" } else { "FAILED" });
    passed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;

    #[test]
    fn reads_back_what_result_line_writes() {
        let line = result_line(
            true,
            3,
            0,
            &[("setup_s", 0.123456789, "s"), ("wire_qps", 6e5, "1/s")],
        );
        assert_eq!(value_of(&line, "setup_s"), Some(0.123456789));
        assert_eq!(value_of(&line, "wire_qps"), Some(600000.0));
        assert_eq!(value_of(&line, "absent"), None);
    }
}
