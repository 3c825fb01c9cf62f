//! Runs the benchmark in `--quick` mode and pins what the driver relies
//! on: the result line's shape, the metric catalogue declared in
//! `BENCHMARK.json`, and that one seed means one set of inputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["dense_build", "cold_grid", "hot_wire", "shard_churn"];

const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("direct_qps", "1/s"),
    ("wire_qps", "1/s"),
    ("wave_ms", "ms"),
    ("restore_s", "s"),
    ("bytes_per_edge", "bytes"),
    ("spanner_edges", "count"),
];

struct Run {
    /// The last line of standard output.
    line: String,
    /// `digest <workload> <hex>` from standard error, `--quick` only.
    digest: String,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ftspan-benchmark"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed:\n{stdout}\n{stderr}");
    Run {
        line: stdout.lines().last().expect("a result line").to_string(),
        digest: stderr
            .lines()
            .find(|l| l.starts_with("digest "))
            .unwrap_or_default()
            .to_string(),
    }
}

/// `"name": {"value": V, "unit": "U"}` entries of a result line, in order.
fn metrics(line: &str) -> Vec<(String, String, String)> {
    let body = line
        .split("\"metrics\": {")
        .nth(1)
        .expect("a metrics object");
    body.split("}, ")
        .map(|entry| {
            let entry = entry.trim_end_matches('}');
            let name = entry.split('"').nth(1).expect("a metric name");
            let value = entry
                .split("\"value\": ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .expect("a value");
            let unit = entry.rsplit('"').nth(1).expect("a unit");
            (name.to_string(), value.to_string(), unit.to_string())
        })
        .collect()
}

/// `(name, unit)` pairs of one list of `BENCHMARK.json`; the unit is empty
/// where the list's objects have none.
fn declared(section: &str) -> Vec<(String, String)> {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let list = json
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the section");
    let field = |object: &str, key: &str| {
        object
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default()
            .to_string()
    };
    list.split('}')
        .filter(|object| object.contains("\"name\""))
        .map(|object| (field(object, "name"), field(object, "unit")))
        .collect()
}

#[test]
fn quick_runs_pass_every_check_and_repeat_for_a_seed() {
    let mut first: BTreeMap<&str, Run> = BTreeMap::new();
    for workload in WORKLOADS {
        let run = run(&["--workload", workload, "--seed", "11", "--quick"]);
        assert!(
            run.line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {}",
            run.line
        );
        assert!(
            run.line.contains("\"failed\": 0, \"metrics\": {"),
            "{}",
            run.line
        );
        let printed: Vec<(String, String)> = metrics(&run.line)
            .into_iter()
            .map(|(name, _, unit)| (name, unit))
            .collect();
        let pinned: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            printed, pinned,
            "{workload} prints the seven metrics, in order"
        );
        first.insert(workload, run);
    }
    assert_eq!(
        declared("end_to_end"),
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>(),
        "BENCHMARK.json declares the metrics the benchmark prints"
    );
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names, WORKLOADS,
        "BENCHMARK.json declares the four workloads"
    );

    // Same seed: same inputs, so the same spanner, memory and answers.
    for workload in WORKLOADS {
        let again = run(&["--workload", workload, "--seed", "11", "--quick"]);
        let exact = |run: &Run| -> Vec<(String, String, String)> {
            metrics(&run.line)
                .into_iter()
                .filter(|(name, _, _)| name == "spanner_edges" || name == "bytes_per_edge")
                .collect()
        };
        assert_eq!(exact(&again), exact(&first[workload]), "{workload}");
        assert!(
            again.digest.starts_with("digest "),
            "{workload} prints its digest"
        );
        assert_eq!(
            again.digest, first[workload].digest,
            "{workload} answers repeat"
        );
    }

    // Another seed: other traffic, the same topology, every check green.
    for workload in WORKLOADS {
        let other = run(&["--workload", workload, "--seed", "12", "--quick"]);
        assert!(
            other.line.starts_with("{\"correct\": true"),
            "{workload}: {}",
            other.line
        );
        assert_ne!(
            other.digest, first[workload].digest,
            "{workload}: the seed moves the traffic"
        );
    }
}

#[test]
fn traced_quick_run_prints_every_declared_layer_metric() {
    let run = run(&["--workload", "hot_wire", "--trace", "1", "--quick"]);
    assert!(run.line.starts_with("{\"correct\": true"), "{}", run.line);
    let printed: Vec<(String, String)> = metrics(&run.line)
        .into_iter()
        .map(|(name, _, unit)| (name, unit))
        .collect();
    assert_eq!(printed, declared("per_layer"));
    assert!(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out/trace-hot_wire.json")
            .is_file(),
        "the spans are written out"
    );
}

#[test]
fn refuses_arguments_it_does_not_know() {
    let out = Command::new(env!("CARGO_BIN_EXE_ftspan-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
