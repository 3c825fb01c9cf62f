//! What a run prints: the header every output carries, the tables, the
//! result line the driver reads, and the files under `benchmark/out/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::layers::{nproc, Ladders};
use crate::stats::{latency, median};
use crate::trace::{summarize, Span};
use crate::workload::Spec;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit the measurement has.
pub fn number(value: f64) -> String {
    assert!(value.is_finite(), "metrics must be finite, got {value}");
    format!("{value}")
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without leaving the checkout; `unknown` outside a git repository.
fn commit() -> String {
    for root in [".", ".."] {
        let git = PathBuf::from(root).join(".git");
        let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
            continue;
        };
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return head.to_string();
        };
        if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
            return hash.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                return line.split(' ').next().unwrap_or("unknown").to_string();
            }
        }
    }
    "unknown".into()
}

/// What every output records about the run.
#[derive(Clone, Debug)]
pub struct Header {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub lifecycles: usize,
    pub counts: String,
    pub nproc: usize,
    pub commit: String,
    pub rustc: &'static str,
}

impl Header {
    pub fn new(spec: &Spec, seed: u64, seconds: u64, trace: bool, lifecycles: usize) -> Self {
        Self {
            workload: spec.name,
            seed,
            seconds,
            trace,
            lifecycles,
            counts: format!("{:?}", spec.counts),
            nproc: nproc(),
            commit: commit(),
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "workload {}  seed {}  seconds {}  trace {}  R = {} lifecycles\n\
             nproc {}  commit {}  {}\n{}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.lifecycles,
            self.nproc,
            self.commit,
            self.rustc,
            self.counts
        )
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"lifecycles\": {}, \
             \"nproc\": {}, \"commit\": {}, \"rustc\": {}, \"counts\": {}}}",
            quote(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.lifecycles,
            self.nproc,
            quote(&self.commit),
            quote(self.rustc),
            quote(&self.counts)
        )
    }
}

/// `name  median  [min .. max]  unit` over the per-lifecycle samples.
pub fn sample_table(rows: &[(&'static str, &'static str, Vec<f64>)]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:>16} {:>16} {:>16}  {:<6} n",
        "metric", "median", "min", "max", "unit"
    )
    .unwrap();
    for (name, unit, values) in rows {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        writeln!(
            out,
            "{:<18} {:>16.6} {:>16.6} {:>16.6}  {:<6} {}",
            name,
            median(values),
            min,
            max,
            unit,
            values.len()
        )
        .unwrap();
    }
    out
}

pub fn metric_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (name, value, unit) in metrics {
        writeln!(out, "{name:<32} {value:>18.4}  {unit}").unwrap();
    }
    out
}

pub fn ladder_tables(ladders: &Ladders) -> String {
    let mut out = String::new();
    writeln!(out, "query ladder — ns per query of the workload's stream").unwrap();
    for rung in &ladders.query_ns {
        writeln!(out, "  {:<48} {:>14.1}", rung.boundary, rung.value).unwrap();
    }
    writeln!(out, "wave ladder — ms per wave of the workload's script").unwrap();
    for rung in &ladders.wave_ms {
        writeln!(out, "  {:<48} {:>14.3}", rung.boundary, rung.value).unwrap();
    }
    out
}

/// Per span name: count, total, self time, and the latency summary.
pub fn span_table(spans: &[Span]) -> String {
    let mut rows: Vec<_> = summarize(spans).into_iter().collect();
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.self_ns));
    let mut out = String::new();
    writeln!(
        out,
        "{:<26} {:>7} {:>12} {:>12}  per span",
        "span", "count", "total ms", "self ms"
    )
    .unwrap();
    for (name, s) in rows {
        let us: Vec<f64> = s.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        writeln!(
            out,
            "{:<26} {:>7} {:>12.2} {:>12.2}  {}",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            latency(&us).render("us")
        )
        .unwrap();
    }
    out
}

/// `benchmark/out` from the repository root, `out` from inside
/// `benchmark/`.
pub fn out_dir() -> PathBuf {
    let dir = if PathBuf::from("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

pub fn write_trace(header: &Header, spans: &[Span]) -> PathBuf {
    let mut out = String::new();
    write!(out, "{{\"header\": {}, \"spans\": [", header.json()).unwrap();
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"lifecycle\": {}}}",
            quote(span.name),
            span.start_ns,
            span.end_ns,
            span.parent.map_or("null".into(), |p| p.to_string()),
            span.lifecycle
        )
        .unwrap();
    }
    out.push_str("\n]}\n");
    let path = out_dir().join(format!("trace-{}.json", header.workload));
    std::fs::write(&path, out).expect("write the trace");
    path
}

/// The full result: header, the per-lifecycle samples behind every
/// end-to-end median, and the metrics as printed.
pub fn write_result(
    header: &Header,
    samples: &[(&'static str, &'static str, Vec<f64>)],
    metrics: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: &[String],
) -> PathBuf {
    let samples: Vec<String> = samples
        .iter()
        .map(|(name, unit, values)| {
            let values: Vec<String> = values.iter().map(|v| number(*v)).collect();
            format!(
                "{}: {{\"unit\": {}, \"per_lifecycle\": [{}]}}",
                quote(name),
                quote(unit),
                values.join(", ")
            )
        })
        .collect();
    let notes: Vec<String> = notes.iter().map(|n| quote(n)).collect();
    let out = format!(
        "{{\"header\": {},\n\"samples\": {{{}}},\n\"failures\": [{}],\n\"result\": {}}}\n",
        header.json(),
        samples.join(", "),
        notes.join(", "),
        result_line(correct, attempted, failed, metrics)
    );
    let kind = if header.trace { "layers" } else { "result" };
    let path = out_dir().join(format!("{kind}-{}.json", header.workload));
    std::fs::write(&path, out).expect("write the result");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[("setup_s", 0.5, "s"), ("wave_ms", 1.25, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"wave_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn quote_escapes_what_json_requires() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
