//! One run of one workload: repeat the lifecycle, take medians, check that
//! what must repeat exactly did, print.

use ftspan_graph::Graph;
use ftspan_oracle::{FaultOracle, ShardedOracle};

use crate::layers::{probe, Ladders};
use crate::lifecycle::{lifecycle, Layer, Ops, Sample};
use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};
use crate::report::{
    ladder_tables, metric_table, result_line, sample_table, span_table, write_result, write_trace,
    Header, Metric,
};
use crate::stats::{latency, mean, median};
use crate::trace::Tracer;
use crate::workload::{inputs, topology, Backend, Spec};

/// Lifecycles of a `--trace 1` run: untraced and traced, alternating.
pub const TRACE_LIFECYCLES: usize = 4;

pub struct Outcome {
    pub correct: bool,
    /// The digest of every lifecycle, in order.
    pub digests: Vec<u64>,
}

fn column<'a>(samples: impl IntoIterator<Item = &'a Sample>, metric: &EndToEnd) -> Vec<f64> {
    samples.into_iter().map(metric.get).collect()
}

fn dispatch(
    spec: &Spec,
    graph: &Graph,
    seed: u64,
    index: usize,
    tracer: &Tracer,
) -> Result<Sample, String> {
    let inputs = inputs(spec, graph, seed, index);
    tracer.set_lifecycle(index as u32);
    let (sample, secs) = tracer.timed("lifecycle", || match spec.backend {
        Backend::Single => lifecycle::<FaultOracle>(spec, graph, &inputs, tracer),
        Backend::Sharded { .. } => lifecycle::<ShardedOracle>(spec, graph, &inputs, tracer),
    });
    let mut sample = sample?;
    sample.layer.insert("bench.lifecycle_s", secs);
    Ok(sample)
}

/// `spanner_edges` and `bytes_per_edge` are functions of the topology: a
/// lifecycle that disagrees with the first is a failed operation.
fn exact_across_lifecycles<'a>(samples: impl Iterator<Item = &'a Sample> + Clone, ops: &mut Ops) {
    for metric in END_TO_END.iter().filter(|m| m.traced.is_none()) {
        let values = column(samples.clone(), metric);
        ops.attempted += 1;
        if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            ops.failed += 1;
            ops.notes.push(format!(
                "{} differs across lifecycles: {values:?}",
                metric.name
            ));
        }
    }
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool, lifecycles: usize) -> Outcome {
    let off = Tracer::new(false);
    let on = Tracer::new(trace);
    let (graph, gen_s) = on.timed("bench.gen", || topology(spec));
    let header = Header::new(spec, seed, seconds, trace, lifecycles);
    println!("{}", header.render());
    println!(
        "topology: n = {}, m = {}",
        graph.vertex_count(),
        graph.edge_count()
    );

    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut fatal = None;
    for index in 0..lifecycles {
        // A traced run alternates, so that both kinds see the same noise.
        let tracing = trace && index % 2 == 1;
        match dispatch(spec, &graph, seed, index, if tracing { &on } else { &off }) {
            Ok(sample) if tracing => traced.push(sample),
            Ok(sample) => untraced.push(sample),
            Err(why) => {
                fatal = Some(format!("lifecycle {index}: {why}"));
                break;
            }
        }
    }
    if let Some(why) = fatal {
        eprintln!("fatal: {why}");
        return Outcome {
            correct: false,
            digests: Vec::new(),
        };
    }

    let mut ops = Ops::default();
    let all = untraced.iter().chain(&traced);
    for sample in all.clone() {
        ops.absorb(sample.ops.clone());
    }
    exact_across_lifecycles(all.clone(), &mut ops);

    let rows: Vec<(&'static str, &'static str, Vec<f64>)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, column(&untraced, m)))
        .collect();
    println!("\nend to end — per-lifecycle samples, tracing off");
    print!("{}", sample_table(&rows));
    let waves: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.wave_latency_ms.clone())
        .collect();
    println!("wave latency: {}", latency(&waves).render("ms"));

    let metrics: Vec<Metric> = if trace {
        let (layer, ladders) = layers(spec, &graph, seed, &untraced, &traced, &on, gen_s);
        let spans = on.spans();
        println!("\n{}", ladder_tables(&ladders));
        println!("{}", span_table(&spans));
        println!("trace: {}", write_trace(&header, &spans).display());
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = *layer
                    .get(name)
                    .unwrap_or_else(|| panic!("no value for {name}"));
                (name, value, unit)
            })
            .collect();
        println!("\nper layer — traced lifecycles and probes");
        print!("{}", metric_table(&metrics));
        metrics
    } else {
        rows.iter()
            .map(|(name, unit, values)| (*name, median(values), *unit))
            .collect()
    };

    let correct = ops.failed == 0;
    for note in &ops.notes {
        println!("failure: {note}");
    }
    println!(
        "\noperations: {} attempted, {} failed — {}",
        ops.attempted,
        ops.failed,
        if correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        }
    );
    let path = write_result(
        &header,
        &rows,
        &metrics,
        correct,
        ops.attempted,
        ops.failed,
        &ops.notes,
    );
    println!("result: {}", path.display());
    println!(
        "{}",
        result_line(correct, ops.attempted, ops.failed, &metrics)
    );
    Outcome {
        correct,
        digests: all.map(|s| s.digest).collect(),
    }
}

/// Layer metrics of a traced run: medians over the traced lifecycles,
/// then the probes.
fn layers(
    spec: &Spec,
    graph: &Graph,
    seed: u64,
    untraced: &[Sample],
    traced: &[Sample],
    tracer: &Tracer,
    gen_s: f64,
) -> (Layer, Ladders) {
    let mut layer = Layer::new();
    let names: std::collections::BTreeSet<&'static str> = traced
        .iter()
        .flat_map(|s| s.layer.keys().copied())
        .collect();
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|s| s.layer.get(name).copied())
            .collect();
        layer.insert(name, median(&values));
    }
    let rtt: Vec<f64> = traced.iter().flat_map(|s| s.rtt_us.clone()).collect();
    let rtt = latency(&rtt);
    println!("\nsingle-request round trip: {}", rtt.render("us"));
    layer.insert("server.rtt_p50_us", rtt.p50);
    // p99 wants a thousand samples; below that the highest percentile
    // with ten samples beyond it stands in, and the line above says which.
    layer.insert("server.rtt_p99_us", rtt.tail.map_or(rtt.p50, |(_, v)| v));
    // The mean, so that the share of connections that waited out an accept
    // poll shows.
    let first: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.first_reply_ms.clone())
        .collect();
    println!("connect to first reply: {}", latency(&first).render("ms"));
    layer.insert("server.first_reply_ms", mean(&first));
    let floor: Vec<f64> = traced.iter().flat_map(|s| s.rtt_floor_us.clone()).collect();
    layer.insert("server.rtt_floor_us", median(&floor));
    let late: Vec<f64> = traced.iter().flat_map(|s| s.wave_late_ms.clone()).collect();
    layer.insert(
        "bench.wave_late_ms",
        if late.is_empty() { 0.0 } else { mean(&late) },
    );
    layer.insert("bench.gen_s", gen_s);

    // Tracing overhead: how much worse the traced lifecycles' timings read
    // than the untraced ones beside them, averaged over the five timings.
    let mut worse = Vec::new();
    for (m, name) in END_TO_END.iter().filter_map(|m| Some((m, m.traced?))) {
        let (with, without) = (median(&column(traced, m)), median(&column(untraced, m)));
        layer.insert(name, with);
        worse.push(if m.higher_is_better {
            without / with - 1.0
        } else {
            with / without - 1.0
        });
    }
    layer.insert("bench.trace_overhead_pct", 100.0 * mean(&worse));

    let wire_qps = median(&untraced.iter().map(|s| s.wire_qps).collect::<Vec<_>>());
    // The probes replay lifecycle 0's inputs, so the wire rung of the wave
    // ladder is lifecycle 0's latency for the same waves.
    let probed = spec
        .counts
        .probe_waves
        .min(untraced[0].wave_latency_ms.len());
    let wave_ms = mean(&untraced[0].wave_latency_ms[..probed]);
    let inputs = inputs(spec, graph, seed, 0);
    let (ladders, _) = tracer.timed("probes", || match spec.backend {
        Backend::Single => {
            probe::<FaultOracle>(spec, graph, &inputs, wire_qps, wave_ms, tracer, &mut layer)
        }
        Backend::Sharded { .. } => {
            probe::<ShardedOracle>(spec, graph, &inputs, wire_qps, wave_ms, tracer, &mut layer)
        }
    });
    (layer, ladders)
}
