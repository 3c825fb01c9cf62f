//! Experiment harness: regenerates the paper-level experiments E1–E11
//! (one per theorem or lemma of the source paper) as markdown tables on
//! stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ftspan-bench --bin experiments [all|lbc|size-vs-n|size-vs-f|runtime|
//!     exact-vs-poly|weighted|dk11|local|congest|eft|blocking]
//! ```
//!
//! With no argument (or `all`) every experiment runs in order. An unknown
//! subcommand prints this usage to stderr and exits with status 2. The
//! serving system (oracle, shards, service, server) is timed by the
//! lifecycle benchmark under `benchmark/`, not here.

use ftspan::blocking::{blocking_set_from_certificates, blocking_violations, lemma6_size_bound};
use ftspan::lbc::decide_vertex_lbc;
use ftspan::verify::{verify_spanner, VerificationMode};
use ftspan::{
    bounds, dk, exact_greedy_spanner, poly_greedy_spanner, poly_greedy_spanner_with,
    PolyGreedyOptions, SpannerParams,
};
use ftspan_bench::{geometric_workload, gnp_workload, markdown_table, rng, timed};
use ftspan_distributed::{congest_baswana_sen, congest_ft_spanner, local_ft_spanner};
use ftspan_graph::vid;
use rand::Rng;

/// Every experiment, by subcommand name, in the order `all` runs them.
const EXPERIMENTS: [(&str, fn()); 11] = [
    ("lbc", experiment_lbc),
    ("size-vs-n", experiment_size_vs_n),
    ("size-vs-f", experiment_size_vs_f),
    ("runtime", experiment_runtime),
    ("exact-vs-poly", experiment_exact_vs_poly),
    ("weighted", experiment_weighted),
    ("dk11", experiment_dk11),
    ("local", experiment_local),
    ("congest", experiment_congest),
    ("eft", experiment_eft),
    ("blocking", experiment_blocking),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    if which == "all" {
        EXPERIMENTS.iter().for_each(|(_, run)| run());
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == which) {
        run();
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{which}`\nusage: experiments [all|{}]",
            names.join("|")
        );
        std::process::exit(2);
    }
}

/// E1 (Theorem 4): LBC(t, α) decision quality and cost.
fn experiment_lbc() {
    println!("\n## E1 — Length-Bounded Cut gap decision (Theorem 4)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400] {
        let g = gnp_workload(n, 8.0, 1);
        for &alpha in &[1u32, 2, 4] {
            let mut r = rng(alpha as u64);
            let mut bfs_total = 0usize;
            let mut yes = 0usize;
            let trials = 200;
            let (_, secs) = timed(|| {
                for _ in 0..trials {
                    let u = vid(r.gen_range(0..n));
                    let v = vid(r.gen_range(0..n));
                    if u == v {
                        continue;
                    }
                    let (d, stats) = decide_vertex_lbc(&g, u, v, 3, alpha);
                    bfs_total += stats.bfs_runs;
                    if d.is_yes() {
                        yes += 1;
                    }
                }
            });
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                alpha.to_string(),
                format!("{:.2}", bfs_total as f64 / trials as f64),
                format!("{:.1}", 100.0 * yes as f64 / trials as f64),
                format!("{:.1}", 1e6 * secs / trials as f64),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "alpha",
                "avg BFS runs (<= alpha+1)",
                "YES %",
                "us / decision"
            ],
            &rows
        )
    );
}

/// E2 (Theorems 5/8): modified greedy size vs n against the Theorem 8 curve.
fn experiment_size_vs_n() {
    println!("\n## E2 — Modified greedy size vs n (Theorems 5, 8)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400, 800] {
        let g = gnp_workload(n, 12.0, 2);
        for &f in &[1u32, 2] {
            let params = SpannerParams::vertex(2, f);
            let (result, secs) = timed(|| poly_greedy_spanner(&g, params));
            let bound = bounds::poly_greedy_size_bound(n, 2, f);
            let report = verify_spanner(
                &g,
                &result.spanner,
                params,
                VerificationMode::Sampled {
                    samples: 30,
                    seed: 1,
                },
            );
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                format!("{bound:.0}"),
                format!("{:.2}", result.spanner.edge_count() as f64 / bound),
                report.is_valid().to_string(),
                format!("{secs:.2}"),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "f",
                "|E(H)|",
                "Thm 8 curve",
                "ratio",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E3 (Theorem 8 vs DK11): size scaling in f.
fn experiment_size_vs_f() {
    println!("\n## E3 — Size scaling in f: modified greedy vs DK11 (Theorems 8, 13)\n");
    let n = 200;
    let g = gnp_workload(n, 20.0, 3);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4, 8] {
        let params = SpannerParams::vertex(2, f);
        let greedy = poly_greedy_spanner(&g, params);
        let mut r = rng(f as u64 + 10);
        let dk11 = dk::dk_spanner(&g, 2, f, &mut r);
        rows.push(vec![
            f.to_string(),
            greedy.spanner.edge_count().to_string(),
            format!("{:.0}", bounds::poly_greedy_size_bound(n, 2, f)),
            dk11.spanner.edge_count().to_string(),
            format!("{:.0}", bounds::dk_size_bound(n, 2, f)),
            format!(
                "{:.2}",
                dk11.spanner.edge_count() as f64 / greedy.spanner.edge_count().max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "f",
                "greedy |E(H)|",
                "f^(1-1/k) curve",
                "DK11 |E(H)|",
                "f^(2-1/k) curve",
                "DK11 / greedy"
            ],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E4 (Theorem 9): running time scaling in m.
fn experiment_runtime() {
    println!("\n## E4 — Modified greedy running time vs m (Theorem 9)\n");
    let n = 250;
    let mut rows = Vec::new();
    for &deg in &[6.0f64, 12.0, 24.0, 48.0] {
        let g = gnp_workload(n, deg, 4);
        let params = SpannerParams::vertex(2, 2);
        let (result, secs) = timed(|| poly_greedy_spanner(&g, params));
        rows.push(vec![
            g.edge_count().to_string(),
            result.spanner.edge_count().to_string(),
            result.stats.lbc_calls.to_string(),
            result.stats.bfs_runs.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}", 1e6 * secs / g.edge_count() as f64),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "m",
                "|E(H)|",
                "LBC calls",
                "BFS runs",
                "seconds",
                "us per edge"
            ],
            &rows
        )
    );
    println!("(n = {n}, k = 2, f = 2; Theorem 9 predicts time linear in m for fixed n, k, f)");
}

/// E5 (Theorem 2 vs BP19): exact greedy vs polynomial greedy.
fn experiment_exact_vs_poly() {
    println!("\n## E5 — Exact greedy [BP19] vs polynomial greedy (Theorem 2)\n");
    let mut rows = Vec::new();
    for &n in &[20usize, 30, 40, 60] {
        let g = gnp_workload(n, 8.0, 5);
        let params = SpannerParams::vertex(2, 1);
        let (exact, exact_secs) = timed(|| exact_greedy_spanner(&g, params).expect("budget"));
        let (poly, poly_secs) = timed(|| poly_greedy_spanner(&g, params));
        rows.push(vec![
            n.to_string(),
            g.edge_count().to_string(),
            exact.spanner.edge_count().to_string(),
            poly.spanner.edge_count().to_string(),
            format!(
                "{:.2}",
                poly.spanner.edge_count() as f64 / exact.spanner.edge_count().max(1) as f64
            ),
            format!("{:.3}", exact_secs),
            format!("{:.3}", poly_secs),
            exact.stats.fault_sets_enumerated.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "exact |E(H)|",
                "poly |E(H)|",
                "poly/exact",
                "exact s",
                "poly s",
                "fault sets enumerated"
            ],
            &rows
        )
    );
}

/// E6 (Theorem 10): weighted graphs.
fn experiment_weighted() {
    println!("\n## E6 — Weighted modified greedy (Theorem 10)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200] {
        let g = geometric_workload(n, 0.18, 6);
        for &f in &[1u32, 2] {
            let params = SpannerParams::vertex(2, f);
            let result = poly_greedy_spanner(&g, params);
            let report = verify_spanner(
                &g,
                &result.spanner,
                params,
                VerificationMode::Sampled {
                    samples: 40,
                    seed: 2,
                },
            );
            rows.push(vec![
                n.to_string(),
                g.edge_count().to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                format!("{:.1}", 100.0 * result.stats.retention()),
                format!("{:.2}", report.max_stretch),
                params.stretch().to_string(),
                report.is_valid().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "f",
                "|E(H)|",
                "% edges kept",
                "max observed stretch",
                "allowed",
                "FT check"
            ],
            &rows
        )
    );
}

/// E7 (Theorem 13): Dinitz–Krauthgamer size and validity.
fn experiment_dk11() {
    println!("\n## E7 — Dinitz–Krauthgamer [DK11] (Theorem 13)\n");
    let n = 200;
    let g = gnp_workload(n, 16.0, 7);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4] {
        let mut r = rng(f as u64 + 70);
        let (result, secs) = timed(|| dk::dk_spanner(&g, 2, f, &mut r));
        let params = SpannerParams::vertex(2, f);
        let report = verify_spanner(
            &g,
            &result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 30,
                seed: 3,
            },
        );
        rows.push(vec![
            f.to_string(),
            result.spanner.edge_count().to_string(),
            format!(
                "{:.0}",
                bounds::dk_size_bound(n, 2, f).min(g.edge_count() as f64)
            ),
            report.is_valid().to_string(),
            format!("{secs:.2}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "f",
                "|E(H)|",
                "Thm 13 curve (capped at m)",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E8 (Theorem 12): LOCAL model.
fn experiment_local() {
    println!("\n## E8 — LOCAL construction (Theorem 12)\n");
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400] {
        let g = gnp_workload(n, 8.0, 8);
        let params = SpannerParams::vertex(2, 1);
        let mut r = rng(n as u64);
        let (result, secs) = timed(|| local_ft_spanner(&g, params, &mut r));
        let report = verify_spanner(
            &g,
            &result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 25,
                seed: 4,
            },
        );
        rows.push(vec![
            n.to_string(),
            g.edge_count().to_string(),
            result.spanner.edge_count().to_string(),
            format!(
                "{:.0}",
                bounds::local_size_bound(n, 2, 1).min(g.edge_count() as f64)
            ),
            result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::local_round_bound(n)),
            result.partitions.to_string(),
            report.is_valid().to_string(),
            format!("{secs:.2}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "m",
                "|E(H)|",
                "size curve (capped)",
                "rounds",
                "log2 n",
                "partitions",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E9 (Theorems 14, 15): CONGEST model.
fn experiment_congest() {
    println!("\n## E9 — CONGEST constructions (Theorems 14, 15)\n");
    println!("### Distributed Baswana–Sen (Theorem 14)\n");
    let mut rows = Vec::new();
    let g = gnp_workload(200, 10.0, 9);
    for &k in &[2u32, 3, 4] {
        let mut r = rng(k as u64 + 90);
        let result = congest_baswana_sen(&g, k, &mut r);
        rows.push(vec![
            k.to_string(),
            result.spanner.edge_count().to_string(),
            result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::baswana_sen_round_bound(k)),
            result.rounds.max_words_per_edge_round.to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["k", "|E(H)|", "rounds", "k^2", "max words/edge/round"],
            &rows
        )
    );

    println!("### Fault-tolerant CONGEST construction (Theorem 15)\n");
    let mut rows = Vec::new();
    for &(n, f) in &[(100usize, 1u32), (100, 2), (200, 1)] {
        let g = gnp_workload(n, 10.0, 10);
        let params = SpannerParams::vertex(2, f);
        let mut r = rng(n as u64 + f as u64);
        let (out, secs) = timed(|| congest_ft_spanner(&g, params, &mut r));
        let report = verify_spanner(
            &g,
            &out.result.spanner,
            params,
            VerificationMode::Sampled {
                samples: 20,
                seed: 5,
            },
        );
        rows.push(vec![
            n.to_string(),
            f.to_string(),
            out.result.spanner.edge_count().to_string(),
            out.iterations.to_string(),
            out.phase1_rounds.to_string(),
            out.phase2_rounds.to_string(),
            out.result.rounds.rounds.to_string(),
            format!("{:.0}", bounds::congest_round_bound(n, 2, f)),
            out.max_edge_multiplicity.to_string(),
            report.is_valid().to_string(),
            format!("{secs:.1}"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "f",
                "|E(H)|",
                "DK iterations",
                "phase-1 rounds",
                "phase-2 rounds",
                "total rounds",
                "Thm 15 curve",
                "congestion factor",
                "FT check",
                "seconds"
            ],
            &rows
        )
    );
}

/// E10: edge-fault-tolerant variants.
fn experiment_eft() {
    println!("\n## E10 — Edge-fault-tolerant variants\n");
    let n = 150;
    let g = gnp_workload(n, 12.0, 11);
    let mut rows = Vec::new();
    for &f in &[1u32, 2, 4] {
        let vft = poly_greedy_spanner(&g, SpannerParams::vertex(2, f));
        let eft_params = SpannerParams::edge(2, f);
        let eft = poly_greedy_spanner(&g, eft_params);
        let report = verify_spanner(
            &g,
            &eft.spanner,
            eft_params,
            VerificationMode::Sampled {
                samples: 30,
                seed: 6,
            },
        );
        rows.push(vec![
            f.to_string(),
            vft.spanner.edge_count().to_string(),
            eft.spanner.edge_count().to_string(),
            format!(
                "{:.2}",
                eft.spanner.edge_count() as f64 / vft.spanner.edge_count().max(1) as f64
            ),
            report.is_valid().to_string(),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["f", "VFT |E(H)|", "EFT |E(H)|", "EFT/VFT", "EFT check"],
            &rows
        )
    );
    println!("(input: n = {n}, m = {})", g.edge_count());
}

/// E11 (Lemma 6): blocking sets extracted from certificates.
fn experiment_blocking() {
    println!("\n## E11 — Blocking sets from LBC certificates (Lemma 6)\n");
    let mut rows = Vec::new();
    for &n in &[30usize, 50] {
        for &f in &[1u32, 2] {
            let g = gnp_workload(n, 8.0, 12);
            let k = 2u32;
            let params = SpannerParams::vertex(k, f);
            let options = PolyGreedyOptions {
                collect_certificates: true,
            };
            let result = poly_greedy_spanner_with(&g, params, &options);
            let blocking = blocking_set_from_certificates(&result);
            let violations = blocking_violations(&result.spanner, &blocking, 2 * k as usize);
            rows.push(vec![
                n.to_string(),
                f.to_string(),
                result.spanner.edge_count().to_string(),
                blocking.len().to_string(),
                lemma6_size_bound(result.spanner.edge_count(), k, f).to_string(),
                violations.len().to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "n",
                "f",
                "|E(H)|",
                "|B|",
                "Lemma 6 bound (2k-1)f|E(H)|",
                "unblocked 2k-cycles"
            ],
            &rows
        )
    );
}
