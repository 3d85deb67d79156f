//! `exp` — runs one experiment of the paper's evaluation (or the parallel
//! speedup check), prints its rows as a table and writes them as JSON to
//! `target/experiments/<report>.json`.
//!
//! ```text
//! exp <name> [--scale smoke|default|paper] [--threads auto|serial|N]
//! exp quality_vs_trust --scale smoke
//! exp par_speedup --scale smoke --threads 2
//! ```
//!
//! `par_speedup` times every parallel stage with `Parallelism::Serial` and
//! with the `--threads` setting (default: all cores), and asserts their
//! outputs bit-identical — the parallel layer's hard invariant — before the
//! timings are reported; it exits non-zero if any stage diverges.

use rt_bench::json::JsonValue;
use rt_bench::{experiments, impl_to_json, render_table, write_json_report};
use rt_bench::{Scale, Workload, WorkloadSpec};
use rt_constraints::ConflictGraph;
use rt_core::data_repair::repair_data_with_cover_par;
use rt_core::{sampling_search, Parallelism, RepairProblem, SearchConfig, WeightKind};
use rt_graph::approx_vertex_cover_with;
use std::process::ExitCode;
use std::time::Instant;

/// Every experiment: name, what it reproduces.
const EXPERIMENTS: [(&str, &str); 8] = [
    ("quality_vs_trust", "Figure 7: repair quality vs τ_r"),
    ("vs_unified_cost", "Figure 8: vs unified-cost repair"),
    ("scal_tuples", "Figure 9: runtime vs tuples"),
    ("scal_attrs", "Figure 10: runtime vs attributes"),
    ("scal_fds", "Figure 11: runtime vs FDs"),
    ("effect_tau", "Figure 12: runtime vs τ_r"),
    ("multi_repairs", "Figure 13: Range- vs Sampling-Repair"),
    ("par_speedup", "serial ≡ parallel, stage by stage"),
];

fn usage() -> String {
    let mut text = "usage: exp <name> [--scale smoke|default|paper] [--threads auto|serial|N]\n\
                    (--threads applies to par_speedup only)\n\nexperiments:\n"
        .to_string();
    for (name, what) in EXPERIMENTS {
        text.push_str(&format!("  {name:<17} {what}\n"));
    }
    text
}

/// A parsed command line.
struct Args {
    name: String,
    scale: Scale,
    threads: Option<Parallelism>,
}

/// Parses the command line; `Ok(None)` means `--help`.
fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut name = None;
    let mut scale = Scale::Default;
    let mut threads = None;
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i)
                .ok_or_else(|| format!("missing value after `{arg}`"))
        };
        match arg {
            "--help" | "-h" => return Ok(None),
            "--scale" => {
                scale = match value()?.as_str() {
                    "smoke" => Scale::Smoke,
                    "default" => Scale::Default,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown --scale `{other}`")),
                }
            }
            "--threads" => {
                let spec = value()?;
                threads = Some(Parallelism::parse(spec).map_err(|e| format!("--threads: {e}"))?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ if name.is_some() => return Err(format!("unexpected argument `{arg}`")),
            _ => name = Some(arg.to_string()),
        }
        i += 1;
    }
    let name = name.ok_or("missing experiment name")?;
    if !EXPERIMENTS.iter().any(|(known, _)| *known == name) {
        return Err(format!("unknown experiment `{name}`"));
    }
    if threads.is_some() && name != "par_speedup" {
        return Err("--threads applies to par_speedup only".into());
    }
    Ok(Some(Args {
        name,
        scale,
        threads,
    }))
}

/// Prints `rows` as a table and writes them to
/// `target/experiments/<report>.json`.
fn emit<T>(report: &str, header: &[&str], rows: &[T], cells: impl Fn(&T) -> Vec<String>)
where
    for<'a> JsonValue: From<&'a T>,
{
    let table: Vec<Vec<String>> = rows.iter().map(cells).collect();
    println!("{}", render_table(header, &table));
    if let Some(path) = write_json_report(report, rows) {
        eprintln!("wrote {}", path.display());
    }
}

fn percent(fraction: f64) -> String {
    format!("{:.0}%", fraction * 100.0)
}

/// The columns of the runtime figures (9–12), after the varied parameter.
fn perf_header(varied: &str) -> [&str; 5] {
    [
        varied,
        "algorithm",
        "seconds",
        "visited states",
        "truncated",
    ]
}

fn perf_cells(varied: String, r: &experiments::PerfRow, truncated: &str) -> Vec<String> {
    vec![
        varied,
        r.algorithm.clone(),
        format!("{:.3}", r.seconds),
        r.states_visited.to_string(),
        if r.truncated { truncated } else { "no" }.to_string(),
    ]
}

fn run(args: &Args) -> ExitCode {
    let scale = args.scale;
    eprintln!("[exp {}] scale = {scale:?}", args.name);
    match args.name.as_str() {
        "quality_vs_trust" => emit(
            "figure7_quality_vs_trust",
            &[
                "FD err",
                "Data err",
                "tau_r",
                "Data F",
                "FD F",
                "Combined F",
                "cells",
                "attrs",
            ],
            &experiments::quality_vs_trust(scale),
            |r| {
                vec![
                    percent(r.fd_error_rate),
                    percent(r.data_error_rate),
                    percent(r.tau_r),
                    format!("{:.3}", r.data_f),
                    format!("{:.3}", r.fd_f),
                    format!("{:.3}", r.combined_f),
                    r.cells_modified.to_string(),
                    r.attrs_appended.to_string(),
                ]
            },
        ),
        "vs_unified_cost" => emit(
            "figure8_vs_unified_cost",
            &[
                "Algorithm",
                "FD err",
                "Data err",
                "FD prec",
                "FD rec",
                "Data prec",
                "Data rec",
                "Combined F",
                "best tau_r",
            ],
            &experiments::versus_unified_cost(scale),
            |r| {
                vec![
                    r.algorithm.clone(),
                    percent(r.fd_error_rate),
                    percent(r.data_error_rate),
                    format!("{:.2}", r.fd_precision),
                    format!("{:.2}", r.fd_recall),
                    format!("{:.2}", r.data_precision),
                    format!("{:.2}", r.data_recall),
                    format!("{:.3}", r.combined_f),
                    r.best_tau_r.map(percent).unwrap_or_else(|| "-".into()),
                ]
            },
        ),
        "scal_tuples" => emit(
            "figure9_scalability_tuples",
            &perf_header("tuples"),
            &experiments::scalability_tuples(scale),
            |r| perf_cells(r.tuples.to_string(), r, "yes"),
        ),
        "scal_attrs" => emit(
            "figure10_scalability_attributes",
            &perf_header("attributes"),
            &experiments::scalability_attributes(scale),
            |r| perf_cells(r.attributes.to_string(), r, "yes"),
        ),
        "scal_fds" => emit(
            "figure11_scalability_fds",
            &perf_header("FDs"),
            &experiments::scalability_fds(scale),
            |r| perf_cells(r.fds.to_string(), r, "yes (cap hit)"),
        ),
        "effect_tau" => emit(
            "figure12_effect_of_tau",
            &perf_header("tau_r"),
            &experiments::effect_of_tau(scale),
            |r| perf_cells(percent(r.tau_r), r, "yes"),
        ),
        "multi_repairs" => emit(
            "figure13_multi_repairs",
            &[
                "max tau_r",
                "algorithm",
                "seconds",
                "repairs found",
                "visited states",
            ],
            &experiments::multi_repair_comparison(scale),
            |r| {
                vec![
                    percent(r.max_tau_r),
                    r.algorithm.clone(),
                    format!("{:.3}", r.seconds),
                    r.repairs_found.to_string(),
                    r.states_visited.to_string(),
                ]
            },
        ),
        _ => return par_speedup(scale, args.threads.unwrap_or(Parallelism::Auto)),
    }
    ExitCode::SUCCESS
}

/// One stage's serial-vs-parallel measurement.
struct SpeedupRow {
    stage: String,
    serial_seconds: f64,
    parallel_seconds: f64,
    speedup: f64,
    identical: bool,
}

impl_to_json!(SpeedupRow {
    stage,
    serial_seconds,
    parallel_seconds,
    speedup,
    identical
});

/// Times `f` under both settings and checks the outputs match.
fn measure<T: PartialEq>(
    stage: &str,
    par: Parallelism,
    f: impl Fn(Parallelism) -> T,
) -> SpeedupRow {
    // Untimed warm-up so allocator and page-cache effects don't skew the
    // serial (first) measurement.
    let _ = f(Parallelism::Serial);
    let start = Instant::now();
    let serial_out = f(Parallelism::Serial);
    let serial_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel_out = f(par);
    let parallel_seconds = start.elapsed().as_secs_f64();
    SpeedupRow {
        stage: stage.to_string(),
        serial_seconds,
        parallel_seconds,
        speedup: serial_seconds / parallel_seconds.max(1e-12),
        identical: serial_out == parallel_out,
    }
}

fn par_speedup(scale: Scale, par: Parallelism) -> ExitCode {
    eprintln!("[exp par_speedup] parallel setting = {par}");
    // A conflict-heavy workload: one weakened 6-attribute FD over 5k tuples
    // (paper-scale conflict graphs at Default scale).
    let workload = Workload::build(&WorkloadSpec {
        tuples: scale.tuples(5000),
        attributes: 12,
        fd_count: 1,
        lhs_size: 6,
        data_error_rate: 0.01,
        fd_error_rate: 0.5,
        seed: 3,
    });
    let instance = workload.dirty_instance();
    let fds = workload.dirty_fds();

    let mut rows = Vec::new();

    rows.push(measure("conflict_graph_build", par, |p| {
        ConflictGraph::build_with(instance, fds, p)
    }));

    let conflict = ConflictGraph::build(instance, fds);
    let graph = conflict.to_graph();
    rows.push(measure("vertex_cover", par, |p| {
        approx_vertex_cover_with(&graph, p)
    }));

    let cover: Vec<usize> = approx_vertex_cover_with(&graph, par).iter().collect();
    rows.push(measure("data_repair_alg4", par, |p| {
        let out = repair_data_with_cover_par(instance, fds, &cover, 7, p);
        (out.repaired, out.changed_cells)
    }));

    let problem = RepairProblem::with_weight_par(instance, fds, WeightKind::DistinctCount, par);
    let budget = problem.delta_p_original();
    rows.push(measure("tau_sweep_sampling", par, |p| {
        let config = SearchConfig {
            max_expansions: 10_000,
            parallelism: p,
            ..Default::default()
        };
        let out = sampling_search(&problem, 0, budget, (budget / 8).max(1), &config);
        out.repairs
            .iter()
            .map(|r| (r.repair.delta_p, r.tau_range))
            .collect::<Vec<_>>()
    }));

    emit(
        "parallel_speedup",
        &["stage", "serial s", "parallel s", "speedup", "identical"],
        &rows,
        |r| {
            vec![
                r.stage.clone(),
                format!("{:.4}", r.serial_seconds),
                format!("{:.4}", r.parallel_seconds),
                format!("{:.2}x", r.speedup),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        },
    );
    if rows.iter().all(|r| r.identical) {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel output diverged from serial — determinism invariant broken");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
