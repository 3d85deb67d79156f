//! `perfbench` — wall-time benchmark of the relative-trust repair path,
//! end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//! A human-readable report goes to standard error; a traced run also
//! writes its spans to `.perfbench/`. See `README.md` beside this package.

mod common;
mod inprocess;
mod json;
mod replay;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Json;
use std::process::ExitCode;

/// End-to-end metrics: (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("repair_s", "s", "lower"),
    ("first_repair_s", "s", "lower"),
    ("spectrum_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("io.ingest_s", "s"),
    ("io.rows", "count"),
    ("relation.key_bytes_hashed", "bytes"),
    ("relation.key_allocs", "count"),
    ("relation.peak_resident_cells", "cells"),
    ("relation.dict_entries", "count"),
    ("shard.plan_s", "s"),
    ("shard.count", "count"),
    ("constraints.graph_build_s", "s"),
    ("constraints.conflict_edges", "count"),
    ("constraints.subgraph_ms", "ms"),
    ("graph.cover_ms", "ms"),
    ("graph.cover_rows", "count"),
    ("problem.delta_p_ms", "ms"),
    ("heuristic.eval_ms", "ms"),
    ("heuristic.nodes", "count"),
    ("heuristic.cache_hits", "count"),
    ("search.fd_repair_s", "s"),
    ("search.states_expanded", "count"),
    ("search.states_generated", "count"),
    ("data_repair.point_s", "s"),
    ("data_repair.cells_changed", "count"),
    ("engine.build_s", "s"),
    ("engine.apply_ms", "ms"),
    ("engine.repair_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("engine.edges_added", "count"),
    ("engine.edges_removed", "count"),
    ("engine.components_dirtied", "count"),
    ("proto.load_decode_s", "s"),
    ("proto.request_decode_ms", "ms"),
    ("proto.response_decode_ms", "ms"),
    ("proto.response_encode_ms", "ms"),
    ("proto.frame_bytes", "bytes"),
    ("server.wal_append_ms", "ms"),
    ("server.requests_served", "count"),
    ("server.frames_decoded", "count"),
    ("server.snapshots_written", "count"),
    ("net.ping_p50_ms", "ms"),
    ("net.ping_p90_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <warehouse-250k|census-spectrum|session-mutate> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after `{flag}`"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match workloads::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench {} seed {} ({}):",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    eprint!("{}", result.report);
    if let Some(spans) = &result.spans {
        match workloads::write_spans(&args.workload, args.seed, spans) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }

    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let Some(value) = result.metrics.get(name) else {
            eprintln!("perfbench: metric {name} missing from the run");
            return ExitCode::FAILURE;
        };
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::Str(unit.into())),
            ]),
        ));
    }
    let t = result.tally;
    eprintln!(
        "  error_rate {} ({} failed of {} attempted)",
        t.error_rate(),
        t.failed,
        t.attempted
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(t.failed == 0)),
        ("attempted", Json::Int(t.attempted.max(1) as i64)),
        ("failed", Json::Int(t.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args(
            "--workload census-spectrum --seed 31 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("census-spectrum", 31, 20.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload census-spectrum --seed x --seconds 1")).is_err());
        assert!(parse_args(&args("--workload census-spectrum --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args(
            "--workload census-spectrum --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    /// `BENCHMARK.json` at the repository root names exactly these metrics,
    /// and workloads this binary runs.
    #[test]
    fn benchmark_json_lists_the_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = rt_engine::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names("per_layer"), layers);
        // `warehouse-250k` runs by hand only (see the README).
        assert_eq!(names("workloads"), ["census-spectrum", "session-mutate"]);
        for name in names("workloads") {
            assert!(workloads::WORKLOADS.contains(&name.as_str()), "{name}");
        }
    }
}
