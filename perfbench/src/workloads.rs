//! The three workloads: inputs from the seed, the timed loop, and the
//! traced run with its replay harness.

use crate::common::{
    csv_text, mutation_ops, peak_rss_mb, permute_lines, permute_rows, reorder_lines, retarget_ops,
    shuffled_order, OpMix, Scratch,
};
use crate::inprocess::{self, Answered, PassTimes, Relation, Source, CHUNK_ROWS};
use crate::replay::{self, traced, Layers};
use crate::stats::{Samples, Series, Tally};
use crate::trace::Tracer;
use crate::wire::{self, WireInputs};
use rt_core::Parallelism;
use rt_datagen::{generate_census_like, perturb, CensusLikeConfig, PerturbConfig};
use rt_relation::work::WorkSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Generator seed of the warehouse relations (the `warehouse` scenario's
/// catalog default). The run seed orders their rows; see
/// [`warehouse_text`].
pub const WAREHOUSE_STRUCTURE_SEED: u64 = 17;
/// Rows of the `warehouse-250k` relation.
pub const WAREHOUSE_ROWS: usize = 250_000;
/// Tuples per relation of the census pool.
pub const CENSUS_TUPLES: usize = 80;
/// Generator seeds of the census pool: the first eight, none skipped.
pub const CENSUS_POOL: std::ops::RangeInclusive<u64> = 1..=8;
/// Rows of the `session-mutate` relation.
pub const SESSION_ROWS: usize = 1_000;
/// Single-op mutation rounds per session epoch.
pub const SESSION_ROUNDS: usize = 5;
/// Rows and ops the wire-layer replay of an in-process workload sends.
const REPLAY_ROWS: usize = 1_000;
const REPLAY_OPS: usize = 5;
/// Workers of the in-process engines: on 2 vCPUs `Fixed(2)` was slower and
/// noisier than `Serial` on both in-process workloads (see the README).
const IN_PROCESS_PAR: Parallelism = Parallelism::Serial;
/// At least this many passes (or epochs) per run, however long they take.
const MIN_PASSES: usize = 3;

const WAREHOUSE_FDS: [&str; 3] = [
    "store_id->store_city",
    "product_id->product_name",
    "product_id->unit_price",
];

pub const WORKLOADS: [&str; 3] = ["warehouse-250k", "census-spectrum", "session-mutate"];

/// What one run produced.
pub struct RunResult {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report, printed to standard error.
    pub report: String,
    /// Spans of a traced run, as JSON.
    pub spans: Option<String>,
}

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let scratch = Scratch::new(workload).map_err(|e| format!("scratch directory: {e}"))?;
    let mut tally = Tally::default();
    let mut report = String::new();
    let tracer = Tracer::new(traced, seed);
    let metrics = match (workload, traced) {
        ("warehouse-250k", false) => {
            let rels = vec![warehouse_relation(seed, &scratch)?.0];
            let m = inprocess::measure(&rels, IN_PROCESS_PAR, seconds, MIN_PASSES, &mut tally);
            let _ = writeln!(report, "passes: {} (one sample per pass)", m.passes);
            end_to_end(&m.samples, Series::median, &mut report)?
        }
        ("census-spectrum", false) => {
            let rels = census_relations(seed);
            let m = inprocess::measure(&rels, IN_PROCESS_PAR, seconds, MIN_PASSES, &mut tally);
            let _ = writeln!(
                report,
                "passes: {} (one sample per pass, summed over the pool)",
                m.passes
            );
            end_to_end(&m.samples, Series::median, &mut report)?
        }
        ("session-mutate", false) => {
            let inputs = session_inputs(seed)?;
            let m = wire::measure_session(&inputs, seconds, MIN_PASSES, &mut tally, &scratch);
            let _ = writeln!(
                report,
                "epochs: {} ({SESSION_ROUNDS} rounds each; one sample per request)",
                m.epochs
            );
            let ms = |s: &Series| Series {
                values: s.values.iter().map(|v| v * 1e3).collect(),
            };
            let _ = writeln!(
                report,
                "  {:<15} {}",
                "apply_ms",
                ms(&m.apply_s).describe("ms")
            );
            let _ = writeln!(
                report,
                "  {:<15} {}",
                "repair_ms",
                ms(&m.samples.repair_s).describe("ms")
            );
            end_to_end(&m.samples, Series::mean, &mut report)?
        }
        ("warehouse-250k", true) => {
            let (rel, wire_inputs) = warehouse_relation(seed, &scratch)?;
            traced_in_process(
                &tracer,
                &[rel],
                &wire_inputs,
                &scratch,
                &mut tally,
                &mut report,
            )
        }
        ("census-spectrum", true) => {
            let rels = census_relations(seed);
            let Source::Memory(first) = &rels[0].source else {
                unreachable!("census relations live in memory")
            };
            let wire_inputs =
                WireInputs::from_instance(first, &rels[0].fds, REPLAY_ROWS, REPLAY_OPS, seed)?;
            traced_in_process(
                &tracer,
                &rels,
                &wire_inputs,
                &scratch,
                &mut tally,
                &mut report,
            )
        }
        ("session-mutate", true) => {
            let inputs = session_inputs(seed)?;
            let mut layers = Layers::default();
            wire::replay_twin(&tracer, &mut layers, &inputs, &mut tally);
            wire::replay_wire(&tracer, &mut layers, &inputs, &mut tally, &scratch);
            session_accounting(&layers, &mut report);
            per_layer_metrics(&layers, &mut tally)
        }
        _ => return Err(format!("unknown workload `{workload}`")),
    };
    if traced {
        layer_table(&tracer, &mut report);
    }
    Ok(RunResult {
        tally,
        metrics,
        report,
        spans: traced.then(|| tracer.to_json().render()),
    })
}

/// The dirty warehouse relation of `rows` rows as CSV text, generated at
/// [`WAREHOUSE_STRUCTURE_SEED`]. Which rows hold the 48 corrupted cities
/// decides how many repairs the spectrum has (3 to 5 at 250k rows), so a
/// generator seed per run would make `spectrum_s` differ by the seed more
/// than by the code. The run seed orders the rows instead: that changes
/// the inputs (dictionary codes, shard and row numbering) but not the
/// conflict structure.
fn warehouse_base_text(rows: usize) -> Result<String, String> {
    let mut text = Vec::new();
    rt_scenarios::gen::write_warehouse_csv(
        &mut text,
        rows,
        WAREHOUSE_STRUCTURE_SEED,
        rt_scenarios::WAREHOUSE_ERRORS,
    )
    .map_err(|e| format!("warehouse CSV: {e}"))?;
    String::from_utf8(text).map_err(|e| e.to_string())
}

/// [`warehouse_base_text`] with its rows in an order drawn from `seed`.
fn warehouse_text(rows: usize, seed: u64) -> Result<String, String> {
    Ok(permute_lines(&warehouse_base_text(rows)?, seed))
}

/// The `warehouse-250k` relation as a CSV file in the scratch directory,
/// plus the wire inputs its traced run replays. The file is loaded once
/// before timing: that warms the page cache every timed ingest reads from,
/// and gives the mutation its target rows.
fn warehouse_relation(seed: u64, scratch: &Scratch) -> Result<(Relation, WireInputs), String> {
    let path = scratch.path("warehouse.csv");
    std::fs::write(&path, warehouse_text(WAREHOUSE_ROWS, seed)?)
        .map_err(|e| format!("warehouse CSV: {e}"))?;
    let report = rt_io::load_path_chunked(
        &path,
        CHUNK_ROWS,
        &rt_io::CsvOptions::csv().relation("warehouse"),
    )
    .map_err(|e| format!("warehouse CSV: {e}"))?;
    let fds = rt_scenarios::gen::warehouse_fds(report.instance.schema());
    // Mutation targets come from the first rows: the generator scans every
    // value of the instance it is given.
    let head = report.instance.truncate(REPLAY_ROWS);
    let op = mutation_ops(&head, &fds, 1, OpMix::Updates, seed)
        .pop()
        .ok_or("the mutation generator produced no op")?;
    let wire_inputs = WireInputs::from_instance(&head, &fds, REPLAY_ROWS, REPLAY_OPS, seed)?;
    let rel = Relation {
        label: "warehouse".into(),
        source: Source::Csv(path),
        fds,
        op,
        seed,
    };
    Ok((rel, wire_inputs))
}

/// The census pool: the paper's §8.1 census-like generator and
/// perturbation (12 attributes, 2 FDs with LHS 4, data error 0.002 per
/// tuple, FD error 0.5) at generator seeds [`CENSUS_POOL`]. The run seed
/// permutes each relation's rows and seeds Algorithm 4 and the mutation;
/// the conflict structure, and with it the search work, is the pool's.
pub fn census_relations(seed: u64) -> Vec<Relation> {
    census_pool(seed, CENSUS_TUPLES, CENSUS_POOL)
}

fn census_pool(seed: u64, tuples: usize, pool: std::ops::RangeInclusive<u64>) -> Vec<Relation> {
    const ATTRIBUTES: usize = 12;
    pool.map(|g| {
        let config = CensusLikeConfig {
            seed: g,
            ..CensusLikeConfig::multi_fd(tuples, ATTRIBUTES, 2, 4)
        };
        let (clean, fds) = generate_census_like(&config);
        let truth = perturb(
            &clean,
            &fds,
            &PerturbConfig {
                // A rate per tuple, spread over the cells of the row.
                data_error_rate: 0.002 / ATTRIBUTES as f64,
                fd_error_rate: 0.5,
                rhs_violation_fraction: 0.5,
                seed: g.wrapping_mul(31).wrapping_add(7),
            },
        );
        let instance = permute_rows(&truth.dirty, seed.wrapping_mul(1_000_003) ^ g);
        let op = mutation_ops(&instance, &truth.sigma_dirty, 1, OpMix::Updates, seed ^ g)
            .pop()
            .expect("one op requested");
        Relation {
            label: format!("census[{g}]"),
            source: Source::Memory(instance),
            fds: truth.sigma_dirty,
            op,
            seed,
        }
    })
    .collect()
}

/// The session relation (warehouse CSV text, rows ordered by the seed)
/// and its op log. The log is drawn once, at the structure seed, against
/// the relation in generation order and re-targeted at the reordered rows:
/// every seed then makes the same logical edits, so the repair work after
/// each round does not depend on the seed (see [`warehouse_base_text`]).
pub fn session_inputs(seed: u64) -> Result<WireInputs, String> {
    let fds: Vec<String> = WAREHOUSE_FDS.iter().map(|s| s.to_string()).collect();
    let base = warehouse_base_text(SESSION_ROWS)?;
    let (instance, sigma) = wire::load_text(&base, &fds)?;
    let ops = mutation_ops(
        &instance,
        &sigma,
        SESSION_ROUNDS,
        OpMix::Mixed,
        WAREHOUSE_STRUCTURE_SEED,
    );
    let order = shuffled_order(SESSION_ROWS, seed);
    WireInputs::with_ops(
        reorder_lines(&base, &order),
        fds,
        &retarget_ops(&ops, &order),
        seed,
    )
}

/// The end-to-end metrics: each timing reduced by `stat`, throughput over
/// the timed region, and peak memory. The in-process workloads take the
/// median of their per-pass samples. The session takes the mean of its
/// per-request samples: a small frame may or may not wait for a delayed
/// ACK, so its samples fall in modes whose mix shifts between runs, and a
/// median jumps between modes where a mean moves with the mix.
fn end_to_end(
    s: &Samples,
    stat: fn(&Series) -> f64,
    report: &mut String,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    for (name, series) in [
        ("setup_s", &s.setup_s),
        ("repair_s", &s.repair_s),
        ("first_repair_s", &s.first_s),
        ("spectrum_s", &s.spectrum_s),
    ] {
        if series.is_empty() {
            return Err(format!("no complete sample of {name}"));
        }
        let _ = writeln!(report, "  {name:<15} {}", series.describe("s"));
        out.insert(name, stat(series));
    }
    out.insert("ops_per_s", s.calls as f64 / s.busy_s);
    out.insert("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// One traced pass over the pool with the problem-level replay after each
/// sweep, then the wire-layer replay on `wire_inputs`.
fn traced_in_process(
    tracer: &Tracer,
    rels: &[Relation],
    wire_inputs: &WireInputs,
    scratch: &Scratch,
    tally: &mut Tally,
    report: &mut String,
) -> BTreeMap<&'static str, f64> {
    // Count the traced pass's work only, not the input preparation.
    rt_relation::work::reset();
    let mut layers = Layers::default();
    let mut total = PassTimes::default();
    let mut points = 0usize;
    let mut shards = 0usize;
    let mut replay_work = WorkSnapshot::default();
    for rel in rels {
        let mut hook = |tally: &mut Tally, a: Answered<'_>| {
            inprocess::check_outputs(tally, &rel.label, &a);
            let stats = a.engine.stats();
            replay::add_search_stats(&mut layers, &stats);
            points += a.points.len();
            shards += stats.shards;
            let ok = replay::excluding_work(&mut replay_work, || {
                tracer.span("benchmark", "replay", || {
                    replay::replay_problem(tracer, &mut layers, a.engine, a.points)
                })
            });
            tally.check(ok, || {
                format!("{}: a replayed layer call disagreed", rel.label)
            });
        };
        let Some((t, stats)) =
            inprocess::run_pass(rel, IN_PROCESS_PAR, true, tracer, tally, &mut hook)
        else {
            continue;
        };
        if let Source::Csv(_) = rel.source {
            layers.add("io.ingest_s", t.ingest);
            layers.add("io.rows", WAREHOUSE_ROWS as f64);
        }
        layers.add("engine.build_s", t.setup - t.ingest);
        layers.sample("engine.repair_ms", t.repair * 1e3);
        layers.sample("engine.apply_ms", t.apply * 1e3);
        replay::add_mutation_stats(&mut layers, &stats);
        total.add(&t);
    }
    replay::add_work_counters(&mut layers, &replay_work);
    for rel in rels {
        if let Source::Memory(instance) = &rel.source {
            // No file to ingest: time the loader on this relation's text.
            let text = csv_text(instance);
            let (loaded, s) = traced(
                tracer,
                "rt-io",
                "read_instance",
                instance.len() as u64,
                || rt_io::read_instance(text.as_bytes(), &rt_io::CsvOptions::csv()),
            );
            tally.take("ingest replay", loaded);
            layers.add("io.ingest_s", s);
            layers.add("io.rows", instance.len() as f64);
        }
    }
    wire::replay_wire(tracer, &mut layers, wire_inputs, tally, scratch);

    let _ = writeln!(
        report,
        "traced pass (end to end, with tracing on): setup {:.4} s, repair {:.4} s, \
         first repair {:.4} s, spectrum {:.4} s, apply {:.3} ms",
        total.setup,
        total.repair,
        total.first,
        total.spectrum,
        total.apply * 1e3
    );
    in_process_accounting(&layers, &total, points, shards > 0, report);
    per_layer_metrics(&layers, tally)
}

/// Per-call medians × the engine's own counts, as shares of the traced
/// pass's blocking time.
fn in_process_accounting(
    layers: &Layers,
    t: &PassTimes,
    points: usize,
    sharded: bool,
    report: &mut String,
) {
    let get = |k: &str| layers.get(k).unwrap_or(0.0);
    let expanded = get("search.states_expanded");
    let per_node_s = get("heuristic.replay_s") / get("heuristic.replay_nodes").max(1.0);
    let mut rows = vec![
        ("rt-io (ingest)", t.ingest),
        (
            "rt-constraints (graph build)",
            get("constraints.graph_build_s"),
        ),
        (
            "rt-constraints + rt-graph (goal tests: states_expanded × (subgraph + cover))",
            expanded * (get("constraints.subgraph_ms") + get("graph.cover_ms")) / 1e3,
        ),
        (
            "rt-core::heuristic (heuristic.nodes × replayed time per node)",
            get("heuristic.nodes") * per_node_s,
        ),
        (
            "rt-core::data_repair ((points + 1 repair) × point)",
            (points as f64 + 1.0) * get("data_repair.point_s"),
        ),
        ("rt-engine (apply)", t.apply),
    ];
    if sharded {
        rows.push(("rt-core::shard (plan)", get("shard.plan_s")));
    }
    blocking_report(report, "traced pass", t.busy(), rows);
}

fn session_accounting(layers: &Layers, report: &mut String) {
    let get = |k: &str| layers.get(k).unwrap_or(0.0);
    let round_ms = get("wire.apply_ms") + get("wire.repair_ms");
    let _ = writeln!(
        report,
        "traced epoch (end to end, with tracing on): apply {:.3} ms, repair {:.3} ms per round",
        get("wire.apply_ms"),
        get("wire.repair_ms")
    );
    let engine_s = (get("engine.apply_ms") + get("engine.repair_ms")) / 1e3;
    let proto_s = (get("proto.request_decode_ms")
        + get("proto.response_encode_ms")
        + get("proto.response_decode_ms"))
        / 1e3;
    let wal_s = get("server.wal_append_ms") / 1e3;
    let rows = vec![
        ("rt-engine (apply + repair, in process)", engine_s),
        (
            "rt-proto (request decode + response encode + decode)",
            proto_s,
        ),
        ("rt-server (WAL append)", wal_s),
        (
            "rt-client/net (the rest: framing, loopback, delayed ACKs; see net.ping_*)",
            (round_ms / 1e3 - engine_s - proto_s - wal_s).max(0.0),
        ),
    ];
    blocking_report(report, "one {apply, repair} round", round_ms / 1e3, rows);
}

fn blocking_report(report: &mut String, what: &str, total_s: f64, mut rows: Vec<(&str, f64)>) {
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let _ = writeln!(
        report,
        "where the blocking time of {what} ({total_s:.4} s) goes, estimated:"
    );
    let mut accounted = 0.0;
    for (i, (name, s)) in rows.iter().enumerate() {
        accounted += s;
        let top = if i < 3 {
            format!("top {}", i + 1)
        } else {
            "     ".into()
        };
        let _ = writeln!(
            report,
            "  {top}  {:>6.1} %  {s:.4} s  {name}",
            100.0 * s / total_s
        );
    }
    let _ = writeln!(
        report,
        "  accounted for: {:.1} %",
        100.0 * accounted / total_s
    );
}

fn layer_table(tracer: &Tracer, report: &mut String) {
    let _ = writeln!(report, "spans per layer (calls, items, total s, self s):");
    for (layer, t) in tracer.layers() {
        let _ = writeln!(
            report,
            "  {layer:<20} {:>6} {:>10} {:>10.4} {:>10.4}",
            t.calls, t.items, t.total_s, t.self_s
        );
    }
}

/// Every per-layer metric of the traced run. A metric the run could not
/// produce is a failure of the run (recorded in the tally) and reads 0.
fn per_layer_metrics(layers: &Layers, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (name, _) in crate::PER_LAYER {
        let value = layers.get(name);
        tally.check(value.is_some(), || {
            format!("per-layer metric {name} was not measured")
        });
        out.insert(name, value.unwrap_or(0.0));
    }
    out
}

/// Writes the spans of a traced run to `.perfbench/`.
pub fn write_spans(workload: &str, seed: u64, spans: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    std::fs::write(&path, spans)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::WORK_COUNTERS;

    /// Deterministic counters of one untimed pass per relation:
    /// `search.states_expanded`, `heuristic.nodes` and
    /// `constraints.conflict_edges` per relation, then the pool's
    /// `relation.key_bytes_hashed`.
    fn counters(rels: &[Relation]) -> Vec<u64> {
        rt_relation::work::reset();
        let mut tally = Tally::default();
        let mut out = Vec::new();
        for rel in rels {
            let mut edges = 0;
            let mut hook = |_: &mut Tally, a: Answered<'_>| {
                edges = a.engine.problem().conflict_graph().edge_count()
            };
            let off = Tracer::new(false, 0);
            let (_, stats) =
                inprocess::run_pass(rel, Parallelism::Serial, true, &off, &mut tally, &mut hook)
                    .expect("pass completes");
            out.extend([
                stats.states_expanded as u64,
                stats.heuristic_nodes as u64,
                edges as u64,
            ]);
        }
        out.push(rt_relation::work::snapshot().key_bytes_hashed);
        assert_eq!(tally.failed, 0);
        out
    }

    fn small_warehouse(seed: u64) -> (String, Relation) {
        let text = warehouse_text(3_000, seed).expect("warehouse text");
        let instance = rt_io::read_instance(text.as_bytes(), &rt_io::CsvOptions::csv())
            .expect("warehouse text parses")
            .instance;
        let fds = rt_scenarios::gen::warehouse_fds(instance.schema());
        let op = mutation_ops(&instance, &fds, 1, OpMix::Updates, seed)
            .pop()
            .expect("one op");
        let rel = Relation {
            label: "warehouse".into(),
            source: Source::Memory(instance),
            fds,
            op,
            seed,
        };
        (text, rel)
    }

    fn census_text(rels: &[Relation]) -> String {
        rels.iter()
            .map(|r| match &r.source {
                Source::Memory(i) => csv_text(i),
                Source::Csv(_) => unreachable!("census relations live in memory"),
            })
            .collect()
    }

    #[test]
    fn same_seed_repeats_counters_and_another_seed_changes_inputs() {
        let _guard = WORK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());

        let census = |seed| census_pool(seed, 30, 1..=2);
        let first = counters(&census(5));
        assert!(first.iter().all(|c| *c > 0), "counters measured: {first:?}");
        assert_eq!(first, counters(&census(5)));
        assert_ne!(census_text(&census(5)), census_text(&census(6)));

        let (text, rel) = small_warehouse(5);
        let first = counters(std::slice::from_ref(&rel));
        assert_eq!(first, counters(std::slice::from_ref(&small_warehouse(5).1)));
        assert_ne!(text, small_warehouse(6).0);

        let a = session_inputs(5).expect("session inputs");
        let b = session_inputs(6).expect("session inputs");
        assert_eq!(a.text, session_inputs(5).expect("session inputs").text);
        assert_ne!((a.text, a.op_texts), (b.text, b.op_texts));
    }
}
