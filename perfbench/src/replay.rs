//! The replay harness: feeds engine-internal inputs to each layer's public
//! functions, timed from outside, so a traced run can say what one call
//! into a layer costs on this workload.
//!
//! Replayed states are the root, the root's children and each spectrum
//! point's `Repair::state` — the states the engine itself evaluates
//! first, and the ones it ends on.

use crate::common::TAU_R;
use crate::stats::Series;
use crate::trace::Tracer;
use rt_constraints::ConflictGraph;
use rt_core::heuristic::goal_cost_estimate;
use rt_core::repair::materialize_fd_repair;
use rt_core::{RangeSearch, RepairState, ShardPlan};
use rt_engine::{EngineStats, RepairEngine, RepairPoint};
use rt_relation::work::WorkSnapshot;
use std::collections::BTreeMap;

/// Per-layer figures of a traced run: sums (counts, seconds) and series of
/// per-call samples, reported as medians.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    series: BTreeMap<&'static str, Series>,
}

impl Layers {
    /// Adds `v` to the sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.sums.insert(name, v);
    }

    /// Adds one per-call sample to the series `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// The value of `name`: its sum, or the median of its samples.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.sums.get(name).copied().or_else(|| {
            self.series
                .get(name)
                .filter(|s| !s.is_empty())
                .map(Series::median)
        })
    }
}

/// Runs `f` in a span and returns its result with the seconds it took.
pub fn traced<T>(
    tracer: &Tracer,
    layer: &'static str,
    call: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    tracer.span_items(layer, call, items, || crate::common::timed(f))
}

/// Replays one answered engine's per-state, per-build and per-point calls.
/// Returns `false` when a replayed call disagrees with the engine.
pub fn replay_problem(
    tracer: &Tracer,
    layers: &mut Layers,
    engine: &RepairEngine,
    points: &[RepairPoint],
) -> bool {
    let problem = engine.problem();
    let config = engine.search_config();
    let par = config.parallelism;
    let tau = engine.absolute_tau(TAU_R);
    let mut ok = true;

    let root = RepairState::root(problem.fd_count());
    let mut states = vec![root.clone()];
    states.extend(root.children(problem.sigma(), problem.arity()));
    states.extend(points.iter().map(|p| p.repair.state.clone()));
    for state in &states {
        let relaxed = problem.relaxed_fds(state);
        let (graph, s) = traced(tracer, "rt-constraints", "subgraph_for_with", 1, || {
            problem.conflict_graph().subgraph_for_with(&relaxed, par)
        });
        layers.sample("constraints.subgraph_ms", s * 1e3);
        let (cover, s) = traced(tracer, "rt-graph", "approx_vertex_cover_with", 1, || {
            rt_graph::approx_vertex_cover_with(&graph, par)
        });
        layers.sample("graph.cover_ms", s * 1e3);
        layers.add("graph.cover_rows", cover.len() as f64);
        let (delta_p, s) = traced(tracer, "rt-core::problem", "delta_p", 1, || {
            problem.delta_p(state)
        });
        layers.sample("problem.delta_p_ms", s * 1e3);
        ok &= delta_p == cover.len() * problem.alpha();
        let (value, s) = traced(
            tracer,
            "rt-core::heuristic",
            "goal_cost_estimate",
            1,
            || goal_cost_estimate(problem, state, tau, &config.heuristic),
        );
        layers.sample("heuristic.eval_ms", s * 1e3);
        // Cost per recursion node, to scale the engine's own node count.
        layers.add("heuristic.replay_nodes", value.nodes as f64);
        layers.add("heuristic.replay_s", s);
    }

    let instance = problem.instance();
    let rows = instance.len() as u64;
    let (plan, s) = traced(tracer, "rt-core::shard", "ShardPlan::compute", rows, || {
        ShardPlan::compute(instance, problem.sigma())
    });
    layers.add("shard.plan_s", s);
    layers.add("shard.count", plan.shard_count() as f64);
    let (graph, s) = traced(
        tracer,
        "rt-constraints",
        "ConflictGraph::build_with",
        rows,
        || ConflictGraph::build_with(instance, problem.sigma(), par),
    );
    layers.add("constraints.graph_build_s", s);
    layers.add(
        "constraints.conflict_edges",
        problem.conflict_graph().edge_count() as f64,
    );
    ok &= graph.edge_count() == problem.conflict_graph().edge_count();

    let (fd_repair, s) = traced(tracer, "rt-core::search", "fd_repair_at", 1, || {
        engine.fd_repair_at(tau)
    });
    layers.add("search.fd_repair_s", s);
    ok &= fd_repair.is_ok();

    let (outcome, _) = traced(
        tracer,
        "rt-core::multi",
        "RangeSearch::run_to_end",
        1,
        || RangeSearch::new(problem, 0, engine.delta_p_original(), config).run_to_end(),
    );
    ok &= outcome.repairs.len() == points.len();
    for ranged in &outcome.repairs {
        let (repair, s) = traced(
            tracer,
            "rt-core::data_repair",
            "materialize_fd_repair",
            1,
            || {
                materialize_fd_repair(
                    problem,
                    &ranged.repair,
                    ranged.tau_range.1,
                    engine.seed(),
                    par,
                    outcome.stats,
                )
            },
        );
        layers.sample("data_repair.point_s", s);
        layers.add(
            "data_repair.cells_changed",
            repair.changed_cells.len() as f64,
        );
    }
    let (snapshot, s) = traced(tracer, "rt-engine", "snapshot", 1, || engine.snapshot());
    layers.sample("engine.snapshot_ms", s * 1e3);
    ok &= snapshot.is_ok();
    ok
}

/// Folds a search's counters (taken before any replay) into the sums.
pub fn add_search_stats(layers: &mut Layers, s: &EngineStats) {
    layers.add("search.states_expanded", s.states_expanded as f64);
    layers.add("search.states_generated", s.states_generated as f64);
    layers.add("heuristic.nodes", s.heuristic_nodes as f64);
    layers.add("heuristic.cache_hits", s.heuristic_cache_hits as f64);
    layers.add("relation.dict_entries", s.dict_entries as f64);
}

/// Folds incremental maintenance counters into the sums.
pub fn add_mutation_stats(layers: &mut Layers, s: &EngineStats) {
    layers.add("engine.edges_added", s.edges_added as f64);
    layers.add("engine.edges_removed", s.edges_removed as f64);
    layers.add("engine.components_dirtied", s.components_dirtied as f64);
}

/// Runs `f` (a replay) and adds the `rt_relation::work` it counted to
/// `excluded`, so the layer totals keep only the workload's own work.
pub fn excluding_work<T>(excluded: &mut WorkSnapshot, f: impl FnOnce() -> T) -> T {
    let before = rt_relation::work::snapshot();
    let out = f();
    let spent = rt_relation::work::snapshot().since(&before);
    excluded.key_bytes_hashed += spent.key_bytes_hashed;
    excluded.key_allocs += spent.key_allocs;
    out
}

/// Copies the process-wide work counters of `rt_relation::work`, minus the
/// replays' share.
pub fn add_work_counters(layers: &mut Layers, excluded: &WorkSnapshot) {
    let w = rt_relation::work::snapshot().since(excluded);
    layers.add("relation.key_bytes_hashed", w.key_bytes_hashed as f64);
    layers.add("relation.key_allocs", w.key_allocs as f64);
    layers.set(
        "relation.peak_resident_cells",
        rt_relation::work::peak_resident_cells() as f64,
    );
}
