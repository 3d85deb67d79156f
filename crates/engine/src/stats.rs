//! Cumulative telemetry of an engine session.

use std::time::Duration;

/// Counters accumulated over every query an engine has served.
///
/// The headline invariant of the session API:
/// `conflict_graph_builds` stays at `1` no matter how many `repair_at`
/// calls, sweeps or spectra the engine serves — the expensive
/// data-dependent preparation happens exactly once, at build time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// How many times the conflict graph of `(I, Σ)` was built. Always `1`
    /// for an engine (at [`crate::RepairEngineBuilder::build`] time).
    pub conflict_graph_builds: usize,
    /// Wall-clock time spent preparing the problem (conflict graph,
    /// difference-set index, weighting function).
    pub build_elapsed: Duration,
    /// Completed single-repair queries ([`crate::RepairEngine::repair_at`]
    /// and friends).
    pub repair_queries: usize,
    /// Sweeps started ([`crate::RepairEngine::sweep`],
    /// [`crate::RepairEngine::spectrum`],
    /// [`crate::RepairEngine::sampling_spectrum`]).
    pub sweeps_started: usize,
    /// Repair points materialized by streaming sweeps (one per
    /// [`crate::RepairPoint`] actually pulled from a stream).
    pub points_materialized: usize,
    /// States popped from FD-search open lists, across all queries.
    pub states_expanded: usize,
    /// States pushed onto FD-search open lists, across all queries.
    pub states_generated: usize,
    /// Recursion nodes spent inside the A* heuristic, across all queries.
    /// Cache hits charge zero nodes, so this counts actual enumeration work.
    pub heuristic_nodes: usize,
    /// Heuristic evaluations served from the memo cache
    /// ([`rt_core::HeuristicCache`]) without running the enumeration,
    /// across all queries.
    pub heuristic_cache_hits: usize,
    /// Largest heuristic-cache size (distinct `(V, τ)` entries) observed in
    /// any search — a gauge, not a cumulative counter.
    pub heuristic_cache_entries: usize,
    /// Wall-clock time spent inside FD searches, across all queries.
    pub search_elapsed: Duration,
    /// `true` when any query hit the expansion cap.
    pub truncated: bool,
    /// Mutation batches applied ([`crate::RepairEngine::apply`] and the
    /// per-op conveniences).
    pub mutation_batches: usize,
    /// Conflict edges added by incremental maintenance, across all batches.
    pub edges_added: usize,
    /// Conflict edges removed by incremental maintenance, across all
    /// batches.
    pub edges_removed: usize,
    /// Connected components of the conflict graph dirtied by mutations,
    /// across all batches.
    pub components_dirtied: usize,
    /// Full conflict-graph rebuilds that incremental maintenance made
    /// unnecessary — one per applied non-empty batch. The headline
    /// invariant extends to the mutable engine: `conflict_graph_builds`
    /// stays at `1` while this counter grows.
    pub graph_rebuild_avoided: usize,
    /// Sweeps answered (partially or fully) from a retained
    /// [`rt_core::SweepCheckpoint`] instead of a fresh traversal.
    pub sweep_cache_hits: usize,
    /// Current footprint of the dictionary-encoding layer: total interned
    /// entries (constants + V-instance variables) across the live
    /// instance's per-attribute dictionaries. Set at build time and
    /// refreshed after every applied mutation batch; dictionaries are
    /// append-only, so within a session this only grows.
    pub dict_entries: usize,
    /// Shards of the current [`rt_core::ShardPlan`] when the engine was
    /// built sharded ([`crate::ShardRows`]); `0` for a monolithic build.
    /// For a sharded build, `conflict_graph_builds` equals the *initial*
    /// shard count — one per-shard build, never a monolithic one.
    pub shards: usize,
    /// Deterministic shard-plan recomputations triggered by mutation
    /// batches on a sharded engine — the merge/re-split path. The plan is
    /// derived from code columns only; the patched conflict graph is
    /// reused, so `conflict_graph_builds` does not move.
    pub shard_replans: usize,
}

impl EngineStats {
    /// Folds one search run's statistics into the session totals.
    pub(crate) fn absorb(&mut self, stats: &rt_core::SearchStats) {
        self.states_expanded += stats.states_expanded;
        self.states_generated += stats.states_generated;
        self.heuristic_nodes += stats.heuristic_nodes;
        self.heuristic_cache_hits += stats.heuristic_cache_hits;
        self.heuristic_cache_entries = self
            .heuristic_cache_entries
            .max(stats.heuristic_cache_entries);
        self.search_elapsed += stats.elapsed;
        self.truncated |= stats.truncated;
    }
}
