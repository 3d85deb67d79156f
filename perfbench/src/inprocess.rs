//! The in-process repair path shared by `warehouse-250k` and
//! `census-spectrum`: (ingest →) build → one τ_r = 0.5 repair → a streamed
//! sweep over `[0, δ_P]` drained to the end (→ one single-op mutation, in
//! the traced run).

use crate::common::{check_repair, check_spectrum, timed, Signature, TAU_R};
use crate::stats::{Samples, Tally};
use crate::trace::Tracer;
use rt_constraints::FdSet;
use rt_core::{MutationOp, Parallelism, Repair, WeightKind};
use rt_engine::{EngineStats, MutationBatch, RepairEngine, RepairPoint};
use rt_relation::Instance;
use std::path::PathBuf;
use std::time::Instant;

/// Rows per chunk of the chunked CSV loader.
pub const CHUNK_ROWS: usize = 8192;

/// Where a relation's tuples come from.
pub enum Source {
    /// A CSV file, ingested by `rt_io::load_path_chunked` inside set-up.
    Csv(PathBuf),
    /// An instance already in memory (set-up is the engine build alone).
    Memory(Instance),
}

/// One relation of a workload and the inputs of every call on it.
pub struct Relation {
    pub label: String,
    pub source: Source,
    pub fds: FdSet,
    /// The single-op mutation the traced run applies after the sweep.
    pub op: MutationOp,
    /// Seed of the engine's randomized data repair (Algorithm 4).
    pub seed: u64,
}

/// Wall times of one pass over one relation (or summed over a pool).
#[derive(Debug, Default, Clone, Copy)]
pub struct PassTimes {
    pub ingest: f64,
    pub setup: f64,
    pub repair: f64,
    pub first: f64,
    pub spectrum: f64,
    pub apply: f64,
    /// Public calls completed.
    pub calls: u64,
}

impl PassTimes {
    pub fn add(&mut self, o: &PassTimes) {
        self.ingest += o.ingest;
        self.setup += o.setup;
        self.repair += o.repair;
        self.first += o.first;
        self.spectrum += o.spectrum;
        self.apply += o.apply;
        self.calls += o.calls;
    }

    /// Time spent inside timed calls.
    pub fn busy(&self) -> f64 {
        self.setup + self.repair + self.spectrum + self.apply
    }
}

/// What a pass hands to its inspection hook, between the sweep and the
/// mutation: the engine, its single repair and its spectrum.
pub struct Answered<'a> {
    pub engine: &'a RepairEngine,
    pub repair: &'a Repair,
    pub points: &'a [RepairPoint],
}

/// Runs every call once on `rel`; the mutation only when `mutate` is set.
/// Failures are recorded in `tally`; the pass then stops and returns
/// `None`. `inspect` runs outside the timed calls, after the sweep and
/// before the mutation.
pub fn run_pass(
    rel: &Relation,
    par: Parallelism,
    mutate: bool,
    tracer: &Tracer,
    tally: &mut Tally,
    inspect: &mut dyn FnMut(&mut Tally, Answered<'_>),
) -> Option<(PassTimes, EngineStats)> {
    let mut t = PassTimes::default();
    let instance = match &rel.source {
        Source::Csv(path) => {
            let (report, secs) = timed(|| {
                tracer.span("rt-io", "load_path_chunked", || {
                    rt_io::load_path_chunked(
                        path,
                        CHUNK_ROWS,
                        &rt_io::CsvOptions::csv().relation("warehouse"),
                    )
                })
            });
            t.ingest = secs;
            t.calls += 1;
            tally
                .take(&format!("{}: ingest", rel.label), report)?
                .instance
        }
        Source::Memory(instance) => instance.clone(),
    };
    let (engine, secs) = timed(|| {
        tracer.span("rt-engine", "RepairEngineBuilder::build", || {
            RepairEngine::builder(instance, rel.fds.clone())
                .weight(WeightKind::DistinctCount)
                .parallelism(par)
                .seed(rel.seed)
                .build()
        })
    });
    t.setup = t.ingest + secs;
    t.calls += 1;
    let mut engine = tally.take(&format!("{}: build", rel.label), engine)?;

    let (repair, secs) = timed(|| {
        tracer.span("rt-engine", "repair_at_relative", || {
            engine.repair_at_relative(TAU_R)
        })
    });
    t.repair = secs;
    t.calls += 1;
    let repair = tally.take(&format!("{}: repair", rel.label), repair)?;

    let delta_p = engine.delta_p_original();
    let mut points = Vec::new();
    let mut sweep_ok = true;
    // rtlint: allow(D003) -- a wall-time benchmark; no result or counter depends on the clock
    let start = Instant::now();
    tracer.span("rt-engine", "sweep", || {
        for item in engine.sweep(0..=delta_p) {
            match item {
                Ok(p) => points.push(p),
                Err(e) => {
                    eprintln!("perfbench: {}: sweep failed: {e}", rel.label);
                    sweep_ok = false;
                }
            }
            if points.len() == 1 && t.first == 0.0 {
                t.first = start.elapsed().as_secs_f64();
            }
        }
    });
    t.spectrum = start.elapsed().as_secs_f64();
    t.calls += 1;
    tally.record(sweep_ok && !points.is_empty());
    if !sweep_ok || points.is_empty() {
        return None;
    }

    inspect(
        tally,
        Answered {
            engine: &engine,
            repair: &repair,
            points: &points,
        },
    );

    if !mutate {
        return Some((t, engine.stats()));
    }
    let batch = MutationBatch::new().push(rel.op.clone());
    let (applied, secs) = timed(|| tracer.span("rt-engine", "apply", || engine.apply(&batch)));
    t.apply = secs;
    t.calls += 1;
    tally.take(&format!("{}: apply", rel.label), applied)?;
    Some((t, engine.stats()))
}

/// The samples of a timed loop over passes.
pub struct Measured {
    pub samples: Samples,
    pub passes: usize,
}

/// Passes over the whole pool until `seconds` have been spent in timed
/// calls (at least `min_passes`). Each sample is one pass summed over the
/// pool. The first pass checks every output; later passes must reproduce
/// its signatures exactly.
pub fn measure(
    rels: &[Relation],
    par: Parallelism,
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
) -> Measured {
    let off = Tracer::new(false, 0);
    let mut reference: Vec<Option<Signature>> = vec![None; rels.len()];
    let mut m = Measured {
        samples: Samples::default(),
        passes: 0,
    };
    while m.passes < min_passes || m.samples.busy_s < seconds {
        let mut sum = PassTimes::default();
        let mut complete = true;
        for (i, rel) in rels.iter().enumerate() {
            let slot = &mut reference[i];
            let mut hook = |tally: &mut Tally, a: Answered<'_>| {
                let sig = Signature::of(a.repair, a.points);
                match slot {
                    None => {
                        check_outputs(tally, &rel.label, &a);
                        *slot = Some(sig);
                    }
                    Some(first) => tally.check(*first == sig, || {
                        format!("{}: a repeated pass gave a different spectrum", rel.label)
                    }),
                }
            };
            match run_pass(rel, par, false, &off, tally, &mut hook) {
                Some((t, _)) => sum.add(&t),
                None => complete = false,
            }
        }
        m.passes += 1;
        let samples = &mut m.samples;
        samples.calls += sum.calls;
        samples.busy_s += sum.busy();
        if !complete {
            // The failure is in the tally; a partial pass would skew the
            // medians, and repeating a failing call measures nothing.
            break;
        }
        samples.setup_s.push(sum.setup);
        samples.repair_s.push(sum.repair);
        samples.first_s.push(sum.first);
        samples.spectrum_s.push(sum.spectrum);
    }
    m
}

/// The output checks of one answered relation.
pub fn check_outputs(tally: &mut Tally, label: &str, a: &Answered<'_>) {
    check_repair(tally, &format!("{label} τ_r=0.5"), a.repair, a.repair.tau);
    check_spectrum(tally, label, a.points, a.engine.delta_p_original());
}
