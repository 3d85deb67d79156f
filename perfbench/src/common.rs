//! Pieces shared by the workloads: seeded helpers, the scratch directory,
//! process memory, and the output checks.

use crate::stats::Tally;
use rt_constraints::{ConflictGraph, FdSet};
use rt_core::{MutationOp, Repair, RepairState};
use rt_datagen::{generate_mutation_stream, MutationStreamConfig};
use rt_engine::RepairPoint;
use rt_relation::{CellRef, Instance, Tuple};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Held by every test that builds instances: `rt_relation::work` counts
/// process-wide, and tests run on parallel threads.
#[cfg(test)]
pub static WORK_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // rtlint: allow(D003) -- a wall-time benchmark; no result or counter depends on the clock
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The relative trust every single-repair call asks for (`rtclean
/// --tau-r 0.5`).
pub const TAU_R: f64 = 0.5;

/// SplitMix64: the benchmark's own seeded stream, independent of the
/// program's RNG so that input generation never shifts with it.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5DEE_CE66_D1B5_4A32)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): position `j` of the
/// shuffled sequence holds original item `order[j]`.
pub fn shuffled_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// `instance` with its rows in a seeded order.
pub fn permute_rows(instance: &Instance, seed: u64) -> Instance {
    let tuples: Vec<Tuple> = shuffled_order(instance.len(), seed)
        .iter()
        .map(|&r| instance.tuple(r).expect("row in range").clone())
        .collect();
    Instance::from_tuples(instance.schema().clone(), tuples).expect("same schema")
}

/// CSV text with its data lines (every line after the header) in the
/// order `order` (see [`shuffled_order`]).
pub fn reorder_lines(text: &str, order: &[usize]) -> String {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let rows: Vec<&str> = lines.collect();
    let mut out = String::with_capacity(text.len() + 1);
    out.push_str(header);
    out.push('\n');
    for &i in order {
        out.push_str(rows[i]);
        out.push('\n');
    }
    out
}

/// CSV text with its data lines in a seeded order.
pub fn permute_lines(text: &str, seed: u64) -> String {
    let rows = text.lines().count().saturating_sub(1);
    reorder_lines(text, &shuffled_order(rows, seed))
}

/// Re-targets `ops`, generated against a relation, at the same tuples of a
/// copy whose rows were reordered by `order` (see [`shuffled_order`]), so
/// both receive the same logical edits. Deletes compact both relations in
/// order and inserts append to both; the row map follows them.
pub fn retarget_ops(ops: &[MutationOp], order: &[usize]) -> Vec<MutationOp> {
    // pos[i]: the copy's row holding the relation's row i.
    let mut pos = vec![0usize; order.len()];
    for (j, &i) in order.iter().enumerate() {
        pos[i] = j;
    }
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            MutationOp::UpdateCell(cell, value) => {
                let cell = CellRef::new(pos[cell.row], cell.attr);
                out.push(MutationOp::UpdateCell(cell, value.clone()));
            }
            MutationOp::InsertTuples(tuples) => {
                let n = pos.len();
                pos.extend(n..n + tuples.len());
                out.push(op.clone());
            }
            MutationOp::DeleteTuples(rows) => {
                let doomed: Vec<usize> = rows.iter().map(|&r| pos[r]).collect();
                let mut gone = vec![false; pos.len()];
                doomed.iter().for_each(|&p| gone[p] = true);
                // The copy's surviving rows move down past the deleted ones.
                let mut rank = vec![0usize; pos.len()];
                let mut next = 0;
                for (p, r) in rank.iter_mut().enumerate() {
                    *r = next;
                    next += usize::from(!gone[p]);
                }
                let mut deleted = vec![false; pos.len()];
                rows.iter().for_each(|&r| deleted[r] = true);
                pos = pos
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !deleted[*i])
                    .map(|(_, &p)| rank[p])
                    .collect();
                out.push(MutationOp::DeleteTuples(doomed));
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// Which kinds of data edit a generated op may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMix {
    /// Inserts, deletes and cell updates in the generator's default mix.
    Mixed,
    /// Cell updates only.
    Updates,
}

/// `ops` seeded data edits against `(instance, fds)`: no FD edits, 40 %
/// fresh values.
pub fn mutation_ops(
    instance: &Instance,
    fds: &FdSet,
    ops: usize,
    mix: OpMix,
    seed: u64,
) -> Vec<MutationOp> {
    let mut config = MutationStreamConfig {
        ops,
        fd_edit_weight: 0,
        fresh_value_rate: 0.4,
        seed,
        ..MutationStreamConfig::default()
    };
    if mix == OpMix::Updates {
        config.insert_weight = 0;
        config.delete_weight = 0;
    }
    generate_mutation_stream(instance, fds, &config)
}

/// The relation as CSV text (header plus one line per tuple).
pub fn csv_text(instance: &Instance) -> String {
    let names: Vec<&str> = instance.schema().attributes().map(|(_, n)| n).collect();
    let mut out = names.join(",");
    out.push('\n');
    for (_, tuple) in instance.tuples() {
        let fields: Vec<String> = tuple.as_slice().iter().map(|v| v.to_string()).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A per-run directory under `.perfbench/` in the working directory,
/// removed when dropped.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench").join(format!("tmp-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What must repeat exactly when the same inputs are repaired again: the
/// τ intervals, FD states, costs and cell counts of every point, plus the
/// single repair.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature(Vec<(usize, usize, RepairState, u64, usize, usize)>);

impl Signature {
    pub fn of(repair: &Repair, points: &[RepairPoint]) -> Signature {
        let row = |lo, hi, r: &Repair| {
            (
                lo,
                hi,
                r.state.clone(),
                r.dist_c.to_bits(),
                r.delta_p,
                r.changed_cells.len(),
            )
        };
        let mut rows = vec![row(repair.tau, repair.tau, repair)];
        rows.extend(
            points
                .iter()
                .map(|p| row(p.tau_range.0, p.tau_range.1, &p.repair)),
        );
        Signature(rows)
    }
}

/// A repair's instance satisfies its `Σ'` (partition-based check) and it
/// changed at most `tau` cells.
pub fn check_repair(tally: &mut Tally, label: &str, repair: &Repair, tau: usize) {
    let consistent =
        ConflictGraph::build(&repair.repaired_instance, &repair.modified_fds).is_empty();
    tally.check(consistent, || {
        format!("{label}: repaired instance violates its Σ'")
    });
    let changed = repair.changed_cells.len();
    tally.check(changed <= tau, || {
        format!("{label}: {changed} changed cells exceed τ = {tau}")
    });
}

/// Every point passes [`check_repair`] at its `τ_high` and is a goal at
/// its `τ_low`; the τ ranges are disjoint and cover `[τ_min, δ_P]`, where
/// `τ_min` is the lowest point's own `δ_P(Σ')`. Below `τ_min` no
/// relaxation is a goal (rows that agree on every attribute but an FD's
/// right-hand side violate every relaxation of it), so there is no repair
/// to cover.
pub fn check_spectrum(tally: &mut Tally, label: &str, points: &[RepairPoint], delta_p: usize) {
    for (i, p) in points.iter().enumerate() {
        check_repair(
            tally,
            &format!("{label} point {i}"),
            &p.repair,
            p.tau_range.1,
        );
        let (lo, dp) = (p.tau_range.0, p.repair.delta_p);
        tally.check(dp <= lo, || {
            format!("{label} point {i}: δ_P(Σ') = {dp} exceeds its τ_low = {lo}")
        });
    }
    let mut ranges: Vec<(usize, usize, usize)> = points
        .iter()
        .map(|p| (p.tau_range.0, p.tau_range.1, p.repair.delta_p))
        .collect();
    ranges.sort_unstable();
    let mut ok = ranges.first().is_some_and(|&(lo, _, dp)| lo == dp);
    let mut next = ranges.first().map_or(0, |r| r.0);
    for &(lo, hi, _) in &ranges {
        ok &= lo == next && lo <= hi;
        next = hi + 1;
    }
    ok &= next == delta_p + 1;
    tally.check(ok, || {
        format!(
            "{label}: τ ranges {ranges:?} (lo, hi, δ_P(Σ')) do not partition [τ_min, {delta_p}]"
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_permutation_keeps_rows() {
        let _guard = WORK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let a: Vec<u64> = {
            let mut r = SplitMix::new(3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(3);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], SplitMix::new(4).next_u64());

        let schema = rt_relation::Schema::new("t", vec!["A", "B"]).unwrap();
        let rows: Vec<Vec<i64>> = (0..20).map(|i| vec![i, i % 3]).collect();
        let inst = Instance::from_int_rows(schema, &rows).unwrap();
        let p = permute_rows(&inst, 9);
        assert_eq!(p.len(), inst.len());
        assert_ne!(csv_text(&p), csv_text(&inst));
        let mut a: Vec<String> = csv_text(&p).lines().map(String::from).collect();
        let mut b: Vec<String> = csv_text(&inst).lines().map(String::from).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);

        let text = "h\n1\n2\n3\n4\n5\n";
        let shuffled = permute_lines(text, 9);
        assert!(shuffled.starts_with("h\n"));
        assert_ne!(shuffled, text);
        assert_eq!(permute_lines(text, 9), shuffled);
        let mut lines: Vec<&str> = shuffled.lines().collect();
        lines.sort();
        assert_eq!(lines, ["1", "2", "3", "4", "5", "h"]);
    }

    #[test]
    fn retargeted_ops_make_the_same_edits_on_a_reordered_copy() {
        use rt_relation::{AttrId, Value};
        let _guard = WORK_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let schema = rt_relation::Schema::new("t", vec!["A", "B"]).unwrap();
        let rows: Vec<Vec<i64>> = (0..12).map(|i| vec![i, i % 3]).collect();
        let base = Instance::from_int_rows(schema, &rows).unwrap();
        let order = shuffled_order(base.len(), 4);
        let tuples = order
            .iter()
            .map(|&i| base.tuple(i).unwrap().clone())
            .collect();
        let copy = Instance::from_tuples(base.schema().clone(), tuples).unwrap();
        let update = |row, v| MutationOp::UpdateCell(CellRef::new(row, AttrId(1)), Value::int(v));
        let ops = vec![
            update(2, 7),
            MutationOp::DeleteTuples(vec![0, 5, 3]),
            MutationOp::InsertTuples(vec![Tuple::new(vec![Value::int(40), Value::int(41)])]),
            update(9, 8),
            MutationOp::DeleteTuples(vec![1, 8]),
            update(4, 9),
        ];
        let edited = |mut inst: Instance, ops: &[MutationOp]| {
            for op in ops {
                match op {
                    MutationOp::UpdateCell(c, v) => inst.set_cell(*c, v.clone()).unwrap(),
                    MutationOp::DeleteTuples(r) => {
                        inst.remove_rows(r).unwrap();
                    }
                    MutationOp::InsertTuples(t) => {
                        t.iter().for_each(|t| inst.push(t.clone()).unwrap())
                    }
                    _ => unreachable!("no FD edits"),
                }
            }
            let mut lines: Vec<String> = csv_text(&inst).lines().map(String::from).collect();
            lines.sort();
            lines
        };
        assert_ne!(retarget_ops(&ops, &order), ops);
        assert_eq!(
            edited(base.clone(), &ops),
            edited(copy, &retarget_ops(&ops, &order))
        );
    }
}
