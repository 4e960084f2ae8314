//! The query facade: one pipeline from a logical plan to its answer.
//!
//! Every [`QueryEngine`] entry point — `query`, `query_count` and
//! `query_traced`, on every table view — calls the private `run`, which
//!
//! 1. plans against the view's [`IndexCatalog`] with zero-branch pruning,
//!    under the view's planning policy (below),
//! 2. records the query's advisable shapes as workload evidence,
//! 3. probes the result cache, if the view has one, under the chosen
//!    plan's canonical fingerprint plus the [`QueryMode`] byte,
//! 4. on a miss, records the estimated-savings feedback, executes —
//!    recording the partition footprint when the result will be cached
//!    or traced, metering each operator when traced — records the
//!    measured timing and fills the cache,
//! 5. counts the query in the metrics registry, if the view has one,
//!    and when traced assembles the EXPLAIN ANALYZE [`QueryTrace`].
//!
//! Only two things differ between the views, and a small private trait
//! with two impls carries them:
//!
//! * **Planning policy.** The owner ([`IndexedTable`], and through its
//!   staging table the [`TableWriter`]) applies the **NUC-disjointness
//!   rule** of [`patchindex`]'s deferred module: if the chosen plan binds
//!   a NUC index with staged deferred maintenance, it flushes *that
//!   index* — its disjointness invariant is suspended while pending — and
//!   re-plans against the fresh counts. A [`TableSnapshot`] never
//!   carries pending work — publishing an epoch flushes it (see
//!   [`patchindex::snapshot`]) — so it plans once against the catalog
//!   captured at publish time.
//! * **Evidence sink.** The owner records the query log, feedback and
//!   timings on its indexes by slot. A snapshot reports them as
//!   [`WorkloadEvent`]s to its [`patchindex::WorkloadSink`] for the
//!   writer to absorb.
//!
//! Only a snapshot carries a [`patchindex::ResultCache`] and a metrics
//! registry, so the owner never uses a cache, and a snapshot never
//! flushes. A [`ConcurrentTable`] queries a fresh snapshot per call.
//!
//! Feedback and timing are recorded only for plans that executed and
//! bind at least one index: a cache hit executed nothing, and its ~0µs
//! would corrupt the advisor's cost calibration. Shapes are recorded for
//! every executed query, hits included — a hit is still demand.

use std::sync::Arc;
use std::time::Instant;

use patchindex::snapshot::WorkloadEvent;
use patchindex::{
    CachedValue, ConcurrentTable, Constraint, Footprint, IndexedTable, PatchIndex, QueryShape,
    SortDir, TableSnapshot, TableWriter,
};
use pi_exec::ops::sort::SortOrder;
use pi_exec::{collect, count_rows, Batch};
use pi_obs::{CacheOutcome, PlannerTrace, QueryTrace};
use pi_storage::Table;

use crate::cost::estimate;
use crate::fingerprint::{bound_slots, canonical_bytes, fingerprint_hash, QueryMode};
use crate::logical::Plan;
use crate::optimizer::{optimize_with_stats, OptimizeStats};
use crate::physical::{lower, ExecOpts, ExecTrace, TouchLog};

/// PatchScan slots whose binding requires the NUC disjointness invariant
/// that a pending flush currently suspends.
fn stale_nuc_slots(plan: &Plan, indexes: &[Arc<PatchIndex>]) -> Vec<usize> {
    let mut slots = bound_slots(plan);
    slots.retain(|&s| {
        let idx = &indexes[s];
        idx.constraint() == Constraint::NearlyUnique && idx.has_pending()
    });
    slots
}

/// Collects the advisable (column, shape) sites of a reference plan — a
/// single-column Distinct or Sort directly over a Scan is exactly the
/// pattern the PatchIndex rewrites (and hence the advisor's create rule)
/// can serve.
fn query_shapes(plan: &Plan, out: &mut Vec<(usize, QueryShape)>) {
    match plan {
        Plan::Distinct { input, cols } => {
            if let Plan::Scan {
                cols: scan_cols, ..
            } = &**input
            {
                if cols.len() == 1 {
                    if let Some(&col) = scan_cols.get(cols[0]) {
                        out.push((col, QueryShape::Distinct));
                    }
                }
            }
            query_shapes(input, out);
        }
        Plan::Sort { input, keys } => {
            if let Plan::Scan {
                cols: scan_cols, ..
            } = &**input
            {
                if let [(key, order)] = keys[..] {
                    if let Some(&col) = scan_cols.get(key) {
                        let dir = match order {
                            SortOrder::Asc => SortDir::Asc,
                            SortOrder::Desc => SortDir::Desc,
                        };
                        out.push((col, QueryShape::Sort(dir)));
                    }
                }
            }
            query_shapes(input, out);
        }
        Plan::Limit { input, .. } => query_shapes(input, out),
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            inputs.iter().for_each(|p| query_shapes(p, out))
        }
        Plan::Scan { .. } | Plan::PatchScan { .. } => {}
    }
}

/// Catalog-driven planning and execution over an [`IndexedTable`].
///
/// `&mut self` because planning may flush deferred maintenance (the
/// NUC-disjointness rule); reference results for comparison can be
/// computed side-effect-free via `execute(&plan, it.table(), &[] as &[PatchIndex])`.
pub trait QueryEngine {
    /// Snapshots the catalog, flushes exactly the indexes the chosen plan
    /// requires to be exact, and returns the final optimized plan.
    /// Records no workload evidence (query log / feedback) — it is safe
    /// for EXPLAIN-style inspection before running the query for real.
    fn plan_query(&mut self, plan: &Plan) -> Plan;
    /// Plans and executes, returning the result batch.
    fn query(&mut self, plan: &Plan) -> Batch;
    /// Plans and executes, returning only the row count.
    fn query_count(&mut self, plan: &Plan) -> usize;
    /// Plans and executes under full EXPLAIN ANALYZE instrumentation:
    /// the result batch — byte-identical to [`QueryEngine::query`] —
    /// plus a [`QueryTrace`] carrying planner decisions (candidates
    /// enumerated, cost-gated, rewrites chosen, slots bound), partitions
    /// pruned vs visited, per-operator wall clock and row counts, and the
    /// result-cache outcome. Workload evidence is recorded exactly as
    /// `query` would.
    fn query_traced(&mut self, plan: &Plan) -> (Batch, QueryTrace);
    /// EXPLAIN ANALYZE: executes the query for real (like `EXPLAIN
    /// ANALYZE` in a SQL engine) and returns only the trace.
    ///
    /// ```
    /// use patchindex::{Constraint, Design, IndexedTable};
    /// use pi_planner::{Plan, QueryEngine};
    /// use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};
    ///
    /// let mut t = Table::new(
    ///     "t",
    ///     Schema::new(vec![Field::new("v", DataType::Int)]),
    ///     2,
    ///     Partitioning::RoundRobin,
    /// );
    /// t.load_partition(0, &[ColumnData::Int(vec![1, 2, 3])]);
    /// t.load_partition(1, &[ColumnData::Int(vec![4, 5, 6])]);
    /// t.propagate_all();
    /// let mut it = IndexedTable::new(t);
    /// it.add_index(0, Constraint::NearlyUnique, Design::Bitmap);
    ///
    /// let trace = it.explain_analyze(&Plan::scan(vec![0]).distinct(vec![0]));
    /// assert_eq!(trace.rows_out, 6);
    /// assert_eq!(trace.planner.slots_bound, vec![0]);
    /// assert!(!trace.operators.is_empty());
    /// println!("{}", trace.render_text());
    /// ```
    fn explain_analyze(&mut self, plan: &Plan) -> QueryTrace {
        self.query_traced(plan).1
    }
}

/// One piece of workload evidence, addressed by index slot.
enum Evidence {
    /// The query scanned a column through an advisable shape.
    Query(usize, QueryShape),
    /// The chosen plan bound the slot, estimated to save this many cost
    /// units (the slot's share) over the unrewritten plan.
    Feedback(usize, f64),
    /// A measured execution that bound the slot: the slot's shares of
    /// the wall-clock micros and of the chosen plan's estimated cost.
    Timing(usize, f64, f64),
}

/// What differs between the owner and a snapshot; see the module docs.
trait View {
    fn table(&self) -> &Table;
    fn indexes(&self) -> &[Arc<PatchIndex>];
    /// The planning policy: chooses the plan to execute, leaving the
    /// final planning pass's decision counters in `stats`. Records no
    /// evidence.
    fn choose(&mut self, plan: &Plan, stats: &mut OptimizeStats) -> Plan;
    /// Estimated costs of `plan` and of its chosen form `chosen`, against
    /// the catalog `choose` planned on.
    fn costs(&mut self, plan: &Plan, chosen: &Plan) -> (f64, f64);
    /// The evidence sink.
    fn record(&mut self, evidence: Evidence);
    /// The view as a snapshot, which alone may carry a result cache and a
    /// metrics registry; `None` for the owner.
    fn snapshot(&self) -> Option<&TableSnapshot>;
}

impl View for IndexedTable {
    fn table(&self) -> &Table {
        IndexedTable::table(self)
    }

    fn indexes(&self) -> &[Arc<PatchIndex>] {
        IndexedTable::indexes(self)
    }

    fn choose(&mut self, plan: &Plan, stats: &mut OptimizeStats) -> Plan {
        let with_distinct_stats = plan.contains_distinct();
        loop {
            // The catalog is *borrowed* from the mutation-invalidated
            // cache (repeated queries between updates re-read counters,
            // no re-hashing, no clone); the flushes below run after the
            // borrow ends.
            let chosen = {
                let cat = self.query_catalog(with_distinct_stats);
                // Reset each round so the trace reports the final
                // planning pass (post-flush counts), not the sum over
                // flush retries.
                *stats = OptimizeStats::default();
                optimize_with_stats(plan.clone(), &cat, true, stats)
            };
            let stale = stale_nuc_slots(&chosen, self.indexes());
            if stale.is_empty() {
                return chosen;
            }
            // Flushing changes patch counts (and may release staged
            // rows), so re-plan against the fresh snapshot. Each round
            // flushes at least one index; the loop terminates once no
            // bound NUC index is pending.
            for slot in stale {
                self.flush_index(slot);
            }
        }
    }

    fn costs(&mut self, plan: &Plan, chosen: &Plan) -> (f64, f64) {
        let cat = self.query_catalog(plan.contains_distinct());
        (estimate(plan, &cat), estimate(chosen, &cat))
    }

    fn record(&mut self, evidence: Evidence) {
        match evidence {
            Evidence::Query(col, shape) => self.record_query(col, shape),
            Evidence::Feedback(slot, saved) => self.record_query_feedback(slot, saved),
            Evidence::Timing(slot, micros, est) => self.record_query_timing(slot, micros, est),
        }
    }

    fn snapshot(&self) -> Option<&TableSnapshot> {
        None
    }
}

impl View for TableSnapshot {
    fn table(&self) -> &Table {
        TableSnapshot::table(self)
    }

    fn indexes(&self) -> &[Arc<PatchIndex>] {
        TableSnapshot::indexes(self)
    }

    fn choose(&mut self, plan: &Plan, stats: &mut OptimizeStats) -> Plan {
        let chosen = optimize_with_stats(plan.clone(), self.catalog(), true, stats);
        if let Some(reg) = self.metrics() {
            reg.counter("planner.candidates_enumerated")
                .add(stats.candidates_enumerated);
            reg.counter("planner.cost_gated").add(stats.cost_gated);
            reg.counter("planner.rewrites_chosen")
                .add(stats.rewrites_chosen);
        }
        chosen
    }

    fn costs(&mut self, plan: &Plan, chosen: &Plan) -> (f64, f64) {
        (
            estimate(plan, self.catalog()),
            estimate(chosen, self.catalog()),
        )
    }

    fn record(&mut self, evidence: Evidence) {
        let entry = |slot| {
            self.catalog()
                .by_slot(slot)
                .expect("bound slot outside the catalog")
        };
        let event = match evidence {
            Evidence::Query(col, shape) => WorkloadEvent::Query { col, shape },
            Evidence::Feedback(slot, est_cost_saved) => WorkloadEvent::Feedback {
                column: entry(slot).column,
                constraint: entry(slot).constraint,
                est_cost_saved,
            },
            Evidence::Timing(slot, actual_micros, est_cost) => WorkloadEvent::Timing {
                column: entry(slot).column,
                constraint: entry(slot).constraint,
                actual_micros,
                est_cost,
            },
        };
        self.sink().record(event);
    }

    fn snapshot(&self) -> Option<&TableSnapshot> {
        Some(self)
    }
}

/// The dependency footprint of an execution: the partition versions it
/// consulted plus every index version the chosen plan binds. Pointer
/// identity of these Arcs is exactly "this cached result is still valid"
/// — copy-on-write publishes replace the Arc of everything they touch and
/// nothing else.
fn footprint(snap: &TableSnapshot, chosen: &Plan, touch: &TouchLog) -> Footprint {
    let parts = touch
        .footprint()
        .into_iter()
        .map(|pid| (pid, Arc::clone(&snap.table().partitions()[pid])))
        .collect();
    let indexes = bound_slots(chosen)
        .into_iter()
        .map(|slot| (slot, Arc::clone(&snap.indexes()[slot])))
        .collect();
    Footprint::new(parts, indexes)
}

/// The one query pipeline; see the module docs for its steps. Returns
/// the answer — rows or a count, as `mode` asks — and, when `traced`,
/// its EXPLAIN ANALYZE trace.
fn run(
    view: &mut impl View,
    plan: &Plan,
    mode: QueryMode,
    traced: bool,
) -> (CachedValue, Option<QueryTrace>) {
    let start = Instant::now();
    let mut stats = OptimizeStats::default();
    let chosen = view.choose(plan, &mut stats);
    let plan_nanos = start.elapsed().as_nanos() as u64;
    let mut shapes = Vec::new();
    query_shapes(plan, &mut shapes);
    for (col, shape) in shapes {
        view.record(Evidence::Query(col, shape));
    }

    // Planning is cheap and deterministic per snapshot, so the cache is
    // keyed by the *chosen* plan. The stored canonical bytes are compared
    // on every probe — not just the hash — so a hit is the exact answer.
    let mut key = None;
    let mut hit = None;
    let snap = view.snapshot();
    if let Some((snap, (cache, token))) = snap.zip(snap.and_then(TableSnapshot::result_cache)) {
        let canon: Arc<[u8]> = canonical_bytes(&chosen, snap.catalog(), mode).into();
        let hash = fingerprint_hash(&canon);
        let (epoch, table, indexes) = (snap.epoch(), snap.table(), snap.indexes());
        // The mode byte is part of the compared canonical form, so a hit
        // always has the asked-for kind; the filter is belt-and-braces.
        hit = cache
            .lookup(token, hash, &canon, epoch, table, indexes)
            .filter(|v| {
                matches!(
                    (v, mode),
                    (CachedValue::Rows(_), QueryMode::Rows)
                        | (CachedValue::Count(_), QueryMode::Count)
                )
            });
        key = Some((hash, canon));
    }
    let outcome = match (&hit, &key) {
        (Some(_), _) => CacheOutcome::Hit,
        (None, Some(_)) => CacheOutcome::Miss,
        (None, None) => CacheOutcome::Uncached,
    };

    let parts = view.table().partition_count();
    let meter = traced.then(ExecTrace::new);
    let mut touch = None;
    let value = match hit {
        Some(value) => value,
        None => {
            let bound = bound_slots(&chosen);
            let share = bound.len() as f64;
            let costs = (!bound.is_empty()).then(|| view.costs(plan, &chosen));
            if let Some((reference, cost)) = costs {
                let saved = (reference - cost).max(0.0) / share;
                for &slot in &bound {
                    view.record(Evidence::Feedback(slot, saved));
                }
            }
            touch = (traced || key.is_some()).then(|| TouchLog::new(parts));
            let opts = ExecOpts {
                touch: touch.as_ref(),
                meter: meter.as_ref(),
                ..ExecOpts::default()
            };
            let exec = Instant::now();
            let mut root = lower(&chosen, view.table(), view.indexes(), &opts);
            let value = match mode {
                QueryMode::Rows => CachedValue::Rows(collect(root.as_mut())),
                QueryMode::Count => CachedValue::Count(count_rows(root.as_mut()) as u64),
            };
            drop(root);
            if let Some((_, cost)) = costs {
                let micros = exec.elapsed().as_secs_f64() * 1e6 / share;
                for slot in bound {
                    view.record(Evidence::Timing(slot, micros, cost / share));
                }
            }
            if let (Some(snap), Some((hash, canon)), Some(touch)) = (view.snapshot(), key, &touch) {
                let (cache, token) = snap.result_cache().expect("a keyed query has a cache");
                let footprint = footprint(snap, &chosen, touch);
                cache.insert(token, hash, canon, snap.epoch(), value.clone(), footprint);
            }
            value
        }
    };

    let total_nanos = start.elapsed().as_nanos() as u64;
    if let Some(reg) = view.snapshot().and_then(TableSnapshot::metrics) {
        reg.counter("engine.queries").inc();
        reg.histogram("engine.query_nanos").record(total_nanos);
    }
    let trace = traced.then(|| {
        // A cache hit executed nothing: no operators, no partitions.
        let visited = touch.map_or(0, |t| t.pulled().len() as u64);
        let pruned = if outcome == CacheOutcome::Hit {
            0
        } else {
            parts as u64 - visited
        };
        QueryTrace {
            query: plan.to_string(),
            optimized: chosen.to_string(),
            planner: PlannerTrace {
                candidates_enumerated: stats.candidates_enumerated,
                cost_gated: stats.cost_gated,
                rewrites_chosen: stats.rewrites_chosen,
                slots_bound: bound_slots(&chosen),
                nanos: plan_nanos,
            },
            partitions_total: parts,
            partitions_visited: visited,
            partitions_pruned: pruned,
            cache: view.snapshot().map(|_| outcome),
            operators: meter.map_or_else(Vec::new, |m| m.operators()),
            rows_out: match &value {
                CachedValue::Rows(b) => b.len() as u64,
                CachedValue::Count(n) => *n,
            },
            total_nanos,
        }
    });
    (value, trace)
}

/// The rows of a [`QueryMode::Rows`] answer.
fn rows(value: CachedValue) -> Batch {
    match value {
        CachedValue::Rows(rows) => rows,
        CachedValue::Count(_) => unreachable!("a rows query answered with a count"),
    }
}

/// The count of a [`QueryMode::Count`] answer.
fn count(value: CachedValue) -> usize {
    match value {
        CachedValue::Count(n) => n as usize,
        CachedValue::Rows(_) => unreachable!("a count query answered with rows"),
    }
}

/// A traced [`QueryMode::Rows`] answer.
fn traced_rows((value, trace): (CachedValue, Option<QueryTrace>)) -> (Batch, QueryTrace) {
    (rows(value), trace.expect("a traced run builds its trace"))
}

impl QueryEngine for IndexedTable {
    fn plan_query(&mut self, plan: &Plan) -> Plan {
        self.choose(plan, &mut OptimizeStats::default())
    }

    fn query(&mut self, plan: &Plan) -> Batch {
        rows(run(self, plan, QueryMode::Rows, false).0)
    }

    fn query_count(&mut self, plan: &Plan) -> usize {
        count(run(self, plan, QueryMode::Count, false).0)
    }

    fn query_traced(&mut self, plan: &Plan) -> (Batch, QueryTrace) {
        traced_rows(run(self, plan, QueryMode::Rows, true))
    }
}

/// Concurrent readers: all methods are internally `&self` (the `&mut`
/// receiver is the trait's shape, not a mutation) — clone the snapshot
/// per thread and query away; maintenance never blocks these. When the
/// table was built with a [`patchindex::ResultCache`], the executing entry points
/// consult it first.
impl QueryEngine for TableSnapshot {
    fn plan_query(&mut self, plan: &Plan) -> Plan {
        self.choose(plan, &mut OptimizeStats::default())
    }

    fn query(&mut self, plan: &Plan) -> Batch {
        rows(run(self, plan, QueryMode::Rows, false).0)
    }

    fn query_count(&mut self, plan: &Plan) -> usize {
        count(run(self, plan, QueryMode::Count, false).0)
    }

    fn query_traced(&mut self, plan: &Plan) -> (Batch, QueryTrace) {
        traced_rows(run(self, plan, QueryMode::Rows, true))
    }
}

/// Queries on the handle itself: each call plans and executes against a
/// freshly acquired snapshot (the read path is wait-free, so this is
/// cheap), which routes through the table's result cache when one was
/// attached via [`ConcurrentTable::with_result_cache`]. Callers that
/// need repeatable reads across several queries should hold an explicit
/// [`ConcurrentTable::snapshot`] instead.
impl QueryEngine for ConcurrentTable {
    fn plan_query(&mut self, plan: &Plan) -> Plan {
        self.snapshot().plan_query(plan)
    }

    fn query(&mut self, plan: &Plan) -> Batch {
        self.snapshot().query(plan)
    }

    fn query_count(&mut self, plan: &Plan) -> usize {
        self.snapshot().query_count(plan)
    }

    fn query_traced(&mut self, plan: &Plan) -> (Batch, QueryTrace) {
        self.snapshot().query_traced(plan)
    }
}

/// Writer queries run against the staging table (seeing unpublished
/// state), with the owner path's flush-and-re-plan NUC rule.
impl QueryEngine for TableWriter {
    fn plan_query(&mut self, plan: &Plan) -> Plan {
        self.staging_mut().plan_query(plan)
    }

    fn query(&mut self, plan: &Plan) -> Batch {
        self.staging_mut().query(plan)
    }

    fn query_count(&mut self, plan: &Plan) -> usize {
        self.staging_mut().query_count(plan)
    }

    fn query_traced(&mut self, plan: &Plan) -> (Batch, QueryTrace) {
        self.staging_mut().query_traced(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, execute_count, NO_INDEXES};
    use patchindex::{Design, MaintenanceMode, MaintenancePolicy, ResultCache};
    use pi_exec::ops::sort::SortOrder;
    use pi_obs::MetricsRegistry;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table, Value};

    fn fresh(parts: usize) -> IndexedTable {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ]),
            parts,
            Partitioning::RoundRobin,
        );
        for pid in 0..parts {
            let base = (pid * 10) as i64;
            t.load_partition(
                pid,
                &[
                    ColumnData::Int((base..base + 5).collect()),
                    ColumnData::Int((base..base + 5).map(|v| v * 3).collect()),
                ],
            );
        }
        t.propagate_all();
        IndexedTable::new(t)
    }

    fn deferred() -> MaintenancePolicy {
        MaintenancePolicy {
            mode: MaintenanceMode::Deferred {
                flush_rows: usize::MAX,
            },
            ..MaintenancePolicy::default()
        }
    }

    #[test]
    fn query_plans_against_every_index() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        // Clean data + ZBP: both collapse to the excluding scan, each
        // bound to its own index.
        assert!(it.plan_query(&distinct).to_string().contains("slot=0"));
        assert!(it.plan_query(&sort).to_string().contains("slot=1"));
        assert_eq!(it.query_count(&distinct), 10);
        let sorted = it.query(&sort);
        assert!(pi_exec::ops::sort::is_sorted_asc(sorted.column(0)));
    }

    #[test]
    fn nuc_disjointness_rule_flushes_before_distinct() {
        let mut it = fresh(2).with_policy(deferred());
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        // Stage a duplicate of an existing value: disjointness suspended.
        let Value::Int(dup) = it.table().partition(0).value_at(1, 0) else {
            panic!()
        };
        it.insert(&[vec![Value::Int(999), Value::Int(dup)]]);
        assert!(it.index(slot).has_pending());

        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&distinct, it.table(), NO_INDEXES);
        // The facade flushes first, so the rewritten count is exact.
        assert_eq!(it.query_count(&distinct), reference);
        assert!(
            !it.index(slot).has_pending(),
            "facade must have flushed the NUC index"
        );
        it.check_consistency();
    }

    #[test]
    fn pending_nsc_does_not_force_a_flush() {
        let mut it = fresh(2).with_policy(deferred());
        let slot = it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        it.insert(&[vec![Value::Int(999), Value::Int(-5)]]); // out of order
        assert!(it.index(slot).has_pending());

        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        let reference = execute(&sort, it.table(), NO_INDEXES);
        let got = it.query(&sort);
        assert_eq!(got.column(0).as_int(), reference.column(0).as_int());
        // Staged rows were routed through the exception flow instead.
        assert!(
            it.index(slot).has_pending(),
            "NSC plans stay exact while pending"
        );
    }

    #[test]
    fn pending_ncc_stays_exact_without_flush() {
        // All values constant per partition; a staged insert of the
        // constant itself is conservatively patched, so the constant
        // appears in BOTH flows — the rewrite's global distinct dedups it
        // and no flush is required.
        let mut t = Table::new(
            "ncc",
            Schema::new(vec![
                Field::new("k", DataType::Int),
                Field::new("s", DataType::Int),
            ]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(
            0,
            &[
                ColumnData::Int(vec![0, 1, 2]),
                ColumnData::Int(vec![7, 7, 7]),
            ],
        );
        t.load_partition(
            1,
            &[ColumnData::Int(vec![3, 4]), ColumnData::Int(vec![8, 8])],
        );
        t.propagate_all();
        let mut it = IndexedTable::new(t).with_policy(deferred());
        let slot = it.add_index(1, Constraint::NearlyConstant, Design::Bitmap);
        it.insert(&[vec![Value::Int(100), Value::Int(7)]]);
        assert!(it.index(slot).has_pending());

        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = execute_count(&distinct, it.table(), NO_INDEXES);
        assert_eq!(reference, 2);
        let chosen = crate::optimizer::rewrite(distinct.clone(), &it.catalog().indexes[slot]);
        assert_eq!(execute_count(&chosen, it.table(), it.indexes()), reference);
        // The facade never flushes for NCC either way.
        assert_eq!(it.query_count(&distinct), reference);
        assert!(it.index(slot).has_pending());
    }

    #[test]
    fn facade_records_query_log_and_feedback() {
        let mut it = fresh(2);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        it.query_count(&distinct);
        it.query_count(&distinct);
        it.query_count(&sort);
        // Query log: shapes per table column.
        assert_eq!(it.query_log().count(1, QueryShape::Distinct), 2);
        assert_eq!(it.query_log().count(1, QueryShape::Sort(SortDir::Asc)), 1);
        // Feedback: the NUC index was bound by both distinct queries with
        // a positive estimated saving; the sort query bound nothing.
        let fb = it.index(slot).query_feedback();
        assert_eq!(fb.times_bound, 2);
        assert!(fb.est_cost_saved > 0.0);
    }

    #[test]
    fn explain_then_run_counts_the_query_once() {
        let mut it = fresh(2);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        // Inspecting the plan records nothing...
        it.plan_query(&distinct);
        assert_eq!(it.query_log().count(1, QueryShape::Distinct), 0);
        assert_eq!(it.index(slot).query_feedback().times_bound, 0);
        // ...running it records exactly once.
        it.query_count(&distinct);
        assert_eq!(it.query_log().count(1, QueryShape::Distinct), 1);
        assert_eq!(it.index(slot).query_feedback().times_bound, 1);
    }

    #[test]
    fn facade_reuses_the_cached_catalog_between_updates() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        for _ in 0..5 {
            it.query_count(&distinct);
        }
        assert_eq!(it.catalog_rebuilds(), 1, "one snapshot per mutation epoch");
        it.insert(&[vec![Value::Int(999), Value::Int(12345)]]);
        it.query_count(&distinct);
        it.query_count(&distinct);
        assert_eq!(it.catalog_rebuilds(), 2);
    }

    #[test]
    fn sort_only_queries_never_pay_the_distinct_pass() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        let sort = Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]);
        it.query_count(&sort);
        it.query_count(&sort);
        // Counts-only snapshots are taken fresh and never cached — no
        // full rebuild happened.
        assert_eq!(it.catalog_rebuilds(), 0);
    }

    #[test]
    fn unindexed_plans_never_flush() {
        let mut it = fresh(2).with_policy(deferred());
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let Value::Int(dup) = it.table().partition(0).value_at(1, 0) else {
            panic!()
        };
        it.insert(&[vec![Value::Int(999), Value::Int(dup)]]);
        // A plain scan does not bind the index; pending work stays batched.
        assert_eq!(it.query_count(&Plan::scan(vec![1])), 11);
        assert!(it.index(slot).has_pending());
    }

    #[test]
    fn measured_timing_lands_in_feedback() {
        let mut it = fresh(2);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        // EXPLAIN records nothing measured.
        it.plan_query(&distinct);
        assert_eq!(it.index(slot).query_feedback().measured_queries, 0);
        it.query_count(&distinct);
        it.query_count(&distinct);
        let fb = it.index(slot).query_feedback();
        assert_eq!(fb.measured_queries, 2);
        assert!(fb.actual_micros > 0.0);
        assert!(fb.est_cost_executed > 0.0);
        assert!(fb.micros_per_cost_unit().unwrap() > 0.0);
    }

    /// Publishing flushes: after a deferred writer stages a NUC
    /// duplicate and an out-of-order NSC insert, the published epoch —
    /// the first one of `ConcurrentTable::new` as well as a later
    /// `publish` — carries no pending work, binds the NUC distinct
    /// rewrite and answers like the index-free reference.
    #[test]
    fn published_epochs_carry_no_pending_maintenance() {
        let stage = |it: &mut IndexedTable| {
            let Value::Int(dup) = it.table().partition(0).value_at(1, 0) else {
                panic!()
            };
            it.insert(&[
                vec![Value::Int(999), Value::Int(dup)],
                vec![Value::Int(998), Value::Int(-5)],
            ]);
            assert!(it.indexes().iter().all(|idx| idx.has_pending()));
        };
        let plans = [
            (Plan::scan(vec![1]).distinct(vec![0]), false),
            (Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]), true),
        ];
        let check = |mut snap: TableSnapshot| {
            assert!(snap.indexes().iter().all(|idx| !idx.has_pending()));
            let chosen = snap.plan_query(&plans[0].0);
            assert!(chosen.to_string().contains("slot=0"), "{chosen}");
            for (plan, ordered) in &plans {
                let reference = execute(plan, snap.table(), NO_INDEXES);
                let got = snap.query(plan);
                assert_eq!(rows_of(&got, *ordered), rows_of(&reference, *ordered));
                assert_eq!(snap.query_count(plan), reference.len());
            }
        };
        let mut it = fresh(4).with_policy(deferred());
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        stage(&mut it);
        let (handle, mut writer) = ConcurrentTable::new(it);
        check(handle.snapshot());
        stage(writer.staging_mut());
        writer.publish();
        check(handle.snapshot());
    }

    #[test]
    fn snapshot_workload_evidence_reaches_the_writer() {
        let mut it = fresh(2);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query_count(&distinct);
        snap.query_count(&distinct);
        // EXPLAIN on a snapshot records nothing.
        snap.plan_query(&distinct);
        assert!(!snap.sink().is_empty());
        writer.absorb_feedback();
        let it = writer.staging();
        assert_eq!(it.query_log().count(1, QueryShape::Distinct), 2);
        let fb = it.index(slot).query_feedback();
        assert_eq!(fb.times_bound, 2);
        assert!(fb.est_cost_saved > 0.0);
        assert_eq!(fb.measured_queries, 2);
        assert!(fb.actual_micros > 0.0);
    }

    fn cached(it: IndexedTable) -> (ConcurrentTable, TableWriter) {
        ConcurrentTable::with_result_cache(
            it,
            Arc::new(ResultCache::new(ResultCache::DEFAULT_BUDGET)),
        )
    }

    #[test]
    fn cached_snapshot_repeats_hit_and_match_exactly() {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let first = snap.query(&distinct);
        let second = snap.query(&distinct);
        assert_eq!(first.column(0).as_int(), second.column(0).as_int());
        // Rows and counts fingerprint separately (the mode byte), so the
        // count is its own miss-then-hit, never a cross-mode confusion.
        let n = snap.query_count(&distinct);
        assert_eq!(n, first.len());
        assert_eq!(snap.query_count(&distinct), n);
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn cache_hits_record_shapes_but_never_feedback_or_timing() {
        let mut it = fresh(2);
        let slot = it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = cached(it);
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query_count(&distinct); // miss: full evidence
        writer.absorb_feedback();
        let before = writer.staging().index(slot).query_feedback();
        assert_eq!(before.times_bound, 1);
        assert_eq!(before.measured_queries, 1);

        for _ in 0..3 {
            snap.query_count(&distinct); // hits: shapes only
        }
        writer.absorb_feedback();
        let it = writer.staging();
        // The advisor's demand signal still sees every query...
        assert_eq!(it.query_log().count(1, QueryShape::Distinct), 4);
        // ...but calibration inputs are untouched: a hit executed
        // nothing, so its ~0µs must not dilute micros-per-cost-unit.
        let after = it.index(slot).query_feedback();
        assert_eq!(after.times_bound, before.times_bound);
        assert_eq!(after.measured_queries, before.measured_queries);
        assert_eq!(after.actual_micros, before.actual_micros);
        assert_eq!(after.micros_per_cost_unit(), before.micros_per_cost_unit());
        // Hits are tallied in the cache's own counter instead.
        assert_eq!(handle.cache_stats().unwrap().hits, 3);
    }

    #[test]
    fn manufactured_fingerprint_collision_is_a_miss() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let chosen = snap.plan_query(&distinct);
        let canon = canonical_bytes(&chosen, snap.catalog(), QueryMode::Count);
        let hash = fingerprint_hash(&canon);
        // Poison the exact bucket the query will probe with an entry
        // whose canonical bytes differ — a simulated 64-bit collision.
        let (cache, token) = snap.result_cache().unwrap();
        cache.insert(
            token,
            hash,
            b"not the same plan".to_vec().into(),
            snap.epoch(),
            CachedValue::Count(999_999),
            Footprint::new(Vec::new(), Vec::new()),
        );
        let reference = execute_count(&distinct, snap.table(), NO_INDEXES);
        assert_ne!(reference, 999_999);
        // The stored canonical form is compared on every probe, so the
        // collision is detected and the query recomputes.
        assert_eq!(snap.query_count(&distinct), reference);
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.hits, 0);
        // The recomputed entry replaced the poisoned one; now it hits.
        assert_eq!(snap.query_count(&distinct), reference);
        assert_eq!(handle.cache_stats().unwrap().hits, 1);
    }

    #[test]
    fn publish_keeps_entries_whose_partitions_were_untouched() {
        let it = fresh(2);
        let (handle, mut writer) = cached(it);
        let mut snap = handle.snapshot();
        let limited = Plan::scan(vec![1]).limit(2);
        let full = Plan::scan(vec![1]);
        // The pushed-down limit is satisfied entirely by partition 0, so
        // its footprint excludes partition 1; the full scan touches both.
        let first = snap.query(&limited);
        assert_eq!(snap.query_count(&full), 10);
        assert_eq!(handle.cache_stats().unwrap().entries, 2);

        // Dirty only partition 1 and publish: copy-on-write replaces
        // p1's Arc and leaves p0's identical.
        writer.modify(1, &[0], 1, &[Value::Int(-777)]);
        writer.publish();
        let stats = handle.cache_stats().unwrap();
        assert_eq!(stats.invalidated, 1, "only the full scan depends on p1");
        assert_eq!(stats.entries, 1);

        let mut snap2 = handle.snapshot();
        // The surviving limit entry hits across the epoch bump...
        let again = snap2.query(&limited);
        assert_eq!(first.column(0).as_int(), again.column(0).as_int());
        assert_eq!(handle.cache_stats().unwrap().hits, 1);
        // ...and the invalidated full scan recomputes the new state.
        let fresh_count = snap2.query_count(&full);
        assert_eq!(fresh_count, 10);
        let refreshed = snap2.query(&full);
        assert!(refreshed.column(0).as_int().contains(&-777));
    }

    #[test]
    fn traced_query_matches_untraced_and_carries_operators() {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let reference = it.query(&distinct);
        let (traced, trace) = it.query_traced(&distinct);
        assert_eq!(reference.column(0).as_int(), traced.column(0).as_int());
        assert_eq!(trace.rows_out, reference.len() as u64);
        assert_eq!(trace.planner.slots_bound, vec![0]);
        assert!(trace.planner.candidates_enumerated >= 1);
        assert_eq!(trace.planner.rewrites_chosen, 1);
        assert!(trace.optimized.contains("PatchScan"), "{}", trace.optimized);
        // Clean data: ZBP prunes every use_patches branch, so only the
        // excluding pipelines (4 partitions) plus the global combine ran.
        assert_eq!(trace.partitions_total, 4);
        assert_eq!(trace.partitions_visited, 4);
        assert!(!trace.operators.is_empty());
        let total_op_rows: u64 = trace
            .operators
            .iter()
            .filter(|o| o.partition.is_some())
            .map(|o| o.rows_out)
            .sum();
        assert_eq!(total_op_rows, 20, "per-partition scans emit every row");
        assert!(trace.cache.is_none(), "owner path has no cache concept");
    }

    #[test]
    fn traced_snapshot_reports_cache_hit_and_miss() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, _writer) = cached(it);
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        let (first, t1) = snap.query_traced(&distinct);
        assert_eq!(t1.cache, Some(pi_obs::CacheOutcome::Miss));
        assert!(!t1.operators.is_empty());
        let (second, t2) = snap.query_traced(&distinct);
        assert_eq!(t2.cache, Some(pi_obs::CacheOutcome::Hit));
        assert!(t2.operators.is_empty(), "a hit executed nothing");
        assert_eq!(t2.partitions_visited, 0);
        assert_eq!(first.column(0).as_int(), second.column(0).as_int());
        // Traced and untraced share the cache: the untraced path now hits
        // the entry the traced miss inserted.
        let third = snap.query(&distinct);
        assert_eq!(third.column(0).as_int(), first.column(0).as_int());
        assert_eq!(handle.cache_stats().unwrap().hits, 2);
    }

    #[test]
    fn snapshot_queries_feed_the_metrics_registry() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let reg = Arc::new(MetricsRegistry::new());
        let cache = Arc::new(ResultCache::with_registry(
            ResultCache::DEFAULT_BUDGET,
            &reg,
        ));
        let (handle, _writer) =
            ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&reg));
        let mut snap = handle.snapshot();
        let distinct = Plan::scan(vec![1]).distinct(vec![0]);
        snap.query_count(&distinct); // miss
        snap.query_count(&distinct); // hit
        snap.query_traced(&distinct); // rows-mode miss
        assert_eq!(reg.counter("engine.queries").get(), 3);
        assert_eq!(reg.histogram("engine.query_nanos").snapshot().count, 3);
        assert_eq!(reg.counter("cache.hits").get(), 1);
        assert_eq!(reg.counter("cache.misses").get(), 2);
        assert!(reg.counter("planner.rewrites_chosen").get() >= 3);
    }

    /// The views the facade is implemented for.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Owner,
        Snapshot,
        CachedSnapshot,
        Handle,
        Writer,
    }

    /// Column 0 of a batch, sorted unless the plan's output is ordered.
    fn rows_of(b: &Batch, ordered: bool) -> Vec<i64> {
        let mut v = if b.width() == 0 {
            Vec::new()
        } else {
            b.column(0).as_int().to_vec()
        };
        if !ordered {
            v.sort_unstable();
        }
        v
    }

    /// The workload evidence a table has absorbed: query-log counts for
    /// every shape the plan set produces, then per slot the feedback
    /// counters that depend on nothing measured.
    fn evidence(it: &IndexedTable) -> Vec<String> {
        let log = it.query_log();
        let mut out = vec![format!(
            "log {} {} {} {}",
            log.total(),
            log.count(1, QueryShape::Distinct),
            log.count(1, QueryShape::Sort(SortDir::Asc)),
            log.count(0, QueryShape::Distinct),
        )];
        for idx in it.indexes() {
            let fb = idx.query_feedback();
            out.push(format!(
                "bound {} measured {} saved {} executed {}",
                fb.times_bound, fb.measured_queries, fb.est_cost_saved, fb.est_cost_executed
            ));
        }
        out
    }

    /// A NUC and an NSC index on column 1. With `dup`, a row under that
    /// maintenance policy duplicates a value out of order: patched
    /// eagerly, or — deferred — staged, suspending the NUC disjointness
    /// invariant, so the owner must flush (a snapshot is captured
    /// flushed).
    fn fixture(dup: Option<MaintenancePolicy>) -> IndexedTable {
        let mut it = fresh(4);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        it.add_index(1, Constraint::NearlySorted(SortDir::Asc), Design::Bitmap);
        if let Some(policy) = dup {
            it.set_policy(policy);
            it.insert(&[vec![Value::Int(999), Value::Int(0)]]);
        }
        it
    }

    /// Runs every plan twice (the second run of a cached view is a hit)
    /// through `query` — or `query_traced` when `traced` — and once
    /// through `query_count`, checking each answer against the
    /// index-free reference. Returns the evidence the view left behind.
    fn drive(
        view: Kind,
        dup: Option<MaintenancePolicy>,
        traced: bool,
        plans: &[(Plan, bool)],
    ) -> Vec<String> {
        let mut it = fixture(dup);
        let references: Vec<Batch> = plans
            .iter()
            .map(|(p, _)| execute(p, it.table(), NO_INDEXES))
            .collect();
        let exercise = |q: &mut dyn QueryEngine| {
            for ((plan, ordered), reference) in plans.iter().zip(&references) {
                let ctx = format!("{view:?} {dup:?} traced={traced} {plan}");
                for _ in 0..2 {
                    let got = if traced {
                        q.query_traced(plan).0
                    } else {
                        q.query(plan)
                    };
                    assert_eq!(
                        rows_of(&got, *ordered),
                        rows_of(reference, *ordered),
                        "{ctx}"
                    );
                }
                assert_eq!(q.query_count(plan), reference.len(), "{ctx}");
            }
        };
        match view {
            Kind::Owner => {
                exercise(&mut it);
                evidence(&it)
            }
            Kind::Writer => {
                let (_handle, mut writer) = ConcurrentTable::new(it);
                exercise(&mut writer);
                writer.absorb_feedback();
                evidence(writer.staging())
            }
            Kind::Snapshot | Kind::CachedSnapshot | Kind::Handle => {
                let (mut handle, mut writer) = match view {
                    Kind::CachedSnapshot => cached(it),
                    _ => ConcurrentTable::new(it),
                };
                match view {
                    Kind::Handle => exercise(&mut handle),
                    _ => exercise(&mut handle.snapshot()),
                }
                writer.absorb_feedback();
                evidence(writer.staging())
            }
        }
    }

    /// Every view answers like the index-free reference on a clean, a
    /// patched and a pending-NUC table, and `query_traced` leaves the same
    /// workload evidence as `query`.
    #[test]
    fn snapshot_queries_match_owner_results() {
        let plans = [
            (Plan::scan(vec![1]).distinct(vec![0]), false),
            (Plan::scan(vec![1]).sort(vec![(0, SortOrder::Asc)]), true),
            // Unindexed control: column 0 carries no index.
            (Plan::scan(vec![0]).distinct(vec![0]), false),
        ];
        for view in [
            Kind::Owner,
            Kind::Snapshot,
            Kind::CachedSnapshot,
            Kind::Handle,
            Kind::Writer,
        ] {
            for dup in [None, Some(MaintenancePolicy::default()), Some(deferred())] {
                let untraced = drive(view, dup, false, &plans);
                let traced = drive(view, dup, true, &plans);
                assert_eq!(traced, untraced, "{view:?} {dup:?}");
                // Every view binds the NSC index for the sort, so the
                // evidence is never trivially empty.
                assert_ne!(untraced[2], "bound 0 measured 0 saved 0 executed 0");
            }
        }
        // The snapshot path binds indexes exactly like the owner path.
        let (handle, _writer) = ConcurrentTable::new(fixture(Some(MaintenancePolicy::default())));
        let chosen = handle.snapshot().plan_query(&plans[0].0);
        assert!(chosen.to_string().contains("slot=0"), "{chosen}");
    }

    #[test]
    fn writer_facade_queries_staged_state() {
        let mut it = fresh(2);
        it.add_index(1, Constraint::NearlyUnique, Design::Bitmap);
        let (handle, mut writer) = ConcurrentTable::new(it);
        writer.insert(&[vec![Value::Int(999), Value::Int(424242)]]);
        let scan = Plan::scan(vec![1]);
        // The writer sees its unpublished insert; readers do not.
        assert_eq!(writer.query_count(&scan), 11);
        assert_eq!(handle.snapshot().query_count(&scan), 10);
        writer.publish();
        assert_eq!(handle.snapshot().query_count(&scan), 11);
    }
}
