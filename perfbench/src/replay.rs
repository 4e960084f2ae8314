//! The traced mode: the workload's seeded request stream replayed
//! in-process, one request at a time, through the public calls each
//! layer offers, with a span around every call.
//!
//! A read runs the steps the server runs per request: parse the spec
//! (`pi-server`), then per shard take a snapshot (`patchindex`), plan
//! (`pi_planner::optimize_with_stats`), probe the shard's result cache
//! (`ResultCache::lookup`) and on a miss execute (`pi-exec` through
//! `pi_planner::execute_traced`) and fill the cache, then combine and
//! render (`pi-server`). A write applies the statement to an index-free
//! clone of the shard table (`pi-storage`), then to the shard's
//! `TableWriter` (storage plus index maintenance), then publishes.
//!
//! The replay handles a fixed number of requests, so its counters
//! repeat exactly for a fixed seed.

use std::path::PathBuf;
use std::sync::Arc;

use patchindex::{
    CachedValue, ConcurrentTable, Footprint, IndexedTable, ResultCache, TableSnapshot, TableWriter,
};
use pi_obs::MetricsRegistry;
use pi_planner::{
    canonical_bytes, execute_traced, fingerprint_hash, optimize_with_stats, OptimizeStats, Plan,
    QueryMode, TouchLog,
};
use pi_server::{batch_rows, canonical_rows, render_rows, QuerySpec, ServerConfig};
use pi_storage::{Table, Value};

use crate::data::{row_values, shard_of_key, Model, Stmt};
use crate::report::Report;
use crate::served;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{build_tables, reference_response, IndexState, Req, Workload};

/// Requests replayed per traced run (about a few seconds each on a
/// 2-core machine).
pub fn replay_requests(workload: Workload) -> u64 {
    match workload {
        Workload::Dashboard => 5_000,
        Workload::Analytic => 30,
        Workload::Ingest => 500,
        Workload::DurableIngest => 160,
    }
}

/// Counts gathered along the replay.
#[derive(Default)]
pub struct Tally {
    pub rewrites_chosen: u64,
    pub cost_gated: u64,
    pub rows_out: u64,
    pub partitions_pruned: u64,
}

/// One statement's share on one shard.
pub enum ShardOp {
    Insert(Vec<Vec<Value>>),
    Modify {
        pid: usize,
        col: usize,
        rids: Vec<usize>,
        vals: Vec<Value>,
    },
    Delete {
        pid: usize,
        rids: Vec<usize>,
    },
}

impl ShardOp {
    pub fn rows(&self) -> u64 {
        match self {
            ShardOp::Insert(rows) => rows.len() as u64,
            ShardOp::Modify { rids, .. } | ShardOp::Delete { rids, .. } => rids.len() as u64,
        }
    }

    pub fn apply_table(&self, t: &mut Table) {
        match self {
            ShardOp::Insert(rows) => {
                t.insert_rows(rows);
            }
            ShardOp::Modify {
                pid,
                col,
                rids,
                vals,
            } => t.modify(*pid, rids, *col, vals),
            ShardOp::Delete { pid, rids } => t.delete(*pid, rids),
        }
    }

    pub fn apply_writer(&self, w: &mut TableWriter) {
        match self {
            ShardOp::Insert(rows) => {
                w.insert(rows);
            }
            ShardOp::Modify {
                pid,
                col,
                rids,
                vals,
            } => w.modify(*pid, rids, *col, vals),
            ShardOp::Delete { pid, rids } => w.delete(*pid, rids),
        }
    }
}

/// Splits a statement into per-shard operations, routed as the server
/// routes them.
pub fn shard_ops(stmt: &Stmt, nshards: usize) -> Vec<(usize, ShardOp)> {
    match stmt {
        Stmt::Insert(rows) => {
            let mut groups: Vec<Vec<Vec<Value>>> = vec![Vec::new(); nshards];
            for row in rows {
                groups[shard_of_key(row[0], nshards)].push(row_values(row));
            }
            groups
                .into_iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .map(|(s, g)| (s, ShardOp::Insert(g)))
                .collect()
        }
        Stmt::Modify {
            shard,
            pid,
            col,
            rids,
            vals,
        } => vec![(
            *shard,
            ShardOp::Modify {
                pid: *pid,
                col: *col,
                rids: rids.clone(),
                vals: vals.iter().map(|&v| Value::Int(v)).collect(),
            },
        )],
        Stmt::Delete { shard, pid, rids } => vec![(
            *shard,
            ShardOp::Delete {
                pid: *pid,
                rids: rids.clone(),
            },
        )],
    }
}

/// Every PatchScan slot a plan binds.
fn bound_slots(plan: &Plan, out: &mut Vec<usize>) {
    match plan {
        Plan::PatchScan { slot, .. } => out.push(*slot),
        Plan::Scan { .. } => {}
        Plan::Distinct { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            bound_slots(input, out)
        }
        Plan::Union { inputs } | Plan::Merge { inputs, .. } => {
            inputs.iter().for_each(|p| bound_slots(p, out))
        }
    }
}

/// The cache entry's dependency footprint: the partitions the execution
/// consulted and the indexes the plan binds.
fn footprint(snap: &TableSnapshot, chosen: &Plan, touch: &TouchLog) -> Footprint {
    let parts = touch
        .footprint()
        .into_iter()
        .map(|pid| (pid, Arc::clone(&snap.table().partitions()[pid])))
        .collect();
    let mut slots = Vec::new();
    bound_slots(chosen, &mut slots);
    slots.sort_unstable();
    slots.dedup();
    let indexes = slots
        .into_iter()
        .map(|s| (s, Arc::clone(&snap.indexes()[s])))
        .collect();
    Footprint::new(parts, indexes)
}

/// Replays one read request over the shards; returns the response
/// without epochs.
pub fn replay_read(
    tr: &mut Tracer,
    req: u64,
    text: &str,
    shards: &[ConcurrentTable],
    tally: &mut Tally,
) -> String {
    tr.span(req, "read", |tr| {
        let (word, spec, plan) = tr.span(req, "server.parse", |_| {
            let (word, rest) = text.split_once(' ').expect("command and spec");
            let spec = QuerySpec::parse(rest).expect("workload specs parse");
            let plan = spec.fanout_plan();
            (word, spec, plan)
        });
        let mut batches = Vec::with_capacity(shards.len());
        for ct in shards {
            let snap = tr.span(req, "core.snapshot", |_| ct.snapshot());
            let chosen = tr.span(req, "planner.plan", |_| {
                let mut st = OptimizeStats::default();
                let chosen = optimize_with_stats(plan.clone(), snap.catalog(), true, &mut st);
                tally.rewrites_chosen += st.rewrites_chosen;
                tally.cost_gated += st.cost_gated;
                chosen
            });
            let probe = snap.result_cache().map(|(cache, token)| {
                tr.span(req, "core.cache_probe", |_| {
                    let canon: Arc<[u8]> =
                        canonical_bytes(&chosen, snap.catalog(), QueryMode::Rows).into();
                    let hash = fingerprint_hash(&canon);
                    let hit = cache.lookup(
                        token,
                        hash,
                        &canon,
                        snap.epoch(),
                        snap.table(),
                        snap.indexes(),
                    );
                    (cache, token, canon, hash, hit)
                })
            });
            let batch = match probe {
                Some((_, _, _, _, Some(CachedValue::Rows(b)))) => b,
                probe => {
                    let parts = snap.table().partition_count();
                    let touch = TouchLog::new(parts);
                    let b = tr.span(req, "exec.execute", |_| {
                        execute_traced(&chosen, snap.table(), snap.indexes(), &touch)
                    });
                    tr.set_items("exec.execute", b.len() as u64);
                    tally.rows_out += b.len() as u64;
                    tally.partitions_pruned += (parts - touch.pulled().len()) as u64;
                    if let Some((cache, token, canon, hash, _)) = probe {
                        tr.span(req, "core.cache_insert", |_| {
                            let fp = footprint(&snap, &chosen, &touch);
                            cache.insert(
                                token,
                                hash,
                                canon,
                                snap.epoch(),
                                CachedValue::Rows(b.clone()),
                                fp,
                            )
                        });
                    }
                    b
                }
            };
            batches.push(batch);
        }
        let rows = tr.span(req, "server.combine", |_| {
            let mut rows = Vec::new();
            for b in &batches {
                rows.extend(batch_rows(b));
            }
            canonical_rows(&spec, rows)
        });
        tr.span(req, "server.render", |_| {
            if word == "COUNT" {
                format!("OK count={}", rows.len())
            } else {
                format!(
                    "OK rows={} cols={}{}",
                    rows.len(),
                    spec.output_width(),
                    render_rows(&rows)
                )
            }
        })
    })
}

/// An in-process shard: the same table, cache and registry wiring the
/// server gives each of its shards.
pub struct LocalShard {
    pub ct: ConcurrentTable,
    pub writer: TableWriter,
    pub registry: Arc<MetricsRegistry>,
}

pub fn local_shards(tables: Vec<IndexedTable>) -> Vec<LocalShard> {
    let budget = ServerConfig::default().cache_budget_bytes;
    tables
        .into_iter()
        .map(|it| {
            let registry = Arc::new(MetricsRegistry::new());
            let cache = Arc::new(ResultCache::with_registry(budget, &registry));
            let (ct, writer) =
                ConcurrentTable::with_observability(it, Some(cache), Arc::clone(&registry));
            LocalShard {
                ct,
                writer,
                registry,
            }
        })
        .collect()
}

/// Replays one statement plus its publish barrier. Each shard publishes
/// right after applying its part (the server's `publish_every = 1`);
/// the barrier then publishes every shard.
fn replay_write(tr: &mut Tracer, req: u64, stmt: &Stmt, shards: &mut [LocalShard]) {
    let ops = shard_ops(stmt, shards.len());
    tr.span(req, "commit", |tr| {
        for (sid, op) in &ops {
            let shard = &mut shards[*sid];
            let clone = tr.span(req, "storage.apply", |_| {
                let mut t = shard.writer.staging().table().clone();
                op.apply_table(&mut t);
                t
            });
            tr.set_items("storage.apply", op.rows());
            drop(clone);
            tr.span(req, "core.write", |_| op.apply_writer(&mut shard.writer));
            tr.set_items("core.write", op.rows());
            tr.span(req, "core.publish", |_| shard.writer.publish());
        }
        for shard in shards.iter_mut() {
            tr.span(req, "core.publish_barrier", |_| shard.writer.publish());
        }
    });
}

/// Per-layer metrics, in the order `BENCHMARK.json` lists them. Layers a
/// workload does not reach stay 0.
#[derive(Default)]
pub struct Layers {
    pub server_parse_us: f64,
    pub server_combine_us: f64,
    pub server_render_us: f64,
    pub server_residual_us: f64,
    pub core_snapshot_us: f64,
    pub core_cache_hit_ratio: f64,
    pub core_cache_invalidated: u64,
    pub core_cache_evicted: u64,
    pub planner_plan_us: f64,
    pub planner_rewrites_chosen: u64,
    pub planner_cost_gated: u64,
    pub exec_execute_us: f64,
    pub exec_rows_out: u64,
    pub exec_partitions_pruned: u64,
    pub storage_apply_us_per_row: f64,
    pub core_maintenance_us_per_row: f64,
    pub core_collision_rounds: u64,
    pub core_build_invocations: u64,
    pub core_maintained_rows: u64,
    pub core_patches: u64,
    pub core_publish_us: f64,
    pub core_publish_partitions_copied: u64,
    pub core_publish_indexes_copied: u64,
    pub durability_append_us: f64,
    pub durability_fsyncs: u64,
    pub durability_checkpoint_us: f64,
    pub durability_checkpoint_bytes: u64,
    pub durability_wal_bytes: u64,
    pub durability_recover_s: f64,
    pub durability_bytes_written_per_row: f64,
    pub setup_index_build_s: f64,
    pub setup_server_start_s: f64,
}

fn median_or_zero(v: Option<&Vec<f64>>) -> f64 {
    v.filter(|v| !v.is_empty()).map_or(0.0, |v| median(v))
}

impl Layers {
    /// Fills the span-derived metrics and the replay tallies.
    pub fn from_spans(tr: &Tracer, tally: &Tally) -> Layers {
        let by = tr.self_us_by_layer();
        let sum = |layer: &str| by.get(layer).map_or(0.0, |v| v.iter().sum::<f64>());
        let items = |layer: &str| -> u64 {
            tr.spans()
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.items)
                .sum()
        };
        let write_rows = items("core.write").max(1) as f64;
        Layers {
            server_parse_us: median_or_zero(by.get("server.parse")),
            server_combine_us: median_or_zero(by.get("server.combine")),
            server_render_us: median_or_zero(by.get("server.render")),
            core_snapshot_us: median_or_zero(by.get("core.snapshot")),
            planner_plan_us: median_or_zero(by.get("planner.plan")),
            planner_rewrites_chosen: tally.rewrites_chosen,
            planner_cost_gated: tally.cost_gated,
            exec_execute_us: median_or_zero(by.get("exec.execute")),
            exec_rows_out: tally.rows_out,
            exec_partitions_pruned: tally.partitions_pruned,
            storage_apply_us_per_row: sum("storage.apply") / write_rows,
            core_maintenance_us_per_row: (sum("core.write") - sum("storage.apply")) / write_rows,
            core_publish_us: median_or_zero(by.get("core.publish")),
            ..Layers::default()
        }
    }

    /// Median in-process duration of a read request (µs).
    pub fn read_us(tr: &Tracer) -> f64 {
        let reads: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.layer == "read")
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        median_or_zero(Some(&reads))
    }

    pub fn index_state(&mut self, before: IndexState, after: IndexState) {
        self.core_collision_rounds = after.collision_rounds - before.collision_rounds;
        self.core_build_invocations = after.build_invocations - before.build_invocations;
        self.core_maintained_rows = after.maintained_rows - before.maintained_rows;
        self.core_patches = after.patches();
    }

    pub fn emit(&self, report: &mut Report) {
        let m: &[(&str, f64, &'static str)] = &[
            ("server.parse_us", self.server_parse_us, "us"),
            ("server.combine_us", self.server_combine_us, "us"),
            ("server.render_us", self.server_render_us, "us"),
            ("server.residual_us", self.server_residual_us, "us"),
            ("core.snapshot_us", self.core_snapshot_us, "us"),
            ("core.cache_hit_ratio", self.core_cache_hit_ratio, "ratio"),
            (
                "core.cache_invalidated",
                self.core_cache_invalidated as f64,
                "count",
            ),
            (
                "core.cache_evicted",
                self.core_cache_evicted as f64,
                "count",
            ),
            ("planner.plan_us", self.planner_plan_us, "us"),
            (
                "planner.rewrites_chosen",
                self.planner_rewrites_chosen as f64,
                "count",
            ),
            (
                "planner.cost_gated",
                self.planner_cost_gated as f64,
                "count",
            ),
            ("exec.execute_us", self.exec_execute_us, "us"),
            ("exec.rows_out", self.exec_rows_out as f64, "count"),
            (
                "exec.partitions_pruned",
                self.exec_partitions_pruned as f64,
                "count",
            ),
            (
                "storage.apply_us_per_row",
                self.storage_apply_us_per_row,
                "us",
            ),
            (
                "core.maintenance_us_per_row",
                self.core_maintenance_us_per_row,
                "us",
            ),
            (
                "core.collision_rounds",
                self.core_collision_rounds as f64,
                "count",
            ),
            (
                "core.build_invocations",
                self.core_build_invocations as f64,
                "count",
            ),
            (
                "core.maintained_rows",
                self.core_maintained_rows as f64,
                "count",
            ),
            ("core.patches", self.core_patches as f64, "count"),
            ("core.publish_us", self.core_publish_us, "us"),
            (
                "core.publish_partitions_copied",
                self.core_publish_partitions_copied as f64,
                "count",
            ),
            (
                "core.publish_indexes_copied",
                self.core_publish_indexes_copied as f64,
                "count",
            ),
            ("durability.append_us", self.durability_append_us, "us"),
            ("durability.fsyncs", self.durability_fsyncs as f64, "count"),
            (
                "durability.checkpoint_us",
                self.durability_checkpoint_us,
                "us",
            ),
            (
                "durability.checkpoint_bytes",
                self.durability_checkpoint_bytes as f64,
                "B",
            ),
            (
                "durability.wal_bytes",
                self.durability_wal_bytes as f64,
                "B",
            ),
            ("durability.recover_s", self.durability_recover_s, "s"),
            (
                "durability.bytes_written_per_row",
                self.durability_bytes_written_per_row,
                "B",
            ),
            ("setup.index_build_s", self.setup_index_build_s, "s"),
            ("setup.server_start_s", self.setup_server_start_s, "s"),
        ];
        for (name, v, unit) in m {
            report.metric(name, *v, unit);
        }
    }
}

/// Where the traced run writes its spans (inside the working directory).
pub fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("spans-{workload:?}-seed{seed}.jsonl"))
}

/// The shard registry counters the replay reports, as deltas.
const REPLAY_COUNTERS: [&str; 6] = [
    "cache.hits",
    "cache.misses",
    "cache.invalidated",
    "cache.evicted",
    "publish.partitions_copied",
    "publish.indexes_copied",
];

fn staging_state(shards: &[LocalShard]) -> IndexState {
    IndexState::of(
        shards
            .iter()
            .flat_map(|s| s.writer.staging().indexes().iter().map(|i| &**i)),
    )
}

/// Registry counter summed over shards.
fn shard_counter(shards: &[LocalShard], name: &str) -> u64 {
    shards.iter().map(|s| s.registry.counter(name).get()).sum()
}

/// Traced run of a served workload: a short untraced wire window (the
/// end-to-end medians the layers are reported beside, and the wire time
/// the residual is taken from), its audit, then the traced replay.
pub fn run_served_traced(
    workload: Workload,
    seed: u64,
    secs: f64,
    model: &Model,
    report: &mut Report,
) {
    let started = served::start(model, workload);
    println!("untraced wire window ({:.1}s):", secs / 2.0);
    let phases = served::window(&started.server, workload, seed, model, secs / 2.0);
    let w = served::window_stats(&phases, workload, report);
    served::quiesce_and_audit(&started.server, workload, model, &phases, report);
    started.server.shutdown();

    let (tables, _) = build_tables(model);
    let mut shards = local_shards(tables);
    let cts: Vec<ConcurrentTable> = shards.iter().map(|s| s.ct.clone()).collect();
    let mut warm = Tracer::new();
    for class in workload.reads() {
        replay_read(&mut warm, 0, class.text, &cts, &mut Tally::default());
    }
    let base: Vec<u64> = REPLAY_COUNTERS
        .iter()
        .map(|n| shard_counter(&shards, n))
        .collect();
    let before = staging_state(&shards);

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut wmodel = model.clone();
    let reads = workload.reads();
    let t0 = std::time::Instant::now();
    let mut req = 0;
    let mut groups = Vec::new();
    for phase in workload.phases() {
        if phase.group == groups.len() {
            groups.push(phase.streams(seed, model.visible_rows()));
        }
        let streams = &mut groups[phase.group];
        let n = ((replay_requests(workload) as f64 * phase.share).round() as u64).min(phase.limit);
        for _ in 0..n {
            req += 1;
            let conn = req as usize % streams.len();
            match streams[conn].next(Some(&wmodel)) {
                Req::Read(c) => {
                    replay_read(&mut tr, req, reads[c].text, &cts, &mut tally);
                }
                Req::Write(stmt) => {
                    replay_write(&mut tr, req, &stmt, &mut shards);
                    wmodel.apply(&stmt);
                }
            }
        }
    }
    let replay_s = t0.elapsed().as_secs_f64();
    let after = staging_state(&shards);

    // The replica must answer like the index-free reference too.
    let snaps: Vec<_> = cts.iter().map(|c| c.snapshot()).collect();
    let tables: Vec<&Table> = snaps.iter().map(|s| s.table()).collect();
    for class in reads {
        let got = replay_read(
            &mut Tracer::new(),
            0,
            class.text,
            &cts,
            &mut Tally::default(),
        );
        if got != reference_response(class.text, &tables) {
            report.fail(format!(
                "{}: replayed answer differs from the index-free replay",
                class.name
            ));
        }
    }

    let delta: Vec<u64> = REPLAY_COUNTERS
        .iter()
        .zip(&base)
        .map(|(n, b)| shard_counter(&shards, n) - b)
        .collect();
    let mut layers = Layers::from_spans(&tr, &tally);
    layers.index_state(before, after);
    layers.core_cache_hit_ratio = delta[0] as f64 / (delta[0] + delta[1]).max(1) as f64;
    layers.core_cache_invalidated = delta[2];
    layers.core_cache_evicted = delta[3];
    layers.core_publish_partitions_copied = delta[4];
    layers.core_publish_indexes_copied = delta[5];
    let in_process_read_us = Layers::read_us(&tr);
    layers.server_residual_us = w.read.p(0.5) - in_process_read_us;
    layers.setup_index_build_s = started.index_build_s;
    layers.setup_server_start_s = started.server_start_s;

    report.counter("replay.requests", replay_requests(workload), true);
    for (name, d) in REPLAY_COUNTERS.iter().zip(&delta) {
        report.counter(format!("replay.{name}"), *d, true);
    }
    report.counter(
        "replay.planner.rewrites_chosen",
        tally.rewrites_chosen,
        true,
    );
    report.counter("replay.planner.cost_gated", tally.cost_gated, true);
    report.counter("replay.exec.rows_out", tally.rows_out, true);
    report.counter(
        "replay.exec.partitions_pruned",
        tally.partitions_pruned,
        true,
    );
    after.record(report, "replay", true);

    let path = spans_path(workload, seed);
    if let Err(e) = tr.write_jsonl(&path) {
        println!("could not write spans to {}: {e}", path.display());
    }
    println!(
        "traced replay: {} requests in {replay_s:.2}s, {} spans -> {}",
        replay_requests(workload),
        tr.spans().len(),
        path.display()
    );
    println!(
        "end-to-end medians of the untraced window: read p50 {:.1}us, p90 {:.1}us, commit p50 {:.1}us; in-process read median {in_process_read_us:.1}us",
        w.read.p(0.5),
        w.read.p(0.9),
        w.commit.p(0.5)
    );
    layers.emit(report);
}
