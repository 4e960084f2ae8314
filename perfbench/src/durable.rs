//! `durable_ingest`: the `ingest` statement stream run in-process
//! through `pi_durability::DurableWriter` on one table, with
//! `DurableOptions::default()` (fsync every record, checkpoint every
//! publish, compaction every 4 checkpoints), while a second thread reads
//! the table's snapshots. The run ends with `DurableWriter::recover`.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use patchindex::{ConcurrentTable, IndexedTable, MaintenancePolicy};
use pi_durability::{state_image, DurableOptions, DurableWriter};
use pi_obs::MetricsRegistry;
use pi_planner::QueryEngine;
use pi_server::{batch_rows, canonical_rows, render_rows};
use pi_storage::{DurableFs, RealFs};

use crate::data::Model;
use crate::replay::{replay_read, replay_requests, shard_ops, spans_path, Layers, ShardOp, Tally};
use crate::report::Report;
use crate::served::{window_stats, ConnOutcome, WindowStats};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{
    build_tables, reference_response, split_read, visible_rows, ConnStream, IndexState, Req,
    Workload, SETUP_REPS,
};

const WORKLOAD: Workload = Workload::DurableIngest;

fn fs() -> Arc<dyn DurableFs> {
    Arc::new(RealFs)
}

/// A per-process directory under the working directory.
fn work_dir(seed: u64) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("durable-seed{seed}-pid{}", std::process::id()))
}

fn apply(dw: &mut DurableWriter, op: &ShardOp) -> io::Result<()> {
    match op {
        ShardOp::Insert(rows) => dw.insert(rows).map(drop),
        ShardOp::Modify {
            pid,
            col,
            rids,
            vals,
        } => dw.modify(*pid, rids, *col, vals),
        ShardOp::Delete { pid, rids } => dw.delete(*pid, rids),
    }
}

/// The server's per-request read pipeline on one in-process table:
/// parse, snapshot, query, combine, render.
fn local_read(ct: &ConcurrentTable, text: &str) -> String {
    let (word, spec) = split_read(text);
    let mut snap = ct.snapshot();
    let batch = snap.query(&spec.fanout_plan());
    let rows = canonical_rows(&spec, batch_rows(&batch));
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
}

struct Started {
    ct: ConcurrentTable,
    dw: DurableWriter,
    setup_s: f64,
    index_build_s: f64,
    create_s: f64,
}

/// Builds the table and indexes, creates the durable store (initial
/// full checkpoint) and warms up with every read class.
fn start(model: &Model, dir: &Path) -> Started {
    let t0 = Instant::now();
    let (mut tables, index_build_s) = build_tables(model);
    let it = tables.pop().expect("one table");
    let t1 = Instant::now();
    let (ct, dw) =
        DurableWriter::create(it, fs(), dir, DurableOptions::default()).expect("create store");
    let create_s = t1.elapsed().as_secs_f64();
    for r in WORKLOAD.reads() {
        local_read(&ct, r.text);
    }
    Started {
        ct,
        dw,
        setup_s: t0.elapsed().as_secs_f64(),
        index_build_s,
        create_s,
    }
}

fn index_state(it: &IndexedTable) -> IndexState {
    IndexState::of(it.indexes().iter().map(|i| &**i))
}

/// Audits the live store, drops it, recovers it and audits again.
/// Returns the recovery time in seconds.
fn audit_and_recover(
    ct: ConcurrentTable,
    dw: DurableWriter,
    dir: &Path,
    model: &Model,
    report: &mut Report,
) -> f64 {
    let snap = ct.snapshot();
    for class in WORKLOAD.reads() {
        if local_read(&ct, class.text) != reference_response(class.text, &[snap.table()]) {
            report.fail(format!(
                "{}: answer differs from the index-free replay",
                class.name
            ));
        }
    }
    if visible_rows(dw.staging().table()) != model.parts[0] {
        report.fail("visible rows differ from the acknowledged statement stream");
    }
    let before = state_image(dw.staging());
    drop(snap);
    drop(ct);
    drop(dw);
    let t0 = Instant::now();
    let (_ct, dw, _) = DurableWriter::recover(
        fs(),
        dir,
        DurableOptions::default(),
        MaintenancePolicy::default(),
    )
    .expect("recover");
    let recover_s = t0.elapsed().as_secs_f64();
    if state_image(dw.staging()) != before {
        report.fail("state after recover differs from the state before the drop");
    }
    recover_s
}

/// The untraced run: `SETUP_REPS` set-ups (median = `setup_s`), a
/// writer thread and a reader thread for `secs`, then audit + recover.
pub fn run(seed: u64, secs: f64, model: &Model, report: &mut Report) {
    let work = work_dir(seed);
    // Half the set-ups run before the window and half after it, so
    // their median spans more than one moment of the machine.
    let setup_once = |rep: usize| start(model, &work.join(format!("setup{rep}"))).setup_s;
    let mut setups: Vec<f64> = (0..SETUP_REPS / 2).map(setup_once).collect();
    let dir = work.join("measured");
    let started = start(model, &dir);
    setups.push(started.setup_s);
    index_state(started.dw.staging()).record(report, "setup", true);
    let (w, index_bytes_per_row) = measure(seed, secs, model, started, &dir, report);
    setups.extend((setups.len()..SETUP_REPS).map(setup_once));
    let _ = std::fs::remove_dir_all(&work);

    report.metric("read_ops_per_s", w.read_ops_per_s, "1/s");
    report.metric("read_p50_us", w.read.p(0.5), "us");
    report.metric("read_p90_us", w.read.p(0.9), "us");
    report.metric("commit_rows_per_s", w.commit_rows_per_s, "1/s");
    report.metric("commit_p50_us", w.commit.p(0.5), "us");
    report.metric("commit_p90_us", w.commit.p(0.9), "us");
    report.metric("index_bytes_per_row", index_bytes_per_row, "B");
    report.metric("setup_s", median(&setups), "s");
}

/// Runs the writer and reader threads for `secs` on a started store,
/// records the counters, then audits, drops and recovers the store.
/// Returns the window's end-to-end figures and the index bytes per
/// visible row.
fn measure(
    seed: u64,
    secs: f64,
    model: &Model,
    started: Started,
    dir: &Path,
    report: &mut Report,
) -> (WindowStats, f64) {
    let Started { ct, mut dw, .. } = started;
    let registry = MetricsRegistry::new();
    dw.attach_metrics(&registry);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let [mut writer_stream, mut reader_stream]: [ConnStream; 2] = WORKLOAD.phases()[0]
        .streams(seed, model.visible_rows())
        .try_into()
        .unwrap_or_else(|_| unreachable!("two connections"));
    let (writer, reader) = std::thread::scope(|scope| {
        let reader_ct = ct.clone();
        let reader = scope.spawn(move || {
            let stream = &mut reader_stream;
            let mut out = ConnOutcome::default();
            while Instant::now() < deadline {
                let Req::Read(c) = stream.next(None) else {
                    unreachable!("the reader only reads")
                };
                out.attempted += 1;
                let t = Instant::now();
                std::hint::black_box(local_read(&reader_ct, WORKLOAD.reads()[c].text));
                out.reads.push((c, t.elapsed().as_secs_f64() * 1e6));
            }
            out
        });
        let writer = scope.spawn(|| {
            let stream = &mut writer_stream;
            let mut wmodel = model.clone();
            let mut out = ConnOutcome::default();
            while Instant::now() < deadline {
                let Req::Write(stmt) = stream.next(Some(&wmodel)) else {
                    unreachable!("the writer only writes")
                };
                out.attempted += 1;
                let t = Instant::now();
                let acked = shard_ops(&stmt, 1)
                    .iter()
                    .try_for_each(|(_, op)| apply(&mut dw, op))
                    .is_ok();
                if acked {
                    wmodel.apply(&stmt);
                }
                if acked && dw.publish().is_ok() {
                    out.commits
                        .push((stmt.kind(), stmt.rows(), t.elapsed().as_secs_f64() * 1e6));
                } else {
                    out.failed += 1;
                }
            }
            out.model = Some(wmodel);
            out
        });
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let phases = [(vec![writer, reader], elapsed)];
    let w = window_stats(&phases, WORKLOAD, report);
    let outcomes = &phases[0].0;

    let stats = dw.stats();
    let state = index_state(dw.staging());
    state.record(report, "window", false);
    let rows = dw.staging().table().visible_len();
    let committed: usize = outcomes[0].commits.iter().map(|c| c.1).sum();
    report.counter("window.durability.wal_bytes", stats.wal_bytes, false);
    report.counter("window.durability.checkpoints", stats.checkpoints, false);
    report.counter(
        "window.durability.checkpoint_bytes",
        stats.checkpoint_bytes,
        false,
    );
    report.counter(
        "window.durability.checkpoint_files",
        stats.checkpoint_files,
        false,
    );
    report.counter("window.durability.compactions", stats.compactions, false);
    report.counter(
        "window.durability.files_removed",
        stats.files_removed,
        false,
    );
    report.counter(
        "window.wal.fsyncs",
        registry.counter("wal.fsyncs").get(),
        false,
    );
    let wmodel = outcomes[0].model.as_ref().expect("writer model");
    let recover_s = audit_and_recover(ct, dw, dir, wmodel, report);
    println!(
        "  bytes written per committed row {:.1}, recover {recover_s:.4}s",
        (stats.wal_bytes + stats.checkpoint_bytes) as f64 / committed.max(1) as f64
    );
    (w, state.memory_bytes as f64 / rows.max(1) as f64)
}

/// Pairwise differences `outer - inner` of two span layers, matched in
/// order (each commit opens one of each).
fn pairwise_us(tr: &Tracer, outer: &str, inner: &str) -> Vec<f64> {
    let durs = |layer: &str| -> Vec<f64> {
        tr.spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    durs(outer)
        .into_iter()
        .zip(durs(inner))
        .map(|(o, i)| o - i)
        .collect()
}

/// The traced run: an untraced window of `secs / 2` (the end-to-end
/// medians the layers are reported beside), then a fixed prefix of the
/// same writer and reader streams, alternating, replayed on one thread.
/// Each statement is applied to an in-memory shadow `TableWriter` first
/// and then through the `DurableWriter`, so the durability layer's cost
/// is the difference.
pub fn run_traced(seed: u64, secs: f64, model: &Model, report: &mut Report) {
    let work = work_dir(seed);
    println!("untraced window ({:.1}s):", secs / 2.0);
    let window_dir = work.join("window");
    let (w, _) = measure(
        seed,
        secs / 2.0,
        model,
        start(model, &window_dir),
        &window_dir,
        report,
    );
    let dir = work.join("traced");
    let Started {
        ct,
        mut dw,
        index_build_s,
        create_s,
        ..
    } = start(model, &dir);
    let registry = MetricsRegistry::new();
    dw.attach_metrics(&registry);
    let shadow_registry = Arc::new(MetricsRegistry::new());
    let shadow_it = IndexedTable::with_restored_indexes(
        dw.staging().table().clone(),
        dw.staging().indexes().to_vec(),
        dw.staging().statements(),
    );
    let (_shadow_ct, mut shadow) =
        ConcurrentTable::with_observability(shadow_it, None, Arc::clone(&shadow_registry));
    let stats0 = dw.stats();
    let before = index_state(dw.staging());

    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut streams = WORKLOAD.phases()[0].streams(seed, model.visible_rows());
    let mut wmodel = model.clone();
    let readers = [ct.clone()];
    let mut committed = 0u64;
    for req in 1..=replay_requests(WORKLOAD) {
        let conn = (req % 2) as usize;
        match streams[conn].next(Some(&wmodel)) {
            Req::Read(c) => {
                replay_read(&mut tr, req, WORKLOAD.reads()[c].text, &readers, &mut tally);
            }
            Req::Write(stmt) => {
                report.attempted += 1;
                let ops = shard_ops(&stmt, 1);
                let result = tr.span(req, "commit", |tr| -> io::Result<()> {
                    for (_, op) in &ops {
                        let clone = tr.span(req, "storage.apply", |_| {
                            let mut t = shadow.staging().table().clone();
                            op.apply_table(&mut t);
                            t
                        });
                        tr.set_items("storage.apply", op.rows());
                        drop(clone);
                        tr.span(req, "core.write", |_| op.apply_writer(&mut shadow));
                        tr.set_items("core.write", op.rows());
                        tr.span(req, "durability.statement", |_| apply(&mut dw, op))?;
                    }
                    tr.span(req, "core.publish", |_| shadow.publish());
                    tr.span(req, "durability.publish", |_| dw.publish())?;
                    Ok(())
                });
                match result {
                    Ok(()) => {
                        wmodel.apply(&stmt);
                        committed += stmt.rows() as u64;
                    }
                    Err(e) => {
                        report.failed += 1;
                        report.fail(format!("durable statement failed: {e}"));
                        break;
                    }
                }
            }
        }
    }
    let stats = dw.stats();
    let after = index_state(dw.staging());
    let fsyncs = registry.counter("wal.fsyncs").get();
    let recover_s = audit_and_recover(ct, dw, &dir, &wmodel, report);
    let _ = std::fs::remove_dir_all(&work);

    let mut layers = Layers::from_spans(&tr, &tally);
    layers.index_state(before, after);
    layers.core_publish_partitions_copied =
        shadow_registry.counter("publish.partitions_copied").get();
    layers.core_publish_indexes_copied = shadow_registry.counter("publish.indexes_copied").get();
    layers.durability_append_us = median(&pairwise_us(&tr, "durability.statement", "core.write"));
    layers.durability_checkpoint_us =
        median(&pairwise_us(&tr, "durability.publish", "core.publish"));
    layers.durability_fsyncs = fsyncs;
    layers.durability_checkpoint_bytes = stats.checkpoint_bytes - stats0.checkpoint_bytes;
    layers.durability_wal_bytes = stats.wal_bytes - stats0.wal_bytes;
    layers.durability_recover_s = recover_s;
    layers.durability_bytes_written_per_row = (layers.durability_checkpoint_bytes
        + layers.durability_wal_bytes) as f64
        / committed.max(1) as f64;
    layers.setup_index_build_s = index_build_s;
    layers.setup_server_start_s = create_s;

    report.attempted += tr.spans().iter().filter(|s| s.layer == "read").count() as u64;
    report.counter("replay.requests", replay_requests(WORKLOAD), true);
    report.counter("replay.committed_rows", committed, true);
    report.counter(
        "replay.durability.wal_bytes",
        layers.durability_wal_bytes,
        true,
    );
    report.counter(
        "replay.durability.checkpoint_bytes",
        layers.durability_checkpoint_bytes,
        true,
    );
    report.counter(
        "replay.durability.checkpoints",
        stats.checkpoints - stats0.checkpoints,
        true,
    );
    report.counter(
        "replay.durability.compactions",
        stats.compactions - stats0.compactions,
        true,
    );
    report.counter("replay.wal.fsyncs", fsyncs, true);
    report.counter(
        "replay.planner.rewrites_chosen",
        tally.rewrites_chosen,
        true,
    );
    report.counter("replay.exec.rows_out", tally.rows_out, true);
    report.counter(
        "replay.exec.partitions_pruned",
        tally.partitions_pruned,
        true,
    );
    after.record(report, "replay", true);

    let path = spans_path(WORKLOAD, seed);
    if let Err(e) = tr.write_jsonl(&path) {
        println!("could not write spans to {}: {e}", path.display());
    }
    println!(
        "traced replay: {} spans -> {}",
        tr.spans().len(),
        path.display()
    );
    println!(
        "end-to-end medians of the untraced window: read p50 {:.1}us, p90 {:.1}us, commit p50 {:.1}us, p90 {:.1}us",
        w.read.p(0.5),
        w.read.p(0.9),
        w.commit.p(0.5),
        w.commit.p(0.9)
    );
    layers.emit(report);
}
