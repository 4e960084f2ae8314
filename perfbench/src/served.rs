//! The served workloads (`dashboard`, `analytic`, `ingest`): an
//! in-process `pi_server::Server` over pre-built shard tables, driven
//! over TCP by two closed-loop client connections.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pi_server::{Client, Server, ServerConfig};

use crate::data::{Model, Row, Stmt};
use crate::report::Report;
use crate::stats::Latency;
use crate::workload::{
    build_tables, reference_response, strip_epochs, visible_rows, ConnStream, IndexState, Req,
    Workload, SETUP_REPS, SHARDS,
};

/// What one connection saw during a window.
#[derive(Default)]
pub struct ConnOutcome {
    /// (read class, latency µs)
    pub reads: Vec<(usize, f64)>,
    /// (statement kind, rows, latency µs of statement + publish)
    pub commits: Vec<(&'static str, usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Rows of acknowledged inserts.
    pub inserted: Vec<Row>,
    /// The writer's model after its last acknowledged statement.
    pub model: Option<Model>,
}

fn ok(resp: &std::io::Result<String>) -> bool {
    matches!(resp, Ok(r) if r.starts_with("OK"))
}

/// Runs one connection's closed loop until `deadline`. Every `ERR` and
/// every I/O error counts as a failed operation; nothing is retried. A
/// dropped connection is re-opened once per failure; if that fails too
/// the connection stops.
pub fn drive(
    addr: SocketAddr,
    workload: Workload,
    stream: &mut ConnStream,
    mut model: Option<Model>,
    deadline: Instant,
    limit: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let reads = workload.reads();
    let Ok(mut client) = Client::connect(addr) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    while out.attempted < limit && Instant::now() < deadline {
        let req = stream.next(model.as_ref());
        out.attempted += 1;
        let t0 = Instant::now();
        let (good, io_err) = match &req {
            Req::Read(c) => {
                let resp = client.request(reads[*c].text);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                let good = ok(&resp);
                if good {
                    out.reads.push((*c, us));
                }
                (good, resp.is_err())
            }
            Req::Write(stmt) => {
                let resp = client.request(&stmt.wire());
                let acked = ok(&resp);
                if acked {
                    if let Some(m) = model.as_mut() {
                        m.apply(stmt);
                    }
                    if let Stmt::Insert(rows) = stmt {
                        out.inserted.extend_from_slice(rows);
                    }
                }
                let barrier = if acked {
                    client.request("PUBLISH")
                } else {
                    resp
                };
                let us = t0.elapsed().as_secs_f64() * 1e6;
                let good = acked && ok(&barrier);
                if good {
                    out.commits.push((stmt.kind(), stmt.rows(), us));
                }
                (good, barrier.is_err())
            }
        };
        if !good {
            out.failed += 1;
        }
        if io_err {
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
    }
    out.model = model;
    out
}

/// A started server and what it took to get there.
pub struct Started {
    pub server: Server,
    pub setup_s: f64,
    pub index_build_s: f64,
    pub server_start_s: f64,
}

/// Builds the shard tables and indexes, starts the server and warms the
/// caches with every read class. Data generation is not included.
pub fn start(model: &Model, workload: Workload) -> Started {
    let t0 = Instant::now();
    let (tables, index_build_s) = build_tables(model);
    let t1 = Instant::now();
    let server = Server::start(ServerConfig::with_shards(SHARDS), tables).expect("server starts");
    let server_start_s = t1.elapsed().as_secs_f64();
    let mut c = Client::connect(server.addr()).expect("warm-up connection");
    for r in workload.reads() {
        let resp = c.request(r.text).expect("warm-up read");
        assert!(resp.starts_with("OK"), "warm-up read failed: {resp}");
    }
    Started {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        index_build_s,
        server_start_s,
    }
}

/// Outcomes of one phase of a window and its wall time in seconds.
pub type PhaseRun = (Vec<ConnOutcome>, f64);

/// Runs the workload's phases one after the other, each for its share of
/// `secs` or until its connections reach its request limit. Phases of
/// one group continue the group's streams and its writer's model.
pub fn window(
    server: &Server,
    workload: Workload,
    seed: u64,
    model: &Model,
    secs: f64,
) -> Vec<PhaseRun> {
    let addr = server.addr();
    let mut groups: Vec<Vec<(ConnStream, Option<Model>)>> = Vec::new();
    workload
        .phases()
        .iter()
        .map(|phase| {
            if phase.group == groups.len() {
                groups.push(
                    phase
                        .streams(seed, model.visible_rows())
                        .into_iter()
                        .map(|stream| {
                            let m = stream.is_writer().then(|| model.clone());
                            (stream, m)
                        })
                        .collect(),
                );
            }
            let t0 = Instant::now();
            let deadline = t0 + Duration::from_secs_f64(secs * phase.share);
            let outcomes = std::thread::scope(|scope| {
                let handles: Vec<_> = groups[phase.group]
                    .iter_mut()
                    .map(|(stream, m)| {
                        let m = m.take();
                        scope.spawn(move || drive(addr, workload, stream, m, deadline, phase.limit))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Vec<_>>()
            });
            let secs = t0.elapsed().as_secs_f64();
            for ((_, m), out) in groups[phase.group].iter_mut().zip(&outcomes) {
                m.clone_from(&out.model);
            }
            (outcomes, secs)
        })
        .collect()
}

/// End-to-end metrics of one window.
pub struct WindowStats {
    pub read: Latency,
    pub commit: Latency,
    pub read_ops_per_s: f64,
    pub commit_rows_per_s: f64,
}

/// Rates are taken over the phases that issued that kind of request.
pub fn window_stats(phases: &[PhaseRun], workload: Workload, report: &mut Report) -> WindowStats {
    let outcomes: Vec<&ConnOutcome> = phases.iter().flat_map(|p| &p.0).collect();
    let busy = |has: fn(&ConnOutcome) -> bool| -> f64 {
        phases
            .iter()
            .filter(|p| p.0.iter().any(has))
            .map(|p| p.1)
            .sum::<f64>()
    };
    let read_s = busy(|o| !o.reads.is_empty());
    let commit_s = busy(|o| !o.commits.is_empty());
    let reads: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.reads.iter().map(|r| r.1))
        .collect();
    let commits: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.commits.iter().map(|c| c.2))
        .collect();
    let commit_rows: usize = outcomes
        .iter()
        .flat_map(|o| o.commits.iter().map(|c| c.1))
        .sum();
    for o in &outcomes {
        report.attempted += o.attempted;
        report.failed += o.failed;
    }
    // Per-class bands, so a reader can see where p50 and p90 fall.
    for (i, class) in workload.reads().iter().enumerate() {
        let l = Latency::new(
            outcomes
                .iter()
                .flat_map(|o| o.reads.iter().filter(|r| r.0 == i).map(|r| r.1))
                .collect(),
        );
        println!("  read  {:<22} {}", class.name, l.describe("us"));
    }
    let mut kinds: Vec<&str> = outcomes
        .iter()
        .flat_map(|o| o.commits.iter().map(|c| c.0))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let l = Latency::new(
            outcomes
                .iter()
                .flat_map(|o| o.commits.iter().filter(|c| c.0 == kind).map(|c| c.2))
                .collect(),
        );
        println!("  commit {kind:<21} {}", l.describe("us"));
    }
    let read = Latency::new(reads);
    let commit = Latency::new(commits);
    println!("  read  {:<22} {}", "all", read.describe("us"));
    println!("  commit {:<21} {}", "all", commit.describe("us"));
    WindowStats {
        read_ops_per_s: read.count() as f64 / read_s.max(1e-9),
        commit_rows_per_s: commit_rows as f64 / commit_s.max(1e-9),
        read,
        commit,
    }
}

/// Sums every occurrence of counter `name` across the `METRICS`
/// document (the server registry plus one engine registry per shard).
pub fn sum_metric(doc: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\": ");
    doc.match_indices(&needle)
        .filter_map(|(i, _)| {
            doc[i + needle.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

pub const METRICS_COUNTERS: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "cache.invalidated",
    "cache.evicted",
    "publish.count",
    "publish.noops",
    "publish.partitions_copied",
    "publish.indexes_copied",
    "publish.cache_invalidated",
    "planner.candidates_enumerated",
    "planner.cost_gated",
    "planner.rewrites_chosen",
    "engine.queries",
    "server.requests",
    "server.busy_rejections",
];

/// Index state over the server's published shard snapshots.
fn index_state(server: &Server) -> IndexState {
    let snaps: Vec<_> = server.tables().iter().map(|t| t.snapshot()).collect();
    IndexState::of(snaps.iter().flat_map(|s| s.indexes().iter().map(|i| &**i)))
}

/// Quiesces the server with `FLUSH` and `PUBLISH`, records its counters,
/// then audits: every read class must answer byte-identically to an
/// index-free replay over the server's own shard snapshots, and the
/// visible rows must equal the rows whose writes were acknowledged.
/// Returns the index bytes per visible row.
pub fn quiesce_and_audit(
    server: &Server,
    workload: Workload,
    initial: &Model,
    phases: &[PhaseRun],
    report: &mut Report,
) -> f64 {
    let outcomes: Vec<&ConnOutcome> = phases.iter().flat_map(|p| &p.0).collect();
    let mut c = Client::connect(server.addr()).expect("audit connection");
    for cmd in ["FLUSH", "PUBLISH"] {
        let resp = c.request(cmd).expect("quiesce");
        if !resp.starts_with("OK") {
            report.fail(format!("{cmd} answered {resp}"));
        }
    }
    let doc = c.request("METRICS").expect("metrics");
    for name in METRICS_COUNTERS {
        report.counter(format!("window.{name}"), sum_metric(&doc, name), false);
    }

    let state = index_state(server);
    state.record(report, "window", false);

    let snaps: Vec<_> = server.tables().iter().map(|t| t.snapshot()).collect();

    let tables: Vec<_> = snaps.iter().map(|s| s.table()).collect();
    for class in workload.reads() {
        let got = strip_epochs(&c.request(class.text).expect("audit read"));
        let want = reference_response(class.text, &tables);
        if got != want {
            report.fail(format!(
                "{}: served answer differs from the index-free replay ({} vs {} bytes)",
                class.name,
                got.len(),
                want.len()
            ));
        }
    }

    let actual: Vec<Vec<Vec<Row>>> = tables.iter().map(|t| visible_rows(t)).collect();
    match outcomes.iter().rev().find_map(|o| o.model.as_ref()) {
        // One writer: its last model holds every partition's exact rows.
        Some(model) => {
            if actual != model.parts {
                report.fail("visible rows differ from the acknowledged statement stream");
            }
        }
        // Inserts only, from two connections: compare as multisets.
        None => {
            let mut want: Vec<Row> = initial.parts.iter().flatten().flatten().copied().collect();
            want.extend(outcomes.iter().flat_map(|o| o.inserted.iter().copied()));
            let mut got: Vec<Row> = actual.into_iter().flatten().flatten().collect();
            want.sort_unstable();
            got.sort_unstable();
            if got != want {
                report.fail(format!(
                    "visible rows ({}) differ from the acknowledged inserts ({})",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    let rows: usize = tables.iter().map(|t| t.visible_len()).sum();
    state.memory_bytes as f64 / rows.max(1) as f64
}

/// The untraced run: `SETUP_REPS` set-ups (median = `setup_s`), one
/// measured window of `secs` on the one kept, then quiesce and audit.
pub fn run(workload: Workload, seed: u64, secs: f64, model: &Model, report: &mut Report) {
    // Half the set-ups run before the window and half after it, so
    // their median spans more than one moment of the machine.
    let setup_once = || {
        let s = start(model, workload);
        s.server.shutdown();
        s.setup_s
    };
    let mut setups: Vec<f64> = (0..SETUP_REPS / 2).map(|_| setup_once()).collect();
    let started = start(model, workload);
    setups.push(started.setup_s);
    index_state(&started.server).record(report, "setup", true);
    let phases = window(&started.server, workload, seed, model, secs);
    let w = window_stats(&phases, workload, report);
    let index_bytes_per_row = quiesce_and_audit(&started.server, workload, model, &phases, report);
    started.server.shutdown();
    setups.extend((setups.len()..SETUP_REPS).map(|_| setup_once()));

    report.metric("read_ops_per_s", w.read_ops_per_s, "1/s");
    report.metric("read_p50_us", w.read.p(0.5), "us");
    report.metric("read_p90_us", w.read.p(0.9), "us");
    report.metric("commit_rows_per_s", w.commit_rows_per_s, "1/s");
    report.metric("commit_p50_us", w.commit.p(0.5), "us");
    report.metric("commit_p90_us", w.commit.p(0.9), "us");
    report.metric("index_bytes_per_row", index_bytes_per_row, "B");
    report.metric("setup_s", crate::stats::median(&setups), "s");
}
