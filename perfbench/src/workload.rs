//! The four workloads: table shape, per-connection request streams, and
//! the program-side helpers every workload shares (building the shard
//! tables, index-free reference answers, reading visible rows back).

use std::time::Instant;

use patchindex::{Constraint, Design, IndexedTable, PatchIndex, SortDir};
use pi_planner::{execute, NO_INDEXES};
use pi_server::{batch_rows, canonical_rows, render_rows, QuerySpec};
use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema, Table};

use crate::data::{
    next_write, Deck, Model, Rng, Row, RowGen, Stmt, WriteKind, COL_NSC, COL_NUC, INGEST_MIX, NCOLS,
};

/// Served deployment: `ServerConfig::with_shards(SHARDS)`.
pub const SHARDS: usize = 4;
/// Round-robin partitions per shard table.
pub const PARTS: usize = 4;
/// Rows of the served table (~100k per shard). At this size every
/// per-shard `analytic` result is larger than one cache stripe
/// (8 MiB / 16 = 512 KiB) and is never kept, while `dashboard` results
/// are tens of bytes.
pub const SERVED_ROWS: usize = 400_000;
/// Rows of the `durable_ingest` table (one shard's worth).
pub const DURABLE_ROWS: usize = 100_000;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Dashboard,
    Analytic,
    Ingest,
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Dashboard,
        Workload::Analytic,
        Workload::Ingest,
        Workload::DurableIngest,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "dashboard" => Some(Workload::Dashboard),
            "analytic" => Some(Workload::Analytic),
            "ingest" => Some(Workload::Ingest),
            "durable_ingest" => Some(Workload::DurableIngest),
            _ => None,
        }
    }

    /// The window's phases, run one after the other.
    pub fn phases(self) -> Vec<Phase> {
        match self {
            Workload::Dashboard => vec![Phase {
                roles: &[Role::Mixed(DASHBOARD_READS, DASHBOARD_WRITES); 2],
                share: 1.0,
                limit: u64::MAX,
                group: 0,
            }],
            // Blocks of inserts on one connection alternate with the
            // reads, so neither disturbs the other's latency and the
            // inserts are sampled across the whole window, not in one
            // burst that a busy second of the machine can cover. Their
            // count is fixed, so the reads of a block always see the
            // same table.
            Workload::Analytic => (0..ANALYTIC_BLOCKS)
                .flat_map(|_| {
                    [
                        Phase {
                            roles: &[Role::Inserter(ANALYTIC_INSERTS)],
                            share: 0.25 / ANALYTIC_BLOCKS as f64,
                            limit: ANALYTIC_COMMITS / ANALYTIC_BLOCKS,
                            group: 0,
                        },
                        Phase {
                            roles: &[Role::Reader(ANALYTIC_READS); 2],
                            share: 0.75 / ANALYTIC_BLOCKS as f64,
                            limit: u64::MAX,
                            group: 1,
                        },
                    ]
                })
                .collect(),
            Workload::Ingest | Workload::DurableIngest => vec![Phase {
                roles: &[Role::Writer, Role::Reader(DASHBOARD_READS)],
                share: 1.0,
                limit: u64::MAX,
                group: 0,
            }],
        }
    }

    pub fn reads(self) -> &'static [ReadClass] {
        match self {
            Workload::Analytic => ANALYTIC_READS,
            _ => DASHBOARD_READS,
        }
    }
}

/// One read request class and its share of a connection's reads.
pub struct ReadClass {
    pub name: &'static str,
    pub text: &'static str,
    pub weight: u64,
}

/// Small results on the `cat` dimension: nearly every read is a cache
/// hit.
pub const DASHBOARD_READS: &[ReadClass] = &[
    ReadClass {
        name: "cat_distinct_sorted",
        text: "QUERY scan 3 | distinct 0 | sort 0:asc",
        weight: 9,
    },
    ReadClass {
        name: "cat_distinct_count",
        text: "COUNT scan 3 | distinct 0",
        weight: 9,
    },
];
/// Single-row inserts per round of 18 dashboard reads (10% of the
/// requests). Each insert makes the next read of every class recompute
/// one shard, so about a fifth of the reads do: p50 falls inside the
/// cache-hit band and p90 inside the one-shard-recompute band.
pub const DASHBOARD_WRITES: usize = 2;

/// The paper's query classes plus a control no index can rewrite;
/// every per-shard result is too large for the cache. By latency,
/// `nsc_topk` < `control_topk` < `nuc_distinct_count`, so with weights
/// 2:2:1 p50 falls inside the control band and p90 inside the NUC band.
/// The commit metrics of this workload come from a second phase of
/// 64-row inserts on one connection.
pub const ANALYTIC_READS: &[ReadClass] = &[
    ReadClass {
        name: "nuc_distinct_count",
        text: "COUNT scan 1 | distinct 0",
        weight: 1,
    },
    ReadClass {
        name: "nsc_topk",
        text: "QUERY scan 2 | sort 0:asc | limit 100",
        weight: 2,
    },
    ReadClass {
        name: "control_topk",
        text: "QUERY scan 0,2 | sort 1:desc | limit 100",
        weight: 2,
    },
];
/// One phase of a window: the roles of its connections (at most two),
/// the share of the seconds the phase runs, the most requests a
/// connection sends in it, and its group. Phases of one group have the
/// same roles and continue one set of connection streams, so a mix
/// split over several phases stays the mix of one stream.
pub struct Phase {
    pub roles: &'static [Role],
    pub share: f64,
    pub limit: u64,
    pub group: usize,
}

/// The analytic inserts, per round: four of the writer's 64 rows and one
/// bulk insert. By latency 64 rows < bulk, so p50 falls inside the
/// 64-row band and p90 inside the bulk band.
const ANALYTIC_INSERTS: &[(usize, usize)] = &[(INGEST_MIX.insert_rows, 4), (BULK_ROWS, 1)];
/// Rows of a bulk insert.
const BULK_ROWS: usize = 256;
/// Analytic inserts per window: 120 rounds, 61 440 rows, about 15% of
/// the table.
const ANALYTIC_COMMITS: u64 = 600;
/// Insert blocks (each followed by a read block) per analytic window.
const ANALYTIC_BLOCKS: u64 = 10;

/// Keys of different groups never meet: group `g` starts at
/// `first_key + g * GROUP_KEY_SPAN`.
const GROUP_KEY_SPAN: usize = 1 << 32;

impl Phase {
    /// The seeded streams of the phase's group.
    pub fn streams(&self, seed: u64, first_key: usize) -> Vec<ConnStream> {
        self.roles
            .iter()
            .enumerate()
            .map(|(conn, &role)| {
                ConnStream::new(
                    seed,
                    2 * self.group + conn,
                    role,
                    first_key + self.group * GROUP_KEY_SPAN,
                )
            })
            .collect()
    }
}

#[derive(Clone, Copy)]
pub enum Role {
    /// Each round: every read class as often as its weight, plus the
    /// given number of single-row inserts, each followed by a publish.
    Mixed(&'static [ReadClass], usize),
    /// Only the seeded statement stream, each followed by a publish.
    Writer,
    /// Only inserts, each followed by a publish: each round holds
    /// `count` inserts of `rows` rows for every `(rows, count)`.
    Inserter(&'static [(usize, usize)]),
    /// Only reads of the given classes.
    Reader(&'static [ReadClass]),
}

pub enum Req {
    /// Index into the workload's read classes.
    Read(usize),
    Write(Stmt),
}

#[derive(Clone, Copy)]
enum Draw {
    Read(usize),
    InsertOne,
    InsertBatch(usize),
    Write(WriteKind),
}

/// One connection's seeded request stream.
pub struct ConnStream {
    deck: Deck<Draw>,
    rng: Rng,
    gen: RowGen,
    writer: bool,
}

impl ConnStream {
    /// New keys of stream `conn` are `first_key + conn % 2 + 2i`.
    pub fn new(seed: u64, conn: usize, role: Role, first_key: usize) -> ConnStream {
        let reads = |classes: &[ReadClass]| -> Vec<Draw> {
            classes
                .iter()
                .enumerate()
                .flat_map(|(i, c)| std::iter::repeat_n(Draw::Read(i), c.weight as usize))
                .collect()
        };
        let items = match role {
            Role::Mixed(classes, writes) => {
                let mut items = reads(classes);
                items.extend(std::iter::repeat_n(Draw::InsertOne, writes));
                items
            }
            Role::Reader(classes) => reads(classes),
            Role::Inserter(sizes) => sizes
                .iter()
                .flat_map(|&(rows, n)| std::iter::repeat_n(Draw::InsertBatch(rows), n))
                .collect(),
            Role::Writer => INGEST_MIX
                .round
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(Draw::Write(kind), n))
                .collect(),
        };
        ConnStream {
            deck: Deck::new(items, Rng::new(seed, 300 + conn as u64)),
            rng: Rng::new(seed, 100 + conn as u64),
            gen: RowGen::new(seed, 200 + conn as u64, (first_key + conn % 2) as i64, 2),
            writer: matches!(role, Role::Writer),
        }
    }

    pub fn is_writer(&self) -> bool {
        self.writer
    }

    /// The next request. The writer draws row ids from `model`, the
    /// state after its own last publish.
    pub fn next(&mut self, model: Option<&Model>) -> Req {
        match self.deck.draw() {
            Draw::Read(c) => Req::Read(c),
            Draw::InsertOne => Req::Write(Stmt::Insert(vec![self.gen.row()])),
            Draw::InsertBatch(rows) => Req::Write(Stmt::Insert(self.gen.rows(rows))),
            Draw::Write(kind) => Req::Write(next_write(
                kind,
                &mut self.rng,
                &mut self.gen,
                model.expect("the writer tracks the model"),
                &INGEST_MIX,
            )),
        }
    }
}

pub fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("nuc", DataType::Int),
        Field::new("nsc", DataType::Int),
        Field::new("cat", DataType::Int),
    ])
}

/// Builds one indexed table per model shard, laid out exactly as the
/// model holds it, with a NUC index on `nuc` and an NSC index on `nsc`
/// (both the sharded-bitmap design). Returns the tables and the seconds
/// spent in `IndexedTable::add_index`.
pub fn build_tables(model: &Model) -> (Vec<IndexedTable>, f64) {
    let mut index_build_s = 0.0;
    let tables = model
        .parts
        .iter()
        .enumerate()
        .map(|(s, parts)| {
            let mut t = Table::new(
                format!("shard{s}"),
                schema(),
                parts.len(),
                Partitioning::RoundRobin,
            );
            for (pid, rows) in parts.iter().enumerate() {
                let cols: Vec<ColumnData> = (0..NCOLS)
                    .map(|c| ColumnData::Int(rows.iter().map(|r| r[c]).collect()))
                    .collect();
                t.load_partition(pid, &cols);
            }
            t.propagate_all();
            let mut it = IndexedTable::new(t);
            let t0 = Instant::now();
            it.add_index(COL_NUC, Constraint::NearlyUnique, Design::Bitmap);
            it.add_index(
                COL_NSC,
                Constraint::NearlySorted(SortDir::Asc),
                Design::Bitmap,
            );
            index_build_s += t0.elapsed().as_secs_f64();
            it
        })
        .collect();
    (tables, index_build_s)
}

/// Splits a read request into its command word and query spec.
pub fn split_read(text: &str) -> (&str, QuerySpec) {
    let (word, rest) = text.split_once(' ').expect("command and spec");
    (word, QuerySpec::parse(rest).expect("workload specs parse"))
}

/// The response the server must give to `text`, computed index-free
/// over the given shard tables (epochs left out).
pub fn reference_response(text: &str, tables: &[&Table]) -> String {
    let (word, spec) = split_read(text);
    let plan = spec.fanout_plan();
    let mut rows = Vec::new();
    for t in tables {
        rows.extend(batch_rows(&execute(&plan, t, NO_INDEXES)));
    }
    let rows = canonical_rows(&spec, rows);
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

/// A response with its `epochs=` field removed (epochs differ between
/// runs; rows must not).
pub fn strip_epochs(resp: &str) -> String {
    let mut lines = resp.split('\n');
    let head: Vec<&str> = lines
        .next()
        .unwrap_or("")
        .split(' ')
        .filter(|tok| !tok.starts_with("epochs="))
        .collect();
    let mut out = head.join(" ");
    for line in lines {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// The visible rows of every partition of a table, in physical order.
pub fn visible_rows(t: &Table) -> Vec<Vec<Row>> {
    let cols: Vec<usize> = (0..NCOLS).collect();
    t.partitions()
        .iter()
        .map(|p| {
            let data = p.read_range(&cols, 0, p.visible_len());
            (0..p.visible_len())
                .map(|r| {
                    let mut row = [0i64; NCOLS];
                    for (c, col) in data.iter().enumerate() {
                        match col {
                            ColumnData::Int(v) => row[c] = v[r],
                            _ => unreachable!("all columns are Int"),
                        }
                    }
                    row
                })
                .collect()
        })
        .collect()
}

/// Index state summed over tables, per constraint.
#[derive(Default, Clone, Copy)]
pub struct IndexState {
    pub nuc_patches: u64,
    pub nsc_patches: u64,
    pub memory_bytes: u64,
    pub collision_rounds: u64,
    pub build_invocations: u64,
    pub probed_partitions: u64,
    pub maintained_rows: u64,
}

impl IndexState {
    pub fn of<'a>(indexes: impl IntoIterator<Item = &'a PatchIndex>) -> IndexState {
        let mut s = IndexState::default();
        for idx in indexes {
            let m = idx.maintenance_stats();
            match idx.constraint() {
                Constraint::NearlyUnique => s.nuc_patches += idx.exception_count(),
                _ => s.nsc_patches += idx.exception_count(),
            }
            s.memory_bytes += idx.memory_bytes() as u64;
            s.collision_rounds += m.collision_rounds;
            s.build_invocations += m.build_invocations;
            s.probed_partitions += m.probed_partitions;
            s.maintained_rows += m.maintained_rows;
        }
        s
    }

    pub fn patches(&self) -> u64 {
        self.nuc_patches + self.nsc_patches
    }

    pub fn record(&self, report: &mut crate::report::Report, prefix: &str, repeats: bool) {
        report.counter(
            format!("{prefix}.index.nuc_exception_count"),
            self.nuc_patches,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.nsc_exception_count"),
            self.nsc_patches,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.memory_bytes"),
            self.memory_bytes,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.collision_rounds"),
            self.collision_rounds,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.build_invocations"),
            self.build_invocations,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.probed_partitions"),
            self.probed_partitions,
            repeats,
        );
        report.counter(
            format!("{prefix}.index.maintained_rows"),
            self.maintained_rows,
            repeats,
        );
    }
}
