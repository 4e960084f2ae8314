//! Seeded inputs: the table, the per-connection request streams, and
//! the row model that mirrors what the program should hold.
//!
//! Everything here is a pure function of `--seed`. The program only
//! ever sees the generated rows and statement texts.

use patchindex::routing::shard_of;
use pi_storage::Value;

use crate::workload::SHARDS;

/// Columns: `k` (unique key, routing column), `nuc` (nearly unique),
/// `nsc` (nearly sorted ascending), `cat` (64-value dimension).
pub const NCOLS: usize = 4;
pub const COL_NUC: usize = 1;
pub const COL_NSC: usize = 2;
pub const CAT_VALUES: i64 = 64;
/// Share of rows that violate each approximate constraint (the paper's e).
pub const EXCEPTION_SHARE: f64 = 0.05;
/// Spacing of the sorted `nsc` values: row `k` sorts at `k * NSC_STEP`.
const NSC_STEP: i64 = 4;
/// Duplicate `nuc` values live above every unique one.
const NUC_POOL_BASE: i64 = 1 << 40;

pub type Row = [i64; NCOLS];

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    /// `n` distinct sorted values in `0..len` (`n <= len`).
    pub fn distinct_sorted(&mut self, n: usize, len: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(n);
        while out.len() < n {
            let v = self.below(len as u64) as usize;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Generates rows with the constraint shapes the indexes are built for.
/// Unique `nuc` values are an odd-multiplier bijection of the key (so
/// they never collide); a duplicate row takes a value from the pool,
/// always in pairs of rows that route to the same shard, so exactly
/// those rows are NUC patches of their shard's index.
pub struct RowGen {
    rng: Rng,
    salt: i64,
    next_key: i64,
    key_stride: i64,
    next_fresh: i64,
    pool: Vec<i64>,
    /// Per routing shard, a pool value held by one row so far.
    open_pair: [Option<i64>; SHARDS],
}

impl RowGen {
    /// Keys `first_key, first_key + key_stride, ...`; generators with
    /// disjoint key sequences never produce the same `k`. The unique
    /// `nuc` bijection depends on the seed only, so it is shared by
    /// every generator of a run.
    pub fn new(seed: u64, stream: u64, first_key: i64, key_stride: i64) -> RowGen {
        let salt = (Rng::new(seed, 0).next_u64() >> 25) as i64;
        RowGen {
            rng: Rng::new(seed, stream),
            salt,
            next_key: first_key,
            key_stride,
            // Keys above every key a run can reach keep the bijection
            // collision-free.
            next_fresh: (1 << 36) + ((stream as i64) << 28),
            pool: Vec::new(),
            open_pair: [None; SHARDS],
        }
    }

    /// The unique `nuc` value of key `k`.
    pub fn unique_nuc(&self, k: i64) -> i64 {
        (k.wrapping_mul(2_654_435_761) & 0xFF_FFFF_FFFF) ^ self.salt
    }

    /// The in-order `nsc` value of key `k`.
    pub fn sorted_nsc(k: i64) -> i64 {
        k * NSC_STEP
    }

    pub fn row(&mut self) -> Row {
        let k = self.next_key;
        self.next_key += self.key_stride;
        let nuc = if self.rng.chance(EXCEPTION_SHARE) {
            match self.open_pair[shard_of_key(k, SHARDS)].take() {
                Some(v) => v,
                None => {
                    let v = NUC_POOL_BASE + self.pool.len() as i64;
                    self.pool.push(v);
                    self.open_pair[shard_of_key(k, SHARDS)] = Some(v);
                    v
                }
            }
        } else {
            self.unique_nuc(k)
        };
        let nsc = if self.rng.chance(EXCEPTION_SHARE) {
            self.rng.below((Self::sorted_nsc(k) + 1) as u64 * 2) as i64
        } else {
            Self::sorted_nsc(k)
        };
        let cat = self.rng.below(CAT_VALUES as u64) as i64;
        [k, nuc, nsc, cat]
    }

    pub fn rows(&mut self, n: usize) -> Vec<Row> {
        (0..n).map(|_| self.row()).collect()
    }

    /// A fresh `nuc` value nobody holds (removes a duplicate when it
    /// overwrites one).
    pub fn fresh_unique_nuc(&mut self) -> i64 {
        self.next_fresh += 1;
        self.unique_nuc(self.next_fresh)
    }
}

pub fn row_values(row: &Row) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

pub fn shard_of_key(k: i64, nshards: usize) -> usize {
    shard_of(&Value::Int(k), nshards)
}

/// One write statement, as the benchmark generates it.
#[derive(Clone, Debug)]
pub enum Stmt {
    Insert(Vec<Row>),
    Modify {
        shard: usize,
        pid: usize,
        col: usize,
        rids: Vec<usize>,
        vals: Vec<i64>,
    },
    Delete {
        shard: usize,
        pid: usize,
        rids: Vec<usize>,
    },
}

impl Stmt {
    /// Rows the statement writes (the commit-throughput numerator).
    pub fn rows(&self) -> usize {
        match self {
            Stmt::Insert(rows) => rows.len(),
            Stmt::Modify { rids, .. } | Stmt::Delete { rids, .. } => rids.len(),
        }
    }

    /// Statement kind label for per-class reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Stmt::Insert(rows) if rows.len() == 1 => "insert1",
            Stmt::Insert(rows) if rows.len() > INGEST_MIX.insert_rows => "insert_bulk",
            Stmt::Insert(_) => "insert",
            Stmt::Modify { col, .. } if *col == COL_NUC => "modify_nuc",
            Stmt::Modify { .. } => "modify_nsc",
            Stmt::Delete { .. } => "delete",
        }
    }

    /// The wire text (`docs/WIRE_PROTOCOL.md`).
    pub fn wire(&self) -> String {
        match self {
            Stmt::Insert(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| r.iter().map(i64::to_string).collect::<Vec<_>>().join(","))
                    .collect();
                format!("INSERT {}", rows.join(";"))
            }
            Stmt::Modify {
                shard,
                pid,
                col,
                rids,
                vals,
            } => {
                let pairs: Vec<String> = rids
                    .iter()
                    .zip(vals)
                    .map(|(r, v)| format!("{r}={v}"))
                    .collect();
                format!("MODIFY {shard} {pid} {col} {}", pairs.join(","))
            }
            Stmt::Delete { shard, pid, rids } => {
                let rids: Vec<String> = rids.iter().map(usize::to_string).collect();
                format!("DELETE {shard} {pid} {}", rids.join(","))
            }
        }
    }
}

/// What the program should hold: per shard, per partition, the visible
/// rows in physical order, plus each shard's round-robin cursor. Rows
/// route to shards by the program's documented hash of `k` and to
/// partitions round-robin, one row at a time, in statement order.
#[derive(Clone)]
pub struct Model {
    pub parts: Vec<Vec<Vec<Row>>>,
    rr: Vec<usize>,
}

impl Model {
    /// Loads `rows` the way the bulk loader lays them out: hash-routed
    /// to shards, then dealt round-robin to partitions. The bulk path
    /// bypasses the tables' routing cursor, which stays at 0.
    pub fn load(rows: &[Row], nshards: usize, nparts: usize) -> Model {
        let mut parts = vec![vec![Vec::new(); nparts]; nshards];
        let mut dealt = vec![0usize; nshards];
        for row in rows {
            let s = shard_of_key(row[0], nshards);
            parts[s][dealt[s] % nparts].push(*row);
            dealt[s] += 1;
        }
        Model {
            parts,
            rr: vec![0; nshards],
        }
    }

    pub fn nshards(&self) -> usize {
        self.parts.len()
    }

    pub fn visible_rows(&self) -> usize {
        self.parts.iter().flatten().map(Vec::len).sum()
    }

    pub fn apply(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Insert(rows) => {
                let nshards = self.nshards();
                for row in rows {
                    let s = shard_of_key(row[0], nshards);
                    let nparts = self.parts[s].len();
                    let p = self.rr[s];
                    self.rr[s] = (p + 1) % nparts;
                    self.parts[s][p].push(*row);
                }
            }
            Stmt::Modify {
                shard,
                pid,
                col,
                rids,
                vals,
            } => {
                let part = &mut self.parts[*shard][*pid];
                for (&r, &v) in rids.iter().zip(vals) {
                    part[r][*col] = v;
                }
            }
            Stmt::Delete { shard, pid, rids } => {
                let part = &mut self.parts[*shard][*pid];
                let mut i = 0;
                part.retain(|_| {
                    let keep = rids.binary_search(&i).is_err();
                    i += 1;
                    keep
                });
            }
        }
    }

    /// A random partition holding at least `min` rows.
    fn pick_partition(&self, rng: &mut Rng, min: usize) -> (usize, usize) {
        loop {
            let s = rng.below(self.parts.len() as u64) as usize;
            let p = rng.below(self.parts[s].len() as u64) as usize;
            if self.parts[s][p].len() >= min {
                return (s, p);
            }
        }
    }

    /// A random visible row.
    fn pick_row(&self, rng: &mut Rng) -> Row {
        let (s, p) = self.pick_partition(rng, 1);
        let part = &self.parts[s][p];
        part[rng.below(part.len() as u64) as usize]
    }
}

/// A seeded deck: every round deals each item exactly as often as it
/// was put in, in a freshly shuffled order. Mixes drawn from a deck hold
/// their proportions exactly in every run; only the order depends on the
/// seed.
pub struct Deck<T: Copy> {
    items: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Deck<T> {
    pub fn new(items: Vec<T>, rng: Rng) -> Deck<T> {
        assert!(!items.is_empty(), "an empty deck deals nothing");
        let next = items.len();
        Deck { items, next, rng }
    }

    pub fn draw(&mut self) -> T {
        if self.next == self.items.len() {
            for i in (1..self.items.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.items.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    ModifyNuc,
    ModifyNsc,
    Delete,
}

/// Statement mix of the `ingest` and `durable_ingest` writers: how many
/// of each kind one round of the deck holds, plus the rows each
/// statement touches.
pub struct WriteMix {
    pub round: &'static [(WriteKind, usize)],
    pub insert_rows: usize,
    pub modify_rows: usize,
    pub delete_rows: usize,
}

/// 30% inserts, 30% `nuc` modifies, 25% `nsc` modifies, 15% deletes.
/// By latency `nsc` modifies and deletes < `nuc` modifies < inserts, so
/// p50 falls inside the `nuc`-modify band and p90 inside the insert band.
pub const INGEST_MIX: WriteMix = WriteMix {
    round: &[
        (WriteKind::Insert, 6),
        (WriteKind::ModifyNuc, 6),
        (WriteKind::ModifyNsc, 5),
        (WriteKind::Delete, 3),
    ],
    insert_rows: 64,
    modify_rows: 8,
    delete_rows: 16,
};

/// Builds the writer's next statement of the given kind against the
/// model's current state (the state after the benchmark's own last
/// `PUBLISH`). Half of each modify's rows get values that create
/// patches, half get values that remove them.
pub fn next_write(
    kind: WriteKind,
    rng: &mut Rng,
    gen: &mut RowGen,
    model: &Model,
    mix: &WriteMix,
) -> Stmt {
    let col = match kind {
        WriteKind::Insert => return Stmt::Insert(gen.rows(mix.insert_rows)),
        WriteKind::Delete => {
            let (shard, pid) = model.pick_partition(rng, mix.delete_rows * 4);
            let rids = rng.distinct_sorted(mix.delete_rows, model.parts[shard][pid].len());
            return Stmt::Delete { shard, pid, rids };
        }
        WriteKind::ModifyNuc => COL_NUC,
        WriteKind::ModifyNsc => COL_NSC,
    };
    let (shard, pid) = model.pick_partition(rng, mix.modify_rows);
    let part = &model.parts[shard][pid];
    let rids = rng.distinct_sorted(mix.modify_rows, part.len());
    let vals = rids
        .iter()
        .enumerate()
        .map(|(i, &r)| match (col, i % 2 == 0) {
            // Copy a value another row holds: both become patches.
            (COL_NUC, true) => model.pick_row(rng)[COL_NUC],
            (COL_NUC, false) => gen.fresh_unique_nuc(),
            (_, true) => rng.below(1 << 24) as i64,
            (_, false) => RowGen::sorted_nsc(part[r][0]),
        })
        .collect();
    Stmt::Modify {
        shard,
        pid,
        col,
        rids,
        vals,
    }
}
