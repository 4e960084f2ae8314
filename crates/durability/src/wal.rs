//! The statement write-ahead log.
//!
//! Every [`Statement`] against a [`crate::DurableWriter`] is validated
//! against the staging table, encoded as one WAL record and appended
//! **before** it is applied (validate → log → apply: a statement that
//! fails validation is never logged, and if the append fails the
//! statement is not applied, so the durable log always describes a
//! superset of the applied state and replays cleanly). Records live in
//! append-only segment files `wal-<startseq>.log`; each record is framed
//!
//! ```text
//! [len: u32][crc32(payload): u32][payload]
//! payload = [seq: u64][type: u8][body]
//! ```
//!
//! so a torn tail or a flipped bit is detected by the checksum and read
//! as end-of-segment, never parsed into a half statement. Sequence
//! numbers are contiguous across segments; the reader refuses any gap,
//! which is what lets it distinguish "stale pre-crash segment tail" from
//! "the log continues in the next segment".

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pi_obs::{Counter, Histogram, MetricsRegistry};
use pi_storage::bytes::{
    bad, put_f64, put_i64, put_str, put_u32, put_u64, read_f64, read_i64, read_str, read_u32,
    read_u64, read_u8,
};
use pi_storage::crc::crc32;
use pi_storage::dfs::DurableFs;
use pi_storage::Value;

use patchindex::{Constraint, Design, Statement};

/// When WAL appends are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every record — no acknowledged statement is ever lost.
    #[default]
    EveryRecord,
    /// fsync once per publish — an epoch is durable the moment
    /// `publish()` returns; statements inside an unpublished epoch may be
    /// lost (they would be discarded by recovery anyway — recovery always
    /// lands on a published prefix).
    EveryPublish,
    /// Never fsync the WAL explicitly; durability degrades to the atomic
    /// checkpoints written at publish time. Cheapest, weakest.
    OsBuffered,
}

const T_INSERT: u8 = 1;
const T_MODIFY: u8 = 2;
const T_DELETE: u8 = 3;
const T_ADD_INDEX: u8 = 4;
const T_DROP_INDEX: u8 = 5;
const T_RECOMPUTE: u8 = 6;
const T_FLUSH: u8 = 7;
const T_PUBLISH: u8 = 8;
const T_FEEDBACK: u8 = 9;
const T_TIMING: u8 = 10;

/// Upper bound on one frame's payload — anything larger is treated as a
/// corrupt length field, not an allocation request.
const MAX_PAYLOAD: u32 = 64 << 20;

pub(crate) fn put_value(b: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            b.push(0);
            put_i64(b, *i);
        }
        Value::Float(f) => {
            b.push(1);
            put_f64(b, *f);
        }
        Value::Str(s) => {
            b.push(2);
            put_str(b, s);
        }
    }
}

pub(crate) fn read_value(r: &mut impl Read) -> io::Result<Value> {
    match read_u8(r)? {
        0 => Ok(Value::Int(read_i64(r)?)),
        1 => Ok(Value::Float(read_f64(r)?)),
        2 => Ok(Value::Str(read_str(r)?)),
        t => Err(bad(&format!("unknown value tag {t}"))),
    }
}

fn put_rids(b: &mut Vec<u8>, rids: &[usize]) {
    put_u32(b, rids.len() as u32);
    for r in rids {
        put_u64(b, *r as u64);
    }
}

fn read_rids(r: &mut impl Read) -> io::Result<Vec<usize>> {
    let n = read_u32(r)?;
    (0..n).map(|_| Ok(read_u64(r)? as usize)).collect()
}

/// Appends `stmt`'s type tag and body to `b`.
fn encode(stmt: &Statement, b: &mut Vec<u8>) {
    match stmt {
        Statement::Insert(rows) => {
            b.push(T_INSERT);
            put_u32(b, rows.len() as u32);
            for row in rows {
                put_u32(b, row.len() as u32);
                for v in row {
                    put_value(b, v);
                }
            }
        }
        Statement::Modify {
            pid,
            rids,
            col,
            values,
        } => {
            b.push(T_MODIFY);
            put_u32(b, *pid as u32);
            put_u32(b, *col as u32);
            put_rids(b, rids);
            for v in values {
                put_value(b, v);
            }
        }
        Statement::Delete { pid, rids } => {
            b.push(T_DELETE);
            put_u32(b, *pid as u32);
            put_rids(b, rids);
        }
        Statement::AddIndex {
            col,
            constraint,
            design,
        } => {
            b.push(T_ADD_INDEX);
            put_u32(b, *col as u32);
            b.push(constraint.tag());
            b.push(matches!(design, Design::Identifier) as u8);
        }
        Statement::DropIndex { slot } => {
            b.push(T_DROP_INDEX);
            put_u32(b, *slot as u32);
        }
        Statement::Recompute { slot } => {
            b.push(T_RECOMPUTE);
            put_u32(b, *slot as u32);
        }
        Statement::Flush => b.push(T_FLUSH),
        Statement::Publish => b.push(T_PUBLISH),
        Statement::Feedback {
            slot,
            est_cost_saved,
        } => {
            b.push(T_FEEDBACK);
            put_u32(b, *slot as u32);
            put_f64(b, *est_cost_saved);
        }
        Statement::Timing {
            slot,
            actual_micros,
            est_cost,
        } => {
            b.push(T_TIMING);
            put_u32(b, *slot as u32);
            put_f64(b, *actual_micros);
            put_f64(b, *est_cost);
        }
    }
}

/// Reads one statement (type tag, then body) written by [`encode`].
/// Lengths come from the log, so nothing is preallocated from them.
fn decode(r: &mut impl Read) -> io::Result<Statement> {
    Ok(match read_u8(r)? {
        T_INSERT => {
            let nrows = read_u32(r)?;
            let rows = (0..nrows)
                .map(|_| {
                    let ncols = read_u32(r)?;
                    (0..ncols).map(|_| read_value(r)).collect()
                })
                .collect::<io::Result<_>>()?;
            Statement::Insert(rows)
        }
        T_MODIFY => {
            let pid = read_u32(r)? as usize;
            let col = read_u32(r)? as usize;
            let rids = read_rids(r)?;
            let values = rids
                .iter()
                .map(|_| read_value(r))
                .collect::<io::Result<_>>()?;
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            }
        }
        T_DELETE => Statement::Delete {
            pid: read_u32(r)? as usize,
            rids: read_rids(r)?,
        },
        T_ADD_INDEX => Statement::AddIndex {
            col: read_u32(r)? as usize,
            constraint: Constraint::from_tag(read_u8(r)?.into())?,
            design: if read_u8(r)? == 1 {
                Design::Identifier
            } else {
                Design::Bitmap
            },
        },
        T_DROP_INDEX => Statement::DropIndex {
            slot: read_u32(r)? as usize,
        },
        T_RECOMPUTE => Statement::Recompute {
            slot: read_u32(r)? as usize,
        },
        T_FLUSH => Statement::Flush,
        T_PUBLISH => Statement::Publish,
        T_FEEDBACK => Statement::Feedback {
            slot: read_u32(r)? as usize,
            est_cost_saved: read_f64(r)?,
        },
        T_TIMING => Statement::Timing {
            slot: read_u32(r)? as usize,
            actual_micros: read_f64(r)?,
            est_cost: read_f64(r)?,
        },
        t => return Err(bad(&format!("unknown record type {t}"))),
    })
}

fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

fn segment_start_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    digits.parse().ok()
}

/// Lists a directory's WAL segments in sequence order.
pub(crate) fn list_segments(fs: &dyn DurableFs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segs: Vec<(u64, PathBuf)> = fs
        .list(dir)?
        .into_iter()
        .filter_map(|p| segment_start_seq(&p).map(|s| (s, p)))
        .collect();
    segs.sort();
    Ok(segs)
}

/// Pre-registered registry handles for the WAL's hot path — one lookup
/// at attach time, atomic bumps per record afterwards.
#[derive(Debug)]
pub(crate) struct WalMetrics {
    pub appends: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub fsyncs: Arc<Counter>,
    pub fsync_nanos: Arc<Histogram>,
}

impl WalMetrics {
    pub fn new(registry: &MetricsRegistry) -> Self {
        WalMetrics {
            appends: registry.counter("wal.appends"),
            bytes: registry.counter("wal.bytes"),
            fsyncs: registry.counter("wal.fsyncs"),
            fsync_nanos: registry.histogram("wal.fsync_nanos"),
        }
    }
}

/// The append half of the WAL.
#[derive(Debug)]
pub(crate) struct WalWriter {
    fs: Arc<dyn DurableFs>,
    dir: PathBuf,
    sync: SyncPolicy,
    segment_bytes: usize,
    cur_seg: Option<PathBuf>,
    cur_seg_bytes: usize,
    next_seq: u64,
    /// Segments appended to since their last fsync.
    dirty_segs: Vec<PathBuf>,
    /// Whether a segment was created/removed since the last dir fsync.
    dir_dirty: bool,
    /// Total frame bytes appended (durability economics reporting).
    pub bytes_appended: u64,
    metrics: Option<WalMetrics>,
}

impl WalWriter {
    pub fn new(
        fs: Arc<dyn DurableFs>,
        dir: PathBuf,
        sync: SyncPolicy,
        segment_bytes: usize,
        next_seq: u64,
    ) -> Self {
        WalWriter {
            fs,
            dir,
            sync,
            segment_bytes: segment_bytes.max(1),
            cur_seg: None,
            cur_seg_bytes: 0,
            next_seq,
            dirty_segs: Vec::new(),
            dir_dirty: false,
            bytes_appended: 0,
            metrics: None,
        }
    }

    /// Starts reporting append counts/bytes and fsync latency to a
    /// metrics registry.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one statement (rolling segments as needed) and applies the
    /// per-record half of the sync policy. Returns the record's sequence
    /// number. On error nothing was logged: the caller must not apply
    /// the statement.
    pub fn append(&mut self, stmt: &Statement) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut payload = Vec::new();
        payload.extend_from_slice(&seq.to_le_bytes());
        encode(stmt, &mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);

        if self.cur_seg.is_none() || self.cur_seg_bytes >= self.segment_bytes {
            self.cur_seg = Some(self.dir.join(segment_name(seq)));
            self.cur_seg_bytes = 0;
            self.dir_dirty = true;
        }
        let seg = self.cur_seg.clone().expect("segment just ensured");
        self.fs.append(&seg, &frame)?;
        self.cur_seg_bytes += frame.len();
        self.bytes_appended += frame.len() as u64;
        self.next_seq += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.bytes.add(frame.len() as u64);
        }
        match self.sync {
            SyncPolicy::EveryRecord => {
                let start = Instant::now();
                self.fs.fsync(&seg)?;
                if self.dir_dirty {
                    self.fs.fsync_dir(&self.dir)?;
                    self.dir_dirty = false;
                }
                if let Some(m) = &self.metrics {
                    m.fsyncs.inc();
                    m.fsync_nanos.record(start.elapsed().as_nanos() as u64);
                }
            }
            SyncPolicy::EveryPublish | SyncPolicy::OsBuffered => {
                if !self.dirty_segs.contains(&seg) {
                    self.dirty_segs.push(seg);
                }
            }
        }
        Ok(seq)
    }

    /// Forces everything appended so far to stable storage (the
    /// publish-time half of [`SyncPolicy::EveryPublish`]).
    pub fn sync_all(&mut self) -> io::Result<()> {
        if self.dirty_segs.is_empty() && !self.dir_dirty {
            return Ok(());
        }
        let start = Instant::now();
        for seg in std::mem::take(&mut self.dirty_segs) {
            self.fs.fsync(&seg)?;
        }
        if self.dir_dirty {
            self.fs.fsync_dir(&self.dir)?;
            self.dir_dirty = false;
        }
        if let Some(m) = &self.metrics {
            m.fsyncs.inc();
            m.fsync_nanos.record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Removes every segment file (recovery finalization: the fresh
    /// checkpoint's high-water mark covers all of them). Removal failures
    /// are harmless — covered records are skipped at replay — so errors
    /// propagate only from the final dir fsync.
    pub fn remove_all_segments(&mut self) -> io::Result<()> {
        let mut removed = false;
        for (_, seg) in list_segments(self.fs.as_ref(), &self.dir)? {
            fs_remove_best_effort(self.fs.as_ref(), &seg, &mut removed);
        }
        self.cur_seg = None;
        self.cur_seg_bytes = 0;
        self.dirty_segs.clear();
        if removed {
            self.fs.fsync_dir(&self.dir)?;
        }
        Ok(())
    }
}

fn fs_remove_best_effort(fs: &dyn DurableFs, path: &Path, removed: &mut bool) {
    if fs.remove(path).is_ok() {
        *removed = true;
    }
}

/// Reads every decodable record from the WAL, in sequence order, starting
/// the count at `first_seq` (the sequence the oldest retained segment is
/// expected to start at; gaps before it are tolerated because compaction
/// removes whole leading segments).
///
/// Stops — without error — at the first torn or corrupt frame whose
/// segment has no contiguous successor, at any sequence gap, and at end
/// of log. This is deliberate: a checksum failure at the tail is
/// indistinguishable from a crash mid-append, and everything past it was
/// never acknowledged as durable.
pub(crate) fn read_log(fs: &dyn DurableFs, dir: &Path) -> io::Result<Vec<(u64, Statement)>> {
    let segs = list_segments(fs, dir)?;
    let mut out: Vec<(u64, Statement)> = Vec::new();
    let mut expect_seq: Option<u64> = None;
    for (start_seq, path) in segs {
        match expect_seq {
            // A segment that does not continue the sequence exactly is
            // stale (pre-crash leftovers past a tear) — stop.
            Some(e) if start_seq != e => break,
            // First segment: trust its own start seq.
            _ => {}
        }
        let data = fs.read(&path)?;
        let mut off = 0usize;
        let mut tore = false;
        while off + 8 <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
            if len > MAX_PAYLOAD || off + 8 + len as usize > data.len() {
                tore = true;
                break;
            }
            let payload = &data[off + 8..off + 8 + len as usize];
            if crc32(payload) != crc {
                tore = true;
                break;
            }
            let mut r: &[u8] = payload;
            let seq = read_u64(&mut r)?;
            let expected = expect_seq.unwrap_or(start_seq);
            if seq != expected {
                tore = true;
                break;
            }
            let stmt = decode(&mut r)?;
            if !r.is_empty() {
                return Err(bad("trailing bytes inside WAL record payload"));
            }
            out.push((seq, stmt));
            expect_seq = Some(seq + 1);
            off += 8 + len as usize;
        }
        if tore || off < data.len() {
            // Torn tail: later segments are only valid if they continue
            // the sequence exactly (the loop's gap check enforces it).
            continue;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patchindex::SortDir;
    use pi_storage::dfs::SimFs;

    fn sample_records() -> Vec<Statement> {
        vec![
            Statement::Insert(vec![
                vec![Value::Int(1), Value::Float(2.5), Value::Str("ab".into())],
                vec![Value::Int(2), Value::Float(-0.0), Value::Str("".into())],
            ]),
            Statement::Modify {
                pid: 3,
                rids: vec![0, 7],
                col: 1,
                values: vec![Value::Int(9), Value::Int(10)],
            },
            Statement::Delete {
                pid: 0,
                rids: vec![5],
            },
            Statement::AddIndex {
                col: 2,
                constraint: Constraint::NearlySorted(SortDir::Desc),
                design: Design::Identifier,
            },
            Statement::DropIndex { slot: 1 },
            Statement::Recompute { slot: 0 },
            Statement::Flush,
            Statement::Publish,
            Statement::Feedback {
                slot: 0,
                est_cost_saved: 12.25,
            },
            Statement::Timing {
                slot: 2,
                actual_micros: 8.5,
                est_cost: 64.0,
            },
        ]
    }

    #[test]
    fn roundtrip_through_segments() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        // Tiny segment budget: every record rolls a segment.
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 1);
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), records.len());
        for (i, (seq, rec)) in read.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(rec, &records[i]);
        }
    }

    /// The on-disk layout of every statement kind, framing included, as
    /// written by the encoder before the statement type moved into
    /// `patchindex`: WAL directories from either side of the move must
    /// stay mutually readable.
    #[test]
    fn segment_bytes_match_the_pinned_layout() {
        const GOLDEN: &[&str] = &[
            "4500000024979630010000000000000001020000000300000000010000000000",
            "0000010000000000000440020200000061620300000000020000000000000001",
            "00000000000000800200000000370000004684784e0200000000000000020300",
            "0000010000000200000000000000000000000700000000000000000900000000",
            "000000000a000000000000001900000053a1fd5c030000000000000003000000",
            "000100000005000000000000000f00000088b119a10400000000000000040200",
            "000002010d000000841d0762050000000000000005010000000d000000ff6cd1",
            "200600000000000000060000000009000000c4ec0c1c07000000000000000709",
            "000000843e0a530800000000000000081500000031b10db60900000000000000",
            "090000000000000000008028401d00000066bb15da0a000000000000000a0200",
            "000000000000000021400000000000005040",
        ];
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let hex: String = fs
            .read(&dir.join(segment_name(1)))
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN.concat());
        let read: Vec<Statement> = read_log(fs.as_ref(), &dir)
            .unwrap()
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        assert_eq!(read, sample_records());
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let seg = dir.join(segment_name(1));
        let full = fs.read(&seg).unwrap();
        // Rewrite a truncated copy: all but the last 3 bytes.
        fs.remove(&seg).unwrap();
        fs.append(&seg, &full[..full.len() - 3]).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), sample_records().len() - 1);
    }

    #[test]
    fn bit_flip_stops_at_the_flip() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        let seg = dir.join(segment_name(1));
        let len = fs.len(&seg).unwrap();
        fs.flip_bit(&seg, len - 10, 2);
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert!(read.len() < sample_records().len());
        for (i, (seq, _)) in read.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "prefix must stay contiguous");
        }
    }

    #[test]
    fn stale_segment_past_a_tear_is_ignored() {
        let fs = Arc::new(SimFs::new());
        let dir = PathBuf::from("/wal");
        // Segment 1 holds seqs 1-2 with a torn third record; a stale
        // pre-crash segment starting at seq 5 must not be replayed.
        let mut w = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 1 << 20, 1);
        w.append(&Statement::Flush).unwrap();
        w.append(&Statement::Publish).unwrap();
        w.append(&Statement::Flush).unwrap();
        let seg = dir.join(segment_name(1));
        let full = fs.read(&seg).unwrap();
        fs.remove(&seg).unwrap();
        fs.append(&seg, &full[..full.len() - 2]).unwrap();
        let mut stale = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 5);
        stale.append(&Statement::Publish).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), 2);
        // A successor that *does* continue the sequence is replayed.
        let mut cont = WalWriter::new(fs.clone(), dir.clone(), SyncPolicy::EveryRecord, 16, 3);
        cont.append(&Statement::Publish).unwrap();
        let read = read_log(fs.as_ref(), &dir).unwrap();
        assert_eq!(read.len(), 3);
        assert_eq!(read[2], (3, Statement::Publish));
    }
}
