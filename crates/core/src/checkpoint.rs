//! Recovery (paper, Section 3.4).
//!
//! PatchIndexes are main-memory structures; to keep the database log slim
//! the actual patch information is not logged. Two recovery strategies:
//!
//! * [`PatchIndex::recover`] — recreate from the table after a restart
//!   (the paper's default);
//! * [`PatchIndex::checkpoint`] / [`PatchIndex::load_checkpoint`] — persist
//!   the index state to disk as a checkpoint (hand-rolled little-endian
//!   codec; the dependency policy in DESIGN.md rules out serde formats).
//!
//! Checkpoints are written atomically (tmp + fsync + rename + parent-dir
//! fsync through [`DurableFs`]) and carry a CRC-32 trailer, so a crash
//! mid-write can neither corrupt the previous good copy nor leave a torn
//! file that loads silently. The byte-level codec
//! ([`PatchIndex::checkpoint_bytes`] / [`PatchIndex::load_checkpoint_bytes`])
//! is what the `pi-durability` crate embeds in its epoch checkpoints.

use std::io::{self, Read};
use std::path::Path;

use pi_storage::bytes::{
    bad, put_f64, put_i64, put_u32, put_u64, read_f64, read_i64, read_u32, read_u64,
};
use pi_storage::crc::crc32;
use pi_storage::dfs::{write_atomic, DurableFs, RealFs};
use pi_storage::Table;

use crate::constraint::{Constraint, Design};
use crate::index::{DriftBaseline, PartitionIndex, PatchIndex, QueryFeedback};
use crate::maintenance::MaintenanceStats;
use crate::store::PatchStore;

const MAGIC: &[u8; 4] = b"PIDX";
/// The only version read or written. The word after the design word
/// must be 1; a 0 marks a NUC index saved from a partition-local
/// discovery, which is rejected at load. The payload carries the
/// maintenance/drift/feedback counters, so a recovered index resumes
/// advisor monitoring where it left off, and ends in a CRC-32 trailer,
/// so torn or bit-flipped files are rejected instead of parsed.
const VERSION: u32 = 5;

impl PatchIndex {
    /// Recreates the index from the table — recovery after a shutdown or
    /// failure without a checkpoint.
    pub fn recover(table: &Table, col: usize, constraint: Constraint, design: Design) -> Self {
        PatchIndex::create(table, col, constraint, design)
    }

    /// Serializes the index to the current checkpoint format (v5,
    /// CRC-32 trailer included).
    ///
    /// # Panics
    /// Panics if deferred maintenance is pending: the value histories are
    /// not serialized, so a checkpoint taken mid-epoch could never be
    /// flushed into a consistent state after recovery. Flush first.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        assert!(
            !self.has_pending(),
            "flush deferred maintenance before checkpointing the index"
        );
        let mut b = Vec::new();
        b.extend_from_slice(MAGIC);
        put_u32(&mut b, VERSION);
        put_u32(&mut b, self.column() as u32);
        put_u32(&mut b, self.constraint().tag().into());
        put_u32(&mut b, matches!(self.design(), Design::Identifier) as u32);
        put_u32(&mut b, 1);
        // Monitoring counters: maintenance stats, drift baseline, query
        // feedback — the advisor's observe state survives recovery.
        let stats = self.maintenance_stats();
        put_u64(&mut b, stats.collision_rounds);
        put_u64(&mut b, stats.build_invocations);
        put_u64(&mut b, stats.probed_partitions);
        put_u64(&mut b, stats.maintained_rows);
        let baseline = self.baseline();
        put_f64(&mut b, baseline.match_fraction);
        put_u64(&mut b, baseline.patches);
        put_u64(&mut b, baseline.maintained_rows);
        let feedback = self.query_feedback();
        put_u64(&mut b, feedback.times_bound);
        put_f64(&mut b, feedback.est_cost_saved);
        put_u64(&mut b, feedback.measured_queries);
        put_f64(&mut b, feedback.actual_micros);
        put_f64(&mut b, feedback.est_cost_executed);
        put_u32(&mut b, self.partition_count() as u32);
        for pid in 0..self.partition_count() {
            let part = self.partition(pid);
            put_u64(&mut b, part.store.nrows());
            match part.last_sorted {
                Some(v) => {
                    put_u32(&mut b, 1);
                    put_i64(&mut b, v);
                }
                None => put_u32(&mut b, 0),
            }
            let rids = part.store.patch_rids();
            put_u64(&mut b, rids.len() as u64);
            for r in rids {
                put_u64(&mut b, r);
            }
        }
        let crc = crc32(&b);
        put_u32(&mut b, crc);
        b
    }

    /// Persists the index state to `path` atomically: the bytes land in a
    /// tmp file that is fsynced, renamed over `path`, and committed with
    /// a parent-directory fsync. A crash at any point leaves either the
    /// old checkpoint or the new one — never a torn mix.
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.checkpoint_via(&RealFs, path.as_ref())
    }

    /// [`PatchIndex::checkpoint`] through an explicit filesystem (the
    /// durability layer and the failpoint tests inject theirs here).
    pub fn checkpoint_via(&self, fs: &dyn DurableFs, path: &Path) -> io::Result<()> {
        write_atomic(fs, path, &self.checkpoint_bytes())
    }

    /// Loads a checkpoint written by [`PatchIndex::checkpoint`].
    pub fn load_checkpoint(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::load_checkpoint_via(&RealFs, path.as_ref())
    }

    /// [`PatchIndex::load_checkpoint`] through an explicit filesystem.
    pub fn load_checkpoint_via(fs: &dyn DurableFs, path: &Path) -> io::Result<Self> {
        Self::load_checkpoint_bytes(&fs.read(path)?)
    }

    /// Parses a checkpoint image. Rejects other versions, checksum
    /// mismatches, partition-local NUC images and trailing garbage with a
    /// clear [`io::ErrorKind::InvalidData`] error.
    pub fn load_checkpoint_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut header: &[u8] = bytes;
        let mut magic = [0u8; 4];
        header
            .read_exact(&mut magic)
            .map_err(|_| bad("not a PatchIndex checkpoint (too short)"))?;
        if &magic != MAGIC {
            return Err(bad("not a PatchIndex checkpoint"));
        }
        let version = read_u32(&mut header)?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported checkpoint version {version}"),
            ));
        }
        // The file ends in a CRC-32 of everything before it; verify
        // before trusting a single payload byte.
        if bytes.len() < 12 {
            return Err(bad("checkpoint truncated before checksum"));
        }
        let trailer_at = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[trailer_at..].try_into().unwrap());
        if crc32(&bytes[..trailer_at]) != stored {
            return Err(bad("checkpoint checksum mismatch (corrupt or torn file)"));
        }
        let mut r: &[u8] = &bytes[8..trailer_at];
        let column = read_u32(&mut r)? as usize;
        let constraint = Constraint::from_tag(read_u32(&mut r)?)?;
        let design = if read_u32(&mut r)? == 1 {
            Design::Identifier
        } else {
            Design::Bitmap
        };
        if read_u32(&mut r)? != 1 {
            // A NUC saved from a partition-local discovery: kept values may
            // repeat across partitions, so the distinct rewrite's
            // un-deduplicated union could not be served soundly.
            return Err(bad(
                "checkpoint of a partition-local NUC index (recreate the index)",
            ));
        }
        let stats = MaintenanceStats {
            collision_rounds: read_u64(&mut r)?,
            build_invocations: read_u64(&mut r)?,
            probed_partitions: read_u64(&mut r)?,
            maintained_rows: read_u64(&mut r)?,
        };
        let baseline = DriftBaseline {
            match_fraction: read_f64(&mut r)?,
            patches: read_u64(&mut r)?,
            maintained_rows: read_u64(&mut r)?,
        };
        let feedback = QueryFeedback {
            times_bound: read_u64(&mut r)?,
            est_cost_saved: read_f64(&mut r)?,
            measured_queries: read_u64(&mut r)?,
            actual_micros: read_f64(&mut r)?,
            est_cost_executed: read_f64(&mut r)?,
        };
        let nparts = read_u32(&mut r)? as usize;
        let mut parts = Vec::with_capacity(nparts);
        for _ in 0..nparts {
            let nrows = read_u64(&mut r)?;
            let last_sorted = if read_u32(&mut r)? == 1 {
                Some(read_i64(&mut r)?)
            } else {
                None
            };
            let count = read_u64(&mut r)? as usize;
            let mut rids = Vec::with_capacity(count);
            for _ in 0..count {
                rids.push(read_u64(&mut r)?);
            }
            parts.push(PartitionIndex {
                store: PatchStore::new(design, nrows, &rids),
                last_sorted,
            });
        }
        if !r.is_empty() {
            return Err(bad("trailing garbage after checkpoint payload"));
        }
        let mut idx = PatchIndex::from_parts(column, constraint, design, parts);
        idx.restore_meta(stats, baseline, feedback);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::SortDir;
    use pi_storage::dfs::SimFs;
    use pi_storage::{ColumnData, DataType, Field, Partitioning, Schema};
    use std::path::PathBuf;

    fn table() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![1, 5, 5, 9])]);
        t.load_partition(1, &[ColumnData::Int(vec![3, 3, 4])]);
        t.propagate_all();
        t
    }

    #[test]
    fn checkpoint_roundtrip() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let path = std::env::temp_dir().join("pi_checkpoint_roundtrip.pidx");
        idx.checkpoint(&path).unwrap();
        let loaded = PatchIndex::load_checkpoint(&path).unwrap();
        assert_eq!(loaded.column(), 0);
        assert_eq!(loaded.constraint(), Constraint::NearlyUnique);
        assert_eq!(loaded.exception_count(), idx.exception_count());
        for pid in 0..2 {
            assert_eq!(
                loaded.partition(pid).store.patch_rids(),
                idx.partition(pid).store.patch_rids()
            );
        }
        loaded.check_consistency(&t);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_preserves_nsc_anchor() {
        let t = table();
        let idx = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        let path = std::env::temp_dir().join("pi_checkpoint_nsc.pidx");
        idx.checkpoint(&path).unwrap();
        let loaded = PatchIndex::load_checkpoint(&path).unwrap();
        assert_eq!(
            loaded.partition(0).last_sorted,
            idx.partition(0).last_sorted
        );
        assert_eq!(loaded.design(), Design::Identifier);
        std::fs::remove_file(path).ok();
    }

    /// Replaces the CRC-32 trailer of a checkpoint image whose payload
    /// was edited, so the load gets past the checksum to the edit.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 4);
        let crc = crc32(&bytes);
        put_u32(&mut bytes, crc);
        bytes
    }

    #[test]
    fn design_migrated_index_roundtrips() {
        // Checkpointed as Bitmap over clean data; after loading, the
        // recompute migrates to Identifier (exception rate 0 is below the
        // crossover) and a fresh checkpoint round-trips the migrated
        // design with byte accounting intact.
        let mut t = Table::new(
            "t",
            Schema::new(vec![Field::new("v", DataType::Int)]),
            2,
            Partitioning::RoundRobin,
        );
        t.load_partition(0, &[ColumnData::Int(vec![1, 2, 3, 4])]);
        t.load_partition(1, &[ColumnData::Int(vec![5, 6, 7])]);
        t.propagate_all();
        let bitmap = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let mut idx = PatchIndex::load_checkpoint_bytes(&bitmap.checkpoint_bytes()).unwrap();
        assert_eq!(idx.design(), Design::Bitmap);
        idx.recompute(&t);
        assert_eq!(idx.design(), Design::Identifier);
        let path = std::env::temp_dir().join("pi_checkpoint_migrate_v5.pidx");
        idx.checkpoint(&path).unwrap();
        let loaded = PatchIndex::load_checkpoint(&path).unwrap();
        assert_eq!(loaded.design(), Design::Identifier);
        assert_eq!(loaded.memory_bytes(), idx.memory_bytes());
        for pid in 0..2 {
            assert_eq!(loaded.partition(pid).store.design(), Design::Identifier);
            assert_eq!(
                loaded.partition(pid).store.patch_rids(),
                idx.partition(pid).store.patch_rids()
            );
        }
        loaded.check_consistency(&t);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn partition_local_nuc_and_other_versions_are_rejected() {
        let t = table();
        let clean =
            PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap).checkpoint_bytes();
        // The word after magic, version, column, constraint and design.
        let mut local = clean.clone();
        local[20..24].copy_from_slice(&0u32.to_le_bytes());
        let err = PatchIndex::load_checkpoint_bytes(&reseal(local)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("partition-local"), "{err}");
        for version in [2u32, 3, 4, 6] {
            let mut other = clean.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            let err = PatchIndex::load_checkpoint_bytes(&reseal(other)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn checkpoint_bytes_match_the_pinned_layout() {
        const GOLDEN: &[&str] = &[
            "5049445805000000000000000000000000000000010000000000000000000000",
            "000000000000000000000000000000000000000000000000dcb66ddbb66ddb3f",
            "0400000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000200000004000000",
            "0000000000000000020000000000000001000000000000000200000000000000",
            "0300000000000000000000000200000000000000000000000000000001000000",
            "000000002a495b77504944580500000000000000020000000100000001000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "922449922449e23f030000000000000000000000000000000100000000000000",
            "0000000000000440010000000000000000000000008028400000000000000840",
            "0200000004000000000000000100000005000000000000000200000000000000",
            "0000000000000000030000000000000003000000000000000100000003000000",
            "0000000001000000000000000200000000000000e706549f",
        ];
        let t = table();
        let nuc = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let mut nsc = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Desc),
            Design::Identifier,
        );
        nsc.record_query_feedback(2.5);
        nsc.record_query_timing(12.25, 3.0);
        let hex: String = [nuc.checkpoint_bytes(), nsc.checkpoint_bytes()]
            .concat()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN.concat());
    }

    #[test]
    fn recover_equals_create() {
        let t = table();
        let a = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let b = PatchIndex::recover(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        assert_eq!(a.exception_count(), b.exception_count());
    }

    #[test]
    fn bad_magic_rejected() {
        let path = std::env::temp_dir().join("pi_checkpoint_bad.pidx");
        std::fs::write(&path, b"NOPE....").unwrap();
        assert!(PatchIndex::load_checkpoint(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bit_flip_anywhere_is_rejected() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let clean = idx.checkpoint_bytes();
        PatchIndex::load_checkpoint_bytes(&clean).unwrap();
        // Flipping any single bit past the version word must fail the
        // checksum (flips inside magic/version hit those checks first).
        for pos in [8, 13, 27, clean.len() / 2, clean.len() - 5, clean.len() - 1] {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x04;
            let err = PatchIndex::load_checkpoint_bytes(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "pos {pos}");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let t = table();
        let idx = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let clean = idx.checkpoint_bytes();
        for cut in [clean.len() - 1, clean.len() - 4, clean.len() / 2, 9] {
            assert!(
                PatchIndex::load_checkpoint_bytes(&clean[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_even_on_legacy_versions() {
        let t = table();
        let clean = PatchIndex::create(&t, 0, Constraint::NearlyConstant, Design::Bitmap)
            .checkpoint_bytes();
        // Junk between the payload and a trailer that checksums it: the
        // checksum passes, the parse must not.
        let mut bytes = clean[..clean.len() - 4].to_vec();
        bytes.extend_from_slice(b"junk");
        bytes.extend_from_slice(&[0; 4]);
        let err = PatchIndex::load_checkpoint_bytes(&reseal(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing garbage"), "{err}");
    }

    #[test]
    fn crash_mid_checkpoint_never_corrupts_the_previous_copy() {
        // The satellite-1 regression: overwrite an existing checkpoint
        // with the failpoint fs tripping at every io boundary; after
        // every crash the file must still load as one complete version —
        // the old one or the new one, never a torn mix.
        let t = table();
        let old = PatchIndex::create(&t, 0, Constraint::NearlyUnique, Design::Bitmap);
        let new = PatchIndex::create(
            &t,
            0,
            Constraint::NearlySorted(SortDir::Asc),
            Design::Identifier,
        );
        let path = PathBuf::from("/ckpt/idx.pidx");
        let mut saw_failure = false;
        for fuse in 1..12 {
            for seed in 0..6 {
                let fs = SimFs::new();
                old.checkpoint_via(&fs, &path).unwrap();
                fs.set_fuse(Some(fuse));
                let wrote = new.checkpoint_via(&fs, &path);
                saw_failure |= wrote.is_err();
                fs.crash(fuse * 1000 + seed);
                let loaded = PatchIndex::load_checkpoint_via(&fs, &path)
                    .expect("checkpoint must survive every crash point");
                let complete = [old.constraint(), new.constraint()];
                assert!(complete.contains(&loaded.constraint()));
                if wrote.is_ok() {
                    // The atomic protocol completed: only the new
                    // version may be visible.
                    assert_eq!(loaded.constraint(), new.constraint());
                }
            }
        }
        assert!(saw_failure, "fuse range must cover actual crash points");
    }
}
