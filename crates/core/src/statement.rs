//! The one write-statement type. The server's shard writers,
//! `pi_durability::DurableWriter` and WAL replay all speak [`Statement`]:
//! [`Statement::validate`] checks it against the state it is about to
//! reach, [`Statement::apply`] is the single dispatch onto
//! [`IndexedTable`]. Callers validate first (as
//! [`crate::TableWriter::apply`] does), so storage and index asserts stay
//! internal invariants that valid statements never trip.

use std::fmt;

use pi_storage::{DataType, Table, Value};

use crate::constraint::{Constraint, Design};
use crate::indexed::IndexedTable;

/// One write statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// Rows inserted through the writer.
    Insert(Vec<Vec<Value>>),
    /// One column of one partition patched.
    Modify {
        /// Partition id.
        pid: usize,
        /// Visible rowIDs patched.
        rids: Vec<usize>,
        /// Column index.
        col: usize,
        /// Replacement values, one per rid.
        values: Vec<Value>,
    },
    /// Visible rows of one partition deleted.
    Delete {
        /// Partition id.
        pid: usize,
        /// Visible rowIDs deleted (pre-delete numbering).
        rids: Vec<usize>,
    },
    /// A PatchIndex created.
    AddIndex {
        /// Indexed column.
        col: usize,
        /// Constraint kind.
        constraint: Constraint,
        /// Bitmap or Identifier design.
        design: Design,
    },
    /// The index in `slot` dropped.
    DropIndex {
        /// Slot at drop time.
        slot: usize,
    },
    /// The index in `slot` recomputed from the table.
    Recompute {
        /// Slot at recompute time.
        slot: usize,
    },
    /// All deferred maintenance flushed explicitly.
    Flush,
    /// An epoch published (durable high-water marks point at these).
    Publish,
    /// Optimizer feedback recorded against the index in `slot`.
    Feedback {
        /// Slot at record time.
        slot: usize,
        /// Estimated planner cost saved.
        est_cost_saved: f64,
    },
    /// A measured query execution recorded against the index in `slot`.
    Timing {
        /// Slot at record time.
        slot: usize,
        /// Measured wall-clock micros.
        actual_micros: f64,
        /// Estimated cost of the chosen plan.
        est_cost: f64,
    },
}

/// Why a [`Statement`] does not apply to a table's current state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatementError {
    /// `(what, index, len)`: a partition, row, column or index slot past
    /// the end (rows count the partition's visible rows).
    OutOfRange(&'static str, usize, usize),
    /// `(col, type)`: an index on a column of this type.
    Unindexable(usize, DataType),
    /// `(rids, values)`: a modify whose rowID and value counts differ.
    Arity(usize, usize),
    /// `(col, expected, found)`: a value of the wrong type.
    Type(usize, DataType, DataType),
    /// `(width, columns)`: an inserted row of the wrong width.
    RowWidth(usize, usize),
}

impl fmt::Display for StatementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange(what, i, n) => write!(f, "{what} {i} out of range (len {n})"),
            Self::Unindexable(col, t) => write!(f, "column {col} of type {t:?} cannot be indexed"),
            Self::Arity(r, v) => write!(f, "{r} row ids but {v} values"),
            Self::Type(col, want, got) => write!(f, "column {col} holds {want:?}, got {got:?}"),
            Self::RowWidth(w, n) => write!(f, "row has {w} values, schema has {n}"),
        }
    }
}

impl std::error::Error for StatementError {}

/// `Ok(())` when `i < len`.
fn in_range(what: &'static str, i: usize, len: usize) -> Result<(), StatementError> {
    if i < len {
        Ok(())
    } else {
        Err(StatementError::OutOfRange(what, i, len))
    }
}

fn check_value(col: usize, dtype: DataType, v: &Value) -> Result<(), StatementError> {
    let found = v.data_type();
    if found == dtype || (found == DataType::Int && dtype.is_int_backed()) {
        Ok(())
    } else {
        Err(StatementError::Type(col, dtype, found))
    }
}

fn check_rids(table: &Table, pid: usize, rids: &[usize]) -> Result<(), StatementError> {
    in_range("partition", pid, table.partition_count())?;
    let visible = table.partition(pid).visible_len();
    rids.iter()
        .try_for_each(|&rid| in_range("row", rid, visible))
}

impl Statement {
    /// Checks the statement against a state given by its `table` and
    /// its number of indexes: partition, rowIDs, column, rids/values
    /// arity, value types, row width and index slot. `Ok` means
    /// [`Statement::apply`] on an [`IndexedTable`] in that state cannot
    /// trip a storage or index assert. Writers check their staging
    /// table; the server checks a published snapshot at admission.
    pub fn validate(&self, table: &Table, nindexes: usize) -> Result<(), StatementError> {
        let fields = table.schema().fields();
        match self {
            Statement::Insert(rows) => rows.iter().try_for_each(|row| {
                if row.len() != fields.len() {
                    return Err(StatementError::RowWidth(row.len(), fields.len()));
                }
                let mut cells = row.iter().zip(fields).enumerate();
                cells.try_for_each(|(col, (v, f))| check_value(col, f.dtype, v))
            }),
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            } => {
                in_range("column", *col, fields.len())?;
                if rids.len() != values.len() {
                    return Err(StatementError::Arity(rids.len(), values.len()));
                }
                check_rids(table, *pid, rids)?;
                let dtype = fields[*col].dtype;
                values.iter().try_for_each(|v| check_value(*col, dtype, v))
            }
            Statement::Delete { pid, rids } => check_rids(table, *pid, rids),
            Statement::AddIndex { col, .. } => {
                in_range("column", *col, fields.len())?;
                match fields[*col].dtype {
                    DataType::Float => Err(StatementError::Unindexable(*col, DataType::Float)),
                    _ => Ok(()),
                }
            }
            Statement::DropIndex { slot }
            | Statement::Recompute { slot }
            | Statement::Feedback { slot, .. }
            | Statement::Timing { slot, .. } => in_range("index slot", *slot, nindexes),
            Statement::Flush | Statement::Publish => Ok(()),
        }
    }

    /// Applies the statement to `it`. `Publish` flushes pending
    /// maintenance (only flushed epochs are published); epoch
    /// bookkeeping is the caller's.
    ///
    /// # Panics
    /// If the statement does not [`validate`](Statement::validate)
    /// against `it`.
    pub fn apply(&self, it: &mut IndexedTable) {
        match self {
            Statement::Insert(rows) => {
                it.insert(rows);
            }
            Statement::Modify {
                pid,
                rids,
                col,
                values,
            } => it.modify(*pid, rids, *col, values),
            Statement::Delete { pid, rids } => it.delete(*pid, rids),
            Statement::AddIndex {
                col,
                constraint,
                design,
            } => {
                it.add_index(*col, *constraint, *design);
            }
            Statement::DropIndex { slot } => {
                it.drop_index(*slot);
            }
            Statement::Recompute { slot } => it.recompute_index(*slot),
            Statement::Flush | Statement::Publish => it.flush_maintenance(),
            Statement::Feedback {
                slot,
                est_cost_saved,
            } => it.record_query_feedback(*slot, *est_cost_saved),
            Statement::Timing {
                slot,
                actual_micros,
                est_cost,
            } => it.record_query_timing(*slot, *actual_micros, *est_cost),
        }
    }
}
