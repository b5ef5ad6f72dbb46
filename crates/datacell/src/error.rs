//! Error type for the DataCell layer.

use std::fmt;

use datacell_bat::BatError;
use datacell_sql::SqlError;

/// Errors raised by the stream engine.
#[derive(Debug, Clone, PartialEq)]
pub enum DataCellError {
    /// Kernel-level failure.
    Kernel(BatError),
    /// Front-end (parse/bind/plan) failure.
    Sql(SqlError),
    /// Catalog problems: unknown/duplicate baskets, factories, queries.
    Catalog(String),
    /// Invalid component wiring (e.g. a factory with no input baskets).
    Wiring(String),
    /// A component thread failed or disconnected.
    Runtime(String),
    /// A [`Subscription`](crate::client::Subscription)'s query is gone:
    /// dropped, or its session stopped. A clean shutdown signal, not a
    /// fault.
    Disconnected,
    /// A typed ingest or decode failed: the row did not match the schema
    /// (arity, type, or a malformed textual tuple).
    Decode(String),
    /// A bounded basket under
    /// [`OverflowPolicy::Reject`](crate::basket::OverflowPolicy) refused an
    /// append because it is at capacity. Raised by the basket itself, so
    /// every producer — receptors, factories, and
    /// [`StreamWriter`](crate::client::StreamWriter) flushes — observes
    /// the same backpressure signal.
    Backpressure {
        /// The basket that is full.
        basket: String,
        /// Tuples currently resident.
        resident: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The storage layer failed: a WAL append/sync could not complete, a
    /// segment file is corrupt or unreadable, or recovery hit an
    /// inconsistent data directory. Corrupt data is *never* served — the
    /// affected rows stay pending (reads) or in memory (spill writes).
    Storage(String),
}

impl fmt::Display for DataCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataCellError::Kernel(e) => write!(f, "kernel error: {e}"),
            DataCellError::Sql(e) => write!(f, "sql error: {e}"),
            DataCellError::Catalog(m) => write!(f, "catalog error: {m}"),
            DataCellError::Wiring(m) => write!(f, "wiring error: {m}"),
            DataCellError::Runtime(m) => write!(f, "runtime error: {m}"),
            DataCellError::Disconnected => f.write_str("channel disconnected"),
            DataCellError::Decode(m) => write!(f, "decode error: {m}"),
            DataCellError::Backpressure {
                basket,
                resident,
                capacity,
            } => write!(
                f,
                "backpressure: basket {basket} holds {resident} tuples (capacity {capacity})"
            ),
            DataCellError::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl From<datacell_storage::StorageError> for DataCellError {
    fn from(e: datacell_storage::StorageError) -> Self {
        DataCellError::Storage(e.to_string())
    }
}

impl std::error::Error for DataCellError {}

impl From<BatError> for DataCellError {
    fn from(e: BatError) -> Self {
        DataCellError::Kernel(e)
    }
}

impl From<SqlError> for DataCellError {
    fn from(e: SqlError) -> Self {
        DataCellError::Sql(e)
    }
}

/// Result alias for the stream engine.
pub type Result<T> = std::result::Result<T, DataCellError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let k: DataCellError = BatError::DivisionByZero.into();
        assert!(k.to_string().contains("kernel"));
        let s: DataCellError = SqlError::Bind("x".into()).into();
        assert!(s.to_string().contains("sql"));
        assert!(DataCellError::Wiring("no inputs".into())
            .to_string()
            .contains("wiring"));
    }
}
