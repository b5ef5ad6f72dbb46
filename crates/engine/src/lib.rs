//! # datacell-engine — vectorized execution over the BAT kernel
//!
//! The engine interprets the front-end's physical plans with bulk operators,
//! MonetDB-style: every operator consumes and produces whole columns
//! ([`chunk::Chunk`]s of aligned [`datacell_bat::Column`]s), never a tuple at
//! a time. This is the half of the paper's performance argument that the
//! kernel provides; the DataCell layer adds the streaming half on top.
//!
//! Components:
//!
//! * [`table::Table`] / [`catalog::Catalog`] — relational storage as aligned
//!   column collections, plus the catalog that backs one-time queries;
//! * [`chunk::Chunk`] — the unit of data flow between operators;
//! * [`eval`] — vectorized scalar-expression evaluation;
//! * [`exec`] — the plan interpreter, including consuming basket scans that
//!   report which positions a basket expression removed.
//!
//! Statements reach this crate through one session, `datacell::DataCell`,
//! which runs one-time SQL over tables and baskets alike.

pub mod catalog;
pub mod chunk;
pub mod eval;
pub mod exec;
pub mod table;

pub use crate::catalog::Catalog;
pub use crate::chunk::Chunk;
pub use crate::exec::{execute, execute_traced, DataSource, ExecOutcome};
pub use crate::table::Table;
