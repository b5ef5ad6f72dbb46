//! # datacell — a data stream engine on top of a relational database kernel
//!
//! This crate is the paper's contribution (Liarou & Kersten, VLDB'09): the
//! DataCell layer that turns the relational stack underneath
//! (`datacell-bat` kernel, `datacell-sql` front-end, `datacell-engine`
//! executor) into a continuous-query engine — without new query operators.
//!
//! The architecture is the one in Figure 1 of the paper:
//!
//! ```text
//!   stream ──▶ StreamWriter ──▶ Basket B1 ──▶ Factory(Q) ──▶ Basket B2 ──▶ Subscription ──▶ client
//! ```
//!
//! * [`basket::Basket`] — the key data structure (§2.2): a locked,
//!   timestamped, main-memory table holding a portion of a stream. Tuples
//!   are removed once all relevant queries have consumed them.
//! * the receptors and emitters (§2.1) — the periphery exchanging flat
//!   relational tuples. A receptor is a [`StreamWriter`]: typed rows or
//!   textual lines decode straight into basket columns, on the caller's
//!   thread or on a network connection's. An emitter is a
//!   [`Subscription`]: a reader on its query's output basket that claims
//!   result chunks on the subscriber's own thread — the caller's, or a
//!   network `SUBSCRIBE` connection's, which writes each chunk to its
//!   socket ([`Subscription::claim_chunk`]). No delivery thread runs
//!   inside the engine.
//! * [`factory::Factory`] (§2.3) — a compiled continuous query plan with
//!   execution state saved between calls; re-invoked by the scheduler, it
//!   locks its baskets, processes input in bulk, appends results, unlocks
//!   (Algorithm 1).
//! * [`scheduler::Scheduler`] (§2.4) — the Petri-net engine: baskets are
//!   token places, receptors/factories/emitters are transitions, and a
//!   transition fires when all of its inputs hold tuples and its outputs
//!   have room ([`outbox::Outbox`], the one output rule;
//!   [`DataCell::petri_net`] draws the live net: writers, every
//!   transition the scheduler runs, subscribers).
//! * [`window`] (§3.1) — windowed processing *above* the kernel: a SQL
//!   window clause (`FROM s [ROWS 100 SLIDE 10]`) re-evaluates the
//!   unchanged plan per window on [`WindowJoin`], and
//!   [`window::BasicWindowAgg`] is the incremental basic-window method;
//!   both are built from ordinary relational operators plus scheduling.
//! * multi-query wiring (§2.5 strategies, §3.2 plan split) is plain SQL:
//!   separate baskets, predicate windows (partial deletes, §2.6) and plan
//!   sharing (`SET PLAN SHARING ON`, which cuts every shareable query into
//!   a shared head and a private tail) compose each topology — see
//!   `docs/mqo.md`.
//! * [`window_join`] — the transition behind every SQL window, one
//!   source or several with per-source specs
//!   (`FROM s1 [RANGE 10s SLIDE 5s], s2 [RANGE 5s] WHERE ...`), evaluated
//!   by the unchanged relational kernels.
//!
//! The front door is [`DataCell`]: a session that accepts standard SQL plus
//! the stream DDL (`CREATE BASKET`, `CREATE CONTINUOUS QUERY`,
//! `DROP/PAUSE/RESUME CONTINUOUS QUERY`) and manages the component threads.
//! Above it sits the typed [`client`] facade: sessions are configured with
//! [`DataCellBuilder`], rows go in through a schema-validated, batched
//! [`StreamWriter`], results come out as a typed [`Subscription`], and
//! every continuous query has a [`QueryHandle`] lifecycle
//! (pause / resume / drop).

pub mod basket;
pub mod catalog;
pub mod client;
pub mod clock;
pub mod error;
pub mod events;
pub mod factory;
pub mod metrics;
pub mod outbox;
pub mod petri;
pub(crate) mod planshare;
pub mod scheduler;
pub(crate) mod segments;
pub mod session;
pub mod text;
pub mod window;
pub mod window_join;

pub use datacell_bat::types::{DataType, Value};
pub use datacell_engine::Chunk;

pub use crate::basket::{Basket, BasketStats, Durability, OverflowPolicy, ReaderId};
pub use crate::client::{
    ChunkClaim, DataCellBuilder, FromRow, FromValue, IntoRow, QueryHandle, StreamWriter,
    Subscription, SubscriptionMode,
};
pub use crate::error::{DataCellError, Result};
pub use crate::events::{EngineEvent, EventKind, EventRing};
pub use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
pub use crate::scheduler::{SchedulePolicy, SchedulerMetrics};
pub use crate::session::{CellResult, DataCell};
pub use crate::window_join::WindowJoin;
