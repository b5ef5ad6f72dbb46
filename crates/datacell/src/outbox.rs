//! A transition's output place, and the one rule every transition follows
//! when it is full (§2.4: a transition whose output place is bounded is
//! enabled only while that place has room).
//!
//! * **Ready.** While a result is held, the transition is ready exactly
//!   when the output admits all of the held rows, whatever its inputs
//!   hold. Otherwise it is ready only while the output admits at least one
//!   row, and only then do its inputs decide ([`Outbox::ready`]).
//! * **Deliver.** The held rows and then the new ones go out in one
//!   non-waiting append. If the output refuses it, all of them are held,
//!   in order, and go out first next time ([`Outbox::deliver`]). No
//!   firing waits.
//!
//! This is the only place that reads a transition's output room.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use datacell_engine::Chunk;
use parking_lot::Mutex;

use crate::basket::Basket;
use crate::error::{DataCellError, Result};
use crate::factory::{FactoryOutput, StepOutcome};

/// One output of a transition and the result rows it still holds.
pub struct Outbox {
    output: FactoryOutput,
    /// Computed rows the output has not taken yet, in order.
    held: Mutex<Option<Chunk>>,
    /// Rows in `held`, for [`Outbox::ready`] without the lock (the
    /// scheduler's signal orders a firing's store before the pass it wakes).
    held_rows: AtomicUsize,
}

impl Outbox {
    /// An outbox for `output`, holding nothing.
    pub fn new(output: FactoryOutput) -> Outbox {
        Outbox {
            output,
            held: Mutex::new(None),
            held_rows: AtomicUsize::new(0),
        }
    }

    /// The output basket (`None` for [`FactoryOutput::Discard`]).
    pub fn basket(&self) -> Option<&Arc<Basket>> {
        match &self.output {
            FactoryOutput::Basket(b) => Some(b),
            FactoryOutput::Discard => None,
        }
    }

    /// Rows computed and not yet delivered.
    pub fn held_rows(&self) -> usize {
        self.held_rows.load(Ordering::Relaxed)
    }

    /// One reading of the output's room: whether a non-waiting append of
    /// `taken + rows` rows, `taken` already promised to it, is admitted.
    pub(crate) fn room(&self) -> impl Fn(usize, usize) -> bool {
        let room = self.basket().and_then(|b| b.append_room());
        move |taken, rows| room.is_none_or(|r| r.admits(taken, rows))
    }

    /// The firing rule of a transition with these outputs: no output is
    /// full, and either one holds rows (which then all fit) or `inputs`
    /// says the transition's own condition holds. The inputs are asked
    /// first, so an idle transition reads no output.
    pub fn ready<'a, I>(outboxes: I, inputs: impl FnOnce() -> bool) -> bool
    where
        I: IntoIterator<Item = &'a Outbox> + Clone,
    {
        let held = outboxes.clone().into_iter().any(|o| o.held_rows() > 0);
        (held || inputs())
            && outboxes
                .into_iter()
                .all(|o| o.room()(0, o.held_rows().max(1)))
    }

    /// How many more rows every one of `outboxes` takes now, behind what
    /// it holds (`usize::MAX` if none is bounded). A transition that emits
    /// at most one row per output for each input tuple claims no more, so
    /// what it holds stays within its outputs' capacity.
    pub fn free<'a>(outboxes: impl IntoIterator<Item = &'a Outbox>) -> usize {
        outboxes
            .into_iter()
            .filter_map(|o| {
                let room = o.basket()?.append_room()?;
                Some(room.capacity.saturating_sub(room.resident + o.held_rows()))
            })
            .min()
            .unwrap_or(usize::MAX)
    }

    /// Append the held rows and then `fresh` in one non-waiting append,
    /// and hold `late` (rows computed when no room was left for them)
    /// behind whatever stays held. A refused append holds them all, in
    /// order; any other failure holds them too and is returned. The
    /// outcome counts the rows delivered (`produced`) and the new rows
    /// held. Owned rows that land whole become the output's resident rows
    /// without a copy.
    pub fn deliver(&self, fresh: Cow<'_, Chunk>, late: Option<Chunk>) -> Result<StepOutcome> {
        let mut held = self.held.lock();
        if let Some(rows) = held.as_mut() {
            rows.append(&fresh)?;
        }
        let fresh_rows = fresh.len();
        let mut rows = held.take().map_or(fresh, Cow::Owned);
        let n = rows.len();
        let appended = match (&self.output, &mut rows) {
            (_, rows) if rows.is_empty() => Ok(()),
            (FactoryOutput::Basket(b), Cow::Owned(rows)) => b.try_append_owned(rows),
            (FactoryOutput::Basket(b), Cow::Borrowed(rows)) => b.try_append_chunk(rows),
            (FactoryOutput::Discard, _) => Ok(()),
        };
        let mut outcome = StepOutcome::default();
        if appended.is_ok() {
            outcome.produced = n;
        } else {
            outcome.held = fresh_rows;
            *held = Some(rows.into_owned());
        }
        if let Some(late) = late.filter(|l| !l.is_empty()) {
            outcome.held += late.len();
            match held.as_mut() {
                Some(rows) => rows.append(&late)?,
                None => *held = Some(late),
            }
        }
        self.held_rows
            .store(held.as_ref().map_or(0, Chunk::len), Ordering::Relaxed);
        match appended {
            Err(e) if !matches!(e, DataCellError::Backpressure { .. }) => Err(e),
            _ => Ok(outcome),
        }
    }

    /// Drop the held rows: their transition will compute them again.
    pub(crate) fn discard(&self) {
        *self.held.lock() = None;
        self.held_rows.store(0, Ordering::Relaxed);
    }
}
