//! The engine clock: microseconds since process start, and the scheduler's
//! [`Clock`] on the same epoch.
//!
//! Every tuple entering the system is stamped with [`now_micros`] (the
//! implicit `ts` column of §2.2); emitters subtract it from "now" to
//! measure end-to-end latency. A monotonic, process-local epoch keeps
//! timestamps comparable across threads without wall-clock hazards. The
//! scheduler reads every time from one [`Clock`]: [`Clock::System`] counts
//! from this epoch, and a [`Clock::manual`] one moves only when a test
//! advances it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the engine epoch (first call wins the epoch).
pub fn now_micros() -> i64 {
    epoch().elapsed().as_micros() as i64
}

/// Force epoch initialization (call early in main for tidy timestamps).
pub fn init() {
    let _ = now_micros();
}

/// The scheduler clock: the process epoch, or a hand-moved counter.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// Real time since the engine epoch, the one `ts` counts from.
    #[default]
    System,
    /// Nanoseconds that move only by [`Clock::advance`]; clones share them.
    Manual(Arc<AtomicU64>),
}

impl Clock {
    /// A manual clock standing at 0.
    pub fn manual() -> Clock {
        Clock::Manual(Arc::new(AtomicU64::new(0)))
    }

    /// Nanoseconds since the epoch (a manual clock: since its creation).
    pub fn now_nanos(&self) -> u64 {
        match self {
            Clock::System => epoch().elapsed().as_nanos() as u64,
            Clock::Manual(nanos) => nanos.load(Ordering::Relaxed),
        }
    }

    /// Move a manual clock forward by `by`; the system clock ignores it.
    pub fn advance(&self, by: Duration) {
        if let Clock::Manual(nanos) = self {
            nanos.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
        assert!(a >= 0);
        let (c, d) = (Clock::System.now_nanos(), Clock::System.now_nanos());
        assert!(d >= c);
    }

    #[test]
    fn manual_moves_only_when_advanced() {
        let clock = Clock::manual();
        let shared = clock.clone();
        assert_eq!(clock.now_nanos(), 0);
        shared.advance(Duration::from_micros(3));
        assert_eq!(clock.now_nanos(), 3_000, "clones share one time");
    }
}
