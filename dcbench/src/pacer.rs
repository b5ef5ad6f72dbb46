//! The open-loop schedule: a burst of tuples every 1 ms tick at a fixed
//! rate, decided before the run and independent of how the engine keeps
//! up. A tuple's due time is the start of its tick; the producer stamps
//! that due time into the tuple, so a stall is charged to the tuples it
//! delayed and not hidden by a late send.

use std::time::{Duration, Instant};

/// Microseconds per tick.
pub const TICK_US: u64 = 1_000;

/// Tick-burst schedule at `rate` tuples per second.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: u64,
}

impl Schedule {
    pub fn new(rate: u64) -> Self {
        assert!(rate > 0, "open-loop rate must be positive");
        Schedule { rate }
    }

    /// Index of the first tuple due in tick `j` (= tuples due before it).
    pub fn first_of_tick(&self, j: u64) -> u64 {
        (u128::from(j) * u128::from(self.rate) / 1_000) as u64
    }

    /// The tick tuple `i` is due in.
    pub fn tick_of(&self, i: u64) -> u64 {
        let ticks = (u128::from(i + 1) * 1_000).div_ceil(u128::from(self.rate));
        ticks as u64 - 1
    }

    /// Due time of tuple `i`, in µs from the start of the phase.
    pub fn due_us(&self, i: u64) -> u64 {
        self.tick_of(i) * TICK_US
    }

    /// Tuples due in `ticks` ticks.
    pub fn tuples_in(&self, ticks: u64) -> u64 {
        self.first_of_tick(ticks)
    }
}

/// Sleep until `due_us` after `start`; returns how late the wake-up was
/// (0 when the deadline had not passed on return, which cannot happen
/// with `sleep`, or when the caller was already behind: then the lateness
/// is how far behind).
pub fn wait_until(start: Instant, due_us: u64) -> u64 {
    let due = Duration::from_micros(due_us);
    let now = start.elapsed();
    if now < due {
        std::thread::sleep(due - now);
    }
    (start.elapsed().as_micros() as u64).saturating_sub(due_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tuple_falls_in_the_tick_that_lists_it() {
        for rate in [1, 7, 999, 1_000, 1_001, 33_333, 90_000, 250_000] {
            let s = Schedule::new(rate);
            let n = s.tuples_in(3_000).min(20_000);
            for i in 0..n {
                let j = s.tick_of(i);
                assert!(
                    s.first_of_tick(j) <= i && i < s.first_of_tick(j + 1),
                    "rate {rate} tuple {i} tick {j}"
                );
                assert_eq!(s.due_us(i), j * TICK_US);
            }
        }
    }

    #[test]
    fn tick_bursts_add_up_to_the_rate() {
        let s = Schedule::new(90_000);
        assert_eq!(s.tuples_in(1_000), 90_000);
        assert_eq!(s.first_of_tick(1) - s.first_of_tick(0), 90);
        let s = Schedule::new(1_500);
        // 1.5 per tick: bursts alternate 1, 2
        assert_eq!(s.first_of_tick(1), 1);
        assert_eq!(s.first_of_tick(2), 3);
        assert_eq!(s.tuples_in(1_000), 1_500);
    }

    #[test]
    fn due_times_never_decrease() {
        let s = Schedule::new(12_345);
        let mut last = 0;
        for i in 0..50_000 {
            let d = s.due_us(i);
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn waiting_for_a_past_deadline_reports_how_far_behind() {
        let start = Instant::now() - Duration::from_millis(5);
        let late = wait_until(start, 1_000);
        assert!(late >= 4_000, "{late}");
    }
}
