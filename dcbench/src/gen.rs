//! Seeded input generation. The same `--seed` gives the same tuples in
//! the same order; the engine receives only the generated tuples, never
//! the seed. Input is generated phase by phase, before the phase's clock
//! starts.

use crate::oracle::{Input, MULTI_KEYS};
use crate::spec::{Kind, FILTER_KEYS, JOIN_HOT_PCT, JOIN_KEYS};

/// SplitMix64: tiny, seedable, and good enough for uniform keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// The tuple source of one run: one random stream across all phases, and
/// for the join a per-side sequence number that keeps counting across
/// phases (window `w` of a side is its tuples `128w .. 128w+127`).
#[derive(Debug)]
pub struct Generator {
    kind: Kind,
    rng: Rng,
    generated: u64,
}

impl Generator {
    pub fn new(kind: Kind, seed: u64) -> Self {
        Generator {
            kind,
            rng: Rng::new(seed),
            generated: 0,
        }
    }

    /// Columns of a generated tuple.
    pub fn width(&self) -> usize {
        match self.kind {
            Kind::Filter | Kind::Multi => 3,
            Kind::Join => 2,
        }
    }

    /// Generate the next `n` tuples into `out`, replacing its content
    /// (the buffer is reused: the generator frees nothing while the
    /// engine runs). `stamp(i)` is the value of the `sent_us` column of
    /// the `i`-th of them: its due time in the open-loop phase, a running
    /// number at saturation. The join's tuples are `(k, seq)` and carry
    /// no stamp: their due time is looked up by `seq`.
    pub fn fill(&mut self, out: &mut Input, n: u64, stamp: impl Fn(u64) -> u64) {
        out.width = self.width();
        out.data.clear();
        let data = &mut out.data;
        for i in 0..n {
            match self.kind {
                Kind::Filter => {
                    data.push(self.rng.below(FILTER_KEYS));
                    data.push(self.rng.below(1_000));
                    data.push(stamp(i) as i64);
                }
                Kind::Multi => {
                    data.push(self.rng.below(MULTI_KEYS as u64));
                    data.push(self.rng.below(1_000));
                    data.push(stamp(i) as i64);
                }
                Kind::Join => {
                    let hot = self.rng.below(100) < JOIN_HOT_PCT as i64;
                    let k = self.rng.below(JOIN_KEYS);
                    data.push(if hot { 0 } else { k });
                    data.push(((self.generated + i) / 2) as i64);
                }
            }
        }
        self.generated += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(g: &mut Generator, n: u64, stamp: impl Fn(u64) -> u64) -> Input {
        let mut out = Input::default();
        g.fill(&mut out, n, stamp);
        out
    }

    #[test]
    fn same_seed_same_tuples_other_seed_other_tuples() {
        for kind in [Kind::Filter, Kind::Multi, Kind::Join] {
            let a = phase(&mut Generator::new(kind, 42), 1_000, |i| i);
            let b = phase(&mut Generator::new(kind, 42), 1_000, |i| i);
            let c = phase(&mut Generator::new(kind, 43), 1_000, |i| i);
            assert_eq!(a.data, b.data);
            assert_ne!(a.data, c.data);
        }
    }

    #[test]
    fn join_sequence_numbers_run_on_across_phases() {
        let mut g = Generator::new(Kind::Join, 1);
        let first = phase(&mut g, 256, |_| 0);
        let second = phase(&mut g, 256, |_| 0);
        assert_eq!(first.row(0)[1], 0);
        assert_eq!(first.row(1)[1], 0, "trade 0 then quote 0");
        assert_eq!(first.row(255)[1], 127);
        assert_eq!(second.row(0)[1], 128);
    }

    #[test]
    fn values_stay_in_their_domains_and_the_hot_key_is_hot() {
        let f = phase(&mut Generator::new(Kind::Filter, 9), 10_000, |i| i);
        assert!(f
            .rows()
            .all(|r| (0..1_024).contains(&r[0]) && (0..1_000).contains(&r[1])));
        assert!(f.rows().enumerate().all(|(i, r)| r[2] == i as i64));
        let j = phase(&mut Generator::new(Kind::Join, 9), 100_000, |_| 0);
        let hot = j.rows().filter(|r| r[0] == 0).count();
        assert!((9_000..11_500).contains(&hot), "{hot}");
    }
}
