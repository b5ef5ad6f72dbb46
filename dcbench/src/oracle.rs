//! The reference results, in plain Rust, and the order-insensitive digest
//! both sides are reduced to.
//!
//! The engine may deliver rows in any order and may cut the stream into
//! batches wherever its scheduler likes, so results are compared through
//! [`Acc`]: a row multiset checksum for the filter and the join, and per
//! (query, key) totals for the grouped aggregates — partial aggregates of
//! any batching sum to the same totals. The reference side feeds `Acc`
//! from the generated input by the query's definition; the measured side
//! feeds it the rows the engine delivered. Equal digests = correct.

use crate::spec::Kind;

/// Continuous queries of `embedded_multiquery`.
pub const QUERIES: usize = 16;
/// Distinct group keys of `embedded_multiquery`.
pub const MULTI_KEYS: usize = 256;
/// Rows per side per count window of `window_join`.
pub const JOIN_WINDOW: usize = 128;
/// `wire_filter` keeps `v < FILTER_BOUND` of `v` uniform in `[0, 1000)`.
pub const FILTER_BOUND: i64 = 500;

/// Inclusive `v` range of query `i` of `embedded_multiquery`.
pub fn multi_range(i: usize) -> (i64, i64) {
    let lo = 40 * i as i64;
    (lo, lo + 399)
}

/// Generated input of one phase: `n` rows of `width` ints, row-major.
/// For the join the rows alternate trade, quote, trade, ...
#[derive(Debug, Clone, Default)]
pub struct Input {
    pub width: usize,
    pub data: Vec<i64>,
}

impl Input {
    pub fn len(&self) -> usize {
        self.data.len() / self.width.max(1)
    }

    pub fn row(&self, i: usize) -> &[i64] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    pub fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// Append the first `n` rows of `other` (or all it has).
    pub fn extend_from(&mut self, other: &Input, n: usize) {
        self.width = other.width;
        self.data
            .extend_from_slice(&other.data[..n.min(other.len()) * other.width]);
    }
}

/// What a result stream reduces to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Progress unit the consumer waits on: result rows for the filter
    /// and the join, matched input tuples (the sum of `count(*)`) for the
    /// grouped aggregates, whose row count depends on batching.
    pub weight: u64,
    /// Order-insensitive checksum of the content.
    pub checksum: u64,
}

fn mix(mut h: u64, v: i64) -> u64 {
    h ^= v as u64;
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

fn row_hash(row: &[i64]) -> u64 {
    row.iter().fold(row.len() as u64, |h, &v| mix(h, v))
}

#[derive(Debug, Clone, Copy, Default)]
struct Group {
    count: i64,
    sum: i64,
    max: i64,
}

/// Order- and batching-insensitive accumulator of a result stream.
#[derive(Debug, Clone)]
pub struct Acc {
    kind: Kind,
    weight: u64,
    /// Rows absorbed (for the multi-query workload this is what varies
    /// with batching; reported, not compared).
    pub rows: u64,
    sum: u64,
    groups: Vec<Group>,
}

impl Acc {
    pub fn new(kind: Kind) -> Self {
        let groups = match kind {
            Kind::Multi => vec![Group::default(); QUERIES * MULTI_KEYS],
            Kind::Filter | Kind::Join => Vec::new(),
        };
        Acc {
            kind,
            weight: 0,
            rows: 0,
            sum: 0,
            groups,
        }
    }

    /// Absorb one result row of query `q`.
    pub fn absorb(&mut self, q: usize, row: &[i64]) {
        self.rows += 1;
        match self.kind {
            Kind::Filter | Kind::Join => {
                self.weight += 1;
                self.sum = self.sum.wrapping_add(row_hash(row));
            }
            Kind::Multi => {
                // (k, count, sum, max)
                let slot = usize::try_from(row[0])
                    .ok()
                    .filter(|&k| k < MULTI_KEYS && q < QUERIES && row.len() == 4)
                    .map(|k| q * MULTI_KEYS + k);
                match slot {
                    Some(s) => {
                        let g = &mut self.groups[s];
                        g.count += row[1];
                        g.sum += row[2];
                        g.max = g.max.max(row[3]);
                        self.weight += row[1].max(0) as u64;
                    }
                    // A key or query the reference cannot produce:
                    // poison the checksum so the digests differ.
                    None => self.sum = self.sum.wrapping_add(row_hash(row) | 1),
                }
            }
        }
    }

    pub fn weight(&self) -> u64 {
        self.weight
    }

    pub fn digest(&self) -> Digest {
        let mut checksum = self.sum;
        for (i, g) in self.groups.iter().enumerate() {
            if g.count != 0 {
                checksum = checksum.wrapping_add(row_hash(&[i as i64, g.count, g.sum, g.max]));
            }
        }
        Digest {
            weight: self.weight,
            checksum,
        }
    }
}

/// The reference computation: what the workload's queries must deliver
/// for `input`.
pub fn expect(kind: Kind, input: &Input) -> Digest {
    let mut acc = Acc::new(kind);
    expect_into(&mut acc, input);
    acc.digest()
}

/// [`expect`] for input that arrives in pieces: absorbs into `acc` what
/// the queries must deliver for `input`. A piece of join input must be a
/// whole number of window pairs, as every phase is.
pub fn expect_into(acc: &mut Acc, input: &Input) {
    match acc.kind {
        // select k, v, sent_us where v < 500
        Kind::Filter => {
            for row in input.rows().filter(|r| r[1] < FILTER_BOUND) {
                acc.absorb(0, row);
            }
        }
        // per query i: select k, count(*), sum(v), max(sent_us)
        //              where v between lo_i and hi_i group by k
        Kind::Multi => {
            for row in input.rows() {
                for q in 0..QUERIES {
                    let (lo, hi) = multi_range(q);
                    if (lo..=hi).contains(&row[1]) {
                        acc.absorb(q, &[row[0], 1, row[1], row[2]]);
                    }
                }
            }
        }
        // select t.k, t.seq, q.seq from trades t [rows 128], quotes q [rows 128]
        // where t.k = q.k: window w of trades joins window w of quotes;
        // a trailing partial window never closes and yields nothing.
        Kind::Join => {
            let pair = 2 * JOIN_WINDOW;
            for w in 0..input.len() / pair {
                let rows =
                    |side: usize| (0..JOIN_WINDOW).map(move |i| input.row(w * pair + 2 * i + side));
                for t in rows(0) {
                    for q in rows(1).filter(|q| q[0] == t[0]) {
                        acc.absorb(0, &[t[0], t[1], q[1]]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(width: usize, rows: &[&[i64]]) -> Input {
        Input {
            width,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let rows: [&[i64]; 3] = [&[1, 2, 3], &[4, 5, 6], &[1, 2, 3]];
        let mut a = Acc::new(Kind::Filter);
        let mut b = Acc::new(Kind::Filter);
        for r in rows {
            a.absorb(0, r);
        }
        for r in rows.iter().rev() {
            b.absorb(0, r);
        }
        assert_eq!(a.digest(), b.digest());
        // a duplicate, a swap of columns and a dropped row all show
        let mut c = b.clone();
        c.absorb(0, &[4, 5, 6]);
        assert_ne!(a.digest(), c.digest());
        let mut d = Acc::new(Kind::Filter);
        for r in [&[1, 2, 3], &[4, 6, 5], &[1, 2, 3]] {
            d.absorb(0, r);
        }
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.digest().weight, 3);
    }

    #[test]
    fn group_totals_ignore_how_the_stream_was_batched() {
        // one batch: key 7 count 3 sum 30 max 9
        let mut whole = Acc::new(Kind::Multi);
        whole.absorb(2, &[7, 3, 30, 9]);
        // the same tuples cut into two firings
        let mut split = Acc::new(Kind::Multi);
        split.absorb(2, &[7, 1, 10, 4]);
        split.absorb(2, &[7, 2, 20, 9]);
        assert_eq!(whole.digest(), split.digest());
        assert_eq!(whole.digest().weight, 3);
        // a wrong sum, or the right totals under another query, differ
        let mut wrong = Acc::new(Kind::Multi);
        wrong.absorb(2, &[7, 3, 31, 9]);
        assert_ne!(whole.digest(), wrong.digest());
        let mut other = Acc::new(Kind::Multi);
        other.absorb(3, &[7, 3, 30, 9]);
        assert_ne!(whole.digest(), other.digest());
        // an impossible key poisons instead of panicking
        let mut bad = Acc::new(Kind::Multi);
        bad.absorb(2, &[9_999, 3, 30, 9]);
        assert_ne!(bad.digest().checksum, 0);
    }

    #[test]
    fn filter_reference_keeps_the_lower_half() {
        let inp = input(3, &[&[1, 499, 10], &[2, 500, 20], &[3, 0, 30]]);
        let d = expect(Kind::Filter, &inp);
        assert_eq!(d.weight, 2);
        let mut acc = Acc::new(Kind::Filter);
        acc.absorb(0, &[3, 0, 30]);
        acc.absorb(0, &[1, 499, 10]);
        assert_eq!(acc.digest(), d);
    }

    #[test]
    fn multi_reference_counts_a_tuple_once_per_covering_range() {
        // v = 100 lies in ranges 0 (0..=399), 1 (40..=439), 2 (80..=479)
        let inp = input(3, &[&[5, 100, 77]]);
        let d = expect(Kind::Multi, &inp);
        assert_eq!(d.weight, 3);
        let mut acc = Acc::new(Kind::Multi);
        for q in 0..3 {
            acc.absorb(q, &[5, 1, 100, 77]);
        }
        assert_eq!(acc.digest(), d);
    }

    #[test]
    fn join_reference_pairs_equal_keys_within_a_window_only() {
        // two full windows; key 1 appears on both sides in window 0 only
        let mut data = Vec::new();
        for w in 0..2i64 {
            for i in 0..JOIN_WINDOW as i64 {
                let seq = w * JOIN_WINDOW as i64 + i;
                let tk = if w == 0 && i < 2 { 1 } else { 1000 + seq };
                let qk = if (w, i) == (0, 5) || (w, i) == (1, 0) {
                    1
                } else {
                    5000 + seq
                };
                data.extend_from_slice(&[tk, seq, qk, seq]);
            }
        }
        let inp = Input { width: 2, data };
        let d = expect(Kind::Join, &inp);
        assert_eq!(
            d.weight, 2,
            "trades 0 and 1 pair with quote 5; the window-1 quote finds no trade"
        );
        let mut acc = Acc::new(Kind::Join);
        acc.absorb(0, &[1, 1, 5]);
        acc.absorb(0, &[1, 0, 5]);
        assert_eq!(acc.digest(), d);
        // a trailing partial window yields nothing
        let mut partial = Input::default();
        partial.extend_from(&inp, 2 * JOIN_WINDOW + 10);
        assert_eq!(expect(Kind::Join, &partial).weight, 2);
        // and in pieces it is the same as in one go
        let mut acc = Acc::new(Kind::Join);
        for w in 0..2 {
            let piece = Input {
                width: 2,
                data: inp.data[w * 4 * JOIN_WINDOW..(w + 1) * 4 * JOIN_WINDOW].to_vec(),
            };
            expect_into(&mut acc, &piece);
        }
        assert_eq!(acc.digest(), d);
    }
}
