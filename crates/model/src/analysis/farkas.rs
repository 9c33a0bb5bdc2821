//! The Farkas kernel shared by every cone enumeration: P-semiflows,
//! T-semiflows and both monotone-potential cones.
//!
//! [`farkas_annul`] annuls one column at a time by combining every
//! positive/negative row pair and keeping each new row once.  The "once" is
//! an open-addressed [`RowIndex`] of row ids into the table being built, so
//! a candidate costs one hash and, on a probe hit, one row comparison —
//! instead of a scan over up to [`FARKAS_ROW_CAP`] rows.  The index keeps
//! no copy of any row.  Candidates are pushed in the same order as a linear
//! scan would push them, so the rows, their order and the truncation point
//! do not depend on the index.
//!
//! [`retain_minimal_support`] then drops every row whose support strictly
//! contains another row's support, comparing packed `u64` bitsets.
//!
//! Under `cfg(test)` the pre-index linear-scan kernels stay as oracles, and
//! a differential proptest checks that every public enumeration returns
//! byte-identical results through either kernel.
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use crn_numeric::gcd_i128;

/// A Farkas table: one weight row per generator.
pub(super) type Table = Vec<Vec<i128>>;

/// The two steps a cone enumeration is built from.  Production code uses
/// [`Kernel::INDEXED`]; the tests swap in the linear-scan oracles.
#[derive(Clone, Copy)]
pub(super) struct Kernel {
    /// Annuls the first `annul` columns of a table, keeping at most
    /// `max_rows` rows per column; see [`farkas_annul`].
    pub(super) annul: fn(Table, usize, usize) -> (Table, bool),
    /// Keeps the rows of minimal support; see [`retain_minimal_support`].
    pub(super) retain_minimal: fn(&mut Table),
}

impl Kernel {
    /// The hash-indexed annulment and the bitset support filter.
    pub(super) const INDEXED: Kernel = Kernel {
        annul: farkas_annul,
        retain_minimal: retain_minimal_support,
    };
}

/// Runs the Farkas annulment loop over the first `annul` columns of `table`,
/// combining positive/negative row pairs with positive coefficients and
/// keeping at most `max_rows` intermediate rows per column.  Returns the
/// surviving rows (whose first `annul` entries are all zero) and whether the
/// cap cut the enumeration short.
///
/// A combined row is reduced by its gcd and kept only when no equal row is
/// already in the next table, rows carried over unchanged included.  Each
/// row is hashed once, when it enters a table: a carried-over row keeps its
/// hash from column to column.
pub(super) fn farkas_annul(mut table: Table, annul: usize, max_rows: usize) -> (Table, bool) {
    let mut truncated = false;
    let mut combined: Vec<i128> = Vec::new();
    let mut hashes: Vec<u64> = table.iter().map(|row| hash_row(row)).collect();
    for col in 0..annul {
        let mut next = Vec::new();
        let mut next_hashes = Vec::new();
        let mut nonzero = Vec::new();
        for (row, hash) in table.drain(..).zip(hashes.drain(..)) {
            if row[col] == 0 {
                next.push(row);
                next_hashes.push(hash);
            } else {
                nonzero.push(row);
            }
        }
        let mut index = RowIndex::over(next_hashes);
        let positive: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] > 0).collect();
        let negative: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] < 0).collect();
        'pairs: for p in &positive {
            for n in &negative {
                let a = -n[col];
                let b = p[col];
                combined.clear();
                combined.extend(p.iter().zip(n.iter()).map(|(&x, &y)| a * x + b * y));
                debug_assert_eq!(combined[col], 0);
                if let Some(g) = row_gcd(&combined) {
                    for w in &mut combined {
                        *w /= g;
                    }
                }
                index.push_new(&mut next, &combined);
                if next.len() >= max_rows {
                    truncated = true;
                    break 'pairs;
                }
            }
        }
        table = next;
        hashes = index.hashes;
    }
    (table, truncated)
}

/// The gcd of a row's entries when it exceeds one, `None` otherwise.  Zero
/// entries are skipped and the fold stops once the gcd reaches one, which
/// no later entry can change: most combined rows are sparse and primitive.
fn row_gcd(row: &[i128]) -> Option<i128> {
    let mut g = 0i128;
    for &w in row {
        if w != 0 {
            g = gcd_i128(g, w);
            if g == 1 {
                return None;
            }
        }
    }
    (g > 1).then_some(g)
}

/// No row id: marks a free slot of a [`RowIndex`].
const EMPTY: u32 = u32::MAX;

/// An open-addressed hash set of row ids into a table the caller owns.  A
/// slot holds the id of a row; the row itself is only read on a probe whose
/// stored hash matches.  The load factor stays at most one half.
struct RowIndex {
    /// Row ids, [`EMPTY`] where free; the length is a power of two.
    slots: Vec<u32>,
    /// The hash of row `id`, for every row of the table.
    hashes: Vec<u64>,
}

impl RowIndex {
    /// Indexes a table whose row `id` hashes to `hashes[id]`, duplicates
    /// included.
    fn over(hashes: Vec<u64>) -> RowIndex {
        let mut index = RowIndex {
            slots: Vec::new(),
            hashes,
        };
        index.rebuild((2 * index.hashes.len()).next_power_of_two().max(16));
        index
    }

    /// Appends a copy of `row` to `rows` unless an equal row is there.
    /// `rows` must be the table this index was built over, grown only
    /// through this method.
    fn push_new(&mut self, rows: &mut Vec<Vec<i128>>, row: &[i128]) {
        let hash = hash_row(row);
        let slot = self.free_slot(hash, |id| rows[id] == row);
        if slot != usize::MAX {
            self.occupy(slot, hash);
            rows.push(row.to_vec());
        }
    }

    /// The first free slot on `hash`'s probe sequence, or `usize::MAX` when
    /// a row with that hash satisfies `equal` first.
    fn free_slot(&self, hash: u64, equal: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        #[allow(clippy::cast_possible_truncation)]
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return slot;
            }
            let id = id as usize;
            if self.hashes[id] == hash && equal(id) {
                return usize::MAX;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Stores the next row id in the free `slot`, doubling the table when it
    /// passes half full.
    fn occupy(&mut self, slot: usize, hash: u64) {
        let id = u32::try_from(self.hashes.len()).expect("row ids fit in u32");
        self.slots[slot] = id;
        self.hashes.push(hash);
        if 2 * self.hashes.len() > self.slots.len() {
            self.rebuild(2 * self.slots.len());
        }
    }

    /// Re-slots every row id into `len` (a power of two) slots, from the
    /// stored hashes alone.
    fn rebuild(&mut self, len: usize) {
        self.slots = vec![EMPTY; len];
        let mask = len - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let mut slot = hash as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = u32::try_from(id).expect("row ids fit in u32");
        }
    }
}

/// A 64-bit hash of a row: a multiply-rotate fold over both halves of every
/// entry, then a final avalanche so the low bits (the slot) depend on every
/// entry.
fn hash_row(row: &[i128]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0;
    for &w in row {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let (lo, hi) = (w as u64, (w >> 64) as u64);
        h = (h.rotate_left(5) ^ lo).wrapping_mul(K);
        h = (h.rotate_left(5) ^ hi).wrapping_mul(K);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(K);
    h ^ (h >> 29)
}

/// Something with a support: a set of indices.
pub(super) trait Support {
    /// Calls `f` on every index of the support.
    fn for_each_index(&self, f: impl FnMut(usize));
}

/// A weight row's support is its nonzero entries.
impl Support for Vec<i128> {
    fn for_each_index(&self, mut f: impl FnMut(usize)) {
        for (i, &w) in self.iter().enumerate() {
            if w != 0 {
                f(i);
            }
        }
    }
}

/// An index set is its own support.
impl Support for Vec<usize> {
    fn for_each_index(&self, f: impl FnMut(usize)) {
        self.iter().copied().for_each(f);
    }
}

/// Drops every item whose support strictly contains another item's support,
/// keeping the survivors in order.  Items with empty support are kept
/// untouched (and must not occur alongside nonempty ones, or they would
/// knock everything out).
///
/// Supports are packed into `u64` words: item `j` knocks item `i` out when
/// `sup(j) & !sup(i)` is zero in every word and `sup(i) & !sup(j)` is not.
pub(super) fn retain_minimal_support<T: Support>(items: &mut Vec<T>) {
    let mut width = 0;
    for item in items.iter() {
        item.for_each_index(|i| width = width.max(i + 1));
    }
    let words = width.div_ceil(64);
    let mut supports = vec![0u64; items.len() * words];
    for (k, item) in items.iter().enumerate() {
        item.for_each_index(|i| supports[k * words + i / 64] |= 1 << (i % 64));
    }
    let support_of = |k: usize| &supports[k * words..(k + 1) * words];
    let minimal: Vec<bool> = (0..items.len())
        .map(|i| {
            let sup = support_of(i);
            !(0..items.len()).any(|j| {
                let other = support_of(j);
                i != j
                    && other.iter().zip(sup).all(|(&o, &s)| o & !s == 0)
                    && sup.iter().zip(other).any(|(&s, &o)| s & !o != 0)
            })
        })
        .collect();
    let mut keep = minimal.into_iter();
    items.retain(|_| keep.next().expect("one flag per item"));
}

#[cfg(test)]
pub(super) mod oracle {
    //! The linear-scan kernels the indexed ones replaced, kept as
    //! differential oracles.

    use super::{gcd_i128, Kernel, Table};

    /// The linear-scan annulment and the `Vec<bool>` support filter.
    pub(in crate::analysis) const SCAN: Kernel = Kernel {
        annul: farkas_annul,
        retain_minimal: retain_minimal_support,
    };

    /// [`super::farkas_annul`], deduplicating by a scan of the next table.
    pub(in crate::analysis) fn farkas_annul(
        mut table: Table,
        annul: usize,
        max_rows: usize,
    ) -> (Table, bool) {
        let mut truncated = false;
        for col in 0..annul {
            let (zero, nonzero): (Vec<_>, Vec<_>) = table.drain(..).partition(|row| row[col] == 0);
            let mut next = zero;
            let positive: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] > 0).collect();
            let negative: Vec<&Vec<i128>> = nonzero.iter().filter(|row| row[col] < 0).collect();
            'pairs: for p in &positive {
                for n in &negative {
                    let a = -n[col];
                    let b = p[col];
                    let mut combined: Vec<i128> = p
                        .iter()
                        .zip(n.iter())
                        .map(|(&x, &y)| a * x + b * y)
                        .collect();
                    let g = combined.iter().fold(0i128, |acc, &w| gcd_i128(acc, w));
                    if g > 1 {
                        for w in &mut combined {
                            *w /= g;
                        }
                    }
                    if !next.contains(&combined) {
                        next.push(combined);
                    }
                    if next.len() >= max_rows {
                        truncated = true;
                        break 'pairs;
                    }
                }
            }
            table = next;
        }
        (table, truncated)
    }

    /// [`super::retain_minimal_support`] over `Vec<bool>` supports.
    pub(in crate::analysis) fn retain_minimal_support(rows: &mut Table) {
        let supports: Vec<Vec<bool>> = rows
            .iter()
            .map(|row| row.iter().map(|&w| w != 0).collect())
            .collect();
        let minimal: Vec<bool> = supports
            .iter()
            .enumerate()
            .map(|(i, sup)| {
                !supports.iter().enumerate().any(|(j, other)| {
                    i != j
                        && other.iter().zip(sup).all(|(&o, &s)| !o || s)
                        && sup.iter().zip(other).any(|(&s, &o)| s && !o)
                })
            })
            .collect();
        let mut keep = minimal.into_iter();
        rows.retain(|_| keep.next().expect("one flag per row"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::bounds::SpeciesBounds;
    use crate::analysis::invariants::{nonnegative_laws_capped, semiflows_with};
    use crate::analysis::stoichiometry::Stoichiometry;
    use crate::analysis::t_invariants::nonnegative_t_semiflows;
    use crate::compiled::CompiledCrn;
    use crate::crn::Crn;
    use crate::reaction::Reaction;
    use crate::species::Species;

    /// The row caps the differential tests sweep: degenerate, tiny, odd,
    /// mid-sized and the production cap.
    const CAPS: [usize; 5] = [1, 2, 7, 64, 4096];

    /// A CRN over `species` species with one reaction per `rows` entry:
    /// the first `species` counts are reactants, the rest products.
    fn random_crn(species: usize, rows: &[Vec<u64>]) -> Crn {
        let mut crn = Crn::new();
        for s in 0..species {
            crn.add_species(&format!("S{s}"));
        }
        for row in rows {
            let side = |counts: &[u64]| {
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, &c)| (Species(s), c))
                    .collect::<Vec<_>>()
            };
            crn.add_reaction(Reaction::new(side(&row[..species]), side(&row[species..])));
        }
        crn
    }

    #[test]
    fn the_index_survives_growth_and_duplicate_rows() {
        // Enough distinct rows to double the slot table several times, each
        // pushed twice: only the first copy lands, in first-seen order.
        let mut rows: Vec<Vec<i128>> = vec![vec![0, 0], vec![0, 0]];
        let mut index = RowIndex::over(rows.iter().map(|row| hash_row(row)).collect());
        for round in 0..2 {
            for k in 0..200i128 {
                index.push_new(&mut rows, &[k % 7, k + 1]);
            }
            assert_eq!(rows.len(), 202, "round {round}");
        }
        index.push_new(&mut rows, &[0, 0]);
        assert_eq!(rows.len(), 202, "carried-over rows are indexed too");
        assert_eq!(rows[2], vec![0, 1]);
        assert_eq!(rows[3], vec![1, 2]);
        assert_eq!(rows[201], vec![199 % 7, 200]);
    }

    #[test]
    fn bitset_supports_cross_word_boundaries() {
        // Supports spanning two words: {0, 70} ⊂ {0, 65, 70}, and {64} is
        // disjoint from both.
        let row = |ones: &[usize]| {
            let mut r = vec![0i128; 80];
            for &i in ones {
                r[i] = 1;
            }
            r
        };
        let mut rows = vec![row(&[0, 65, 70]), row(&[0, 70]), row(&[64])];
        let mut expected = rows.clone();
        retain_minimal_support(&mut rows);
        oracle::retain_minimal_support(&mut expected);
        assert_eq!(rows, expected);
        assert_eq!(rows, vec![row(&[0, 70]), row(&[64])]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Both kernels return identical rows, in identical order, with an
        /// identical truncation flag, through every Farkas consumer and at
        /// every cap.
        #[test]
        fn indexed_kernel_matches_the_linear_scan(
            species in 1usize..6,
            rows in proptest::collection::vec(
                proptest::collection::vec(0u64..3, 12),
                1..7,
            ),
        ) {
            let rows: Vec<Vec<u64>> = rows
                .iter()
                .map(|row| row[..species].iter().chain(&row[6..6 + species]).copied().collect())
                .collect();
            let crn = random_crn(species, &rows);
            let compiled = CompiledCrn::compile(&crn);
            let stoich = Stoichiometry::of(&compiled);
            for cap in CAPS {
                proptest::prop_assert_eq!(
                    nonnegative_laws_capped(&stoich, cap),
                    semiflows_with(&stoich, cap, oracle::SCAN)
                );
                let t_flows = nonnegative_t_semiflows(&stoich, cap);
                let t_oracle = semiflows_with(&stoich.transposed(), cap, oracle::SCAN);
                proptest::prop_assert_eq!(t_flows.truncated, t_oracle.truncated);
                proptest::prop_assert_eq!(
                    t_flows.semiflows.iter().map(|f| f.firings().to_vec()).collect::<Vec<_>>(),
                    t_oracle.laws.iter().map(|l| l.weights().to_vec()).collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(
                    SpeciesBounds::with_cap(&compiled, cap),
                    SpeciesBounds::from_stoichiometry(&stoich, cap, oracle::SCAN)
                );
            }
        }

        /// The raw kernels agree on random tables, before any filtering.
        #[test]
        fn raw_kernels_agree_on_random_tables(
            table in proptest::collection::vec(
                proptest::collection::vec(-2i128..3, 5),
                0..12,
            ),
            annul in 0usize..4,
            cap in 1usize..40,
        ) {
            proptest::prop_assert_eq!(
                farkas_annul(table.clone(), annul, cap),
                oracle::farkas_annul(table.clone(), annul, cap)
            );
            let mut fast = table.clone();
            let mut slow = table;
            // Empty supports would knock every other row out; the callers
            // filter them first, and so does this test.
            fast.retain(|row| row.iter().any(|&w| w != 0));
            slow.retain(|row| row.iter().any(|&w| w != 0));
            retain_minimal_support(&mut fast);
            oracle::retain_minimal_support(&mut slow);
            proptest::prop_assert_eq!(fast, slow);
        }
    }
}
