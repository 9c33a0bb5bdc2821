//! Conservation laws: integer P-invariants of the stoichiometry matrix.
//!
//! A weight vector `v ∈ Z^S` is a *conservation law* when `v·N = 0` for the
//! stoichiometry matrix `N` — firing any reaction leaves `v·c` unchanged, so
//! `v·c` is constant along every trajectory.  Two law families are computed
//! here, both with exact arithmetic (no floating point anywhere):
//!
//! * [`conservation_basis`] — a basis of the full (signed) left nullspace of
//!   `N`, by rational Gaussian elimination over [`crn_numeric::Rational`] and
//!   scaling each basis vector to a primitive integer vector.  Complete: any
//!   linear invariant is a rational combination of these, which makes the
//!   basis the right engine for reachability *refutation* (if some law weighs
//!   source and target differently, the target is unreachable).
//! * [`nonnegative_laws`] — minimal-support nonnegative laws (P-semiflows) by
//!   the classical Farkas construction.  Nonnegative laws bound species
//!   counts (`v(s)·c(s) ≤ v·c₀` for all `s`), which is what the `C005`
//!   output-starvation lint consumes.

use crn_numeric::{gcd_i128, lcm_i128, Rational};

use crate::species::SpeciesSet;

use super::farkas::Kernel;
use super::stoichiometry::Stoichiometry;

/// An integer conservation law: weights `v` with `v·N = 0`, stored as one
/// weight per dense species index and kept *primitive* (the gcd of the
/// weights is 1, and the first nonzero weight is positive for signed laws).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationLaw {
    weights: Vec<i128>,
}

impl ConservationLaw {
    /// The weight vector, indexed by dense species index.
    #[must_use]
    pub fn weights(&self) -> &[i128] {
        &self.weights
    }

    /// The weight of species index `s` (zero past the law's stride).
    #[must_use]
    pub fn weight(&self, s: usize) -> i128 {
        self.weights.get(s).copied().unwrap_or(0)
    }

    /// Whether every weight is nonnegative (the law is a P-semiflow).
    #[must_use]
    pub fn is_nonnegative(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0)
    }

    /// The invariant value `v·counts`.  Counts past the law's stride weigh
    /// zero; weights past the counts' length multiply an implicit zero count.
    #[must_use]
    pub fn weigh(&self, counts: &[u64]) -> i128 {
        self.weights
            .iter()
            .zip(counts)
            .map(|(&w, &c)| w * i128::from(c))
            .sum()
    }

    /// Whether the law proves `target` unreachable from `source`: a law
    /// weighs every configuration of a trajectory identically, so different
    /// weights refute reachability (in either direction).
    #[must_use]
    pub fn refutes(&self, source: &[u64], target: &[u64]) -> bool {
        self.weigh(source) != self.weigh(target)
    }

    /// Renders the law as a signed sum of species names, e.g.
    /// `X1 + Y - Z2 - K` or `L + W + 2Y`.  Species outside the interner are
    /// shown by index as `#i`.
    #[must_use]
    pub fn display(&self, species: &SpeciesSet) -> String {
        let mut out = String::new();
        for (i, &w) in self.weights.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let name = if i < species.len() {
                species.name(crate::species::Species(i)).to_owned()
            } else {
                format!("#{i}")
            };
            if out.is_empty() {
                if w < 0 {
                    out.push('-');
                }
            } else if w < 0 {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            let magnitude = w.unsigned_abs();
            if magnitude != 1 {
                out.push_str(&magnitude.to_string());
            }
            out.push_str(&name);
        }
        if out.is_empty() {
            out.push('0');
        }
        out
    }

    /// Builds a law from raw weights, reducing to primitive form.  Returns
    /// `None` for the zero vector.
    fn primitive(mut weights: Vec<i128>) -> Option<Self> {
        let g = weights.iter().fold(0i128, |acc, &w| gcd_i128(acc, w));
        if g == 0 {
            return None;
        }
        for w in &mut weights {
            *w /= g;
        }
        Some(ConservationLaw { weights })
    }
}

/// A basis of the signed left nullspace `{v : v·N = 0}` as primitive integer
/// vectors, via rational Gaussian elimination on the transposed system
/// `Nᵀ·vᵀ = 0` (one equation per reaction, one unknown per species).
///
/// Species untouched by any reaction yield unit laws, so a basis always
/// exists for them; a CRN with no reactions gets one unit law per species
/// slot.  The basis is complete for linear refutation: any integer (indeed
/// rational) conservation law is a combination of the returned vectors.
#[must_use]
pub fn conservation_basis(stoich: &Stoichiometry) -> Vec<ConservationLaw> {
    let cols = stoich.stride();
    let rows = stoich.reaction_count();
    // The constraint matrix A = Nᵀ: A[r][s] = net change of s by reaction r.
    let mut a: Vec<Vec<Rational>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|s| Rational::from(stoich.entry(s, r)))
                .collect()
        })
        .collect();

    // Forward elimination to row echelon form, tracking pivot columns.
    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut rank = 0usize;
    for col in 0..cols {
        let Some(pivot_row) = (rank..rows).find(|&r| !a[r][col].is_zero()) else {
            continue;
        };
        a.swap(rank, pivot_row);
        let pivot = a[rank][col];
        for cell in &mut a[rank] {
            *cell /= pivot;
        }
        let pivot_row = a[rank].clone();
        for (r, row) in a.iter_mut().enumerate() {
            if r != rank && !row[col].is_zero() {
                let factor = row[col];
                for (cell, &p) in row.iter_mut().zip(&pivot_row) {
                    *cell -= p * factor;
                }
            }
        }
        pivot_cols.push(col);
        rank += 1;
        if rank == rows {
            break;
        }
    }

    // One basis vector per free column: set that free variable to 1, every
    // other free variable to 0, and read the pivot variables off the RREF.
    let mut basis = Vec::with_capacity(cols - rank);
    for free in 0..cols {
        if pivot_cols.contains(&free) {
            continue;
        }
        let mut v = vec![Rational::ZERO; cols];
        v[free] = Rational::ONE;
        for (row, &pc) in pivot_cols.iter().enumerate() {
            v[pc] = -a[row][free];
        }
        // Scale to a primitive integer vector: multiply by the lcm of the
        // denominators, then divide by the gcd; flip so the first nonzero
        // weight is positive (a canonical sign for stable output).
        let scale = v
            .iter()
            .fold(1i128, |acc, value| lcm_i128(acc, value.denom()));
        let mut weights: Vec<i128> = v
            .iter()
            .map(|value| {
                (*value * Rational::new(scale, 1))
                    .to_integer()
                    .expect("scaled by the denominator lcm")
            })
            .collect();
        if let Some(first) = weights.iter().find(|&&w| w != 0) {
            if *first < 0 {
                for w in &mut weights {
                    *w = -*w;
                }
            }
        }
        if let Some(law) = ConservationLaw::primitive(weights) {
            basis.push(law);
        }
    }
    basis
}

/// Default cap on intermediate Farkas rows: the construction is worst-case
/// exponential, so [`nonnegative_laws`] truncates (soundly — every returned
/// law is genuine, some may be missed) past this many candidate rows.
pub const FARKAS_ROW_CAP: usize = 4096;

/// The result of a capped P-semiflow enumeration: the laws found plus
/// whether the Farkas row cap cut the search short.  A truncated enumeration
/// is still *sound* (every returned law is genuine) but no longer complete,
/// so consumers that reason from the *absence* of a law must check the flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiflowEnumeration {
    /// The minimal-support nonnegative laws found.
    pub laws: Vec<ConservationLaw>,
    /// Whether the intermediate-row cap truncated the enumeration.
    pub truncated: bool,
}

/// Minimal-support nonnegative conservation laws (P-semiflows) by the Farkas
/// algorithm, capped at `max_rows` intermediate rows, with the truncation
/// flag surfaced.
///
/// Starting from `[N | I]` (one row per species), each reaction column is
/// annulled in turn by adding every positive multiple-pair combination of
/// rows with opposite signs and discarding rows with a nonzero entry; the
/// identity half of the surviving rows are nonnegative laws.  Rows are
/// reduced by their gcd and deduplicated, and the result is filtered to laws
/// of minimal support.  Truncation at `max_rows` only loses laws, it never
/// fabricates one.
#[must_use]
pub fn nonnegative_laws_capped(stoich: &Stoichiometry, max_rows: usize) -> SemiflowEnumeration {
    semiflows_with(stoich, max_rows, Kernel::INDEXED)
}

/// [`nonnegative_laws_capped`] through the given Farkas kernel.
pub(super) fn semiflows_with(
    stoich: &Stoichiometry,
    max_rows: usize,
    kernel: Kernel,
) -> SemiflowEnumeration {
    let species = stoich.stride();
    let reactions = stoich.reaction_count();
    // Each row is [reaction part (length R) | species weights (length S)].
    let table: Vec<Vec<i128>> = (0..species)
        .map(|s| {
            let mut row = vec![0i128; reactions + species];
            for (r, cell) in row[..reactions].iter_mut().enumerate() {
                *cell = i128::from(stoich.entry(s, r));
            }
            row[reactions + s] = 1;
            row
        })
        .collect();

    let (table, truncated) = (kernel.annul)(table, reactions, max_rows);

    // Keep only minimal-support laws: drop any law whose support strictly
    // contains another law's support (the Farkas combination step can emit
    // sums of smaller semiflows).
    let mut rows: Vec<Vec<i128>> = table
        .into_iter()
        .map(|row| row[reactions..].to_vec())
        .filter(|weights| weights.iter().any(|&w| w != 0))
        .collect();
    (kernel.retain_minimal)(&mut rows);
    let mut laws: Vec<ConservationLaw> = rows
        .into_iter()
        .filter_map(ConservationLaw::primitive)
        .collect();
    laws.sort_by(|a, b| a.weights().cmp(b.weights()));
    laws.dedup();
    SemiflowEnumeration { laws, truncated }
}

/// [`nonnegative_laws_capped`] without the truncation flag, for callers that
/// only consume the laws positively (a found law is always genuine).
#[must_use]
pub fn nonnegative_laws(stoich: &Stoichiometry, max_rows: usize) -> Vec<ConservationLaw> {
    nonnegative_laws_capped(stoich, max_rows).laws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledCrn;
    use crate::crn::Crn;
    use crate::examples;

    fn stoich(crn: &Crn) -> Stoichiometry {
        Stoichiometry::of(&CompiledCrn::compile(crn))
    }

    /// Every law must annihilate every reaction column exactly.
    fn assert_laws_hold(laws: &[ConservationLaw], n: &Stoichiometry) {
        for law in laws {
            for r in 0..n.reaction_count() {
                let dot: i128 = (0..n.stride())
                    .map(|s| law.weight(s) * i128::from(n.entry(s, r)))
                    .sum();
                assert_eq!(dot, 0, "law {:?} broken by reaction {r}", law.weights());
            }
        }
    }

    #[test]
    fn max_crn_has_a_two_dimensional_law_space() {
        let max = examples::max_crn();
        let n = stoich(max.crn());
        let basis = conservation_basis(&n);
        // 6 species (X1 Z1 Y X2 Z2 K), 4 independent reactions ⇒ 2 basis laws.
        assert_laws_hold(&basis, &n);
        assert_eq!(basis.len(), 2);
        // The basis separates I_(2,3) from the pure target {Y: 5}: the
        // overshoot configuration is refuted without exploration.
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut source = vec![0u64; n.stride()];
        source[idx("X1")] = 2;
        source[idx("X2")] = 3;
        let mut target = vec![0u64; n.stride()];
        target[idx("Y")] = 5;
        assert!(basis.iter().any(|law| law.refutes(&source, &target)));
    }

    #[test]
    fn min_crn_semiflows_are_the_two_joins() {
        // X1 + X2 -> Y: minimal semiflows are X1 + Y and X2 + Y.
        let min = examples::min_crn();
        let n = stoich(min.crn());
        let laws = nonnegative_laws(&n, FARKAS_ROW_CAP);
        assert_laws_hold(&laws, &n);
        assert_eq!(laws.len(), 2);
        assert!(laws.iter().all(ConservationLaw::is_nonnegative));
        let names: Vec<String> = laws
            .iter()
            .map(|law| law.display(min.crn().species()))
            .collect();
        assert!(names.contains(&"X1 + Y".to_owned()), "{names:?}");
        assert!(names.contains(&"X2 + Y".to_owned()), "{names:?}");
    }

    #[test]
    fn untouched_species_get_unit_laws() {
        let mut crn = Crn::new();
        crn.add_species("A");
        crn.add_species("B");
        crn.parse_reaction("A -> 2A").unwrap();
        let n = stoich(&crn);
        let basis = conservation_basis(&n);
        // A -> 2A admits no law on A; B is untouched so e_B is a law.
        assert_laws_hold(&basis, &n);
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0].display(crn.species()), "B");
    }

    #[test]
    fn weighted_law_of_the_starved_output() {
        // L -> W ; 2W -> Y: the semiflow L + W + 2Y bounds Y by floor(1/2)=0.
        let mut crn = Crn::new();
        crn.parse_reaction("L -> W").unwrap();
        crn.parse_reaction("2W -> Y").unwrap();
        let n = stoich(&crn);
        let laws = nonnegative_laws(&n, FARKAS_ROW_CAP);
        assert_laws_hold(&laws, &n);
        assert_eq!(laws.len(), 1);
        assert_eq!(laws[0].display(crn.species()), "L + W + 2Y");
        let l = crn.species_named("L").unwrap().index();
        let mut init = vec![0u64; n.stride()];
        init[l] = 1;
        assert_eq!(laws[0].weigh(&init), 1);
    }

    #[test]
    fn display_renders_signs_and_magnitudes() {
        let law = ConservationLaw {
            weights: vec![-1, 0, 3],
        };
        let mut set = SpeciesSet::new();
        set.intern("A");
        set.intern("B");
        set.intern("C");
        assert_eq!(law.display(&set), "-A + 3C");
        let zero = ConservationLaw { weights: vec![0] };
        assert_eq!(zero.display(&set), "0");
    }

    #[test]
    fn weigh_tolerates_mismatched_lengths() {
        let law = ConservationLaw {
            weights: vec![1, 2],
        };
        assert_eq!(law.weigh(&[3]), 3);
        assert_eq!(law.weigh(&[3, 1, 9]), 5);
        assert_eq!(law.weight(7), 0);
    }

    #[test]
    fn a_tiny_row_cap_surfaces_truncation() {
        // min's Farkas run needs three intermediate rows; a cap of one row
        // cannot hold them, and the flag must say so instead of silently
        // narrowing the law set.
        let min = examples::min_crn();
        let n = stoich(min.crn());
        let full = nonnegative_laws_capped(&n, FARKAS_ROW_CAP);
        assert!(!full.truncated);
        assert_eq!(full.laws.len(), 2);
        let cut = nonnegative_laws_capped(&n, 1);
        assert!(cut.truncated);
        assert!(cut.laws.len() < full.laws.len());
        // Whatever survives the cap is still a genuine law.
        assert_laws_hold(&cut.laws, &n);
    }

    #[test]
    fn no_reactions_means_all_unit_laws() {
        let mut crn = Crn::new();
        crn.add_species("A");
        crn.add_species("B");
        let n = stoich(&crn);
        assert_eq!(conservation_basis(&n).len(), 2);
        assert_eq!(nonnegative_laws(&n, FARKAS_ROW_CAP).len(), 2);
    }
}
