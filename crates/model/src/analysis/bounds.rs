//! Per-species reachable-count intervals from invariant structure.
//!
//! Nonnegative conservation laws bound species counts, but many CRNs (the
//! paper's `max` included) admit *no* nonnegative law while still being
//! bounded.  The right generalization is a *monotone potential*: a
//! nonnegative weight vector `v` with `v·N ≤ 0` makes `v·c` nonincreasing
//! along every trajectory, so `v(s)·c(s) ≤ v·c ≤ v·c₀` bounds every species
//! in `v`'s support; `v·N ≥ 0` symmetrically yields lower bounds.  Both
//! cones are enumerated exactly by the same Farkas construction as
//! P-semiflows, extended with one slack row per reaction (and therefore
//! share the [`FARKAS_ROW_CAP`] truncation semantics — sound, possibly
//! incomplete).
//!
//! [`SpeciesBounds::intervals`] combines three sound sources into one
//! interval per species, given a concrete initial configuration:
//!
//! 1. decreasing potentials: `c(s) ≤ ⌊v·c₀ / v(s)⌋`;
//! 2. the liveness fixpoint: a species never producible from the start's
//!    support (and absent at the start) stays at zero;
//! 3. signed conservation laws `v·c = v·c₀`, solved for each supported
//!    species against the other species' current intervals (two
//!    deterministic refinement rounds).
//!
//! Every reachable configuration satisfies every genuine invariant, so the
//! resulting intervals *contain every reachable count* — which is what lets
//! the reachability engine refuse inputs (the output interval excludes the
//! expected value), prove inputs correct (the output is pinned and the
//! state space provably fits the search limit), and perfect-hash the arena
//! (the interval box indexes every reachable configuration).
//!
//! [`FARKAS_ROW_CAP`]: super::invariants::FARKAS_ROW_CAP

use crn_numeric::gcd_i128;

use crate::compiled::CompiledCrn;

use super::farkas::Kernel;
use super::invariants::{ConservationLaw, FARKAS_ROW_CAP};
use super::liveness::Liveness;
use super::stoichiometry::Stoichiometry;

/// The monotone-potential generators of a compiled CRN, computed once per
/// CRN and reusable across initial configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpeciesBounds {
    stride: usize,
    /// Nonnegative `v` with `v·N ≤ 0`: `v·c` never increases.
    decreasing: Vec<Vec<i128>>,
    /// Nonnegative `v` with `v·N ≥ 0`: `v·c` never decreases.
    increasing: Vec<Vec<i128>>,
    truncated: bool,
}

/// One interval of possible counts per species: every reachable
/// configuration lies inside the box.  `None` upper bounds mean unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountIntervals {
    lower: Vec<u64>,
    upper: Vec<Option<u64>>,
}

impl SpeciesBounds {
    /// Enumerates both potential cones with the default Farkas cap.
    #[must_use]
    pub fn of(compiled: &CompiledCrn) -> Self {
        Self::with_cap(compiled, FARKAS_ROW_CAP)
    }

    /// Enumerates both potential cones, keeping at most `max_rows`
    /// intermediate Farkas rows per column.
    #[must_use]
    pub fn with_cap(compiled: &CompiledCrn, max_rows: usize) -> Self {
        Self::from_stoichiometry(&Stoichiometry::of(compiled), max_rows, Kernel::INDEXED)
    }

    /// Enumerates both potential cones of an already-built stoichiometry
    /// matrix through the given Farkas kernel.
    pub(super) fn from_stoichiometry(
        stoich: &Stoichiometry,
        max_rows: usize,
        kernel: Kernel,
    ) -> Self {
        let (decreasing, cut_dec) = monotone_potentials(stoich, 1, max_rows, kernel);
        let (increasing, cut_inc) = monotone_potentials(stoich, -1, max_rows, kernel);
        SpeciesBounds {
            stride: stoich.stride(),
            decreasing,
            increasing,
            truncated: cut_dec || cut_inc,
        }
    }

    /// Whether the Farkas cap truncated either cone: coverage claims (a
    /// species with *no* covering potential) are then unreliable.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The species stride the potentials were computed over.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether some decreasing potential gives species `s` a finite upper
    /// bound for every initial configuration.
    #[must_use]
    pub fn covered(&self, s: usize) -> bool {
        self.decreasing
            .iter()
            .any(|v| v.get(s).copied().unwrap_or(0) > 0)
    }

    /// The decreasing-potential generators (one weight vector per row).
    #[must_use]
    pub fn decreasing_potentials(&self) -> &[Vec<i128>] {
        &self.decreasing
    }

    /// The increasing-potential generators (one weight vector per row).
    #[must_use]
    pub fn increasing_potentials(&self) -> &[Vec<i128>] {
        &self.increasing
    }

    /// Sound per-species count intervals for every configuration reachable
    /// from `start`.  `live` must be the liveness fixpoint of the same CRN
    /// seeded with `start`'s support; `laws` are signed conservation laws of
    /// the same CRN (typically the [`conservation_basis`] the reachability
    /// oracle already holds).  `start` may be longer than the analyzed
    /// stride; the excess species are untouched by every reaction and pin
    /// to their initial counts.
    ///
    /// [`conservation_basis`]: super::invariants::conservation_basis
    #[must_use]
    pub fn intervals(
        &self,
        start: &[u64],
        live: &Liveness,
        laws: &[ConservationLaw],
    ) -> CountIntervals {
        let n = start.len();
        let mut lower = vec![0u64; n];
        let mut upper: Vec<Option<u64>> = vec![None; n];
        for s in self.stride.min(n)..n {
            lower[s] = start[s];
            upper[s] = Some(start[s]);
        }

        // 1. Decreasing potentials: v(s)·c(s) ≤ v·c ≤ v·c₀.
        for v in &self.decreasing {
            let value = weigh(v, start);
            for (s, &w) in v.iter().enumerate().take(n) {
                if w > 0 {
                    let bound = clamp_u64(value / w);
                    if upper[s].map_or(true, |u| bound < u) {
                        upper[s] = Some(bound);
                    }
                }
            }
        }

        // 2. Liveness: a species never producible from the start's support
        // is absent at the start and stays absent forever.
        for (s, u) in upper.iter_mut().enumerate().take(self.stride.min(n)) {
            if !live.producible(s) {
                debug_assert_eq!(start[s], 0, "a present species is producible");
                *u = Some(0);
            }
        }

        // 3. Increasing potentials: v·c ≥ v·c₀, so a species' count is at
        // least the initial potential minus what the rest of the support
        // can possibly carry (needs finite upper bounds on the rest).
        for v in &self.increasing {
            let value = weigh(v, start);
            for (s, &w) in v.iter().enumerate().take(n) {
                if w <= 0 {
                    continue;
                }
                let mut rest = 0i128;
                let mut finite = true;
                for (t, &wt) in v.iter().enumerate().take(n) {
                    if t == s || wt == 0 {
                        continue;
                    }
                    match upper[t] {
                        Some(u) => rest += wt * i128::from(u),
                        None => {
                            finite = false;
                            break;
                        }
                    }
                }
                if finite {
                    let bound = clamp_u64(ceil_div(value - rest, w));
                    if bound > lower[s] {
                        lower[s] = bound;
                    }
                }
            }
        }

        let mut intervals = CountIntervals { lower, upper };
        // 4. Signed-law refinement: solve v·c = v·c₀ for each supported
        // species against the rest's intervals.  Two rounds let a bound
        // tightened by one law feed the next; the round count is fixed for
        // determinism.
        for _ in 0..2 {
            for law in laws {
                refine_with_law(&mut intervals, law, start);
            }
        }
        debug_assert!(intervals.admits(start), "the start lies in its own box");
        intervals
    }

    /// Sound per-species count intervals covering every configuration
    /// reachable from *any* start `≤ top` componentwise — the hull of a whole
    /// input box rather than one point.  `live` must be the liveness fixpoint
    /// seeded with `top`'s support.
    ///
    /// Soundness: decreasing-potential bounds are monotone in the start
    /// (weights are nonnegative, so `v·c₀ ≤ v·top`), producibility is
    /// monotone in the seed support (a species dead from `top`'s full support
    /// is dead from every sub-support), and every lower bound is relaxed to
    /// zero (law refinement and increasing potentials are per-point values
    /// and do not transfer across the box).
    #[must_use]
    pub fn box_hull(&self, top: &[u64], live: &Liveness) -> CountIntervals {
        let n = top.len();
        let lower = vec![0u64; n];
        let mut upper: Vec<Option<u64>> = vec![None; n];
        // Untouched species can never move, so the top value bounds them
        // across the whole box.
        for (s, u) in upper.iter_mut().enumerate().take(n).skip(self.stride) {
            *u = Some(top[s]);
        }
        for v in &self.decreasing {
            let value = weigh(v, top);
            for (s, &w) in v.iter().enumerate().take(n) {
                if w > 0 {
                    let bound = clamp_u64(value / w);
                    if upper[s].map_or(true, |u| bound < u) {
                        upper[s] = Some(bound);
                    }
                }
            }
        }
        for (s, u) in upper.iter_mut().enumerate().take(self.stride.min(n)) {
            if !live.producible(s) {
                // Dead species stay at their start count, which is at most
                // the top's.
                let cap = top[s];
                if u.map_or(true, |b| cap < b) {
                    *u = Some(cap);
                }
            }
        }
        let intervals = CountIntervals { lower, upper };
        debug_assert!(intervals.admits(top), "the top corner lies in the hull");
        intervals
    }
}

impl CountIntervals {
    /// The number of species slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// Whether the interval set covers no species at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// The least possible count of species `s` (zero past the end).
    #[must_use]
    pub fn lower(&self, s: usize) -> u64 {
        self.lower.get(s).copied().unwrap_or(0)
    }

    /// The greatest possible count of species `s` (`None` = unbounded;
    /// species past the end are untouched and pinned to zero).
    #[must_use]
    pub fn upper(&self, s: usize) -> Option<u64> {
        if s < self.upper.len() {
            self.upper[s]
        } else {
            Some(0)
        }
    }

    /// The single possible count of species `s`, when its interval is a
    /// point.
    #[must_use]
    pub fn pinned(&self, s: usize) -> Option<u64> {
        match self.upper(s) {
            Some(u) if u == self.lower(s) => Some(u),
            _ => None,
        }
    }

    /// Whether `counts` lies inside the box.
    #[must_use]
    pub fn admits(&self, counts: &[u64]) -> bool {
        counts
            .iter()
            .enumerate()
            .all(|(s, &c)| c >= self.lower(s) && self.upper(s).map_or(true, |u| c <= u))
    }

    /// The number of configurations in the box (`None` when some species is
    /// unbounded), saturating at `u128::MAX`.
    #[must_use]
    pub fn state_space(&self) -> Option<u128> {
        let mut product = 1u128;
        for s in 0..self.len() {
            let width = u128::from(self.upper(s)? - self.lower(s)) + 1;
            product = product.saturating_mul(width);
        }
        Some(product)
    }
}

/// `v·counts` with counts past `v`'s length weighing zero.
fn weigh(v: &[i128], counts: &[u64]) -> i128 {
    v.iter().zip(counts).map(|(&w, &c)| w * i128::from(c)).sum()
}

fn clamp_u64(x: i128) -> u64 {
    if x <= 0 {
        0
    } else {
        u64::try_from(x).unwrap_or(u64::MAX)
    }
}

fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    let r = a % b;
    if r != 0 && ((r < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i128, b: i128) -> i128 {
    -floor_div(-a, b)
}

/// Tightens `intervals` with the equality `law·c = law·start`: for each
/// supported species, the extreme values of the law over the other species'
/// intervals bound what the species itself can carry.
fn refine_with_law(intervals: &mut CountIntervals, law: &ConservationLaw, start: &[u64]) {
    let n = intervals.len();
    let value = law.weigh(start);
    for s in 0..n.min(law.weights().len()) {
        let ws = law.weight(s);
        if ws == 0 {
            continue;
        }
        // The rest of the law, v·c − ws·c(s), ranges over [rest_min, rest_max].
        let mut rest_min = Some(0i128);
        let mut rest_max = Some(0i128);
        for t in 0..n.min(law.weights().len()) {
            if t == s {
                continue;
            }
            let wt = law.weight(t);
            if wt == 0 {
                continue;
            }
            let lo = i128::from(intervals.lower(t));
            let hi = intervals.upper(t).map(i128::from);
            if wt > 0 {
                rest_min = rest_min.map(|m| m + wt * lo);
                rest_max = match (rest_max, hi) {
                    (Some(m), Some(h)) => Some(m + wt * h),
                    _ => None,
                };
            } else {
                rest_min = match (rest_min, hi) {
                    (Some(m), Some(h)) => Some(m + wt * h),
                    _ => None,
                };
                rest_max = rest_max.map(|m| m + wt * lo);
            }
        }
        // ws·c(s) = value − rest ∈ [value − rest_max, value − rest_min].
        let own_min = rest_max.map(|m| value - m);
        let own_max = rest_min.map(|m| value - m);
        let (new_lower, new_upper) = if ws > 0 {
            (
                own_min.map(|m| ceil_div(m, ws)),
                own_max.map(|m| floor_div(m, ws)),
            )
        } else {
            (
                own_max.map(|m| ceil_div(m, ws)),
                own_min.map(|m| floor_div(m, ws)),
            )
        };
        if let Some(lb) = new_lower {
            let lb = clamp_u64(lb);
            if lb > intervals.lower[s] {
                intervals.lower[s] = lb;
            }
        }
        if let Some(ub) = new_upper {
            let ub = clamp_u64(ub);
            if intervals.upper[s].map_or(true, |u| ub < u) {
                intervals.upper[s] = Some(ub);
            }
        }
    }
}

/// Minimal-support generators of `{v ≥ 0 : sign · (v·N) ≤ 0}` via Farkas on
/// the stoichiometry extended with one nonnegative slack per reaction:
/// rows of `[sign·N ; I_R]` with combination coefficients `(v, w)` satisfy
/// `sign·(v·N) = −w ≤ 0` exactly.
fn monotone_potentials(
    stoich: &Stoichiometry,
    sign: i128,
    max_rows: usize,
    kernel: Kernel,
) -> (Vec<Vec<i128>>, bool) {
    let species = stoich.stride();
    let reactions = stoich.reaction_count();
    let width = reactions + species + reactions;
    // Species rows: [sign·N[s][·] | e_s in the (v, w) payload].
    let mut table: Vec<Vec<i128>> = (0..species)
        .map(|s| {
            let mut row = vec![0i128; width];
            for (r, cell) in row[..reactions].iter_mut().enumerate() {
                *cell = sign * i128::from(stoich.entry(s, r));
            }
            row[reactions + s] = 1;
            row
        })
        .collect();
    // Slack rows: [e_r | e_{S+r} in the payload].
    for r in 0..reactions {
        let mut row = vec![0i128; width];
        row[r] = 1;
        row[reactions + species + r] = 1;
        table.push(row);
    }

    let (table, truncated) = (kernel.annul)(table, reactions, max_rows);

    // Keep minimal-support rows of the full (v, w) cone — those include all
    // extreme rays — then project out the slack half.
    let mut rows: Vec<Vec<i128>> = table
        .into_iter()
        .map(|row| row[reactions..].to_vec())
        .filter(|payload| payload[..species].iter().any(|&w| w != 0))
        .collect();
    (kernel.retain_minimal)(&mut rows);
    let mut potentials: Vec<Vec<i128>> = rows
        .into_iter()
        .map(|row| {
            let mut v = row[..species].to_vec();
            let g = v.iter().fold(0i128, |acc, &w| gcd_i128(acc, w));
            if g > 1 {
                for w in &mut v {
                    *w /= g;
                }
            }
            v
        })
        .collect();
    potentials.sort();
    potentials.dedup();
    (potentials, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::conservation_basis;
    use crate::crn::Crn;
    use crate::examples;

    fn setup(crn: &Crn) -> (CompiledCrn, SpeciesBounds, Vec<ConservationLaw>) {
        let compiled = CompiledCrn::compile(crn);
        let bounds = SpeciesBounds::of(&compiled);
        let laws = conservation_basis(&Stoichiometry::of(&compiled));
        (compiled, bounds, laws)
    }

    fn intervals_from(
        compiled: &CompiledCrn,
        bounds: &SpeciesBounds,
        laws: &[ConservationLaw],
        start: &[u64],
    ) -> CountIntervals {
        let support: Vec<usize> = (0..start.len()).filter(|&s| start[s] > 0).collect();
        let live = Liveness::analyze(compiled, &support);
        bounds.intervals(start, &live, laws)
    }

    #[test]
    fn max_crn_is_fully_bounded_despite_having_no_semiflow() {
        // max admits no nonnegative conservation law, yet every species is
        // covered by a decreasing potential: X1+Z1, X1+Z1+K, X1+X2+Y, …
        let max = examples::max_crn();
        let (compiled, bounds, laws) = setup(max.crn());
        assert!(!bounds.truncated());
        for s in 0..compiled.stride() {
            assert!(bounds.covered(s), "species {s} uncovered");
        }
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X1")] = 2;
        start[idx("X2")] = 3;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.upper(idx("X1")), Some(2));
        assert_eq!(iv.upper(idx("X2")), Some(3));
        assert_eq!(iv.upper(idx("Z1")), Some(2));
        assert_eq!(iv.upper(idx("Z2")), Some(3));
        assert_eq!(iv.upper(idx("K")), Some(2));
        assert_eq!(iv.upper(idx("Y")), Some(5));
        assert_eq!(iv.state_space(), Some(3 * 3 * 6 * 4 * 4 * 3));
    }

    #[test]
    fn zero_input_pins_the_whole_min_box() {
        // min on (0, 4): X1 = 0 caps Y at zero via the potential X1 + Y,
        // and the signed law X1 - X2 then pins X2 at 4 — the reaction can
        // never fire, and the analysis proves the reachable set is {start}.
        let min = examples::min_crn();
        let (compiled, bounds, laws) = setup(min.crn());
        let crn = min.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X2")] = 4;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.pinned(idx("Y")), Some(0));
        assert_eq!(iv.pinned(idx("X1")), Some(0));
        assert_eq!(iv.pinned(idx("X2")), Some(4));
        assert_eq!(iv.state_space(), Some(1));
    }

    #[test]
    fn divergent_species_stay_unbounded() {
        // X -> 2X admits no decreasing potential on X.
        let mut crn = Crn::new();
        crn.parse_reaction("X -> 2X").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        assert!(!bounds.covered(0));
        let iv = intervals_from(&compiled, &bounds, &laws, &[1]);
        assert_eq!(iv.upper(0), None);
        assert_eq!(iv.state_space(), None);
    }

    #[test]
    fn dead_species_pin_to_zero() {
        let mut crn = Crn::new();
        crn.parse_reaction("X -> Y").unwrap();
        crn.parse_reaction("D -> U").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        let x = crn.species_named("X").unwrap().index();
        let d = crn.species_named("D").unwrap().index();
        let u = crn.species_named("U").unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[x] = 3;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        assert_eq!(iv.pinned(d), Some(0));
        assert_eq!(iv.pinned(u), Some(0));
    }

    #[test]
    fn law_refinement_uses_equalities_both_ways() {
        // A -> B with A₀ = 3: the law A + B = 3 pins B ≥ 3 − ub(A) = 0 and
        // the increasing potential B gives lb(B) = 0; refinement tightens
        // nothing beyond ub(B) = 3 — but with ub(A) from e_A and the law,
        // every reachable c has A + B = 3 exactly, so ub(B) = 3, lb = 0.
        let mut crn = Crn::new();
        crn.parse_reaction("A -> B").unwrap();
        let (compiled, bounds, laws) = setup(&crn);
        let a = crn.species_named("A").unwrap().index();
        let b = crn.species_named("B").unwrap().index();
        let iv = intervals_from(&compiled, &bounds, &laws, &[3, 0]);
        assert_eq!(iv.upper(a), Some(3));
        assert_eq!(iv.upper(b), Some(3));
        assert_eq!(iv.state_space(), Some(16));
        assert!(iv.admits(&[3, 0]));
        assert!(iv.admits(&[0, 3]));
        assert!(!iv.admits(&[4, 0]));
    }

    #[test]
    fn intervals_contain_every_exhaustively_reachable_configuration() {
        // Direct soundness check on max(2, 2): enumerate reachable configs
        // with the naive engine's dynamics via the compiled reactions and
        // assert each lies in the box.
        let max = examples::max_crn();
        let (compiled, bounds, laws) = setup(max.crn());
        let crn = max.crn();
        let idx = |name: &str| crn.species_named(name).unwrap().index();
        let mut start = vec![0u64; compiled.stride()];
        start[idx("X1")] = 2;
        start[idx("X2")] = 2;
        let iv = intervals_from(&compiled, &bounds, &laws, &start);
        let mut seen = vec![start.clone()];
        let mut frontier = vec![start];
        while let Some(cur) = frontier.pop() {
            for reaction in compiled.reactions() {
                if reaction.applicable(&cur) {
                    let mut succ = vec![0u64; cur.len()];
                    reaction.apply_into(&cur, &mut succ);
                    if !seen.contains(&succ) {
                        assert!(iv.admits(&succ), "escaped box: {succ:?}");
                        seen.push(succ.clone());
                        frontier.push(succ);
                    }
                }
            }
        }
        assert!(u128::try_from(seen.len()).unwrap() <= iv.state_space().unwrap());
    }
}
