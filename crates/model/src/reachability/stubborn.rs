//! Stubborn-set reduction of the terminal scan.
//!
//! A certified-acyclic CRN is decided by its *terminal* configurations alone
//! (see [`super::engine`]'s `TerminalScan`), and a stubborn set (Valmari,
//! *Stubborn sets for reduced state space generation*, 1990; Godefroid,
//! LNCS 1032, 1996) keeps exactly the reachable deadlocks while expanding
//! only part of each configuration's applicable reactions.  Composed modules
//! driven by their own leaders fire independently, so the full exploration
//! visits every interleaving of them; the reduced one fires one module at a
//! time.
//!
//! At a configuration, a set `T` of reactions is *stubborn* when it is
//! closed under two rules:
//!
//! * an **applicable** `t` in `T` brings in every reaction that net-decreases
//!   a reactant of `t` (it could disable `t`) and every reaction having as a
//!   reactant a species `t` net-decreases (`t` could disable it).  A catalyst
//!   has net change 0 and brings in nothing;
//! * an **inapplicable** `t` in `T` brings in every reaction that
//!   net-increases its lowest-index species below `t`'s requirement — only
//!   they can ever enable `t`.
//!
//! Reactions outside `T` then neither disable nor enable any reaction of
//! `T`, and commute with the applicable ones, so every path to a deadlock
//! can be reordered to start with an applicable reaction of `T`.  The policy
//! closes `T` from each applicable reaction in turn and expands the closure
//! with the fewest applicable reactions, the lowest seed on a tie.

use crate::compiled::{CompiledCrn, CompiledReaction};

use super::csr::CsrGraph;
use super::engine::{StateIndex, Successors};

/// The static dependence tables of one CRN, built once per sweep and shared
/// by every worker.  Each is a [`CsrGraph`] from a reaction or a species to
/// the listed species or reactions.
pub(super) struct Dependence {
    /// Per reaction, the species it net-decreases.
    decreases: CsrGraph,
    /// Per species, the reactions having it as a reactant.
    consumers: CsrGraph,
    /// Per species, the reactions that net-decrease it.
    decreasers: CsrGraph,
    /// Per species, the reactions that net-increase it.
    increasers: CsrGraph,
}

/// The lists as one CSR table, entry `i`'s list being node `i`'s successors.
fn csr_of(lists: &[Vec<usize>]) -> CsrGraph {
    let mut graph = CsrGraph::new();
    for list in lists {
        for &item in list {
            graph.push_edge(item);
        }
        graph.seal_node();
    }
    graph
}

impl Dependence {
    pub(super) fn of(compiled: &CompiledCrn) -> Self {
        let stride = compiled.stride();
        let mut consumers = vec![Vec::new(); stride];
        let mut decreasers = vec![Vec::new(); stride];
        let mut increasers = vec![Vec::new(); stride];
        let mut decreases = Vec::with_capacity(compiled.reaction_count());
        for (r, reaction) in compiled.reactions().iter().enumerate() {
            for &(s, _) in reaction.reactants() {
                consumers[s].push(r);
            }
            let mut decreased = Vec::new();
            for &(s, d) in reaction.delta() {
                if d < 0 {
                    decreasers[s].push(r);
                    decreased.push(s);
                } else {
                    increasers[s].push(r);
                }
            }
            decreases.push(decreased);
        }
        Dependence {
            decreases: csr_of(&decreases),
            consumers: csr_of(&consumers),
            decreasers: csr_of(&decreasers),
            increasers: csr_of(&increasers),
        }
    }
}

/// One worker's reusable buffers for the [`Stubborn`] policy, and its count
/// of pruned successors.
pub(super) struct StubbornScratch {
    /// Per reaction, whether it applies in the configuration being reduced.
    enabled: Vec<bool>,
    /// The applicable reactions, ascending.
    applicable: Vec<usize>,
    /// Per reaction, the closure that last took it in: membership is
    /// `stamps[r] == epoch`, so starting a closure costs nothing.
    stamps: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
    /// The applicable members of the closure being built, and of the best
    /// closure so far.
    members: Vec<usize>,
    best: Vec<usize>,
    /// Applicable reactions left unexpanded, over every reduced
    /// configuration.
    pruned: u64,
}

impl StubbornScratch {
    pub(super) fn new() -> Self {
        StubbornScratch {
            enabled: Vec::new(),
            applicable: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
            stack: Vec::new(),
            members: Vec::new(),
            best: Vec::new(),
            pruned: 0,
        }
    }

    /// Applicable reactions the policy did not expand, over this scratch's
    /// lifetime.
    pub(super) fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Closes the stubborn set of `seed` at `cur` into `members` and returns
    /// its applicable-reaction count, or `None` as soon as that count
    /// reaches `cap` (the closure cannot beat the best one so far).
    fn close<I: StateIndex>(
        &mut self,
        deps: &Dependence,
        reactions: &[CompiledReaction],
        index: &I,
        cur: I::Loaded,
        seed: usize,
        cap: usize,
    ) -> Option<usize> {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.stamps.fill(0);
            1
        });
        let StubbornScratch {
            enabled,
            stamps,
            epoch,
            stack,
            members,
            ..
        } = self;
        let epoch = *epoch;
        let mut take = |r: usize, stack: &mut Vec<usize>, members: &mut Vec<usize>| {
            if stamps[r] != epoch {
                stamps[r] = epoch;
                stack.push(r);
                if enabled[r] {
                    members.push(r);
                }
            }
        };
        stack.clear();
        members.clear();
        take(seed, stack, members);
        while let Some(t) = stack.pop() {
            if enabled[t] {
                for &(p, _) in reactions[t].reactants() {
                    for &u in deps.decreasers.successors(p) {
                        take(u, stack, members);
                    }
                }
                for &p in deps.decreases.successors(t) {
                    for &u in deps.consumers.successors(p) {
                        take(u, stack, members);
                    }
                }
            } else {
                let &(p, _) = reactions[t]
                    .reactants()
                    .iter()
                    .find(|&&(p, need)| index.count(cur, p) < need)
                    .expect("an inapplicable reaction lacks some reactant");
                for &u in deps.increasers.successors(p) {
                    take(u, stack, members);
                }
            }
            if members.len() >= cap {
                return None;
            }
        }
        Some(members.len())
    }
}

/// The stubborn-set [`Successors`] policy: expands the applicable reactions
/// of the smallest stubborn set.  Sound only for deciding on terminal
/// configurations of a certified-acyclic CRN.
pub(super) struct Stubborn<'a> {
    deps: &'a Dependence,
    reactions: &'a [CompiledReaction],
    scratch: &'a mut StubbornScratch,
}

impl<'a> Stubborn<'a> {
    /// The policy over `compiled`, whose tables `deps` must be.
    pub(super) fn new(
        deps: &'a Dependence,
        compiled: &'a CompiledCrn,
        scratch: &'a mut StubbornScratch,
    ) -> Self {
        let n = compiled.reaction_count();
        if scratch.enabled.len() < n {
            scratch.enabled.resize(n, false);
            scratch.stamps.resize(n, 0);
        }
        Stubborn {
            deps,
            reactions: compiled.reactions(),
            scratch,
        }
    }
}

impl Successors for Stubborn<'_> {
    fn reduce<I: StateIndex>(&mut self, index: &I, cur: I::Loaded) -> Option<&[usize]> {
        let s = &mut *self.scratch;
        s.applicable.clear();
        for r in 0..index.reaction_count() {
            let on = index.applicable(cur, r);
            s.enabled[r] = on;
            if on {
                s.applicable.push(r);
            }
        }
        if s.applicable.len() <= 1 {
            return Some(&s.applicable);
        }
        let mut best = usize::MAX;
        for i in 0..s.applicable.len() {
            let seed = s.applicable[i];
            if let Some(count) = s.close(self.deps, self.reactions, index, cur, seed, best) {
                best = count;
                std::mem::swap(&mut s.best, &mut s.members);
                if count == 1 {
                    break;
                }
            }
        }
        s.best.sort_unstable();
        s.pruned += (s.applicable.len() - s.best.len()) as u64;
        Some(&s.best)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use crn_numeric::NVec;

    use super::super::engine::testing::{stubborn_choice, terminals};
    use super::super::{
        check_on_box_reference_with_workers, check_on_box_with_workers, check_stable_computation,
    };
    use crate::compiled::CompiledCrn;
    use crate::crn::Crn;
    use crate::function::FunctionCrn;
    use crate::reaction::Reaction;
    use crate::species::Species;

    /// A CRN over `names` (declared first, so they get indices in order)
    /// with the given reactions.
    fn crn_of(names: &[&str], reactions: &[&str]) -> CompiledCrn {
        let mut crn = Crn::new();
        for name in names {
            crn.add_species(name);
        }
        for reaction in reactions {
            crn.parse_reaction(reaction).expect("well-formed reaction");
        }
        CompiledCrn::compile(&crn)
    }

    fn full_and_reduced(compiled: &CompiledCrn, start: &[u64]) -> [BTreeSet<Vec<u64>>; 2] {
        [false, true].map(|reduced| terminals(compiled, start, reduced, 10_000).unwrap().0)
    }

    #[test]
    fn reactions_sharing_only_a_catalyst_are_expanded_apart() {
        // C + A -> C + Y and C + B -> C + Z both read C but leave it
        // unchanged, so neither can disable the other.
        let compiled = crn_of(
            &["C", "A", "B", "Y", "Z"],
            &["C + A -> C + Y", "C + B -> C + Z"],
        );
        let start = [1, 1, 1, 0, 0];
        assert_eq!(stubborn_choice(&compiled, &start), vec![0]);
        let [full, reduced] = full_and_reduced(&compiled, &start);
        assert_eq!(full, reduced);
    }

    #[test]
    fn a_reaction_consuming_the_catalyst_couples_its_readers() {
        // C -> D disables both catalysed reactions, and each of them must
        // then be expanded alongside it: firing C -> D first reaches the
        // deadlock {A, B, D}, which no other order reaches.
        let compiled = crn_of(
            &["C", "A", "B", "Y", "Z", "D"],
            &["C + A -> C + Y", "C + B -> C + Z", "C -> D"],
        );
        let start = [1, 1, 1, 0, 0, 0];
        assert_eq!(stubborn_choice(&compiled, &start), vec![0, 1, 2]);
        let [full, reduced] = full_and_reduced(&compiled, &start);
        assert!(full.contains(&vec![0, 1, 1, 0, 0, 1]));
        assert_eq!(full, reduced);
    }

    #[test]
    fn an_inapplicable_reaction_brings_in_its_enablers() {
        // A -> Y and A + B -> Z compete for A; B is still missing, and only
        // C -> B can supply it.  Expanding A -> Y alone would lose the
        // deadlock {Z}; the smallest stubborn set is {C -> B}.
        let compiled = crn_of(
            &["A", "B", "C", "Y", "Z"],
            &["A -> Y", "A + B -> Z", "C -> B"],
        );
        let start = [1, 0, 1, 0, 0];
        assert_eq!(stubborn_choice(&compiled, &start), vec![2]);
        let [full, reduced] = full_and_reduced(&compiled, &start);
        assert!(full.contains(&vec![0, 0, 0, 0, 1]));
        assert_eq!(full, reduced);
    }

    /// A random CRN over `A..F` that is acyclic by construction: every
    /// reaction strictly lowers the weighted mass `6A + 5B + 4C + 3D + 2E +
    /// F` (a drawn reaction that raises it is reversed, one that keeps it is
    /// dropped), so no nonnegative combination of reactions is zero.  Each
    /// row `[s1, c1, s2, c2, s3, c3, s4, c4]` of species indices and counts
    /// draws the reaction `(1 + c1 % 2) s1 + (c2 % 3) s2 -> (c3 % 3) s3 +
    /// (c4 % 3) s4`, so reactions are sparse and often share a catalyst.
    /// `A` and `B` are the inputs, `C` the output and `E` the leader.
    fn acyclic_crn(rows: &[Vec<u64>]) -> FunctionCrn {
        const WEIGHTS: [u64; 6] = [6, 5, 4, 3, 2, 1];
        let mut crn = Crn::new();
        let species: Vec<Species> = ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|name| crn.add_species(name))
            .collect();
        for row in rows {
            let term = |s: u64, c: u64| (usize::try_from(s % 6).unwrap(), c);
            let left = [term(row[0], 1 + row[1] % 2), term(row[2], row[3] % 3)];
            let right = [term(row[4], row[5] % 3), term(row[6], row[7] % 3)];
            let mass =
                |side: &[(usize, u64)]| -> u64 { side.iter().map(|&(s, c)| WEIGHTS[s] * c).sum() };
            let (reactants, products) = match mass(&left).cmp(&mass(&right)) {
                std::cmp::Ordering::Greater => (left, right),
                std::cmp::Ordering::Less => (right, left),
                std::cmp::Ordering::Equal => continue,
            };
            let side = |terms: [(usize, u64); 2]| terms.map(|(s, c)| (species[s], c));
            crn.add_reaction(Reaction::new(side(reactants), side(products)));
        }
        FunctionCrn::with_named_roles(crn, &["A", "B"], "C", Some("E")).expect("valid roles")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deadlock preservation: on certified-acyclic CRNs the stubborn
        /// reduction reaches exactly the terminal configurations of the full
        /// exploration, storing no more configurations.
        #[test]
        fn stubborn_reduction_keeps_every_deadlock(
            rows in proptest::collection::vec(proptest::collection::vec(0u64..6, 8), 1..9),
            start in proptest::collection::vec(0u64..4, 6),
        ) {
            let crn = acyclic_crn(&rows);
            if !crn.analysis().acyclic() {
                return;
            }
            let compiled = crn.analysis().compiled();
            let (full, full_explored) = terminals(compiled, &start, false, 100_000).unwrap();
            let (reduced, reduced_explored) = terminals(compiled, &start, true, 100_000).unwrap();
            prop_assert_eq!(&full, &reduced);
            prop_assert!(reduced_explored <= full_explored);
        }

        /// The reduced box decision agrees with the unreduced reference
        /// sweep wherever the reference completes — pass, lex-first failure
        /// and its message alike — sequential and sharded.  The claimed
        /// function is either a linear guess, which mostly fails early, or
        /// the CRN's own least stable output, which mostly passes and so
        /// drives the sweep, and the budget, across the whole box.
        #[test]
        fn reduced_box_check_matches_reference_where_it_completes(
            rows in proptest::collection::vec(proptest::collection::vec(0u64..6, 8), 1..9),
            linear in 0u64..2,
            a in 0u64..3,
            b in 0u64..2,
            c in 0u64..2,
            bound in 0u64..4,
            budget in 2usize..150,
        ) {
            let crn = acyclic_crn(&rows);
            if !crn.analysis().acyclic() {
                return;
            }
            let own: Vec<u64> = NVec::box_iter(2, bound)
                .map(|x| {
                    check_stable_computation(&crn, &x, 0, 100_000)
                        .ok()
                        .and_then(|v| v.stable_outputs.first().copied())
                        .unwrap_or(0)
                })
                .collect();
            let f = |x: &NVec| {
                if linear == 1 {
                    a * x[0] + b * x[1] + c
                } else {
                    own[usize::try_from(x[0] * (bound + 1) + x[1]).unwrap()]
                }
            };
            for workers in [1usize, 3] {
                let reference = check_on_box_reference_with_workers(&crn, f, bound, budget, workers);
                if reference.is_err() {
                    continue;
                }
                for reduced_workers in [1usize, 3] {
                    let reduced = check_on_box_with_workers(&crn, f, bound, budget, reduced_workers);
                    prop_assert_eq!(&reduced, &reference);
                }
            }
        }
    }
}
