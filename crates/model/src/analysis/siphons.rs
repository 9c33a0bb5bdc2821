//! Minimal siphons and traps of the underlying Petri net.
//!
//! A *siphon* is a species set `S` such that every reaction producing into
//! `S` also consumes from `S`: once `S` is empty (unmarked) it stays empty
//! forever, structurally disabling every reaction that needs it.  A *trap*
//! is the time-reversed notion — every reaction consuming from `S` also
//! produces into `S` — so once a trap is marked it can never be emptied
//! again.  Both are computed over the *catalyst-aware* pre/post sets: a
//! catalyst (consumed and re-produced) counts as both consumed-from and
//! produced-into, exactly matching token dynamics.
//!
//! Minimal siphons are enumerated by the standard saturation algorithm: for
//! each seed species, repeatedly pick the first reaction violating the
//! closure condition and branch over the candidate species that could fix
//! it, with mutual-exclusion branching so no closed set is visited twice
//! from one seed; a final global filter keeps only set-minimal results.
//! The enumeration is worst-case exponential, so it stops after
//! [`SIPHON_NODE_CAP`] search nodes and surfaces the truncation (sound:
//! every returned set is a genuine siphon/trap, some may be missed).

use crate::compiled::CompiledCrn;

/// Default cap on branch-and-bound search nodes across one enumeration,
/// surfaced like [`FARKAS_ROW_CAP`](super::invariants::FARKAS_ROW_CAP): the
/// result is sound but incomplete once the cap is hit.
pub const SIPHON_NODE_CAP: usize = 4096;

/// The result of a capped siphon or trap enumeration: each set is a sorted
/// list of dense species indices, the list of sets is sorted and minimal
/// (no returned set strictly contains another).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSets {
    /// The minimal sets found, each sorted ascending, sorted by size then
    /// lexicographically.
    pub sets: Vec<Vec<usize>>,
    /// Whether the node cap truncated the enumeration.
    pub truncated: bool,
}

/// Catalyst-aware pre sets (species with positive required count) and post
/// sets (species left present after firing: positive net delta, or a
/// reactant not fully consumed) of every reaction.
fn pre_post(compiled: &CompiledCrn) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut pres = Vec::with_capacity(compiled.reaction_count());
    let mut posts = Vec::with_capacity(compiled.reaction_count());
    for reaction in compiled.reactions() {
        let mut pre: Vec<usize> = reaction.reactants().iter().map(|&(s, _)| s).collect();
        pre.sort_unstable();
        pre.dedup();
        let delta_of = |s: usize| {
            reaction
                .delta()
                .iter()
                .find(|&&(t, _)| t == s)
                .map_or(0, |&(_, d)| d)
        };
        let mut post: Vec<usize> = reaction
            .delta()
            .iter()
            .filter(|&&(_, d)| d > 0)
            .map(|&(s, _)| s)
            .collect();
        for &(s, required) in reaction.reactants() {
            // A catalyst or partially-consumed reactant is still present
            // after firing, so it counts as produced-into.
            if i64::try_from(required).expect("counts fit i64") + delta_of(s) > 0 {
                post.push(s);
            }
        }
        post.sort_unstable();
        post.dedup();
        pres.push(pre);
        posts.push(post);
    }
    (pres, posts)
}

/// Enumerates minimal nonempty sets closed under "every reaction touching
/// the set via `trigger` also touches it via `fixer`".  Siphons use
/// `trigger = post, fixer = pre`; traps swap the two.
fn minimal_closed_sets(
    trigger: &[Vec<usize>],
    fixer: &[Vec<usize>],
    stride: usize,
    node_cap: usize,
) -> StructuralSets {
    let mut found: Vec<Vec<bool>> = Vec::new();
    let mut nodes = 0usize;
    let mut truncated = false;
    // Each minimal closed set is enumerated from its smallest member:
    // species below the seed are permanently excluded in that seed's search.
    'seeds: for seed in 0..stride {
        let mut in_set = vec![false; stride];
        in_set[seed] = true;
        let mut excluded = vec![false; stride];
        for e in excluded.iter_mut().take(seed) {
            *e = true;
        }
        let mut stack: Vec<(Vec<bool>, Vec<bool>)> = vec![(in_set, excluded)];
        while let Some((set, mut excluded)) = stack.pop() {
            nodes += 1;
            if nodes > node_cap {
                truncated = true;
                break 'seeds;
            }
            let violated = (0..trigger.len())
                .find(|&r| trigger[r].iter().any(|&s| set[s]) && !fixer[r].iter().any(|&s| set[s]));
            let Some(r) = violated else {
                found.push(set);
                continue;
            };
            // Any closed superset of `set` (avoiding `excluded`) contains
            // some allowed fixer of `r`; partition by the first one it
            // contains so each closed set is reached exactly once.
            for &candidate in &fixer[r] {
                if excluded[candidate] {
                    continue;
                }
                debug_assert!(!set[candidate], "a contained fixer is not a violation");
                let mut child = set.clone();
                child[candidate] = true;
                stack.push((child, excluded.clone()));
                excluded[candidate] = true;
            }
        }
    }

    let mut sets: Vec<Vec<usize>> = found
        .into_iter()
        .map(|set| (0..stride).filter(|&s| set[s]).collect())
        .collect();
    super::farkas::retain_minimal_support(&mut sets);
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    StructuralSets { sets, truncated }
}

/// Enumerates the minimal siphons of `compiled`, capped at `node_cap`
/// search nodes.
#[must_use]
pub fn minimal_siphons(compiled: &CompiledCrn, node_cap: usize) -> StructuralSets {
    let (pre, post) = pre_post(compiled);
    minimal_closed_sets(&post, &pre, compiled.stride(), node_cap)
}

/// Enumerates the minimal traps of `compiled`, capped at `node_cap` search
/// nodes.
#[must_use]
pub fn minimal_traps(compiled: &CompiledCrn, node_cap: usize) -> StructuralSets {
    let (pre, post) = pre_post(compiled);
    minimal_closed_sets(&pre, &post, compiled.stride(), node_cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crn::Crn;
    use crate::examples;

    fn compiled(crn: &Crn) -> CompiledCrn {
        CompiledCrn::compile(crn)
    }

    fn named(crn: &Crn, sets: &StructuralSets) -> Vec<Vec<String>> {
        sets.sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&s| crn.species().name(crate::species::Species(s)).to_owned())
                    .collect()
            })
            .collect()
    }

    /// Brute-force reference: every nonempty subset, checked directly, then
    /// filtered to minimal sets.
    fn brute_force(trigger: &[Vec<usize>], fixer: &[Vec<usize>], stride: usize) -> Vec<Vec<usize>> {
        let mut all: Vec<Vec<usize>> = Vec::new();
        for mask in 1u32..(1 << stride) {
            let set: Vec<usize> = (0..stride).filter(|&s| mask & (1 << s) != 0).collect();
            let closed = (0..trigger.len()).all(|r| {
                !trigger[r].iter().any(|&s| set.contains(&s))
                    || fixer[r].iter().any(|&s| set.contains(&s))
            });
            if closed {
                all.push(set);
            }
        }
        let minimal: Vec<Vec<usize>> = all
            .iter()
            .filter(|set| {
                !all.iter()
                    .any(|other| other.len() < set.len() && other.iter().all(|s| set.contains(s)))
            })
            .cloned()
            .collect();
        let mut minimal = minimal;
        minimal.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        minimal
    }

    #[test]
    fn max_crn_siphons_are_the_inputs_and_it_has_no_traps() {
        // X1 and X2 are never produced, so {X1} and {X2} are minimal
        // siphons and every larger siphon contains one of them.  Every
        // species eventually funnels into K + Y -> 0, which produces
        // nothing, so no trap exists at all.
        let max = examples::max_crn();
        let c = compiled(max.crn());
        let siphons = minimal_siphons(&c, SIPHON_NODE_CAP);
        assert!(!siphons.truncated);
        assert_eq!(
            named(max.crn(), &siphons),
            vec![vec!["X1".to_owned()], vec!["X2".to_owned()]]
        );
        let traps = minimal_traps(&c, SIPHON_NODE_CAP);
        assert!(!traps.truncated);
        assert!(traps.sets.is_empty());
    }

    #[test]
    fn min_crn_output_is_a_trap() {
        // X1 + X2 -> Y: nothing consumes Y, so {Y} is a trap.
        let min = examples::min_crn();
        let c = compiled(min.crn());
        let traps = minimal_traps(&c, SIPHON_NODE_CAP);
        assert_eq!(named(min.crn(), &traps), vec![vec!["Y".to_owned()]]);
    }

    #[test]
    fn catalysts_count_as_produced_into() {
        // C + X -> C + Y: {C} is both a siphon and a trap (the catalyst is
        // consumed-from and produced-into), and {Y} is a trap.
        let mut crn = Crn::new();
        crn.parse_reaction("C + X -> C + Y").unwrap();
        let c = compiled(&crn);
        let siphons = named(&crn, &minimal_siphons(&c, SIPHON_NODE_CAP));
        assert!(siphons.contains(&vec!["C".to_owned()]), "{siphons:?}");
        assert!(siphons.contains(&vec!["X".to_owned()]), "{siphons:?}");
        let traps = named(&crn, &minimal_traps(&c, SIPHON_NODE_CAP));
        assert!(traps.contains(&vec!["C".to_owned()]), "{traps:?}");
        assert!(traps.contains(&vec!["Y".to_owned()]), "{traps:?}");
    }

    #[test]
    fn a_cycle_is_both_siphon_and_trap() {
        let mut crn = Crn::new();
        crn.parse_reaction("A -> B").unwrap();
        crn.parse_reaction("B -> A").unwrap();
        let c = compiled(&crn);
        assert_eq!(
            named(&crn, &minimal_siphons(&c, SIPHON_NODE_CAP)),
            vec![vec!["A".to_owned(), "B".to_owned()]]
        );
        assert_eq!(
            named(&crn, &minimal_traps(&c, SIPHON_NODE_CAP)),
            vec![vec!["A".to_owned(), "B".to_owned()]]
        );
    }

    #[test]
    fn a_tiny_node_cap_surfaces_truncation() {
        let max = examples::max_crn();
        let c = compiled(max.crn());
        let cut = minimal_siphons(&c, 1);
        assert!(cut.truncated);
        let full = minimal_siphons(&c, SIPHON_NODE_CAP);
        assert!(cut.sets.len() <= full.sets.len());
    }

    #[test]
    fn enumeration_matches_brute_force_on_assorted_nets() {
        let sources = [
            vec!["X1 + X2 -> Y"],
            vec!["X -> 2Y", "Y -> Z", "Z + X -> Y"],
            vec!["A -> B", "B -> A", "A + C -> D", "D -> C"],
            vec!["L -> W", "W + X -> Y + V", "P -> Q"],
            vec!["2A -> B + C", "C -> A", "B + C -> 2C"],
        ];
        for reactions in &sources {
            let mut crn = Crn::new();
            for r in reactions {
                crn.parse_reaction(r).unwrap();
            }
            let c = compiled(&crn);
            let (pre, post) = pre_post(&c);
            let siphons = minimal_siphons(&c, SIPHON_NODE_CAP);
            assert!(!siphons.truncated);
            assert_eq!(
                siphons.sets,
                brute_force(&post, &pre, c.stride()),
                "siphons of {reactions:?}"
            );
            let traps = minimal_traps(&c, SIPHON_NODE_CAP);
            assert_eq!(
                traps.sets,
                brute_force(&pre, &post, c.stride()),
                "traps of {reactions:?}"
            );
        }
    }
}
