//! Integration tests spanning the whole workspace: semilinear presentation →
//! characterization → synthesis → model-level verification → simulation.

use composable_crn::core::characterize::{characterize, Characterization};
use composable_crn::core::one_dim::{analyze_semilinear_1d, synthesize_1d_leader};
use composable_crn::core::spec::ObliviousSpec;
use composable_crn::core::synthesis::synthesize;
use composable_crn::model::check_stable_computation;
use composable_crn::numeric::NVec;
use composable_crn::popproto::run_pairwise;
use composable_crn::semilinear::examples as sl;
use composable_crn::sim::convergence::run_to_silence;
use composable_crn::sim::runner::spot_check_on_box;
use composable_crn::sim::UniformScheduler;

#[test]
fn one_dimensional_pipeline_from_presentation_to_simulation() {
    // Semilinear presentation -> Theorem 3.1 structure -> CRN -> verification
    // by exhaustive reachability, SSA, and pairwise-collision scheduling.
    let f = sl::staircase_1d();
    let structure = analyze_semilinear_1d(&f, 8, 4).unwrap();
    let crn = synthesize_1d_leader(&structure);
    assert!(crn.is_output_oblivious());
    for x in 0..8u64 {
        let expected = f.eval(&NVec::from(vec![x])).unwrap();
        assert!(
            check_stable_computation(&crn, &NVec::from(vec![x]), expected, 200_000)
                .unwrap()
                .is_correct()
        );
        let mut scheduler = UniformScheduler::seeded(x);
        let report = run_to_silence(&crn, &NVec::from(vec![x]), &mut scheduler, 1_000_000).unwrap();
        assert!(report.silent);
        assert_eq!(report.output, expected);
        let pairwise = run_pairwise(&crn, &NVec::from(vec![x]), x + 1, 1_000_000).unwrap();
        assert!(pairwise.silent);
        assert_eq!(pairwise.output, expected);
    }
}

#[test]
fn two_dimensional_pipeline_for_the_figure7_example() {
    let f = sl::figure7_example();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8).unwrap() else {
        panic!("Figure 7 example must be obliviously computable");
    };
    // The spec reproduces f everywhere we look.
    for x in NVec::enumerate_box(2, 7) {
        assert_eq!(spec.eval(&x).unwrap(), f.eval(&x).unwrap());
    }
    // Synthesize and verify: exhaustive on tiny inputs, SSA spot checks beyond.
    let crn = synthesize(&spec).unwrap();
    assert!(crn.is_output_oblivious());
    for x in NVec::enumerate_box(2, 1) {
        let expected = f.eval(&x).unwrap();
        assert!(
            check_stable_computation(&crn, &x, expected, 500_000)
                .unwrap()
                .is_correct(),
            "exhaustive check failed at {x}"
        );
    }
    let mismatches = spot_check_on_box(&crn, |x| f.eval(x).unwrap(), 3, 2_000_000, 5).unwrap();
    assert_eq!(mismatches, 0);
}

#[test]
fn negative_results_are_consistent_across_layers() {
    // max: the characterization says impossible, and indeed every
    // output-oblivious candidate must overproduce (demonstrated by stripping
    // the Y-consuming reaction from the Figure 1 CRN).
    let verdict = characterize(&sl::max2(), 8).unwrap();
    assert!(verdict.is_impossible());
    let stripped_peak = composable_crn::core::impossibility::overproduction_after_stripping(
        &composable_crn::model::examples::max_crn(),
        &NVec::from(vec![3, 2]),
        200_000,
    )
    .unwrap();
    assert!(stripped_peak > 3);
    // The equation (2) counterexample is also rejected.
    assert!(characterize(&sl::equation2_counterexample(), 8)
        .unwrap()
        .is_impossible());
    // A decreasing function is rejected by monotonicity alone.
    assert!(characterize(&sl::truncated_subtraction_from(2), 6)
        .unwrap()
        .is_impossible());
}

#[test]
fn characterized_specs_round_trip_through_restrictions() {
    // Condition (iii) of Theorem 5.2: restrictions of computable functions
    // are computable, and the characterization's spec agrees with the
    // directly-restricted presentation.
    let f = sl::min2();
    let Characterization::ObliviouslyComputable { spec } = characterize(&f, 8).unwrap() else {
        panic!("min is obliviously computable");
    };
    if let ObliviousSpec::Compound { .. } = &spec {
        let restricted = f.restrict(0, 2);
        let Characterization::ObliviouslyComputable { spec: rspec } =
            characterize(&restricted, 8).unwrap()
        else {
            panic!("min(2, x) is obliviously computable");
        };
        for x in 0..8u64 {
            assert_eq!(
                rspec.eval(&NVec::from(vec![x])).unwrap(),
                restricted.eval(&NVec::from(vec![x])).unwrap()
            );
        }
    }
}

/// The box check decides synthesized CRNs carrying the T-invariant
/// acyclicity certificate with the terminal-output scan.  Pin that the
/// synthesized Figure 7 CRN — the `fig7-analysis` benchmark workload —
/// carries it: no nonzero nonnegative T-invariant, shown by an empty signed
/// basis or an empty, untruncated semiflow enumeration.  If this breaks, the
/// workload silently moves to the cyclic (CSR plus condensation) path.
#[test]
fn synthesized_figure7_is_certified_acyclic() {
    use composable_crn::model::analysis::{
        lint_full, nonnegative_t_semiflows, t_invariant_basis, SpeciesBounds, Stoichiometry,
        FARKAS_ROW_CAP,
    };
    use composable_crn::model::CompiledCrn;

    let source =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/figure7.crn"))
            .expect("corpus/figure7.crn is readable");
    let doc = composable_crn::lang::lower_document(&composable_crn::lang::parse(&source).unwrap())
        .unwrap();
    let [(_, f)] = doc.fns.as_slice() else {
        panic!("corpus/figure7.crn holds exactly one fn item");
    };
    // `crn synthesize` characterizes at its default bound of 8.
    let Characterization::ObliviouslyComputable { spec } = characterize(f, 8).unwrap() else {
        panic!("the Figure 7 function must be obliviously computable");
    };
    let crn = synthesize(&spec).unwrap();
    let compiled = CompiledCrn::compile(crn.crn());
    let stoich = Stoichiometry::of(&compiled);
    let certified = t_invariant_basis(&stoich).is_empty() || {
        let flows = nonnegative_t_semiflows(&stoich, FARKAS_ROW_CAP);
        !flows.truncated && flows.semiflows.is_empty()
    };
    assert!(
        certified,
        "synthesized figure7 lost its acyclicity certificate"
    );
    assert!(crn.analysis().acyclic());

    // The potential enumeration hits the row cap; the rows it returns up to
    // that point are pinned in tests/golden, digit per species.
    let bounds = SpeciesBounds::of(&compiled);
    assert!(
        bounds.truncated(),
        "figure7's potential cones stop truncating"
    );
    let golden = include_str!("golden/figure7_potentials.txt");
    let mut cones: [Vec<Vec<i128>>; 2] = [Vec::new(), Vec::new()];
    let mut cone = 0;
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        match line {
            "decreasing" => cone = 0,
            "increasing" => cone = 1,
            digits => cones[cone].push(digits.bytes().map(|b| i128::from(b - b'0')).collect()),
        }
    }
    assert_eq!(bounds.decreasing_potentials(), cones[0].as_slice());
    assert_eq!(bounds.increasing_potentials(), cones[1].as_slice());
    assert_eq!(crn.analysis().bounds(), &bounds);
    assert!(
        lint_full(&crn)
            .notes
            .iter()
            .any(|n| n.contains("potential enumeration truncated at 4096 rows")),
        "the truncation note must still be emitted"
    );
}

/// The synthesized Lemma 6.2 constructions verify exhaustively at bound 4
/// within the default budget.  Each is certified acyclic, so the box check
/// decides on the stubborn-set-reduced terminal scan; the cap on stored
/// configurations catches a reduction that silently stops firing (the
/// unreduced `min_spec` sweep alone stores over a million).
#[test]
fn synthesized_constructions_verify_exhaustively_at_bound_4() {
    use composable_crn::model::{check_on_box_stats, ReachabilityLimits};

    for name in ["min_spec", "figure7", "staircase", "compound_spec"] {
        let path = format!("{}/corpus/{name}.crn", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).expect("corpus document is readable");
        let doc =
            composable_crn::lang::lower_document(&composable_crn::lang::parse(&source).unwrap())
                .unwrap();
        // `crn synthesize` prefers the spec item and characterizes a fn item
        // at its default bound of 8.
        let spec = match (doc.specs.as_slice(), doc.fns.as_slice()) {
            ([(_, spec)], _) => spec.clone(),
            ([], [(_, f)]) => match characterize(f, 8).unwrap() {
                Characterization::ObliviouslyComputable { spec } => spec,
                other => panic!("{name}: not obliviously computable: {other:?}"),
            },
            _ => panic!("{name}: expected one spec or one fn item"),
        };
        let crn = synthesize(&spec).unwrap();
        assert!(
            crn.analysis().acyclic(),
            "{name} lost its acyclicity certificate"
        );
        let budget = ReachabilityLimits::default().max_configurations;
        let (outcome, stats) = check_on_box_stats(&crn, |x| spec.eval(x).unwrap(), 4, budget);
        assert_eq!(
            outcome,
            Ok(None),
            "{name} must pass exhaustively at bound 4"
        );
        assert!(
            stats.configs_explored <= 20_000,
            "{name}: {} configurations stored at bound 4",
            stats.configs_explored
        );
    }
}
