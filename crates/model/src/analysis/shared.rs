//! One analysis per CRN: the static facts that the lints, the box engine and
//! the sweep plan all read, each computed at most once.
//!
//! A [`FunctionCrn`](crate::FunctionCrn) builds its [`Analysis`] on first use
//! and hands it out by reference ([`FunctionCrn::analysis`]), so `crn
//! verify` runs [`lint_full`](super::lint_full) and the box sweep on the
//! same object and pays for the monotone-potential enumeration once.  Every
//! fact is lazy: a reference-engine sweep compiles the CRN and never
//! enumerates a cone.
//!
//! Building the object and filling each fact run under the `model.analysis`
//! span, and each build adds one to the `model.analysis.builds` counter.
//!
//! [`FunctionCrn::analysis`]: crate::FunctionCrn::analysis

use crn_sync::OnceLock;

use crate::compiled::CompiledCrn;
use crate::crn::Crn;

use super::bounds::SpeciesBounds;
use super::farkas::Kernel;
use super::invariants::{conservation_basis, ConservationLaw, FARKAS_ROW_CAP};
use super::stoichiometry::Stoichiometry;
use super::t_invariants::{nonnegative_t_semiflows, t_invariant_basis, TSemiflowEnumeration};

/// The point-independent static analysis of one CRN.
///
/// ```
/// let max = crn_model::examples::max_crn();
/// let analysis = max.analysis();
/// assert!(!analysis.bounds().truncated());
/// assert!(analysis.acyclic());
/// // The same object, not a recomputation.
/// assert!(std::ptr::eq(analysis, max.analysis()));
/// ```
#[derive(Debug)]
pub struct Analysis {
    compiled: CompiledCrn,
    stoichiometry: OnceLock<Stoichiometry>,
    bounds: OnceLock<SpeciesBounds>,
    laws: OnceLock<Vec<ConservationLaw>>,
    t_semiflows: OnceLock<TSemiflowEnumeration>,
    acyclic: OnceLock<bool>,
}

/// Fills `cell` under the `model.analysis` span, once.
fn fill<T>(cell: &OnceLock<T>, build: impl FnOnce() -> T) -> &T {
    cell.get_or_init(|| {
        let _span = crn_obs::span("model.analysis");
        build()
    })
}

impl Analysis {
    /// Compiles `crn`; every other fact is computed on first use.
    #[must_use]
    pub fn new(crn: &Crn) -> Analysis {
        let _span = crn_obs::span("model.analysis");
        crn_obs::add("model.analysis.builds", 1);
        Analysis {
            compiled: CompiledCrn::compile(crn),
            stoichiometry: OnceLock::new(),
            bounds: OnceLock::new(),
            laws: OnceLock::new(),
            t_semiflows: OnceLock::new(),
            acyclic: OnceLock::new(),
        }
    }

    /// The compiled CRN every fact is computed from.
    #[must_use]
    pub fn compiled(&self) -> &CompiledCrn {
        &self.compiled
    }

    /// The exact stoichiometry matrix.
    #[must_use]
    pub fn stoichiometry(&self) -> &Stoichiometry {
        fill(&self.stoichiometry, || Stoichiometry::of(&self.compiled))
    }

    /// Both monotone-potential cones, at the default [`FARKAS_ROW_CAP`].
    #[must_use]
    pub fn bounds(&self) -> &SpeciesBounds {
        let stoichiometry = self.stoichiometry();
        fill(&self.bounds, || {
            SpeciesBounds::from_stoichiometry(stoichiometry, FARKAS_ROW_CAP, Kernel::INDEXED)
        })
    }

    /// The signed conservation-law basis (see [`conservation_basis`]).
    #[must_use]
    pub fn conservation_basis(&self) -> &[ConservationLaw] {
        let stoichiometry = self.stoichiometry();
        fill(&self.laws, || conservation_basis(stoichiometry)).as_slice()
    }

    /// The minimal T-semiflows, at the default [`FARKAS_ROW_CAP`].
    #[must_use]
    pub fn t_semiflows(&self) -> &TSemiflowEnumeration {
        let stoichiometry = self.stoichiometry();
        fill(&self.t_semiflows, || {
            nonnegative_t_semiflows(stoichiometry, FARKAS_ROW_CAP)
        })
    }

    /// Whether no nonzero nonnegative T-invariant exists: no firing sequence
    /// can restore a configuration, so *every* reachability graph of this CRN
    /// is acyclic (a cycle's firing-count vector would be such an
    /// invariant).  Certified either by a trivial signed T-invariant basis
    /// ([`t_invariant_basis`] is complete and uncapped) or by an untruncated
    /// empty T-semiflow enumeration.
    #[must_use]
    pub fn acyclic(&self) -> bool {
        *self.acyclic.get_or_init(|| {
            let stoichiometry = self.stoichiometry();
            let basis_empty = {
                let _span = crn_obs::span("model.analysis");
                t_invariant_basis(stoichiometry).is_empty()
            };
            basis_empty || {
                let flows = self.t_semiflows();
                !flows.truncated && flows.semiflows.is_empty()
            }
        })
    }
}
