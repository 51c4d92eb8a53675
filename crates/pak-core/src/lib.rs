//! # pak-core — purely probabilistic systems and the PAK theorems
//!
//! This crate implements the formal model of *Probably Approximately
//! Knowing* (Zamir & Moses, PODC 2020):
//!
//! * **Purely probabilistic systems** (§2): a finite labelled tree
//!   `T = (V, E, π)` inducing a prior probability space over runs —
//!   [`pps::Pps`], built with [`pps::PpsBuilder`].
//! * **Facts** (§2.3): conditions over points, the `@`-operators
//!   (`ϕ@ℓ`, `ϕ@α`), past-basedness — [`fact`].
//! * **Probabilistic beliefs** (§3): the posterior `β_i(ϕ) = µ_T(ϕ@ℓ | ℓ)`
//!   — [`belief`], with [`belief::ActionAnalysis`] bundling every quantity
//!   the paper derives for an `(agent, action, fact)` triple.
//! * **Probabilistic constraints** (Definition 3.2): `µ_T(ϕ@α | α) ≥ p` —
//!   [`belief::ActionAnalysis::satisfies_constraint`].
//! * **Local-state independence** (Definition 4.1) and Lemma 4.3's
//!   sufficient conditions — [`independence`].
//! * **The theorems** (§§4–7): sufficiency, necessity, the expectation
//!   theorem, and the PAK bounds, each as a checkable function returning a
//!   structured report — [`theorems`].
//!
//! Everything is generic over the numeric type through
//! [`prob::Probability`]; use [`pak_num::Rational`] for exact verification
//! (the expectation theorem is an *equality*) and `f64` for fast sweeps.
//!
//! # Example: a probabilistic constraint, analysed exactly
//!
//! ```
//! use pak_core::prelude::*;
//! use pak_num::Rational;
//!
//! // A two-run coin system: the agent acts blindly; ϕ = "heads".
//! let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
//! let h = b.initial(SimpleState::new(1, vec![0]), Rational::from_ratio(99, 100))?;
//! let t = b.initial(SimpleState::new(0, vec![0]), Rational::from_ratio(1, 100))?;
//! let fire = ActionId(0);
//! b.child(h, SimpleState::new(1, vec![0]), Rational::one(), &[(AgentId(0), fire)])?;
//! b.child(t, SimpleState::new(0, vec![0]), Rational::one(), &[(AgentId(0), fire)])?;
//! let pps = b.build()?;
//!
//! let heads = StateFact::<SimpleState>::new("heads", |g| g.env == 1);
//! let analysis = ActionAnalysis::new(&pps, AgentId(0), fire, &heads).unwrap();
//!
//! // µ(ϕ@α | α) = 0.99, and (Theorem 6.2) the expected belief equals it.
//! assert_eq!(analysis.constraint_probability(), Rational::from_ratio(99, 100));
//! assert_eq!(analysis.expected_belief(), Rational::from_ratio(99, 100));
//! # Ok::<(), PpsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belief;
pub mod cancel;
pub mod error;
pub mod event;
pub mod fact;
pub mod failpoint;
pub mod generator;
pub mod hash;
pub mod ids;
pub mod independence;
pub mod intern;
pub mod mass;
pub mod pps;
pub mod prob;
pub mod state;
pub mod theorems;
pub mod trace;

/// Convenient glob-import of the most commonly used items.
///
/// ```
/// use pak_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::belief::{ActionAnalysis, Beliefs, FrontierEntry, RunBelief};
    pub use crate::error::{AnalysisError, PpsError};
    pub use crate::event::RunSet;
    pub use crate::fact::{
        AndFact, DoesFact, Fact, Facts, FalseFact, FnFact, NotFact, OrFact, StateFact, TrueFact,
    };
    pub use crate::ids::{ActionId, AgentId, CellId, LocalId, NodeId, Point, RunId, StateId, Time};
    pub use crate::independence::{
        check_lemma43, check_local_state_independence, is_local_state_independent,
    };
    pub use crate::intern::{LocalPool, StatePool};
    pub use crate::pps::{Cell, Pps, PpsBuilder, PpsExtender};
    pub use crate::prob::Probability;
    pub use crate::state::{GlobalState, SimpleState};
    pub use crate::theorems::{
        check_expectation, check_kop_limit, check_necessity, check_pak, check_pak_corollary,
        check_sufficiency, pak_frontier,
    };
}
