//! The epistemic-probabilistic formula language.
//!
//! The paper works semantically with facts; the companion logic (Halpern's
//! *Reasoning about Uncertainty* \[23\], which the paper defers to) pairs
//! propositional connectives with knowledge and probabilistic-belief
//! modalities. [`Formula`] implements that language over a pps:
//!
//! ```text
//! ϕ ::= ⊤ | ⊥ | atom | ¬ϕ | ϕ ∧ ϕ | ϕ ∨ ϕ | ϕ → ϕ
//!     | does_i(α)                 (action occurrence, §2.3)
//!     | K_i ϕ                     (knowledge: truth in all indistinguishable points)
//!     | B_i^{≥p} ϕ                (probabilistic belief: β_i(ϕ) ≥ p, §3)
//!     | ◇ϕ | □ϕ                   (eventually / always within the run)
//! ```
//!
//! A formula implements [`Fact`], so it can appear anywhere the core
//! analyses expect a condition — including inside probabilistic
//! constraints and other formulas.

use std::fmt;
use std::sync::Arc;

use pak_core::belief::Beliefs;
use pak_core::fact::Fact;
use pak_core::ids::{ActionId, AgentId, Point};
use pak_core::pps::Pps;
use pak_core::prob::Probability;
use pak_core::state::GlobalState;

/// A formula of the epistemic-probabilistic language.
///
/// Formulas are cheaply cloneable (atoms and subformulas are reference
/// counted).
///
/// # Examples
///
/// ```
/// use pak_logic::Formula;
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// // "Alice believes with degree ≥ 0.9 that Bob is firing."
/// let f: Formula<SimpleState, Rational> = Formula::believes_at_least(
///     AgentId(0),
///     Formula::does(AgentId(1), ActionId(1)),
///     Rational::from_ratio(9, 10),
/// );
/// assert_eq!(f.to_string(), "B_0^{≥9/10} does_1(action#1)");
/// ```
#[derive(Clone)]
pub enum Formula<G: GlobalState, P: Probability> {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// An atomic fact.
    Atom(Arc<dyn Fact<G, P> + Send + Sync>),
    /// Negation.
    Not(Arc<Formula<G, P>>),
    /// Conjunction.
    And(Arc<Formula<G, P>>, Arc<Formula<G, P>>),
    /// Disjunction.
    Or(Arc<Formula<G, P>>, Arc<Formula<G, P>>),
    /// Material implication.
    Implies(Arc<Formula<G, P>>, Arc<Formula<G, P>>),
    /// `does_i(α)`: the agent performs the action now.
    Does(AgentId, ActionId),
    /// `K_i ϕ`: agent `i` knows `ϕ`.
    Knows(AgentId, Arc<Formula<G, P>>),
    /// `B_i^{≥p} ϕ`: agent `i`'s degree of belief in `ϕ` is at least `p`.
    BelievesAtLeast(AgentId, Arc<Formula<G, P>>, P),
    /// `◇ϕ`: `ϕ` holds at some point (present or future) of the run.
    Eventually(Arc<Formula<G, P>>),
    /// `□ϕ`: `ϕ` holds at every point from now to the end of the run.
    Always(Arc<Formula<G, P>>),
}

impl<G: GlobalState, P: Probability> Formula<G, P> {
    /// Wraps a fact as an atomic formula.
    pub fn atom(fact: impl Fact<G, P> + Send + Sync + 'static) -> Self {
        Formula::Atom(Arc::new(fact))
    }

    /// `¬ϕ`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // formula builder, deliberately named ¬
    pub fn not(self) -> Self {
        Formula::Not(Arc::new(self))
    }

    /// `ϕ ∧ ψ`.
    #[must_use]
    pub fn and(self, other: Self) -> Self {
        Formula::And(Arc::new(self), Arc::new(other))
    }

    /// `ϕ ∨ ψ`.
    #[must_use]
    pub fn or(self, other: Self) -> Self {
        Formula::Or(Arc::new(self), Arc::new(other))
    }

    /// `ϕ → ψ`.
    #[must_use]
    pub fn implies(self, other: Self) -> Self {
        Formula::Implies(Arc::new(self), Arc::new(other))
    }

    /// `does_i(α)`.
    #[must_use]
    pub fn does(agent: AgentId, action: ActionId) -> Self {
        Formula::Does(agent, action)
    }

    /// `K_i ϕ`.
    #[must_use]
    pub fn knows(agent: AgentId, inner: Self) -> Self {
        Formula::Knows(agent, Arc::new(inner))
    }

    /// `B_i^{≥p} ϕ`.
    #[must_use]
    pub fn believes_at_least(agent: AgentId, inner: Self, p: P) -> Self {
        Formula::BelievesAtLeast(agent, Arc::new(inner), p)
    }

    /// `◇ϕ`.
    #[must_use]
    pub fn eventually(self) -> Self {
        Formula::Eventually(Arc::new(self))
    }

    /// `□ϕ`.
    #[must_use]
    pub fn always(self) -> Self {
        Formula::Always(Arc::new(self))
    }

    /// The first agent (depth first, left to right) that a `K` or `B`
    /// operator of the formula names and a system of `n_agents` agents
    /// lacks. Such a formula cannot be evaluated on that system: its
    /// modalities have no cells to range over.
    #[must_use]
    pub fn agent_outside(&self, n_agents: u32) -> Option<AgentId> {
        match self {
            Formula::Knows(agent, _) | Formula::BelievesAtLeast(agent, _, _)
                if agent.0 >= n_agents =>
            {
                Some(*agent)
            }
            Formula::Knows(_, x)
            | Formula::BelievesAtLeast(_, x, _)
            | Formula::Not(x)
            | Formula::Eventually(x)
            | Formula::Always(x) => x.agent_outside(n_agents),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => a
                .agent_outside(n_agents)
                .or_else(|| b.agent_outside(n_agents)),
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Does(..) => None,
        }
    }

    /// Evaluates the formula at a point of a pps, as a Boolean.
    ///
    /// This is the two-valued view of [`Formula::eval_at`], which states
    /// the point-semantics contract: a formula has a truth value exactly
    /// at the *live* points of the system ([`Pps::is_live`]). At a dead
    /// point — the run does not exist, or ends before `point.time` —
    /// `holds_at` reports `false` *uniformly for every formula*, `⊤`
    /// included, matching the core convention for facts. Because the rule
    /// is uniform (both sides of any equivalence are `false` there), every
    /// propositional identity — De Morgan, material implication
    /// `a → b ≡ ¬a ∨ b`, double negation — holds pointwise at **every**
    /// point, dead or live. Never panics, for any point.
    #[must_use]
    pub fn holds_at(&self, pps: &Pps<G, P>, point: Point) -> bool {
        self.eval_at(pps, point) == Some(true)
    }

    /// Evaluates the formula at a point of a pps, three-valued.
    ///
    /// **The point-semantics contract.** Truth is defined exactly at the
    /// *live* points of the system ([`Pps::is_live`]): pairs `(r, t)`
    /// where run `r` exists and `t` is within its length — the set the
    /// paper's validity and measure notions quantify over. At a live
    /// point every connective and modality has its textbook meaning, and
    /// every quantifier inside the formula ranges over live points only:
    /// `K_i` over the agent's information cell (cells contain live points
    /// by construction), `B_i^{≥p}` over the conditional measure of the
    /// cell, `◇`/`□` over the remainder of the run. At a dead point there
    /// is no state, no cell and no belief, so there is no truth value:
    /// the result is `None` — for `⊤` and `⊥` as much as for any other
    /// formula — and evaluation never panics, even for out-of-range run
    /// ids.
    ///
    /// # Panics
    ///
    /// Panics if a `K` or `B` operator names an agent the system lacks
    /// (see [`Formula::agent_outside`]).
    #[must_use]
    pub fn eval_at(&self, pps: &Pps<G, P>, point: Point) -> Option<bool> {
        if !pps.is_live(point) {
            return None;
        }
        // From here on `point` is live, and every point evaluation below
        // stays within live points, so plain `holds_at` recursion is exact.
        let value = match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(f) => f.holds(pps, point),
            Formula::Not(f) => !f.holds_at(pps, point),
            Formula::And(a, b) => a.holds_at(pps, point) && b.holds_at(pps, point),
            Formula::Or(a, b) => a.holds_at(pps, point) || b.holds_at(pps, point),
            Formula::Implies(a, b) => !a.holds_at(pps, point) || b.holds_at(pps, point),
            Formula::Does(agent, action) => pps.does(*agent, *action, point),
            Formula::Knows(agent, inner) => {
                let cell = pps.cell_at(*agent, point)?;
                let c = pps.cell(cell);
                pps.cell_points(c).all(|pt| inner.holds_at(pps, pt))
            }
            Formula::BelievesAtLeast(agent, inner, p) => {
                let fact = FormulaFact(inner.as_ref().clone());
                let belief = pps.belief(*agent, &fact, point)?;
                belief.at_least(p)
            }
            Formula::Eventually(inner) => {
                let len = pps.run_len(point.run) as u32;
                (point.time..len).any(|t| {
                    inner.holds_at(
                        pps,
                        Point {
                            run: point.run,
                            time: t,
                        },
                    )
                })
            }
            Formula::Always(inner) => {
                let len = pps.run_len(point.run) as u32;
                (point.time..len).all(|t| {
                    inner.holds_at(
                        pps,
                        Point {
                            run: point.run,
                            time: t,
                        },
                    )
                })
            }
        };
        Some(value)
    }
}

/// Adapter giving formulas the [`Fact`] interface (used internally for the
/// belief modality and externally to plug formulas into the core analyses).
pub struct FormulaFact<G: GlobalState, P: Probability>(pub Formula<G, P>);

impl<G: GlobalState, P: Probability> fmt::Debug for FormulaFact<G, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FormulaFact({})", self.0)
    }
}

impl<G: GlobalState, P: Probability> Fact<G, P> for FormulaFact<G, P> {
    fn holds(&self, pps: &Pps<G, P>, point: Point) -> bool {
        self.0.holds_at(pps, point)
    }

    fn label(&self) -> String {
        self.0.to_string()
    }
}

impl<G: GlobalState, P: Probability> Fact<G, P> for Formula<G, P> {
    fn holds(&self, pps: &Pps<G, P>, point: Point) -> bool {
        self.holds_at(pps, point)
    }

    fn label(&self) -> String {
        self.to_string()
    }
}

impl<G: GlobalState, P: Probability> fmt::Debug for Formula<G, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Formula({self})")
    }
}

impl<G: GlobalState, P: Probability> fmt::Display for Formula<G, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "⊤"),
            Formula::False => write!(f, "⊥"),
            Formula::Atom(a) => write!(f, "{}", a.label()),
            Formula::Not(x) => write!(f, "¬{x}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Implies(a, b) => write!(f, "({a} → {b})"),
            Formula::Does(i, act) => write!(f, "does_{}({act})", i.0),
            Formula::Knows(i, x) => write!(f, "K_{} {x}", i.0),
            Formula::BelievesAtLeast(i, x, p) => write!(f, "B_{}^{{≥{p}}} {x}", i.0),
            Formula::Eventually(x) => write!(f, "◇{x}"),
            Formula::Always(x) => write!(f, "□{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::StateFact;
    use pak_core::ids::RunId;
    use pak_core::pps::PpsBuilder;
    use pak_core::state::SimpleState;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    /// Two runs: hidden env bit, agent observes nothing at t=0, everything
    /// at t=1.
    fn reveal_system() -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
        let h = b.initial(SimpleState::new(1, vec![0]), r(3, 4)).unwrap();
        let t = b.initial(SimpleState::new(0, vec![0]), r(1, 4)).unwrap();
        b.child(h, SimpleState::new(1, vec![1]), Rational::one(), &[])
            .unwrap();
        b.child(t, SimpleState::new(0, vec![2]), Rational::one(), &[])
            .unwrap();
        b.build().unwrap()
    }

    fn heads() -> Formula<SimpleState, Rational> {
        Formula::atom(StateFact::new("heads", |g: &SimpleState| g.env == 1))
    }

    #[test]
    fn agent_outside_finds_the_first_missing_modal_agent() {
        let k1 = Formula::knows(AgentId(1), heads());
        let b3 = Formula::believes_at_least(AgentId(3), heads(), r(1, 2));
        assert_eq!(k1.agent_outside(2), None);
        assert_eq!(k1.agent_outside(1), Some(AgentId(1)));
        let nested = heads().and(b3.clone().eventually()).or(k1.not());
        assert_eq!(nested.agent_outside(1), Some(AgentId(3)));
        assert_eq!(nested.agent_outside(2), Some(AgentId(3)));
        assert_eq!(nested.agent_outside(4), None);
        // `does` names an agent but quantifies over no cell.
        let does = Formula::<SimpleState, Rational>::does(AgentId(9), ActionId(0));
        assert_eq!(does.agent_outside(1), None);
    }

    #[test]
    fn propositional_connectives() {
        let pps = reveal_system();
        let pt = Point {
            run: RunId(0),
            time: 0,
        };
        assert!(Formula::<SimpleState, Rational>::True.holds_at(&pps, pt));
        assert!(!Formula::<SimpleState, Rational>::False.holds_at(&pps, pt));
        assert!(heads().holds_at(&pps, pt));
        assert!(!heads().not().holds_at(&pps, pt));
        assert!(heads().and(Formula::True).holds_at(&pps, pt));
        assert!(heads().or(Formula::False).holds_at(&pps, pt));
        assert!(Formula::False.implies(heads()).holds_at(&pps, pt));
    }

    #[test]
    fn knowledge_requires_indistinguishability() {
        let pps = reveal_system();
        let k_heads = Formula::knows(AgentId(0), heads());
        // At t=0 the agent cannot distinguish the two runs: no knowledge.
        assert!(!k_heads.holds_at(
            &pps,
            Point {
                run: RunId(0),
                time: 0
            }
        ));
        // At t=1 the observation reveals the bit: knowledge on the heads run.
        assert!(k_heads.holds_at(
            &pps,
            Point {
                run: RunId(0),
                time: 1
            }
        ));
        assert!(!k_heads.holds_at(
            &pps,
            Point {
                run: RunId(1),
                time: 1
            }
        ));
    }

    #[test]
    fn knowledge_implies_truth() {
        // The S5 axiom T on a concrete system: K_i ϕ → ϕ everywhere.
        let pps = reveal_system();
        let k = Formula::knows(AgentId(0), heads());
        let axiom_t = k.implies(heads());
        for pt in pps.points().collect::<Vec<_>>() {
            assert!(axiom_t.holds_at(&pps, pt));
        }
    }

    #[test]
    fn belief_modality_thresholds() {
        let pps = reveal_system();
        let pt0 = Point {
            run: RunId(0),
            time: 0,
        };
        // β(heads) = ¾ at time 0.
        assert!(Formula::believes_at_least(AgentId(0), heads(), r(3, 4)).holds_at(&pps, pt0));
        assert!(!Formula::believes_at_least(AgentId(0), heads(), r(4, 5)).holds_at(&pps, pt0));
        // After the reveal, belief is 1 or 0.
        let pt1 = Point {
            run: RunId(0),
            time: 1,
        };
        assert!(
            Formula::believes_at_least(AgentId(0), heads(), Rational::one()).holds_at(&pps, pt1)
        );
        let pt1t = Point {
            run: RunId(1),
            time: 1,
        };
        assert!(!Formula::believes_at_least(AgentId(0), heads(), r(1, 100)).holds_at(&pps, pt1t));
    }

    #[test]
    fn knowledge_implies_belief_one() {
        // K_i ϕ → B_i^{≥1} ϕ on a concrete system.
        let pps = reveal_system();
        let schema = Formula::knows(AgentId(0), heads()).implies(Formula::believes_at_least(
            AgentId(0),
            heads(),
            Rational::one(),
        ));
        for pt in pps.points().collect::<Vec<_>>() {
            assert!(schema.holds_at(&pps, pt));
        }
    }

    #[test]
    fn temporal_modalities() {
        let pps = reveal_system();
        let observed = Formula::atom(StateFact::new("observed", |g: &SimpleState| {
            g.locals[0] != 0
        }));
        let pt0 = Point {
            run: RunId(0),
            time: 0,
        };
        assert!(observed.clone().eventually().holds_at(&pps, pt0));
        assert!(!observed.clone().always().holds_at(&pps, pt0));
        let pt1 = Point {
            run: RunId(0),
            time: 1,
        };
        assert!(observed.always().holds_at(&pps, pt1));
        // heads is constant: always ↔ eventually at every point of run 0.
        assert!(heads().always().holds_at(&pps, pt0));
    }

    #[test]
    fn nested_belief_about_knowledge() {
        let pps = reveal_system();
        // "The agent believes with degree ≥ ¾ that it will eventually know
        // whether heads": at t=0 it is in fact certain of this.
        let will_know = Formula::knows(AgentId(0), heads())
            .or(Formula::knows(AgentId(0), heads().not()))
            .eventually();
        let f = Formula::believes_at_least(AgentId(0), will_know, Rational::one());
        assert!(f.holds_at(
            &pps,
            Point {
                run: RunId(0),
                time: 0
            }
        ));
    }

    #[test]
    fn beyond_run_end_fails_everything() {
        let pps = reveal_system();
        let beyond = Point {
            run: RunId(0),
            time: 42,
        };
        assert!(!Formula::<SimpleState, Rational>::True.holds_at(&pps, beyond));
        assert!(!heads().not().holds_at(&pps, beyond));
    }

    /// One formula per constructor of the language, exercising every
    /// evaluation arm.
    fn every_constructor() -> Vec<Formula<SimpleState, Rational>> {
        vec![
            Formula::True,
            Formula::False,
            heads(),
            heads().not(),
            heads().and(Formula::True),
            heads().or(Formula::False),
            Formula::True.implies(heads()),
            Formula::does(AgentId(0), ActionId(0)),
            Formula::knows(AgentId(0), heads()),
            Formula::believes_at_least(AgentId(0), heads(), r(1, 2)),
            heads().eventually(),
            heads().always(),
        ]
    }

    #[test]
    fn every_constructor_is_undefined_at_dead_points() {
        // The regression for the `BelievesAtLeast` panic path: at a dead
        // point every constructor (the belief and knowledge modalities
        // included) must return `None` from `eval_at` and `false` from
        // `holds_at`, never panic. Both kinds of dead point are covered:
        // past a run's end, and an out-of-range run id.
        let pps = reveal_system();
        let dead = [
            Point {
                run: RunId(0),
                time: 2,
            },
            Point {
                run: RunId(1),
                time: 42,
            },
            Point {
                run: RunId(99),
                time: 0,
            },
        ];
        for f in every_constructor() {
            for pt in dead {
                assert!(!pps.is_live(pt));
                assert_eq!(f.eval_at(&pps, pt), None, "{f} at {pt:?}");
                assert!(!f.holds_at(&pps, pt), "{f} at {pt:?}");
            }
        }
        // And at live points eval_at is two-valued, agreeing with holds_at.
        for f in every_constructor() {
            for pt in pps.points().collect::<Vec<_>>() {
                assert_eq!(f.eval_at(&pps, pt), Some(f.holds_at(&pps, pt)));
            }
        }
    }

    #[test]
    fn propositional_identities_hold_at_every_point() {
        // Material implication and De Morgan, pointwise — including dead
        // points, where the uniform-falsity rule makes both sides false.
        let pps = reveal_system();
        let k = Formula::knows(AgentId(0), heads());
        let pairs: Vec<(
            Formula<SimpleState, Rational>,
            Formula<SimpleState, Rational>,
        )> = vec![
            (heads().implies(k.clone()), heads().not().or(k.clone())),
            (
                Formula::True.implies(heads()),
                Formula::True.not().or(heads()),
            ),
            (
                heads().and(k.clone()).not(),
                heads().not().or(k.clone().not()),
            ),
            (
                heads().or(k.clone()).not(),
                heads().not().and(k.clone().not()),
            ),
            (heads().not().not(), heads()),
        ];
        let mut probe: Vec<Point> = pps.points().collect();
        probe.extend([
            Point {
                run: RunId(0),
                time: 7,
            },
            Point {
                run: RunId(5),
                time: 0,
            },
        ]);
        for (lhs, rhs) in pairs {
            for &pt in &probe {
                assert_eq!(
                    lhs.holds_at(&pps, pt),
                    rhs.holds_at(&pps, pt),
                    "{lhs} vs {rhs} at {pt:?}"
                );
                assert_eq!(lhs.eval_at(&pps, pt), rhs.eval_at(&pps, pt));
            }
        }
    }

    #[test]
    fn display_forms() {
        let f: Formula<SimpleState, Rational> =
            Formula::knows(AgentId(1), Formula::does(AgentId(0), ActionId(2)).not());
        assert_eq!(f.to_string(), "K_1 ¬does_0(action#2)");
        let b: Formula<SimpleState, Rational> =
            Formula::believes_at_least(AgentId(0), Formula::True, r(1, 2));
        assert_eq!(b.to_string(), "B_0^{≥1/2} ⊤");
        let t: Formula<SimpleState, Rational> = Formula::True.eventually().always();
        assert_eq!(t.to_string(), "□◇⊤");
    }

    #[test]
    fn formula_as_fact_in_core_analysis() {
        use pak_core::belief::ActionAnalysis;
        // Figure-1-like system with an action; use a formula as the
        // condition of an analysis.
        let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
        let g0 = b
            .initial(SimpleState::new(1, vec![0]), Rational::one())
            .unwrap();
        b.child(
            g0,
            SimpleState::new(1, vec![0]),
            Rational::one(),
            &[(AgentId(0), ActionId(0))],
        )
        .unwrap();
        let pps = b.build().unwrap();
        let phi = heads();
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &phi).unwrap();
        assert!(a.constraint_probability().is_one());
    }
}
