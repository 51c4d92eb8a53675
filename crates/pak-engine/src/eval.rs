//! Batched bottom-up formula evaluation.
//!
//! [`Evaluator`] answers the same questions as
//! [`ModelChecker`](pak_logic::ModelChecker) — validity, satisfiability,
//! counterexamples, events and measures at a time — but computes them
//! from per-time *truth bitsets* instead of re-walking the tree per
//! point:
//!
//! 1. The query formula is folded into the shared [`FormulaInterner`],
//!    deduplicating structurally equal subformulas (across queries too —
//!    the interner lives as long as the evaluator).
//! 2. Every not-yet-evaluated subformula id, in ascending (bottom-up)
//!    order, gets one [`RunSet`] per time `t ∈ 0..=horizon`: the set of
//!    runs `r` such that the *live* point `(r, t)` satisfies it. The
//!    tables obey the invariant `truth[ϕ][t] ⊆ live(t)` — dead points
//!    carry no truth, exactly the contract of [`Formula::eval_at`].
//! 3. Verdicts are read off the root's table with bitset arithmetic.
//!
//! The win over per-point recursion is asymptotic, not incidental:
//! `K_i ϕ` and `B_i^{≥p} ϕ` are decided **once per information cell**
//! (a subset test / one conditional measure against `ϕ`'s bitset) and
//! the verdict broadcast to every member point, where the naive checker
//! re-walks the whole cell from each of its points; nested modalities
//! compound the gap. Temporal operators become one backward pass over
//! the horizon. Everything is proved bit-identical to the naive checker
//! by `tests/engine_differential.rs`.

use pak_core::cancel::CancelToken;
use pak_core::event::RunSet;
use pak_core::failpoint::{self, Fault};
use pak_core::ids::{CellId, Point, Time};
use pak_core::pps::Pps;
use pak_core::prob::Probability;
use pak_core::state::GlobalState;
use pak_logic::Formula;

use crate::intern::{FormulaInterner, Shape, SubId};

/// Error returned by the cancellable evaluator entry points
/// ([`Evaluator::evaluate_batch_with`],
/// [`Evaluator::measure_at_time_with`]) when the [`CancelToken`] trips
/// before the query's truth tables are complete.
///
/// Cancellation is clean: every truth table computed before the trip
/// stays valid and memoized, so retrying the same query on the same
/// evaluator resumes where it stopped and returns bit-identical results
/// to an uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "evaluation was cancelled (deadline or explicit cancel)")
    }
}

impl std::error::Error for Cancelled {}

/// The summary a batched evaluation returns per formula — the answers
/// [`ModelChecker`](pak_logic::ModelChecker) gives through `valid`,
/// `satisfiable`, `counterexample` and `satisfying_points`, produced in
/// one pass over the root truth table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The formula holds at every live point.
    pub valid: bool,
    /// The formula holds at some live point.
    pub satisfiable: bool,
    /// The first live point (in `(run, time)` order) at which the formula
    /// fails, if any — `None` exactly when `valid`.
    pub counterexample: Option<Point>,
    /// How many live points satisfy the formula.
    pub satisfying_points: usize,
}

/// A batched, memoizing formula evaluator bound to one system.
///
/// Holds the interner and every computed truth table for the lifetime of
/// the borrow, so repeated and overlapping queries against the same tree
/// pay only for subformulas they have not seen before. For one-shot
/// single-formula checks the naive [`ModelChecker`](pak_logic::ModelChecker)
/// remains available (and is the differential reference).
///
/// # Panics
///
/// Every query method panics if its formula has a `K` or `B` operator
/// naming an agent the system lacks; check
/// [`Formula::agent_outside`](pak_logic::Formula::agent_outside) first
/// when formulas come from outside.
///
/// # Examples
///
/// ```
/// use pak_engine::Evaluator;
/// use pak_logic::{Formula, ModelChecker};
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
/// let h = b.initial(SimpleState::new(1, vec![1]), Rational::from_ratio(3, 4))?;
/// let t = b.initial(SimpleState::new(0, vec![0]), Rational::from_ratio(1, 4))?;
/// let pps = b.build()?;
///
/// let heads = Formula::atom(StateFact::new("heads", |g: &SimpleState| g.env == 1));
/// let knows = Formula::knows(AgentId(0), heads.clone());
///
/// let mut ev = Evaluator::new(&pps);
/// let verdicts = ev.evaluate_batch(&[heads.clone(), knows.clone()]);
/// assert!(!verdicts[0].valid && verdicts[0].satisfiable);
/// assert!(verdicts[1].satisfiable); // locals reveal the coin here
///
/// // Bit-identical to the naive checker, point for point.
/// let mc = ModelChecker::new(&pps);
/// assert_eq!(ev.event_at_time(&knows, 0), mc.event_at_time(&knows, 0));
/// # Ok::<(), PpsError>(())
/// ```
pub struct Evaluator<'p, G: GlobalState, P: Probability> {
    pps: &'p Pps<G, P>,
    interner: FormulaInterner<G, P>,
    /// `live[t]`: the runs alive at time `t`, for `t ∈ 0..=horizon`.
    live: Vec<RunSet>,
    /// `truth[id][t]`: runs whose live point `(r, t)` satisfies subformula
    /// `id`. An empty inner `Vec` marks "not computed yet" (computed
    /// tables always have `horizon + 1 ≥ 1` entries).
    truth: Vec<Vec<RunSet>>,
    /// Cell ids grouped as `[agent][time]`, built on the first modal
    /// query (one pass over `pps.cells()`).
    cells_at: Option<Vec<Vec<Vec<CellId>>>>,
}

impl<'p, G: GlobalState, P: Probability> Evaluator<'p, G, P> {
    /// Binds an evaluator to a system.
    #[must_use]
    pub fn new(pps: &'p Pps<G, P>) -> Self {
        let times = pps.horizon() as usize + 1;
        let live = (0..times).map(|t| pps.live_runs_at(t as Time)).collect();
        Evaluator {
            pps,
            interner: FormulaInterner::new(),
            live,
            truth: Vec::new(),
            cells_at: None,
        }
    }

    /// The underlying system.
    #[must_use]
    pub fn pps(&self) -> &'p Pps<G, P> {
        self.pps
    }

    /// How many distinct subformulas have been interned (and evaluated)
    /// so far — the sharing diagnostic: batching `n` queries that overlap
    /// keeps this well below the sum of their tree sizes.
    #[must_use]
    pub fn num_subformulas(&self) -> usize {
        self.interner.len()
    }

    /// Interns `f` and fills truth tables for every subformula that does
    /// not have one yet, children first.
    fn ensure(&mut self, f: &Formula<G, P>) -> SubId {
        let root = self.interner.intern(f);
        while self.truth.len() < self.interner.len() {
            let id = SubId(self.truth.len() as u32);
            let table = self.compute(id);
            self.truth.push(table);
        }
        root
    }

    /// As [`Evaluator::ensure`], polling `cancel` (and the
    /// `eval.subformula` failpoint) once per subformula — the boundary
    /// at which a table is either fully computed or not started, so a
    /// trip never leaves a partial table behind.
    fn ensure_with(&mut self, f: &Formula<G, P>, cancel: &CancelToken) -> Result<SubId, Cancelled> {
        let root = self.interner.intern(f);
        while self.truth.len() < self.interner.len() {
            match failpoint::check("eval.subformula") {
                None => {}
                Some(Fault::Error | Fault::Cancel) => return Err(Cancelled),
                Some(Fault::Panic) => panic!("failpoint eval.subformula: injected panic"),
            }
            if cancel.is_cancelled() {
                return Err(Cancelled);
            }
            let id = SubId(self.truth.len() as u32);
            let table = self.compute(id);
            self.truth.push(table);
        }
        Ok(root)
    }

    /// Computes the per-time truth table of one subformula. All strictly
    /// smaller ids already have tables (post-order interning).
    fn compute(&mut self, id: SubId) -> Vec<RunSet> {
        let times = self.live.len();
        let n = self.pps.num_runs();
        // Clone the shape (Arc/P clones) to release the interner borrow.
        let shape = self.interner.shape(id).clone();
        match shape {
            Shape::True => self.live.clone(),
            Shape::False => vec![RunSet::empty(n); times],
            Shape::Atom(fact) => (0..times)
                .map(|t| {
                    let time = t as Time;
                    RunSet::from_predicate(n, |r| {
                        self.live[t].contains(r) && fact.holds(self.pps, Point { run: r, time })
                    })
                })
                .collect(),
            Shape::Does(agent, action) => (0..times)
                .map(|t| {
                    let time = t as Time;
                    RunSet::from_predicate(n, |r| {
                        self.live[t].contains(r)
                            && self.pps.does(agent, action, Point { run: r, time })
                    })
                })
                .collect(),
            Shape::Not(x) => (0..times)
                .map(|t| self.live[t].difference(&self.truth[x.index()][t]))
                .collect(),
            Shape::And(x, y) => (0..times)
                .map(|t| self.truth[x.index()][t].intersection(&self.truth[y.index()][t]))
                .collect(),
            Shape::Or(x, y) => (0..times)
                .map(|t| self.truth[x.index()][t].union(&self.truth[y.index()][t]))
                .collect(),
            Shape::Implies(x, y) => (0..times)
                .map(|t| {
                    // (live \ x) ∪ y: material implication at live points.
                    self.live[t]
                        .difference(&self.truth[x.index()][t])
                        .union(&self.truth[y.index()][t])
                })
                .collect(),
            Shape::Knows(agent, x) => {
                self.build_cells_at();
                let cells_at = self.cells_at.as_ref().expect("just built");
                let mut table = Vec::with_capacity(times);
                for (t, cells) in cells_at[agent.index()].iter().enumerate() {
                    let mut out = RunSet::empty(n);
                    // One subset test per cell, broadcast to the whole
                    // cell: K_i ϕ holds at (r, t) iff every point of the
                    // cell of (r, t) satisfies ϕ, i.e. cell.runs ⊆ ϕ_t.
                    for &cid in cells {
                        let runs = self.pps.cell_runs(cid);
                        if runs.is_subset(&self.truth[x.index()][t]) {
                            out.union_with(runs);
                        }
                    }
                    table.push(out);
                }
                table
            }
            Shape::BelievesAtLeast(agent, x, p) => {
                self.build_cells_at();
                let cells_at = self.cells_at.as_ref().expect("just built");
                let mut table = Vec::with_capacity(times);
                for (t, cells) in cells_at[agent.index()].iter().enumerate() {
                    let mut out = RunSet::empty(n);
                    // One threshold test per cell. An exact `P` decides it
                    // as a cross-multiplied integer compare on the tree's
                    // mass column, without building the belief; `f64`
                    // folds over the intersection in ascending run order —
                    // the operand sequence of the naive checker's
                    // `belief_in_cell` — so its verdict is bit-equal too.
                    for &cid in cells {
                        if self.pps.belief_at_least(&self.truth[x.index()][t], cid, &p) {
                            out.union_with(self.pps.cell_runs(cid));
                        }
                    }
                    table.push(out);
                }
                table
            }
            Shape::Eventually(x) => {
                // Backward: ◇ϕ at (r, t) iff ϕ at t or ◇ϕ at t+1 — runs
                // that end at t have no t+1 point to inherit from, and
                // truth[x][t+1] ⊆ live(t+1) already excludes them.
                let mut table = vec![RunSet::empty(n); times];
                table[times - 1] = self.truth[x.index()][times - 1].clone();
                for t in (0..times - 1).rev() {
                    table[t] = self.truth[x.index()][t].union(&table[t + 1]);
                }
                table
            }
            Shape::Always(x) => {
                // Backward: □ϕ at (r, t) iff ϕ at t and (□ϕ at t+1 or the
                // run ends at t). `live(t) \ live(t+1)` is exactly the
                // runs whose last point is t.
                let mut table = vec![RunSet::empty(n); times];
                table[times - 1] = self.truth[x.index()][times - 1].clone();
                for t in (0..times - 1).rev() {
                    let ending = self.live[t].difference(&self.live[t + 1]);
                    table[t] = self.truth[x.index()][t].intersection(&table[t + 1].union(&ending));
                }
                table
            }
        }
    }

    fn build_cells_at(&mut self) {
        if self.cells_at.is_some() {
            return;
        }
        let n_agents = self.pps.num_agents() as usize;
        let times = self.live.len();
        let mut grouped = vec![vec![Vec::new(); times]; n_agents];
        for (cid, cell) in self.pps.cells() {
            grouped[cell.agent.index()][cell.time as usize].push(cid);
        }
        self.cells_at = Some(grouped);
    }

    /// The event `{r : (T, r, t) |= ϕ}` — bit-identical to
    /// [`ModelChecker::event_at_time`](pak_logic::ModelChecker::event_at_time),
    /// quantifying over the runs alive at `time`. Empty past the horizon.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn event_at_time(&mut self, f: &Formula<G, P>, time: Time) -> RunSet {
        let id = self.ensure(f);
        match self.truth[id.index()].get(time as usize) {
            Some(set) => set.clone(),
            None => RunSet::empty(self.pps.num_runs()),
        }
    }

    /// The measure `µ_T({r : (T, r, t) |= ϕ})` over live runs, matching
    /// [`ModelChecker::measure_at_time`](pak_logic::ModelChecker::measure_at_time)
    /// bit for bit (same event, same ascending accumulation order).
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn measure_at_time(&mut self, f: &Formula<G, P>, time: Time) -> P {
        let event = self.event_at_time(f, time);
        self.pps.measure(&event)
    }

    /// Three-valued truth at a point: `None` exactly at dead points — the
    /// batched twin of [`Formula::eval_at`].
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn eval_at(&mut self, f: &Formula<G, P>, point: Point) -> Option<bool> {
        if !self.pps.is_live(point) {
            return None;
        }
        let id = self.ensure(f);
        Some(self.truth[id.index()][point.time as usize].contains(point.run))
    }

    /// Boolean truth at a point (`false` at dead points), the batched twin
    /// of [`Formula::holds_at`].
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn holds_at(&mut self, f: &Formula<G, P>, point: Point) -> bool {
        self.eval_at(f, point) == Some(true)
    }

    /// Whether `f` holds at every live point.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn valid(&mut self, f: &Formula<G, P>) -> bool {
        let id = self.ensure(f);
        self.truth[id.index()]
            .iter()
            .zip(&self.live)
            .all(|(truth, live)| truth == live)
    }

    /// Whether `f` holds at some live point.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn satisfiable(&mut self, f: &Formula<G, P>) -> bool {
        let id = self.ensure(f);
        self.truth[id.index()].iter().any(|set| !set.is_empty())
    }

    /// The first live point in `(run, time)` order at which `f` fails —
    /// the same point [`ModelChecker::counterexample`](pak_logic::ModelChecker::counterexample)
    /// reports.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn counterexample(&mut self, f: &Formula<G, P>) -> Option<Point> {
        let id = self.ensure(f);
        let table = &self.truth[id.index()];
        self.pps
            .points()
            .find(|pt| !table[pt.time as usize].contains(pt.run))
    }

    /// All live points satisfying `f`, in `(run, time)` order — matching
    /// [`ModelChecker::satisfying_points`](pak_logic::ModelChecker::satisfying_points).
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn satisfying_points(&mut self, f: &Formula<G, P>) -> Vec<Point> {
        let id = self.ensure(f);
        let table = &self.truth[id.index()];
        self.pps
            .points()
            .filter(|pt| table[pt.time as usize].contains(pt.run))
            .collect()
    }

    /// Evaluates one formula to a [`Verdict`].
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn evaluate(&mut self, f: &Formula<G, P>) -> Verdict {
        let id = self.ensure(f);
        self.verdict_of(id)
    }

    fn verdict_of(&self, id: SubId) -> Verdict {
        let table = &self.truth[id.index()];
        let valid = table.iter().zip(&self.live).all(|(t, l)| t == l);
        let satisfying_points: usize = table.iter().map(RunSet::len).sum();
        let satisfiable = satisfying_points > 0;
        let counterexample = if valid {
            None
        } else {
            self.pps
                .points()
                .find(|pt| !table[pt.time as usize].contains(pt.run))
        };
        Verdict {
            valid,
            satisfiable,
            counterexample,
            satisfying_points,
        }
    }

    /// Evaluates many formulas in one batch. Subformula truth tables are
    /// shared across the whole slice (and with every earlier query on
    /// this evaluator): each distinct subformula is evaluated once, no
    /// matter how many formulas contain it.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in a formula names an agent the system
    /// lacks.
    pub fn evaluate_batch(&mut self, formulas: &[Formula<G, P>]) -> Vec<Verdict> {
        formulas.iter().map(|f| self.evaluate(f)).collect()
    }

    /// As [`Evaluator::evaluate_batch`], polling `cancel` at every
    /// subformula boundary.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token trips mid-batch. Tables computed up
    /// to that point stay memoized and valid, so re-running the same
    /// batch (on this evaluator or a fresh one over the same tree)
    /// yields verdicts bit-identical to an uninterrupted call.
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in a formula names an agent the system
    /// lacks.
    pub fn evaluate_batch_with(
        &mut self,
        formulas: &[Formula<G, P>],
        cancel: &CancelToken,
    ) -> Result<Vec<Verdict>, Cancelled> {
        formulas
            .iter()
            .map(|f| self.ensure_with(f, cancel).map(|id| self.verdict_of(id)))
            .collect()
    }

    /// As [`Evaluator::measure_at_time`], polling `cancel` at every
    /// subformula boundary.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token trips; partial progress stays
    /// memoized exactly as for [`Evaluator::evaluate_batch_with`].
    ///
    /// # Panics
    ///
    /// If a `K` or `B` operator in `f` names an agent the system lacks.
    pub fn measure_at_time_with(
        &mut self,
        f: &Formula<G, P>,
        time: Time,
        cancel: &CancelToken,
    ) -> Result<P, Cancelled> {
        let id = self.ensure_with(f, cancel)?;
        let event = match self.truth[id.index()].get(time as usize) {
            Some(set) => set.clone(),
            None => RunSet::empty(self.pps.num_runs()),
        };
        Ok(self.pps.measure(&event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::StateFact;
    use pak_core::ids::{AgentId, RunId};
    use pak_core::pps::PpsBuilder;
    use pak_core::state::SimpleState;
    use pak_logic::ModelChecker;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    /// Run 0 (µ=½, len 3), run 1 (µ=⅙, len 2), run 2 (µ=⅓, len 1):
    /// uneven lengths exercise the live-run masking in every operator.
    fn uneven_system() -> Pps<SimpleState, Rational> {
        let mut b = PpsBuilder::<SimpleState, Rational>::new(1);
        let a = b.initial(SimpleState::new(1, vec![0]), r(1, 2)).unwrap();
        let c = b.initial(SimpleState::new(0, vec![0]), r(1, 6)).unwrap();
        let _d = b.initial(SimpleState::new(2, vec![0]), r(1, 3)).unwrap();
        let a1 = b
            .child(a, SimpleState::new(1, vec![1]), Rational::one(), &[])
            .unwrap();
        b.child(a1, SimpleState::new(0, vec![1]), Rational::one(), &[])
            .unwrap();
        b.child(c, SimpleState::new(0, vec![2]), Rational::one(), &[])
            .unwrap();
        b.build().unwrap()
    }

    fn heads() -> Formula<SimpleState, Rational> {
        Formula::atom(StateFact::new("heads", |g: &SimpleState| g.env == 1))
    }

    #[test]
    fn agrees_with_model_checker_on_uneven_system() {
        let pps = uneven_system();
        let mc = ModelChecker::new(&pps);
        let mut ev = Evaluator::new(&pps);
        let formulas: Vec<Formula<SimpleState, Rational>> = vec![
            Formula::True,
            Formula::False,
            heads(),
            heads().not(),
            heads().implies(Formula::knows(AgentId(0), heads())),
            Formula::knows(AgentId(0), heads().or(heads().not())),
            Formula::believes_at_least(AgentId(0), heads(), r(1, 2)),
            heads().eventually(),
            heads().always(),
            heads().not().eventually().always(),
        ];
        for f in &formulas {
            assert_eq!(ev.valid(f), mc.valid(f), "{f}");
            assert_eq!(ev.satisfiable(f), mc.satisfiable(f), "{f}");
            assert_eq!(ev.counterexample(f), mc.counterexample(f), "{f}");
            assert_eq!(ev.satisfying_points(f), mc.satisfying_points(f), "{f}");
            for t in 0..=pps.horizon() + 1 {
                assert_eq!(ev.event_at_time(f, t), mc.event_at_time(f, t), "{f} @ {t}");
                assert_eq!(
                    ev.measure_at_time(f, t),
                    mc.measure_at_time(f, t),
                    "{f} @ {t}"
                );
            }
            for pt in pps.points().collect::<Vec<_>>() {
                assert_eq!(ev.eval_at(f, pt), f.eval_at(&pps, pt), "{f} at {pt:?}");
            }
            let dead = Point {
                run: RunId(2),
                time: 1,
            };
            assert_eq!(ev.eval_at(f, dead), None);
            assert!(!ev.holds_at(f, dead));
        }
        let verdicts = ev.evaluate_batch(&formulas);
        for (f, v) in formulas.iter().zip(&verdicts) {
            assert_eq!(v.valid, mc.valid(f));
            assert_eq!(v.satisfiable, mc.satisfiable(f));
            assert_eq!(v.counterexample, mc.counterexample(f));
            assert_eq!(v.satisfying_points, mc.satisfying_points(f).len());
        }
    }

    #[test]
    fn batch_shares_subformulas() {
        let pps = uneven_system();
        let mut ev = Evaluator::new(&pps);
        let a = heads();
        let batch: Vec<Formula<SimpleState, Rational>> = vec![
            a.clone().not(),
            a.clone().not().eventually(),
            Formula::knows(AgentId(0), a.clone().not()),
            a.clone().not().implies(a.clone()),
        ];
        ev.evaluate_batch(&batch);
        // a, ¬a, ◇¬a, K_0 ¬a, ¬a → a: five distinct subformulas, not the
        // nine constructor occurrences the batch spells out.
        assert_eq!(ev.num_subformulas(), 5);
    }
}
