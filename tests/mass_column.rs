//! Property suite for the exact mass column (`pak_core::mass`): on seeded
//! trees whose common run denominator `D` lands in every limb width — one
//! word, past `2^64`, past `2^128`, and past `2^192` into `BigUint`'s heap
//! tier — the integer-sum [`Pps::conditional`] must equal the `Rational`
//! fold `µ(A ∩ B) / µ(B)` of [`Pps::measure`] under `==`, and the
//! cross-multiplied threshold test [`Pps::belief_at_least`] must agree with
//! `conditional(..).at_least(p)` at the thresholds where an off-by-one
//! would show: 0, 1, the exact belief, and the belief ± 1/D². A column read
//! before [`Unfolder::extend_horizon`] must not leak into the grown tree:
//! after the extension every answer matches a from-scratch unfold.
//!
//! The trees come from `random_model` with every distribution re-weighted
//! over a prime total `T`, so each branching edge multiplies `T` into the
//! run denominators and `D` grows as `T^levels`.

use pak::core::generator::SplitMix64;
use pak::core::prelude::*;
use pak::num::{BigInt, BigUint, Rational};
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::model::TableModel;
use pak::protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};

/// Prime totals of 13, 19, 31 and 61 bits.
const PRIMES: [u64; 4] = [8_191, 524_287, 2_147_483_647, 2_305_843_009_213_693_951];

/// `k` weights over the total `t`, each at least one, as probabilities.
fn weights(rng: &mut SplitMix64, k: usize, t: u64) -> Vec<Rational> {
    if k == 1 {
        return vec![Rational::one()];
    }
    let mut left = t;
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let w = if i + 1 == k {
            left
        } else {
            1 + rng.below(left / (k - i) as u64)
        };
        left -= w;
        out.push(Rational::new(BigInt::from(w), BigInt::from(t)).unwrap());
    }
    out
}

/// A random table model whose every distribution sums to one over `t`.
fn prime_model(seed: u64, horizon: u32, t: u64) -> TableModel<Rational> {
    let cfg = RandomModelConfig {
        n_agents: 2,
        initial_states: 2,
        horizon,
        envs: 3,
        max_env_branching: 2,
        local_values: 2,
        actions_per_agent: 2,
    };
    let mut model = random_model::<Rational>(seed, &cfg);
    let mut rng = SplitMix64::new(seed ^ t);
    let ps = weights(&mut rng, model.initial.len(), t);
    for (entry, p) in model.initial.iter_mut().zip(ps) {
        entry.2 = p;
    }
    for (_, dist) in &mut model.moves {
        let ps = weights(&mut rng, dist.len(), t);
        for (entry, p) in dist.iter_mut().zip(ps) {
            entry.1 = p;
        }
    }
    for (_, dist) in &mut model.transitions {
        let ps = weights(&mut rng, dist.len(), t);
        for (entry, p) in dist.iter_mut().zip(ps) {
            entry.2 = p;
        }
    }
    model
}

fn capped(h: u32) -> UnfoldConfig {
    UnfoldConfig {
        horizon: Some(h),
        ..UnfoldConfig::default()
    }
}

/// The lcm of the run denominators, computed apart from the column.
fn common_denominator<G: GlobalState>(pps: &Pps<G, Rational>) -> BigUint {
    pps.run_ids().fold(BigUint::one(), |d, r| {
        let den = pps.run_probability(r).denom();
        &(&d * den) / &d.gcd(den)
    })
}

/// Seeded events over the tree's runs: dense, sparse, full and empty.
fn events<G: GlobalState>(pps: &Pps<G, Rational>, rng: &mut SplitMix64) -> Vec<RunSet> {
    let n = pps.num_runs();
    let mut out = vec![pps.all_runs(), pps.no_runs()];
    for density in [2u64, 4, 8] {
        out.push(RunSet::from_predicate(n, |_| rng.below(density) == 0));
    }
    out
}

/// What one tree answers: every conditional on every (event, cell) and
/// (event, event) pair, and every threshold verdict.
#[derive(Debug, PartialEq)]
struct Answers {
    conditionals: Vec<Option<Rational>>,
    verdicts: Vec<bool>,
}

/// Checks the column's answers on `pps` against the `Rational` fold and
/// returns them.
fn check_tree<G: GlobalState>(pps: &Pps<G, Rational>, events: &[RunSet], ctx: &str) -> Answers {
    let d = Rational::from(common_denominator(pps));
    let tick = Rational::one() / (&d * &d);
    let mut answers = Answers {
        conditionals: Vec::new(),
        verdicts: Vec::new(),
    };
    let cells: Vec<CellId> = pps.cells().map(|(id, _)| id).collect();
    let mut bs: Vec<&RunSet> = cells.iter().map(|&c| pps.cell_runs(c)).collect();
    bs.extend(events);
    for a in events {
        for b in &bs {
            let got = pps.conditional(a, b);
            let want = (!b.is_empty()).then(|| &pps.measure(&a.intersection(b)) / &pps.measure(b));
            assert_eq!(got, want, "{ctx}: conditional");
            answers.conditionals.push(got);
        }
        for &cell in &cells {
            let belief = pps.conditional(a, pps.cell_runs(cell)).unwrap();
            let thresholds = [
                Rational::zero(),
                Rational::one(),
                belief.clone(),
                &belief + &tick,
                &belief - &tick,
            ];
            for p in &thresholds {
                let verdict = pps.belief_at_least(a, cell, p);
                assert_eq!(
                    verdict,
                    belief.at_least(p),
                    "{ctx}: B≥{p} on {cell:?}, belief {belief}"
                );
                answers.verdicts.push(verdict);
            }
        }
    }
    answers
}

#[test]
fn conditional_matches_rational_fold() {
    // Which limb widths `D` reached: 1, 2, 3, or ≥ 4 words (heap tier).
    let mut widths = [0usize; 4];
    let mut trees = 0;
    for (k, &t) in PRIMES.iter().enumerate() {
        for seed in 0..4u64 {
            let horizon = 2 + (seed % 2) as u32;
            let model = prime_model(seed * 37 + k as u64, horizon, t);
            let mut rng = SplitMix64::new(seed + 1000 * k as u64);

            // Grow one level with a column already read, then compare
            // with the from-scratch tree at the grown horizon.
            let mut grown = Unfolder::<_, Rational>::new(&model, capped(horizon - 1)).unwrap();
            let before = events(grown.pps(), &mut rng);
            check_tree(grown.pps(), &before, &format!("T={t} seed {seed}, before"));
            assert!(
                grown.extend_horizon().unwrap(),
                "the model grows to {horizon}"
            );
            let scratch = unfold_with::<_, Rational>(&model, &capped(horizon)).unwrap();
            let after = events(&scratch, &mut rng);
            let ctx = format!("T={t} seed {seed}, h={horizon}");
            assert_eq!(
                check_tree(grown.pps(), &after, &format!("{ctx}, grown")),
                check_tree(&scratch, &after, &format!("{ctx}, scratch")),
                "{ctx}: a column read before the extension leaks into the grown tree"
            );

            let bits = common_denominator(&scratch).bits();
            widths[(bits.saturating_sub(1) / 64).min(3) as usize] += 1;
            trees += 1;
        }
    }
    assert_eq!(trees, 16);
    // Four words and more is `BigUint`'s heap tier (`FIXED_BITS` = 192).
    assert!(
        widths.iter().all(|&n| n > 0),
        "D must land in every limb width (1, 2, 3, ≥4 words): {widths:?}"
    );
}
