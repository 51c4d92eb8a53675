//! Property tests for the `TableModel` lookup index.
//!
//! `TableModel::moves` / `transition` used to scan their tables linearly
//! with `.iter().find(..)`; they now consult a prebuilt [`TableIndex`]
//! (hash maps from `(agent, local, time)` and `(env, time)` to table
//! positions, built once per model). The two must agree on *every* input,
//! including the awkward cases: duplicated keys (linear scan returns the
//! first occurrence, so the index must too) and absent keys (the model
//! falls back to a deterministic skip / copied state). This suite sweeps
//! seeded random tables — with duplicates injected — and compares indexed
//! lookups against a straight linear rescan of the same tables.

use pak::core::generator::SplitMix64;
use pak::core::ids::{ActionId, AgentId};
use pak::core::prelude::*;
use pak::num::Rational;
use pak::protocol::model::{ProtocolModel, TableIndex, TableModel};

/// The move distribution of `model` at `(agent, local, time)`.
fn moves_of(
    model: &TableModel<Rational>,
    agent: u32,
    local: u64,
    time: Time,
) -> Vec<(Option<ActionId>, Rational)> {
    let mut out = Vec::new();
    model.moves(AgentId(agent), &local, time, &mut out);
    out
}

/// The successor distribution of `model` at `(state, moves, time)`.
fn transition_of(
    model: &TableModel<Rational>,
    state: &SimpleState,
    moves: &[Option<ActionId>],
    time: Time,
) -> Vec<(SimpleState, Rational)> {
    let mut out = Vec::new();
    model.transition(state, moves, time, &mut out);
    out
}

/// A random move table over small key ranges, with duplicate keys injected
/// (later duplicates carry a *different* distribution so a wrong pick is
/// caught, not masked).
fn random_table(seed: u64, with_duplicates: bool) -> TableModel<Rational> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(13));
    let mut moves = Vec::new();
    let mut transitions = Vec::new();
    let entries = 3 + rng.below(12);
    for k in 0..entries {
        let key = (rng.below(3) as u32, rng.below(4), rng.below(4) as u32);
        moves.push((key, vec![(Some(ActionId(k as u32)), Rational::one())]));
        if with_duplicates && rng.below(3) == 0 {
            // Same key, distinguishable payload.
            moves.push((key, vec![(None, Rational::one())]));
        }
    }
    let entries = 2 + rng.below(10);
    for k in 0..entries {
        let key = (rng.below(4), rng.below(4) as u32);
        transitions.push((key, vec![(k, vec![k], Rational::one())]));
        if with_duplicates && rng.below(3) == 0 {
            transitions.push((key, vec![(k + 100, vec![k], Rational::one())]));
        }
    }
    TableModel {
        n_agents: 3,
        initial: vec![(0, vec![0, 0, 0], Rational::one())],
        horizon: 4,
        moves,
        transitions,
        ..TableModel::default()
    }
}

/// The pre-index lookup semantics, verbatim: front-to-back linear scan.
fn linear_moves(
    m: &TableModel<Rational>,
    agent: u32,
    local: u64,
    time: u32,
) -> Vec<(Option<ActionId>, Rational)> {
    m.moves
        .iter()
        .find(|((a, l, t), _)| *a == agent && *l == local && *t == time)
        .map_or_else(|| vec![(None, Rational::one())], |(_, dist)| dist.clone())
}

fn linear_transition(m: &TableModel<Rational>, state: &SimpleState, time: u32) -> Vec<SimpleState> {
    m.transitions
        .iter()
        .find(|((env, t), _)| *env == state.env && *t == time)
        .map_or_else(
            || vec![state.clone()],
            |(_, dist)| {
                dist.iter()
                    .map(|(env, locals, _)| SimpleState::new(*env, locals.clone()))
                    .collect()
            },
        )
}

#[test]
fn index_agrees_with_linear_scan_on_random_tables() {
    for seed in 0..60u64 {
        let model = random_table(seed, seed % 2 == 1);
        for agent in 0..4u32 {
            for local in 0..5u64 {
                for time in 0..5u32 {
                    let got: Vec<(Option<ActionId>, Rational)> =
                        moves_of(&model, agent, local, time);
                    let want = linear_moves(&model, agent, local, time);
                    assert_eq!(got, want, "seed {seed}: moves({agent}, {local}, {time})");
                }
            }
        }
        for env in 0..5u64 {
            for time in 0..5u32 {
                let state = SimpleState::new(env, vec![1, 2, 3]);
                let got: Vec<(SimpleState, Rational)> =
                    transition_of(&model, &state, &[None, None, None], time);
                let got: Vec<SimpleState> = got.into_iter().map(|(s, _)| s).collect();
                let want = linear_transition(&model, &state, time);
                assert_eq!(got, want, "seed {seed}: transition(env={env}, {time})");
            }
        }
    }
}

#[test]
fn duplicate_entries_resolve_to_first_occurrence() {
    // Two entries under one key: the scan semantics pick the first, and
    // the payloads differ, so a wrong pick fails loudly.
    let model: TableModel<Rational> = TableModel {
        n_agents: 1,
        initial: vec![(0, vec![0], Rational::one())],
        horizon: 1,
        moves: vec![
            ((0, 0, 0), vec![(Some(ActionId(7)), Rational::one())]),
            ((0, 0, 0), vec![(None, Rational::one())]),
        ],
        transitions: vec![
            ((0, 0), vec![(1, vec![0], Rational::one())]),
            ((0, 0), vec![(2, vec![0], Rational::one())]),
        ],
        ..TableModel::default()
    };
    let mv: Vec<(Option<ActionId>, Rational)> = moves_of(&model, 0, 0, 0);
    assert_eq!(mv[0].0, Some(ActionId(7)));
    let tr: Vec<(SimpleState, Rational)> =
        transition_of(&model, &SimpleState::new(0, vec![0]), &[None], 0);
    assert_eq!(tr[0].0.env, 1);
    // And positions, straight from the index.
    assert_eq!(model.index().move_entry(0, 0, 0), Some(0));
    assert_eq!(model.index().transition_entry(0, 0), Some(0));
}

#[test]
fn absent_entries_fall_back_to_skip_and_stay() {
    let model: TableModel<Rational> = TableModel {
        n_agents: 1,
        initial: vec![(0, vec![0], Rational::one())],
        horizon: 2,
        moves: vec![((0, 0, 0), vec![(Some(ActionId(0)), Rational::one())])],
        transitions: vec![],
        ..TableModel::default()
    };
    assert_eq!(model.index().move_entry(0, 9, 0), None);
    assert_eq!(model.index().transition_entry(5, 1), None);
    // Absent move entry → deterministic skip.
    let mv: Vec<(Option<ActionId>, Rational)> = moves_of(&model, 0, 9, 0);
    assert_eq!(mv, vec![(None, Rational::one())]);
    // Absent transition entry → state copied unchanged.
    let state = SimpleState::new(5, vec![3]);
    let tr: Vec<(SimpleState, Rational)> = transition_of(&model, &state, &[None], 1);
    assert_eq!(tr, vec![(state, Rational::one())]);
}

#[test]
fn index_is_built_once_and_invalidate_rebuilds() {
    let mut model = random_table(3, true);
    let before = model.index().move_entry(
        model.moves[0].0 .0,
        model.moves[0].0 .1,
        model.moves[0].0 .2,
    );
    assert_eq!(before, Some(0));
    // Mutate the table: prepend an entry under a fresh key. The stale
    // index still refers to old positions until invalidated.
    model
        .moves
        .insert(0, ((9, 9, 0), vec![(None, Rational::one())]));
    model.invalidate_index();
    assert_eq!(model.index().move_entry(9, 9, 0), Some(0));
    // Every original key now sits one position later.
    let (a, l, t) = model.moves[1].0;
    assert_eq!(model.index().move_entry(a, l, t), Some(1));
}

#[test]
fn invalidated_index_agrees_with_linear_scan_after_mutation() {
    // Property test for the index-invalidation contract: query a model
    // (forcing the lazy index build), mutate `moves`/`transitions` in
    // place — prepends, appends, removals, and payload edits, all of
    // which shift or change positions under existing keys — call
    // `invalidate_index`, and every re-query must agree with a fresh
    // front-to-back linear scan of the *mutated* tables. (The original
    // sweep only covered the initial build.)
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x5851_F42D).wrapping_add(99));
        let mut model = random_table(seed, seed % 3 == 0);

        // First round of queries builds and exercises the index.
        for agent in 0..4u32 {
            for local in 0..5u64 {
                for time in 0..5u32 {
                    let got: Vec<(Option<ActionId>, Rational)> =
                        moves_of(&model, agent, local, time);
                    assert_eq!(
                        got,
                        linear_moves(&model, agent, local, time),
                        "seed {seed}: pre-mutation moves({agent}, {local}, {time})"
                    );
                }
            }
        }

        // Mutate: each operation changes what a linear scan would find.
        for _ in 0..(1 + rng.below(4)) {
            match rng.below(4) {
                // Prepend under a (possibly existing) key: shifts every
                // position and may shadow an old first occurrence.
                0 => {
                    let key = (rng.below(3) as u32, rng.below(4), rng.below(4) as u32);
                    model
                        .moves
                        .insert(0, (key, vec![(Some(ActionId(77)), Rational::one())]));
                }
                // Remove the first move entry: un-shadows duplicates.
                1 => {
                    if !model.moves.is_empty() {
                        model.moves.remove(0);
                    }
                }
                // Append a transition under a fresh-ish key.
                2 => {
                    let key = (rng.below(6), rng.below(5) as u32);
                    model
                        .transitions
                        .push((key, vec![(rng.below(50) + 200, vec![7], Rational::one())]));
                }
                // Rewrite an existing transition's payload in place.
                _ => {
                    if !model.transitions.is_empty() {
                        let i = rng.below(model.transitions.len() as u64) as usize;
                        model.transitions[i].1 =
                            vec![(rng.below(50) + 300, vec![8], Rational::one())];
                    }
                }
            }
        }
        model.invalidate_index();

        // Every re-query must match a fresh linear scan of the mutated
        // tables — indexed positions from before the mutation would be
        // stale in a way these payloads make loud.
        for agent in 0..4u32 {
            for local in 0..5u64 {
                for time in 0..5u32 {
                    let got: Vec<(Option<ActionId>, Rational)> =
                        moves_of(&model, agent, local, time);
                    assert_eq!(
                        got,
                        linear_moves(&model, agent, local, time),
                        "seed {seed}: post-mutation moves({agent}, {local}, {time})"
                    );
                }
            }
        }
        for env in 0..7u64 {
            for time in 0..6u32 {
                let state = SimpleState::new(env, vec![1, 2, 3]);
                let got: Vec<SimpleState> =
                    transition_of(&model, &state, &[None, None, None], time)
                        .into_iter()
                        .map(|(s, _)| s)
                        .collect();
                assert_eq!(
                    got,
                    linear_transition(&model, &state, time),
                    "seed {seed}: post-mutation transition(env={env}, {time})"
                );
            }
        }
    }
}

#[test]
fn standalone_index_matches_table_contents() {
    for seed in 0..20u64 {
        let model = random_table(seed, true);
        let index = TableIndex::build(&model);
        for (i, ((a, l, t), _)) in model.moves.iter().enumerate() {
            let hit = index.move_entry(*a, *l, *t).expect("key must be present");
            // The hit is the first entry with this key.
            let first = model
                .moves
                .iter()
                .position(|(k, _)| k == &(*a, *l, *t))
                .unwrap();
            assert_eq!(hit, first, "seed {seed}: entry {i}");
        }
        for (i, ((e, t), _)) in model.transitions.iter().enumerate() {
            let hit = index.transition_entry(*e, *t).expect("key must be present");
            let first = model
                .transitions
                .iter()
                .position(|(k, _)| k == &(*e, *t))
                .unwrap();
            assert_eq!(hit, first, "seed {seed}: entry {i}");
        }
    }
}
