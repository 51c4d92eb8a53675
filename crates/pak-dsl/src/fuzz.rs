//! A grammar-driven program fuzzer.
//!
//! [`fuzz_program`] emits a random — but always *valid* — protocol
//! program as source text, seeded through the in-repo splitmix64 PRNG so
//! every case is reproducible from its `u64` seed. "Valid" is by
//! construction: every referenced name is declared, tuple arities match
//! the agent count, rule keys are unique, rule times fall before the
//! horizon, and every distribution's weights are emitted as `w_i/total`
//! for positive `w_i` summing to `total`, so they sum to exactly one in
//! rational arithmetic.
//!
//! The generator deliberately exercises the whole grammar: mixed and
//! deterministic move distributions, `skip` arms, guarded transition
//! rules with an unconditional catch-all, states that alias the same
//! tuple under two names, `fail` annotations, duplicate init arms, and
//! `adversary` override blocks. The emitted text is what feeds the
//! parse → compile → unfold → extend → engine differential chain in
//! `tests/dsl_differential.rs`; the bounds in [`FuzzConfig`] keep the
//! unfolded trees small enough to sweep hundreds of programs.
//! `tests/hostile_inputs.rs` mutates the same programs byte by byte to
//! check that parse → compile never panics and that every diagnostic
//! points inside the source.
//!
//! # Examples
//!
//! ```
//! use pak_dsl::fuzz::{fuzz_program, FuzzConfig};
//! use pak_dsl::compile_str;
//! use pak_num::Rational;
//!
//! let src = fuzz_program(42, &FuzzConfig::default());
//! // Fuzzed programs always parse and compile.
//! let compiled = compile_str::<Rational>(&src).unwrap();
//! assert!(compiled.model().horizon >= 1);
//! ```

use std::fmt::Write as _;

use pak_core::generator::SplitMix64;

/// Bounds for [`fuzz_program`]. The defaults keep a worst-case unfolding
/// in the low hundreds of nodes (≤ 2 agents × ≤ 2-arm move mixes gives at
/// most 4 joint moves per node, times ≤ 2 outcomes per transition, over a
/// horizon ≤ 3).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Maximum number of agents (≥ 1).
    pub max_agents: u64,
    /// Maximum horizon (≥ 1).
    pub max_horizon: u64,
    /// Maximum number of named states (≥ 2).
    pub max_states: u64,
    /// Maximum number of declared actions (≥ 1).
    pub max_actions: u64,
    /// Local-data values are drawn from `0..=max_local`.
    pub max_local: u64,
    /// Environment values are drawn from `0..=max_env`.
    pub max_env: u64,
    /// Whether to emit guarded transition rules.
    pub guards: bool,
    /// Whether to emit `adversary` override blocks.
    pub adversaries: bool,
    /// Whether to emit `fail` state annotations.
    pub failures: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            max_agents: 2,
            max_horizon: 3,
            max_states: 4,
            max_actions: 3,
            max_local: 1,
            max_env: 2,
            guards: true,
            adversaries: true,
            failures: true,
        }
    }
}

/// Appends a `{ w_1/total: item; …; }` distribution (or a bare item when
/// the draw is a singleton with weight one), drawing `arms` items with
/// replacement from `items`.
fn write_dist(out: &mut String, rng: &mut SplitMix64, items: &[String], max_arms: u64) {
    let arms = rng.range(1, max_arms.max(1));
    if arms == 1 && rng.chance(1, 2) {
        let item = &items[rng.below(items.len() as u64) as usize];
        out.push_str(item);
        return;
    }
    let weights: Vec<u64> = (0..arms).map(|_| rng.range(1, 5)).collect();
    let total: u64 = weights.iter().sum();
    out.push_str("{ ");
    for w in weights {
        let item = &items[rng.below(items.len() as u64) as usize];
        if w == total {
            let _ = write!(out, "1: {item}; ");
        } else {
            let _ = write!(out, "{w}/{total}: {item}; ");
        }
    }
    out.push('}');
}

/// Emits a random valid protocol program as source text (see the module
/// docs for what "valid" means and which constructs are exercised).
#[must_use]
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn fuzz_program(seed: u64, cfg: &FuzzConfig) -> String {
    let mut rng = SplitMix64::new(seed);
    let n_agents = rng.range(1, cfg.max_agents.max(1));
    let horizon = rng.range(1, cfg.max_horizon.max(1));
    let n_states = rng.range(2, cfg.max_states.max(2));
    let n_actions = rng.range(1, cfg.max_actions.max(1));

    let agents: Vec<String> = (0..n_agents).map(|i| format!("ag{i}")).collect();
    let action_id_base = if rng.chance(1, 4) { 10 } else { 0 };
    let actions: Vec<String> = (0..n_actions).map(|i| format!("act{i}")).collect();
    let states: Vec<String> = (0..n_states).map(|i| format!("s{i}")).collect();

    let mut src = String::new();
    let _ = writeln!(src, "protocol fuzzed_{seed} {{");
    let _ = writeln!(src, "    agents {};", agents.join(", "));
    let _ = writeln!(src, "    horizon {horizon};");
    for (i, a) in actions.iter().enumerate() {
        let _ = writeln!(src, "    action {a} = {};", action_id_base + i as u64);
    }
    // States: tuples drawn with replacement, so two names may alias the
    // same (env, locals) tuple — an adversarial case for name-vs-tuple
    // resolution downstream.
    for s in &states {
        let env = rng.below(cfg.max_env + 1);
        let locals: Vec<String> = (0..n_agents)
            .map(|_| rng.below(cfg.max_local + 1).to_string())
            .collect();
        let fail = if cfg.failures && rng.chance(1, 8) {
            " fail"
        } else {
            ""
        };
        let _ = writeln!(src, "    state {s} = ({env}, {}){fail};", locals.join(", "));
    }

    // Init: 1–3 arms, duplicates allowed.
    let init_arms = rng.range(1, 3.min(n_states));
    let init_weights: Vec<u64> = (0..init_arms).map(|_| rng.range(1, 5)).collect();
    let init_total: u64 = init_weights.iter().sum();
    let _ = writeln!(src, "    init {{");
    for w in init_weights {
        let s = &states[rng.below(n_states) as usize];
        if w == init_total {
            let _ = writeln!(src, "        1: {s};");
        } else {
            let _ = writeln!(src, "        {w}/{init_total}: {s};");
        }
    }
    let _ = writeln!(src, "    }}");

    // Moves: per agent, a rule for a random subset of the (local, time)
    // grid — the grid walk guarantees unique rule keys. Arms mix actions
    // and `skip`.
    let mut move_items: Vec<String> = actions.clone();
    move_items.push("skip".to_string());
    for a in &agents {
        if rng.chance(1, 4) {
            continue; // this agent always skips (no block at all)
        }
        let _ = writeln!(src, "    moves {a} {{");
        for local in 0..=cfg.max_local {
            for time in 0..horizon {
                if !rng.chance(1, 2) {
                    continue;
                }
                let _ = write!(src, "        at ({local}, {time}) -> ");
                write_dist(&mut src, &mut rng, &move_items, 2);
                let _ = writeln!(src, ";");
            }
        }
        let _ = writeln!(src, "    }}");
    }

    // Transitions: for each (state, time), either one unconditional rule,
    // or (with guards enabled) a guarded rule plus an optional
    // unconditional catch-all — distinct keys by construction.
    let emit_rules = |src: &mut String, rng: &mut SplitMix64, indent: &str| {
        for s in &states {
            for time in 0..horizon {
                if !rng.chance(1, 2) {
                    continue;
                }
                if cfg.guards && !actions.is_empty() && rng.chance(1, 3) {
                    let pats: Vec<String> = (0..n_agents)
                        .map(|_| match rng.below(3) {
                            0 => "_".to_string(),
                            1 => "skip".to_string(),
                            _ => actions[rng.below(n_actions) as usize].clone(),
                        })
                        .collect();
                    let _ = write!(
                        src,
                        "{indent}from {s} at {time} when [{}] -> ",
                        pats.join(", ")
                    );
                    write_dist(src, rng, &states, 2);
                    let _ = writeln!(src, ";");
                    if rng.chance(1, 2) {
                        let _ = write!(src, "{indent}from {s} at {time} -> ");
                        write_dist(src, rng, &states, 2);
                        let _ = writeln!(src, ";");
                    }
                } else {
                    let _ = write!(src, "{indent}from {s} at {time} -> ");
                    write_dist(src, rng, &states, 2);
                    let _ = writeln!(src, ";");
                }
            }
        }
    };
    let _ = writeln!(src, "    transitions {{");
    emit_rules(&mut src, &mut rng, "        ");
    let _ = writeln!(src, "    }}");

    if cfg.adversaries && rng.chance(1, 3) {
        let _ = writeln!(src, "    adversary adv0 {{");
        emit_rules(&mut src, &mut rng, "        ");
        let _ = writeln!(src, "    }}");
    }

    let _ = write!(src, "}}");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_str;
    use pak_num::Rational;

    #[test]
    fn fuzzed_programs_always_compile() {
        for seed in 0..200u64 {
            let src = fuzz_program(seed, &FuzzConfig::default());
            if let Err(e) = compile_str::<Rational>(&src) {
                panic!("seed {seed} produced an invalid program: {e}\n{src}");
            }
        }
    }

    #[test]
    fn fuzzing_is_deterministic_in_the_seed() {
        let cfg = FuzzConfig::default();
        assert_eq!(fuzz_program(7, &cfg), fuzz_program(7, &cfg));
        assert_ne!(fuzz_program(7, &cfg), fuzz_program(8, &cfg));
    }

    #[test]
    fn the_sweep_exercises_the_whole_grammar() {
        let cfg = FuzzConfig::default();
        let (mut guards, mut advs, mut fails, mut mixes, mut aliases) = (0, 0, 0, 0, 0);
        for seed in 0..200u64 {
            let src = fuzz_program(seed, &cfg);
            let prog = crate::parse(&src).unwrap();
            if prog
                .transitions
                .iter()
                .chain(prog.adversaries.iter().flat_map(|a| a.rules.iter()))
                .any(|r| r.guard.is_some())
            {
                guards += 1;
            }
            if !prog.adversaries.is_empty() {
                advs += 1;
            }
            if prog.states.iter().any(|s| s.fail) {
                fails += 1;
            }
            if prog
                .moves
                .iter()
                .flat_map(|b| b.rules.iter())
                .any(|r| r.dist.len() > 1)
            {
                mixes += 1;
            }
            let tuples: Vec<_> = prog.states.iter().map(|s| (s.env, &s.locals)).collect();
            if (1..tuples.len()).any(|i| tuples[..i].contains(&tuples[i])) {
                aliases += 1;
            }
        }
        assert!(guards > 20, "guarded rules too rare: {guards}/200");
        assert!(advs > 20, "adversary blocks too rare: {advs}/200");
        assert!(fails > 20, "fail annotations too rare: {fails}/200");
        assert!(mixes > 50, "mixed move distributions too rare: {mixes}/200");
        assert!(aliases > 10, "state tuple aliases too rare: {aliases}/200");
    }
}
