//! Phase profiler for the unfold hot path.
//!
//! Prints how interning compacts the tree (distinct states vs nodes) and
//! the per-iteration cost of the full unfold pipeline on the scaling
//! benchmark's workloads, split into its two phases:
//!
//! * **tree** — protocol enumeration into the raw builder
//!   (`unfold_to_builder`): moves, transitions, merging, memoized
//!   expansion replay;
//! * **build** — the validation/indexing pass (`PpsBuilder::build`): run
//!   enumeration, distribution validation, cell construction.
//!
//! The build share is the number to watch PR over PR: it is what the
//! interned build pass (validation memoization, `LocalId` cells,
//! word-filled run-sets) is meant to keep from dominating. The **extend**
//! column puts incremental growth next to the rebuild: the cost of
//! growing a retained `Unfolder` from `horizon − 1` to `horizon` (one
//! frontier expansion + index repair) vs re-unfolding the whole horizon
//! tree from scratch. Useful for eyeballing perf work without running
//! the whole bench suite:
//!
//! ```text
//! cargo run --release --example profile_unfold
//! ```

use std::time::{Duration, Instant};

use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::unfold::{unfold_to_builder, unfold_with, UnfoldConfig, Unfolder};

fn main() {
    for horizon in [2u32, 3, 4, 5, 6] {
        let cfg = RandomModelConfig {
            n_agents: 2,
            initial_states: 2,
            horizon,
            envs: 3,
            max_env_branching: 2,
            local_values: 2,
            actions_per_agent: 2,
        };
        let model = random_model::<Rational>(11, &cfg);
        let pps = unfold_with(&model, &UnfoldConfig::default()).unwrap();
        let iters = (200_000u32 >> horizon).max(1_000);

        // Full pipeline.
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(unfold_with(&model, &UnfoldConfig::default()).unwrap());
        }
        let full = t.elapsed() / iters;

        // Tree phase alone.
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(
                unfold_to_builder::<_, Rational>(&model, &UnfoldConfig::default()).unwrap(),
            );
        }
        let tree = t.elapsed() / iters;

        // The build phase is measured directly too (on clones of one
        // builder, with the clone cost subtracted) as a cross-check; the
        // headline split below uses full − tree so the two columns sum.
        let builder = unfold_to_builder::<_, Rational>(&model, &UnfoldConfig::default()).unwrap();
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(builder.clone());
        }
        let clone = t.elapsed() / iters;
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(builder.clone().build().unwrap());
        }
        let build_direct = (t.elapsed() / iters).saturating_sub(clone);

        // Incremental growth: the cost of the final extend(h−1 → h) on a
        // retained handle, measured on clones of the horizon-(h−1) handle
        // with the clone cost subtracted — against `full`, the from-scratch
        // rebuild of the same horizon-h tree.
        let parked = Unfolder::<_, Rational>::new(
            &model,
            UnfoldConfig {
                horizon: Some(horizon - 1),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(parked.clone());
        }
        let handle_clone = t.elapsed() / iters;
        let t = Instant::now();
        for _ in 0..iters {
            let mut u = parked.clone();
            u.extend_horizon().unwrap();
            std::hint::black_box(u);
        }
        let extend = (t.elapsed() / iters).saturating_sub(handle_clone);

        let build = full.saturating_sub(tree);
        let share = |d: Duration| 100.0 * d.as_secs_f64() / full.as_secs_f64().max(1e-12);
        println!(
            "horizon {horizon}: {full:>9.2?}/unfold = tree {tree:>8.2?} ({:>4.1}%) + build {build:>8.2?} ({:>4.1}%, direct {build_direct:.2?}) | extend {extend:>8.2?} ({:>4.1}% of rebuild) | nodes={:<5} runs={:<4} distinct states={:<3} ({}x shared)",
            share(tree),
            share(build),
            share(extend),
            pps.num_nodes(),
            pps.num_runs(),
            pps.num_distinct_states(),
            (pps.num_nodes() - 1) / pps.num_distinct_states().max(1),
        );
    }
}
