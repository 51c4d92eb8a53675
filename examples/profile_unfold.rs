//! Profiler for the unfold hot path.
//!
//! Prints how interning compacts the tree (distinct states vs nodes) and
//! the per-iteration cost of a full unfold on the scaling benchmark's
//! workloads, next to incremental growth: the **extend** column is the
//! cost of growing a retained `Unfolder` from `horizon − 1` to `horizon`
//! (one frontier expansion + index repair) against unfolding the whole
//! horizon tree from scratch. Useful for eyeballing perf work without
//! running the whole bench suite:
//!
//! ```text
//! cargo run --release --example profile_unfold
//! ```

use std::time::Instant;

use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};

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

        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(unfold_with(&model, &UnfoldConfig::default()).unwrap());
        }
        let full = t.elapsed() / iters;

        // Incremental growth: the cost of the final extend(h−1 → h) on a
        // retained handle, measured on clones of the horizon-(h−1) handle
        // with the clone cost subtracted.
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

        println!(
            "horizon {horizon}: {full:>9.2?}/unfold | extend {extend:>8.2?} ({:>4.1}% of unfold) | nodes={:<5} runs={:<4} distinct states={:<3} ({}x shared)",
            100.0 * extend.as_secs_f64() / full.as_secs_f64().max(1e-12),
            pps.num_nodes(),
            pps.num_runs(),
            pps.num_distinct_states(),
            (pps.num_nodes() - 1) / pps.num_distinct_states().max(1),
        );
    }
}
