//! The benchmark's inputs as text: the fixed protocol programs, the deep
//! "walk" model the serve workloads load, and seeded formula texts.

use std::fmt::Write as _;

use pak_core::generator::SplitMix64;

/// One messenger round of coordinated attack with loss 1/10 and order
/// prior 1/2 (the program of `examples/dsl_attack.rs`).
pub const ATTACK: &str = "\
protocol attack {
    # locals = [A informed, B informed]; env 1 marks the lost message.
    agents a, b;
    horizon 2;
    action attack_a = 10;
    action attack_b = 11;
    state ordered  = (0, 1, 0);
    state idle     = (0, 0, 0);
    state informed = (0, 1, 1);
    state lost     = (1, 1, 0) fail;
    init { 1/2: ordered; 1/2: idle; }
    moves a { at (1, 1) -> attack_a; }
    moves b { at (1, 1) -> attack_b; }
    transitions {
        # The messenger round: the order reaches B unless the channel
        # drops it.
        from ordered at 0 -> { 9/10: informed; 1/10: lost; };
    }
    adversary reliable {
        from ordered at 0 -> informed;
    }
}";

/// Positions on the walk's cycle. Agent `a` sees the position's parity,
/// agent `b` whether it is in the upper half.
pub const WALK_POSITIONS: u64 = 8;
/// Agent `a` performs `fire` (id 1) at this time when its local is 1.
const WALK_FIRE_TIME: u64 = 1;
/// Agent `b` performs `ack` (id 2) at this time when its local is 1.
const WALK_ACK_TIME: u64 = 2;

/// How the walk's step probabilities are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Weights {
    /// Sixteenths: every run probability stays a word-sized fraction.
    Dyadic,
    /// Over a 16-bit prime: a run probability's denominator grows by 16
    /// bits per level, so it leaves the word-sized tier below depth 3.
    Prime,
}

const PRIME: u64 = 65_521;

fn weight(rng: &mut SplitMix64, weights: Weights) -> (u64, u64) {
    match weights {
        Weights::Dyadic => (rng.range(3, 13), 16),
        Weights::Prime => (rng.range(PRIME / 4, 3 * PRIME / 4), PRIME),
    }
}

/// A two-agent random walk on a cycle of [`WALK_POSITIONS`] positions.
/// At every `branch_every`-th time the step goes up or down with a seeded
/// probability; at the other times it goes up. With `branch_every = 1`
/// the tree at horizon `h` has `2^(h+1)` runs.
pub fn walk_program(seed: u64, horizon: u64, branch_every: u64, weights: Weights) -> String {
    let mut rng = SplitMix64::new(seed);
    let k = WALK_POSITIONS;
    let mut src = String::new();
    let _ = writeln!(src, "protocol walk {{");
    let _ = writeln!(src, "    agents a, b;");
    let _ = writeln!(src, "    horizon {horizon};");
    let _ = writeln!(src, "    action fire = 1;");
    let _ = writeln!(src, "    action ack = 2;");
    for p in 0..k {
        let _ = writeln!(
            src,
            "    state s{p} = ({p}, {}, {});",
            p % 2,
            u64::from(p >= k / 2)
        );
    }
    let (n, d) = weight(&mut rng, weights);
    let _ = writeln!(
        src,
        "    init {{ {n}/{d}: s0; {}/{d}: s{}; }}",
        d - n,
        k / 2
    );
    let _ = writeln!(src, "    moves a {{ at (1, {WALK_FIRE_TIME}) -> fire; }}");
    let _ = writeln!(src, "    moves b {{ at (1, {WALK_ACK_TIME}) -> ack; }}");
    let _ = writeln!(src, "    transitions {{");
    for t in 0..horizon {
        let (n, d) = weight(&mut rng, weights);
        for p in 0..k {
            let up = (p + 1) % k;
            let down = (p + k - 1) % k;
            if t % branch_every == 0 {
                let _ = writeln!(
                    src,
                    "        from s{p} at {t} -> {{ {n}/{d}: s{up}; {}/{d}: s{down}; }};",
                    d - n
                );
            } else {
                let _ = writeln!(src, "        from s{p} at {t} -> s{up};");
            }
        }
    }
    let _ = writeln!(src, "    }}");
    src.push('}');
    src
}

const WALK_ATOMS: [&str; 5] = ["hi", "odd", "zero", "does(0, 1)", "does(1, 2)"];
const THRESHOLDS: [&str; 6] = ["1/3", "1/2", "2/3", "3/4", "9/10", "99/100"];

/// A formula text over the walk's atoms, at most `depth` operators deep.
/// `shape` draws the operators, atoms and agents, and `q` the belief
/// thresholds: with `shape` seeded the same for every workload seed, the
/// evaluation cost stays alike across seeds. Without `epistemic`, no
/// `K`/`B` operator appears, so the formula can be estimated by sampling.
pub fn walk_formula(
    shape: &mut SplitMix64,
    q: &mut SplitMix64,
    depth: u32,
    epistemic: bool,
) -> String {
    if depth == 0 || shape.chance(1, 4) {
        return WALK_ATOMS[shape.below(WALK_ATOMS.len() as u64) as usize].to_owned();
    }
    let op = shape.below(if epistemic { 8 } else { 6 });
    let agent = shape.below(2);
    let threshold = THRESHOLDS[q.below(THRESHOLDS.len() as u64) as usize];
    let mut sub = || walk_formula(shape, q, depth - 1, epistemic);
    match op {
        0 => format!("!{}", sub()),
        1 => format!("<>({})", sub()),
        2 => format!("[]({})", sub()),
        3 => format!("({}) & ({})", sub(), sub()),
        4 => format!("({}) | ({})", sub(), sub()),
        5 => format!("({}) -> ({})", sub(), sub()),
        6 => format!("K{agent} ({})", sub()),
        _ => format!("B{agent}{{>={threshold}}} ({})", sub()),
    }
}

/// The PAK-shaped formula `does(i, α) → B_i{≥q} C` for one of the walk's
/// two proper actions, drawn as in [`walk_formula`].
pub fn walk_pak_formula(shape: &mut SplitMix64, q: &mut SplitMix64) -> String {
    let (agent, action) = if shape.chance(1, 2) { (0, 1) } else { (1, 2) };
    let fact = ["hi", "odd", "<> hi"][shape.below(3) as usize];
    let threshold = THRESHOLDS[q.below(THRESHOLDS.len() as u64) as usize];
    format!("does({agent}, {action}) -> B{agent}{{>={threshold}}} ({fact})")
}
