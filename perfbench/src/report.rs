//! Result bookkeeping: metrics, percentiles, peak memory, and the final
//! JSON line.

use std::fmt::Write as _;

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run reports: the answer checks, the request counts and the
/// metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the checks; empty when every answer was right.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed check. The first few are printed.
    pub fn fail(&mut self, what: impl Into<String>) {
        if self.errors.len() < 20 {
            self.errors.push(what.into());
        }
    }

    /// Prints a readable table, then the result as the last line.
    /// Returns whether every answer was right.
    pub fn print(&self, workload: &str) -> bool {
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        for e in &self.errors {
            println!("check failed: {e}");
        }
        println!(
            "workload {workload}: attempted {}, failed {}",
            self.attempted, self.failed
        );
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  {:<44} {:>16}  ratio", "failed_frac", failed_frac);
        for (name, value, unit) in &self.metrics.0 {
            println!("  {name:<44} {value:>16.6}  {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// The per-layer numbers that are not span times. A workload leaves at 0
/// what its path never touches, so every workload reports the same set.
#[derive(Default)]
pub struct LayerCounts {
    pub requests: u64,
    pub failed_frac: f64,
    pub trees: u64,
    pub nodes_sum: u64,
    pub runs_sum: u64,
    pub protocol_calls: u64,
    pub footprint_max: u64,
    pub subformulas: u64,
    pub formulas: u64,
    /// Run probabilities whose denominator fits 64 / 192 / more bits.
    pub tiers: [u64; 3],
    pub denom_bits_max: u64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: u64,
    pub cache_peak_bytes: u64,
    pub submit_p50_us: f64,
    pub handoff_p50_us: f64,
    pub handoff_p99_us: f64,
    pub accepted: u64,
    pub served: u64,
    pub rejected: u64,
    pub degraded: u64,
    pub alloc_peak_bytes: i64,
    pub gen_lag_p99_ms: f64,
    pub trace_overhead: f64,
}

/// Size, footprint and run-probability tiers of one tree a request used.
pub struct TreeCounts {
    pub nodes: u64,
    pub runs: u64,
    pub footprint: u64,
    pub tiers: [u64; 3],
    pub denom_bits_max: u64,
}

impl TreeCounts {
    pub fn of<G: pak_core::state::GlobalState>(
        pps: &pak_core::pps::Pps<G, pak_num::Rational>,
    ) -> Self {
        let mut tiers = [0; 3];
        let mut denom_bits_max = 0;
        for run in pps.run_ids() {
            let bits = pps.run_probability(run).denom().bits();
            denom_bits_max = denom_bits_max.max(bits);
            tiers[match bits {
                0..=64 => 0,
                65..=192 => 1,
                _ => 2,
            }] += 1;
        }
        TreeCounts {
            nodes: pps.num_nodes() as u64,
            runs: pps.num_runs() as u64,
            footprint: pps.memory_footprint() as u64,
            tiers,
            denom_bits_max,
        }
    }
}

impl LayerCounts {
    /// Adds one request's tree.
    pub fn tree(&mut self, t: &TreeCounts) {
        self.trees += 1;
        self.nodes_sum += t.nodes;
        self.runs_sum += t.runs;
        self.footprint_max = self.footprint_max.max(t.footprint);
        for (acc, n) in self.tiers.iter_mut().zip(t.tiers) {
            *acc += n;
        }
        self.denom_bits_max = self.denom_bits_max.max(t.denom_bits_max);
    }

    pub fn push_into(&self, m: &mut Metrics) {
        let trees = self.trees.max(1) as f64;
        let tier_total = self.tiers.iter().sum::<u64>().max(1) as f64;
        m.push("protocol.nodes", self.nodes_sum as f64 / trees, "count");
        m.push("protocol.runs", self.runs_sum as f64 / trees, "count");
        m.push("protocol.calls", self.protocol_calls as f64, "count");
        m.push(
            "engine.subformulas_per_formula",
            self.subformulas as f64 / self.formulas.max(1) as f64,
            "ratio",
        );
        m.push("engine.cache.hit_ratio", self.cache_hit_ratio, "ratio");
        m.push(
            "engine.cache.evictions",
            self.cache_evictions as f64,
            "count",
        );
        m.push(
            "engine.cache.peak_bytes",
            self.cache_peak_bytes as f64,
            "bytes",
        );
        m.push(
            "engine.tree_footprint_bytes",
            self.footprint_max as f64,
            "bytes",
        );
        m.push("num.denom_bits.max", self.denom_bits_max as f64, "bits");
        for (name, n) in ["inline", "fixed", "heap"].iter().zip(self.tiers) {
            m.push(
                format!("num.tier_share.{name}"),
                n as f64 / tier_total,
                "ratio",
            );
        }
        m.push("server.submit.p50_us", self.submit_p50_us, "us");
        m.push("server.queue_and_handoff.p50_us", self.handoff_p50_us, "us");
        m.push("server.queue_and_handoff.p99_us", self.handoff_p99_us, "us");
        m.push("server.accepted", self.accepted as f64, "count");
        m.push("server.served", self.served as f64, "count");
        m.push("server.rejected", self.rejected as f64, "count");
        m.push("server.degraded", self.degraded as f64, "count");
        m.push("alloc.peak_bytes", self.alloc_peak_bytes as f64, "bytes");
        m.push("bench.gen_lag_p99_ms", self.gen_lag_p99_ms, "ms");
        m.push("bench.trace_overhead", self.trace_overhead, "ratio");
        m.push("bench.failed_frac", self.failed_frac, "ratio");
        m.push("bench.requests", self.requests as f64, "count");
    }
}

/// Samples in memory committed up front, so a run's peak memory does not
/// grow with the number of requests it completed. Samples past the
/// capacity are dropped.
pub struct Samples {
    buf: Vec<f64>,
    len: usize,
}

impl Samples {
    pub fn new(capacity: usize) -> Self {
        // Filled with a non-zero value, so every page is touched now.
        Samples {
            buf: vec![f64::NAN; capacity],
            len: 0,
        }
    }

    pub fn push(&mut self, x: f64) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = x;
            self.len += 1;
        }
    }

    /// The samples pushed, in order.
    pub fn into_vec(mut self) -> Vec<f64> {
        self.buf.truncate(self.len);
        self.buf
    }
}

/// The `q`-quantile (nearest rank) of `xs`; 0 for no samples.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&mut xs.to_vec(), 0.5)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
