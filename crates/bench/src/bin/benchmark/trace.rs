//! Per-layer accounting for the traced replays: a timer around each call
//! into a layer's public functions, plus named work counters.
//!
//! The replays call layers one after another, never one inside another,
//! so a layer's total is its self time and the layers' sum is the share
//! of the replay they explain.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated time per layer and count per counter.
#[derive(Default)]
pub struct Trace {
    /// `false` runs the same calls without reading the clock, which is
    /// how the replay's own timing overhead is measured.
    off: bool,
    spans: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// A trace that records nothing.
    pub fn disabled() -> Trace {
        Trace {
            off: true,
            ..Trace::default()
        }
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if self.off {
            return f();
        }
        let start = Instant::now();
        let r = f();
        *self.spans.entry(layer).or_default() += start.elapsed();
        r
    }

    /// Adds `n` to `counter`.
    pub fn count(&mut self, counter: &'static str, n: u64) {
        *self.counts.entry(counter).or_default() += n;
    }

    /// Seconds charged to `layer` so far.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.spans.get(layer).map_or(0.0, Duration::as_secs_f64)
    }

    /// The value of `counter` so far.
    pub fn counter(&self, counter: &str) -> u64 {
        self.counts.get(counter).copied().unwrap_or(0)
    }

    /// Seconds charged to every layer together.
    pub fn covered_seconds(&self) -> f64 {
        // A fold from +0.0: `sum` of nothing is -0.0.
        self.spans
            .values()
            .fold(0.0, |acc, d| acc + d.as_secs_f64())
    }
}

/// Every per-layer metric, in report order, with its unit. A `s` metric
/// is the seconds its layer took over the whole replay, a `us` metric the
/// microseconds per replayed request, and a `count` or `B` (bytes) metric
/// a counter's total; each is named after the span or counter it reads.
/// A workload that does not exercise a layer reports 0 for it.
const LAYER_METRICS: [(&str, &str); 34] = [
    ("sat.search_s", "s"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.conflicts", "count"),
    ("core.circuit_build_s", "s"),
    ("relalg.tseitin_s", "s"),
    ("relalg.cnf_clauses", "count"),
    ("portfolio.pin_rank_s", "s"),
    ("portfolio.exchange_exported", "count"),
    ("portfolio.exchange_imported", "count"),
    ("portfolio.exchange_filtered", "count"),
    ("relalg.attach_s", "s"),
    ("relalg.activate_s", "s"),
    ("portfolio.vault_published", "count"),
    ("portfolio.vault_imported", "count"),
    ("core.pool_reuses", "count"),
    ("core.extract_s", "s"),
    ("litmus.canon_s", "s"),
    ("litmus.canon_hits", "count"),
    ("litmus.canon_misses", "count"),
    ("relalg.block_s", "s"),
    ("core.raw_instances", "count"),
    ("core.merge_s", "s"),
    ("models.check_us", "us"),
    ("litmus.wire_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.cache_us", "us"),
    ("core.suite_codec_us", "us"),
    ("serve.suite_bytes", "B"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.check_cache_hits", "count"),
    ("serve.compilations", "count"),
    ("serve.shard_stolen", "count"),
];

/// A finished replay, ready to report.
pub struct Layers<'a> {
    pub trace: &'a Trace,
    /// Requests replayed (the divisor of the `us` metrics; 0 for sweeps).
    pub requests: u64,
    /// Wall seconds of the traced replay.
    pub replay_s: f64,
    /// Wall seconds of the same work untraced.
    pub untraced_s: f64,
    /// Mean end-to-end request latency minus the replayed layers' share.
    pub transport_us: f64,
}

impl Layers<'_> {
    /// Every per-layer metric, plus the derived rates and ratios.
    pub fn metrics(&self) -> Vec<crate::Metric> {
        let t = self.trace;
        let mut out: Vec<crate::Metric> = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match unit {
                    "s" => t.seconds(name),
                    "us" if self.requests > 0 => t.seconds(name) * 1e6 / self.requests as f64,
                    "us" => 0.0,
                    _ => t.counter(name) as f64,
                };
                (name, value, unit)
            })
            .collect();
        let search = t.seconds("sat.search_s");
        let props_per_s = if search > 0.0 {
            t.counter("sat.propagations") as f64 / search
        } else {
            0.0
        };
        out.push(("sat.props_per_s", props_per_s, "1/s"));
        out.push(("serve.transport_us", self.transport_us, "us"));
        out.push(("trace_overhead", self.replay_s / self.untraced_s, "ratio"));
        out.push((
            "trace_coverage",
            t.covered_seconds() / self.replay_s,
            "ratio",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_counts_accumulate_and_a_disabled_trace_stays_empty() {
        let mut t = Trace::default();
        let x = t.time("a", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        t.time("a", || ());
        t.count("c", 2);
        t.count("c", 3);
        assert_eq!(x, 7);
        assert!(t.seconds("a") >= 0.002);
        assert_eq!(t.seconds("b"), 0.0);
        assert_eq!(t.counter("c"), 5);
        assert_eq!(t.covered_seconds(), t.seconds("a"));

        let mut off = Trace::disabled();
        assert_eq!(off.time("a", || 1), 1);
        assert_eq!(off.covered_seconds(), 0.0);
    }
}
