//! The synthesis sweeps: the paper's per-model runtime rows, run through
//! `synthesize_union_up_to` exactly as a user of the library calls it.
//!
//! Sweep inputs are fixed by the paper's figures; the seed is recorded
//! but changes nothing.

use crate::trace::{Layers, Trace};
use crate::{end_to_end, pinned, pinned_count, replay, Args, PassTimer, Pick, Report, SETUPS};
use litsynth_core::{
    encode_suite_body, fnv1a, synthesize_union_up_to_with_stats, CanonicalSuite, SweepStats,
    SynthConfig,
};
use litsynth_models::{check, MemoryModel};
use litsynth_serve::models::{dispatch, ModelOp};
use std::time::Instant;

/// One sweep workload: every listed model over bounds `2..=max_bound`.
pub struct Sweep {
    name: &'static str,
    models: &'static [&'static str],
    max_bound: usize,
    threads: usize,
    cube_bits: usize,
}

const SWEEPS: [Sweep; 3] = [
    // Figure 13's TSO row; CDCL search is nearly all of the time.
    Sweep {
        name: "sweep-tso5",
        models: &["tso"],
        max_bound: 5,
        threads: 1,
        cube_bits: 0,
    },
    // Figures 16 and 20 and the C11 table at bound 4: 63 queries per
    // repetition, Power's ppo circuits, pooled-solver reuse, and a
    // front end (circuits, Tseitin, pin ranking) worth measuring.
    Sweep {
        name: "sweep-models4",
        models: &["sc", "tso", "power", "armv7", "scc", "c11"],
        max_bound: 4,
        threads: 1,
        cube_bits: 0,
    },
    // The same TSO row cube-split over two threads: the only workload
    // that runs the exchange bus and the adaptive pin probe.
    Sweep {
        name: "sweep-tso5-cubes",
        models: &["tso"],
        max_bound: 5,
        threads: 2,
        cube_bits: 2,
    },
];

/// The sweep workload called `name`.
///
/// # Panics
///
/// Panics on a name that is not a sweep workload (the caller has
/// validated it).
pub fn workload(name: &str) -> &'static Sweep {
    SWEEPS
        .iter()
        .find(|s| s.name == name)
        .expect("validated workload name")
}

/// The engine call one repetition makes per model.
struct Engine<'a> {
    sweep: &'a Sweep,
    max_bound: usize,
}

impl ModelOp for Engine<'_> {
    type Out = (CanonicalSuite, SweepStats);
    fn run<M: MemoryModel + Sync>(self, model: &M) -> Self::Out {
        let s = self.sweep;
        synthesize_union_up_to_with_stats(model, 2..=self.max_bound, |n| {
            SynthConfig::new(n)
                .with_threads(s.threads)
                .with_cube_bits(s.cube_bits)
        })
    }
}

impl Sweep {
    fn engine(&self, model: &str, max_bound: usize) -> (CanonicalSuite, SweepStats) {
        let op = Engine {
            sweep: self,
            max_bound,
        };
        dispatch(model, op).expect("sweep models are known names")
    }

    /// The pin for `model`'s suite: `sweep/<model>/2-<max>`.
    fn pin(&self, model: &str) -> (usize, u64) {
        let label = format!("sweep/{model}/2-{}", self.max_bound);
        pinned(&label).unwrap_or_else(|| panic!("expected.txt has no {label}"))
    }

    /// Which repetition a run reports. A cube-split sweep's search
    /// follows its threads' timing, so its work differs between
    /// repetitions; every other sweep repeats the same work.
    fn pick(&self) -> Pick {
        if self.threads > 1 || self.cube_bits > 0 {
            Pick::Median
        } else {
            Pick::Fastest
        }
    }

    /// How many of `model`'s suite the checker may find observable:
    /// `observable/<model>/2-<max>`.
    fn observable_pin(&self, model: &str) -> usize {
        let label = format!("observable/{model}/2-{}", self.max_bound);
        pinned_count(&label).unwrap_or_else(|| panic!("expected.txt has no {label}"))
    }
}

/// Checks the suite with the polynomial checker, independently of the
/// SAT path: returns `(allowed, unexplained)`, the number of tests whose
/// outcome the checker finds observable and how many of those fall
/// outside the paper's §4.2 exception. That exception is a test with
/// three writes to one address, whose coherence order its outcome leaves
/// ambiguous; Figure 5c's encoding may emit such a test although the
/// outcome is observable. `expected.txt` pins how many such tests each
/// suite has.
struct Allowed<'a>(&'a CanonicalSuite);

impl ModelOp for Allowed<'_> {
    type Out = (usize, usize);
    fn run<M: MemoryModel + Sync>(self, model: &M) -> (usize, usize) {
        let allowed: Vec<_> = self
            .0
            .values()
            .filter(|(t, o)| !check::forbidden(model, t, o))
            .collect();
        let unexplained = allowed
            .iter()
            .filter(|(t, _)| {
                !(0..t.num_events())
                    .filter_map(|g| t.instr(g).addr())
                    .any(|a| t.writes_to(a).len() >= 3)
            })
            .count();
        (allowed.len(), unexplained)
    }
}

/// Runs a sweep workload: repetitions until `args.seconds` of them have
/// been timed, each checked against the pinned suite digests.
pub fn run(sweep: &Sweep, args: &Args) -> Report {
    if args.trace {
        return traced(sweep);
    }
    let mut report = Report::default();
    report.notes.push(format!(
        "{}: models {}, bounds 2..={}, threads {}, cube_bits {}; seed {} recorded, inputs fixed",
        sweep.name,
        sweep.models.join(","),
        sweep.max_bound,
        sweep.threads,
        sweep.cube_bits,
        args.seed
    ));
    // Set-up: the same sweep one bound short, so allocator and code paths
    // are warm before the first timed repetition.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            for m in sweep.models {
                sweep.engine(m, sweep.max_bound - 1);
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut passes = Vec::new();
    let mut timed = 0.0;
    let mut last = Vec::new();
    while timed < args.seconds {
        let timer = PassTimer::start();
        let t = Instant::now();
        let suites: Vec<CanonicalSuite> = sweep
            .models
            .iter()
            .map(|m| sweep.engine(m, sweep.max_bound).0)
            .collect();
        let pass = timer.finish(vec![t.elapsed().as_secs_f64()]);
        timed += pass.ops[0];
        passes.push(pass);
        report.attempted += 1;
        let mut ok = true;
        for (m, suite) in sweep.models.iter().zip(&suites) {
            let (tests, digest) = sweep.pin(m);
            let got = fnv1a(encode_suite_body(suite).as_bytes());
            if suite.len() != tests || got != digest {
                ok = false;
                report.fail(format!(
                    "{m}: {} tests with digest {got:016x}, pinned {tests} / {digest:016x}",
                    suite.len()
                ));
            }
        }
        report.failed += u64::from(!ok);
        last = suites;
    }
    for (m, suite) in sweep.models.iter().zip(&last) {
        let (allowed, unexplained) = dispatch(m, Allowed(suite)).expect("known model");
        let pinned = sweep.observable_pin(m);
        report.notes.push(format!(
            "{m}: {} tests; the checker finds {allowed} observable (pinned {pinned}), \
             {unexplained} of them outside the three-write class",
            suite.len()
        ));
        if allowed != pinned || unexplained > 0 {
            report.fail(format!(
                "{m}: the checker finds {allowed} synthesized tests observable, \
                 {unexplained} of them outside the three-write class; pinned {pinned}, \
                 all inside it"
            ));
        }
    }
    // A pass is one repetition, a single op: no tail percentile.
    end_to_end(&mut report, &setups, &passes, None, sweep.pick());
    report
}

/// `replay::sweep` as a model operation.
struct Replay<'a> {
    max_bound: usize,
    trace: &'a mut Trace,
}

impl ModelOp for Replay<'_> {
    type Out = CanonicalSuite;
    fn run<M: MemoryModel + Sync>(self, model: &M) -> CanonicalSuite {
        replay::sweep(model, 2..=self.max_bound, self.trace)
    }
}

/// The traced run: each model's sweep once through the engine, then once
/// through the traced replay, which must match it byte for byte and
/// counter for counter. The cube-split sweep is not replayed (its
/// exchange timing differs run to run); it reports the engine's own
/// sweep counters.
fn traced(sweep: &Sweep) -> Report {
    let mut report = Report::default();
    let mut trace = Trace::default();
    let (mut engine_s, mut replay_s) = (0.0, 0.0);
    for m in sweep.models {
        let t = Instant::now();
        let (suite, stats) = sweep.engine(m, sweep.max_bound);
        engine_s += t.elapsed().as_secs_f64();
        report.attempted += 1;
        if sweep.threads > 1 || sweep.cube_bits > 0 {
            count_sweep_stats(&mut trace, &stats);
            replay_s = engine_s;
            continue;
        }
        let before = replay::fidelity_counters(&trace);
        let t = Instant::now();
        let op = Replay {
            max_bound: sweep.max_bound,
            trace: &mut trace,
        };
        let replayed = dispatch(m, op).expect("known model");
        replay_s += t.elapsed().as_secs_f64();
        let after = replay::fidelity_counters(&trace);
        let delta: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
        let engine = [stats.propagations, stats.decisions, stats.raw_instances];
        if encode_suite_body(&replayed) != encode_suite_body(&suite) || delta != engine {
            report.failed += 1;
            report.fail(format!(
                "{m}: replay differs from the engine (propagations, decisions, raw \
                 instances {delta:?} vs {engine:?})"
            ));
        }
    }
    let layers = Layers {
        trace: &trace,
        requests: 0,
        replay_s,
        untraced_s: engine_s,
        transport_us: 0.0,
    };
    report.metrics = layers.metrics();
    report
}

/// The engine's own counters for a sweep that is not replayed.
fn count_sweep_stats(trace: &mut Trace, s: &SweepStats) {
    trace.count("sat.propagations", s.propagations);
    trace.count("sat.decisions", s.decisions);
    trace.count("core.raw_instances", s.raw_instances);
    trace.count("portfolio.exchange_exported", s.exchange.0);
    trace.count("portfolio.exchange_imported", s.exchange.1);
    trace.count("portfolio.exchange_filtered", s.exchange.2);
    trace.count("portfolio.vault_published", s.vault.published);
    trace.count("portfolio.vault_imported", s.vault.imported);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_model_has_its_pins() {
        for sweep in &SWEEPS {
            for m in sweep.models {
                sweep.pin(m);
                sweep.observable_pin(m);
            }
        }
        assert_eq!(pinned_count("sweep/tso/2-5"), None);
        assert_eq!(pinned("observable/tso/2-5"), None);
    }

    /// Checks the sweep pins of `expected.txt` against fresh syntheses;
    /// after a change that legitimately moves a suite, the failure lists
    /// the replacement lines. Slow: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn sweep_pins_match_the_library() {
        let mut stale = Vec::new();
        // The cube sweep pins nothing of its own: it must match sweep-tso5.
        for sweep in &SWEEPS[..2] {
            for m in sweep.models {
                let suite = sweep.engine(m, sweep.max_bound).0;
                let got = (suite.len(), fnv1a(encode_suite_body(&suite).as_bytes()));
                if sweep.pin(m) != got {
                    let (n, d) = got;
                    stale.push(format!("sweep/{m}/2-{} {n} {d:016x}", sweep.max_bound));
                }
                let (allowed, _) = dispatch(m, Allowed(&suite)).expect("known model");
                if sweep.observable_pin(m) != allowed {
                    stale.push(format!("observable/{m}/2-{} {allowed}", sweep.max_bound));
                }
            }
        }
        assert!(stale.is_empty(), "stale pins:\n{}", stale.join("\n"));
    }
}
