//! Differential property test: the polynomial saturation checker
//! (`litsynth_models::check`) must agree with the enumeration oracle
//! (`litsynth_models::oracle`) on every execution of every seeded `diy`
//! test, under every bundled model — and on the outcome-level verdict,
//! including relaxation-perturbed variants.
//!
//! This is the exactness pin for the whole CHECK serving path: any
//! disagreement here is a checker bug (over-saturation) or an oracle bug,
//! never tolerable drift. One more test pins the checker's own answers,
//! verdicts and cycle witnesses alike, by count and digest.

use litsynth_litmus::diy::{DiyConfig, DiyGenerator};
use litsynth_litmus::{Execution, LitmusTest, Outcome};
use litsynth_models::check::Verdict;
use litsynth_models::{check, oracle, MemoryModel, Power, Sc, Scc, Tso, C11};

fn seeded_tests(seed: u64, n: usize) -> Vec<(LitmusTest, Outcome)> {
    DiyGenerator::new(seed, DiyConfig::default()).generate(n)
}

fn assert_agreement<M: MemoryModel>(model: &M, test: &LitmusTest, outcome: &Outcome) {
    // Per-execution: check_execution vs oracle::allows, over the full
    // streamed enumeration.
    for e in Execution::iter(test) {
        let v = check::check_execution(model, test, &e);
        let allowed = oracle::allows(model, test, &e);
        assert_eq!(
            v.is_consistent(),
            allowed,
            "{} under {}: checker {:?} but oracle allows={} for exec {:?}",
            test.name(),
            model.name(),
            v,
            allowed,
            e,
        );
    }
    // Outcome-level: observable must agree exactly.
    assert_eq!(
        check::observable(model, test, outcome),
        oracle::observable(model, test, outcome),
        "{} under {}: outcome observability disagrees",
        test.name(),
        model.name(),
    );
}

fn run_differential(seed: u64, n: usize) {
    let sc = Sc::new();
    let tso = Tso::new();
    let power = Power::new();
    let armv7 = Power::armv7();
    let scc = Scc::new();
    let c11 = C11::new();
    for (test, outcome) in seeded_tests(seed, n) {
        assert_agreement(&sc, &test, &outcome);
        assert_agreement(&tso, &test, &outcome);
        assert_agreement(&power, &test, &outcome);
        assert_agreement(&armv7, &test, &outcome);
        assert_agreement(&scc, &test, &outcome);
        assert_agreement(&c11, &test, &outcome);
    }
}

#[test]
fn checker_agrees_with_enumeration_on_seeded_diy_tests() {
    run_differential(0xd1f7_0001, 12);
}

#[test]
fn checker_agrees_with_enumeration_on_second_seed() {
    run_differential(0xd1f7_0002, 12);
}

/// Pins the checker's verdicts *and* cycle witnesses byte for byte: every
/// distinct outcome of every seeded diy test (plus the test's own cycle
/// outcome) under all six model variants, one line per check, digested.
/// The differential tests above pin only verdicts; this catches a change to
/// which cycle saturation reports, or in what order it walks it.
#[test]
fn checker_verdicts_and_witnesses_are_pinned() {
    let models: [&dyn ModelDyn; 6] = [
        &Sc::new(),
        &Tso::new(),
        &Power::new(),
        &Power::armv7(),
        &Scc::new(),
        &C11::new(),
    ];
    let mut lines: Vec<String> = Vec::new();
    let mut witnesses = 0usize;
    for seed in [1u64, 2] {
        for (i, (test, cycle)) in seeded_tests(seed, 100).into_iter().enumerate() {
            let mut outcomes: Vec<Outcome> = Execution::iter(&test).map(|e| e.outcome()).collect();
            outcomes.push(cycle);
            outcomes.sort();
            outcomes.dedup();
            for outcome in &outcomes {
                for model in models {
                    lines.push(match model.check_outcome(&test, outcome) {
                        Verdict::Consistent => format!("{seed} {i} consistent\n"),
                        Verdict::Inconsistent(None) => format!("{seed} {i} inconsistent\n"),
                        Verdict::Inconsistent(Some(w)) => {
                            witnesses += 1;
                            format!("{seed} {i} {} {:?}\n", w.axiom, w.events)
                        }
                    });
                }
            }
        }
    }
    let digest = litsynth_core::fnv1a(lines.concat().as_bytes());
    assert_eq!(
        (lines.len(), witnesses, format!("{digest:016x}")),
        (7476, 725, "572183b35465f99d".to_string()),
    );
}

#[test]
fn checker_agrees_with_enumeration_under_relaxations() {
    // Relaxation-perturbed variants: apply each admissible relaxation to a
    // seeded test and re-run the outcome-level differential. This covers
    // weakened orders, dropped fences/deps, and unconstrained reads — the
    // shapes synthesis actually emits.
    let tso = Tso::new();
    let c11 = C11::new();
    let power = Power::new();
    for (test, outcome) in seeded_tests(0xd1f7_0003, 4) {
        for (name, model) in [
            ("tso", &tso as &dyn ModelDyn),
            ("c11", &c11),
            ("power", &power),
        ] {
            for app in model.applications_of(&test) {
                let (t2, o2) = litsynth_core::apply(&test, &outcome, app);
                assert_eq!(
                    model.check_observable(&t2, &o2),
                    model.oracle_observable(&t2, &o2),
                    "{} relaxed by {} under {name}: observability disagrees",
                    t2.name(),
                    app.describe(),
                );
            }
        }
    }
}

/// Object-safe shim so the relaxation sweep and the witness pin can iterate
/// heterogeneous models without monomorphizing the whole loop body per
/// model.
trait ModelDyn {
    fn applications_of(&self, test: &LitmusTest) -> Vec<litsynth_core::Application>;
    fn check_observable(&self, test: &LitmusTest, outcome: &Outcome) -> bool;
    fn oracle_observable(&self, test: &LitmusTest, outcome: &Outcome) -> bool;
    fn check_outcome(&self, test: &LitmusTest, outcome: &Outcome) -> Verdict;
}

impl<M: MemoryModel> ModelDyn for M {
    fn applications_of(&self, test: &LitmusTest) -> Vec<litsynth_core::Application> {
        litsynth_core::applications(self, test)
    }
    fn check_outcome(&self, test: &LitmusTest, outcome: &Outcome) -> Verdict {
        check::check_outcome(self, test, outcome)
    }
    fn check_observable(&self, test: &LitmusTest, outcome: &Outcome) -> bool {
        check::observable(self, test, outcome)
    }
    fn oracle_observable(&self, test: &LitmusTest, outcome: &Outcome) -> bool {
        oracle::observable(self, test, outcome)
    }
}
