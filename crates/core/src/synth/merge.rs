//! Merging: the representative rule, per-query merge, and finishing a unit.

use super::cube::CubeRun;
use super::{CanonicalSuite, SynthResult};
use crate::journal::{config_fingerprint, query_key};
use crate::symbolic::SynthConfig;
use litsynth_litmus::{serialize, LitmusTest, Outcome};
use litsynth_models::MemoryModel;
use std::collections::btree_map::Entry;
use std::time::{Duration, Instant};

/// Inserts with the deterministic representative rule: the value kept for
/// a key never depends on enumeration order (see the module docs).
pub(super) fn insert_dedup(
    suite: &mut CanonicalSuite,
    key: String,
    test: LitmusTest,
    outcome: Outcome,
) {
    match suite.entry(key) {
        Entry::Vacant(v) => {
            v.insert((test, outcome));
        }
        Entry::Occupied(mut o) => {
            let (t0, o0) = o.get();
            if serialize(&test, &outcome) < serialize(t0, o0) {
                o.insert((test, outcome));
            }
        }
    }
}

/// Finishes one unit's result, wherever it was computed (a local run, a
/// journal replay, or a remote worker's answer): cross-checks it
/// ([`SynthConfig::cross_check`]), journals it if it is complete, and
/// reports it to `cfg`'s progress sink. Every query a sweep runs is
/// finished here, and so is every unit a serving coordinator replays from
/// its journal or accepts from a worker, so a unit is journaled and
/// reported the same way whoever ran it.
pub fn finish_unit<M: MemoryModel>(model: &M, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    cross_check_suite(model, axiom, cfg, r);
    record_if_clean(model.name(), axiom, cfg, r);
    emit_progress(model.name(), axiom, cfg, r);
}

/// Reports one completed query to `cfg`'s progress sink, if any.
fn emit_progress(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if let Some(sink) = &cfg.progress {
        sink.emit(&crate::symbolic::ProgressEvent {
            key: query_key(model_name, axiom, cfg.events),
            tests: r.tests.len(),
            from_journal: r.from_journal,
            elapsed: r.elapsed,
        });
    }
}

/// Merges the cube runs of one query (in cube order) into a [`SynthResult`].
pub(super) fn merge_query(runs: Vec<CubeRun>) -> SynthResult {
    let mut r = SynthResult::default();
    let mut span: Option<(Instant, Instant)> = None;
    for run in runs {
        if let Some((s, e)) = run.span {
            span = Some(span.map_or((s, e), |(s0, e0)| (s0.min(s), e0.max(e))));
        }
        for (k, (t, o)) in run.tests {
            insert_dedup(&mut r.tests, k, t, o);
        }
        let w = &run.stats;
        r.raw_instances += w.raw_instances;
        r.cnf_vars += w.cnf_vars;
        r.cnf_clauses += w.cnf_clauses;
        r.compilations += run.compilations;
        r.exchange.0 += w.exported;
        r.exchange.1 += w.imported;
        r.exchange.2 += w.filtered;
        r.propagations += w.propagations;
        r.decisions += w.decisions;
        r.domain_decisions += w.domain_decisions;
        r.shelved_replayed += w.shelved_replayed;
        r.simplify_removed += w.simplify_removed;
        r.subsumed += w.subsumed;
        r.strengthened += w.strengthened;
        r.gc_runs += w.gc_runs;
        r.gc_reclaimed_words += w.gc_reclaimed_words;
        r.truncated |= w.truncated;
        r.degraded += w.degraded as usize;
        r.retries += w.attempts.saturating_sub(1) as u64;
        r.workers.push(run.stats);
    }
    r.elapsed = span.map_or(Duration::ZERO, |(s, e)| e - s);
    r
}

/// A [`SynthResult`] replayed from the checkpoint journal: the exact tests
/// recorded by a previous complete run, with all work counters zero.
pub(super) fn journal_hit_result(tests: CanonicalSuite) -> SynthResult {
    SynthResult {
        tests,
        from_journal: true,
        ..SynthResult::default()
    }
}

/// Post-synthesis consistency cross-check ([`SynthConfig::cross_check`]):
/// re-verifies with the polynomial saturation checker
/// (`litsynth_models::check`) that every emitted (test, outcome) really is
/// forbidden — an axiom-forbidden outcome is model-forbidden (more axioms
/// only shrink the allowed set), so the full-model check is sound for
/// per-axiom suites. Read-only defense in depth for the byte-identity
/// bar: it never mutates the suite, and a disagreement is a synthesis or
/// model bug, so it panics.
///
/// Tests that write one address three or more times are exempt: there a
/// final value pins only the last write, so the coherence order the
/// synthesized instance forbids is not the only one the outcome admits,
/// and the checker may find the outcome observable (the paper's §4.2 /
/// Fig. 5c class). The engine keeps emitting them; they are the one
/// allowed divergence.
fn cross_check_suite<M: MemoryModel>(model: &M, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    if !cfg.cross_check {
        return;
    }
    for (key, (test, outcome)) in &r.tests {
        if writes_one_address_thrice(test) {
            continue;
        }
        assert!(
            litsynth_models::check::forbidden(model, test, outcome),
            "cross-check failed: {key} (model {}, axiom {axiom}) claims a forbidden \
             outcome the consistency checker finds observable",
            model.name(),
        );
    }
}

/// Whether `test` writes some address three or more times — the class
/// [`cross_check_suite`] exempts.
pub(super) fn writes_one_address_thrice(test: &LitmusTest) -> bool {
    test.addresses()
        .into_iter()
        .any(|a| test.writes_to(a).len() >= 3)
}

/// Journals `r` if it is complete: not truncated, no degraded workers, and
/// a journal is configured. Partial suites are deliberately never
/// recorded — a resume must only ever skip work whose output is exact.
fn record_if_clean(model_name: &str, axiom: &str, cfg: &SynthConfig, r: &SynthResult) {
    let Some(journal) = &cfg.journal else {
        return;
    };
    if r.truncated || r.degraded > 0 || r.from_journal {
        return;
    }
    let key = query_key(model_name, axiom, cfg.events);
    if let Err(e) = journal.record(&key, config_fingerprint(model_name, axiom, cfg), &r.tests) {
        eprintln!("warning: could not journal {key}: {e}");
    }
}

/// Merges per-unit suites *in plan order* into the sweep union.
///
/// Determinism: [`synthesize_union_up_to`](super::synthesize_union_up_to)
/// builds its union with this same first-wins fold over its per-query
/// suites in (bound, axiom) order — the units' plan order — so a sharded
/// sweep serves byte-identical suites no matter which shard ran which
/// unit. (Cross-bound canonical keys never collide: every test has exactly
/// its bound's event count.)
pub fn merge_unit_suites<'a>(
    suites: impl IntoIterator<Item = &'a CanonicalSuite>,
) -> CanonicalSuite {
    let mut union = CanonicalSuite::new();
    for suite in suites {
        for (k, v) in suite {
            union.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }
    union
}
