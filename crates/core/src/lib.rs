//! # litsynth-core
//!
//! The paper's contribution: comprehensive-by-construction litmus test
//! suite synthesis from an axiomatic memory-model specification.
//!
//! * [`relax`] — instruction relaxations (RI, DMO, DF, DRMW, RD) applied at
//!   the test level.
//! * [`minimal`] — the exact (exists-forall) minimality criterion, decided
//!   by explicit enumeration.
//! * [`symbolic`] — the symbolic test encoding over `litsynth-relalg`.
//! * [`perturb`] — context perturbations (the paper's `_p` relations).
//! * [`synth`] — the SAT-based synthesis loop (Figure 5c + Figure 19).
//! * [`subtest`] — subtest containment via relaxation reachability
//!   (Table 4).
//! * [`allprogs`] — all-programs counting (Figure 13a's upper line).
//! * [`journal`] — the crash-safe checkpoint journal behind
//!   `--resume`: completed (axiom, bound) queries are recorded with
//!   atomic writes and replayed byte-identically on the next run.

pub mod allprogs;
pub mod journal;
pub mod minimal;
pub mod perturb;
pub mod relax;
pub mod subtest;
pub mod symbolic;
pub mod synth;

pub use allprogs::count_programs;
pub use journal::{
    atomic_write, config_fingerprint, decode_suite_body, encode_suite_body, env_journal, fnv1a,
    parse_suite_config, query_key, suite_config, Journal,
};
pub use minimal::{check_minimal, minimal_for_some_axiom, MinimalityVerdict};
pub use relax::{applications, apply, Application};
pub use subtest::{contains_subtest, covering_subtests, program_key};
pub use symbolic::{vocabulary, ProgressEvent, ProgressSink, Shape, SymbolicTest, SynthConfig};
pub use synth::{
    finish_unit, merge_unit_suites, plan_query, plan_units, run_unit, synthesize_axiom,
    synthesize_union, synthesize_union_up_to, synthesize_union_up_to_with_stats, CanonicalSuite,
    SweepStats, SynthResult, UnitPlan, WorkerStats,
};
