//! The symbolic litmus test: a bounded space of programs *and* executions
//! encoded as free circuit bits, with well-formedness constraints — the
//! analogue of Alloy's instance search over the paper's sig declarations.
//!
//! One symbolic test covers, for a fixed event count `n`:
//!
//! * every assignment of instruction shapes (the model's vocabulary of
//!   loads/stores/fences with their order annotations),
//! * every partition into threads (contiguous and first-use-canonical, a
//!   Kodkod-style symmetry-breaking choice that loses no tests up to
//!   isomorphism),
//! * every address assignment (first-use-canonical likewise),
//! * every dependency/RMW-pair placement the model's ISA admits, and
//! * every candidate execution (rf choice per read, coherence order per
//!   address, and — for SCC — the `sc` order over full fences).

// Event indices deliberately index several parallel per-event tables
// (`kind`, `thread`, `is_read`, …); iterator rewrites would obscure that.
#![allow(clippy::needless_range_loop)]

use litsynth_litmus::{Addr, DepKind, FenceKind, Instr, LitmusTest, MemOrder, Outcome, Scope};
use litsynth_models::{Ctx, MemoryModel, SymAlg};
use litsynth_relalg::{Bit, Circuit, Instance, Matrix1, Matrix2};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One per-query progress notification, emitted when a query completes
/// (enumerated or journal-replayed). The serving layer turns these into
/// streamed `PROGRESS` frames; any other consumer can log them.
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// The query's journal key, e.g. `tso/sc_per_loc/3`.
    pub key: String,
    /// Canonical tests the query found.
    pub tests: usize,
    /// `true` when the query was replayed from the journal (zero solver
    /// work).
    pub from_journal: bool,
    /// Wall-clock time the query took.
    pub elapsed: std::time::Duration,
}

/// A shareable per-query progress callback ([`SynthConfig::progress`]).
/// Called from synthesis worker threads, so the closure must be cheap and
/// must not block on the synthesis path it is reporting on.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> ProgressSink {
        ProgressSink(Arc::new(f))
    }

    /// Delivers one event.
    pub fn emit(&self, event: &ProgressEvent) {
        (self.0)(event)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// Bounds and options for one synthesis query.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Exact number of events (instructions) in the synthesized tests.
    pub events: usize,
    /// Maximum number of threads (default `min(events, 4)`).
    pub max_threads: usize,
    /// Maximum number of distinct addresses (default `min(events, 3)`).
    pub max_addrs: usize,
    /// Use the exact canonicalizer instead of the paper's hash-based one.
    pub exact_canon: bool,
    /// Leave RI-orphaned reads unconstrained (§4.3, the paper's choice).
    /// `false` snaps them to the initial value instead (ablation).
    pub orphan_unconstrained: bool,
    /// Stop after this many raw solver instances (safety cap; with cube
    /// splitting the cap applies to each cube's enumeration).
    pub max_instances: usize,
    /// Wall-clock budget for one enumeration worker, in milliseconds
    /// (0 = unlimited).
    pub time_budget_ms: u64,
    /// Worker threads for the parallel synthesis engine: `1` runs fully
    /// sequentially (byte-identical results either way), `0` uses all
    /// available cores.
    pub threads: usize,
    /// Split each (axiom, bound) query into `2^cube_bits` disjoint
    /// subqueries by pinning `cube_bits` instruction-kind selector bits as
    /// extra assumptions — intra-query parallelism for the large bounds.
    /// `0` disables splitting. Which bits are pinned is decided by
    /// [`SynthConfig::adaptive_cubes`].
    pub cube_bits: usize,
    /// Trade learnt clauses between the cube workers of a query through
    /// the portfolio exchange bus. Sharing only prunes search — suites are
    /// byte-identical either way.
    pub exchange: bool,
    /// Only learnt clauses with LBD ≤ this are published on the bus.
    pub exchange_max_lbd: u32,
    /// Only learnt clauses with ≤ this many literals are published.
    pub exchange_max_len: usize,
    /// Choose cube pin bits by VSIDS activity from a probing run instead
    /// of the first `cube_bits` selector slots.
    pub adaptive_cubes: bool,
    /// Conflict budget for the adaptive-cube probing run.
    pub probe_conflicts: u64,
    /// Compile sweeps incrementally: one circuit arena per sweep, the
    /// axiom-independent skeleton Tseitin-encoded exactly once per bound as
    /// a chain of shared CNF layers, and each (axiom, bound) query derived
    /// as a one-layer extension. A shared sweep also reuses skeleton-pure
    /// learnt clauses across its queries through the portfolio clause
    /// vault. Off, every query recompiles from scratch and nothing is
    /// vaulted. Suites are byte-identical either way.
    pub incremental: bool,
    /// Attach enumeration workers to sweep-shared compilations lazily:
    /// definitional CNF layers (one per axiom on the incremental chain)
    /// stay dormant — no watchers, no propagation — until the worker's
    /// own assumptions or blocking clauses reference them, so each query
    /// pays only for its own Tseitin cones. Activation only adds
    /// constraints the full formula already contains; suites are
    /// byte-identical either way. No effect without
    /// [`SynthConfig::incremental`] (scratch compilations carry no
    /// definitional layers).
    pub lazy: bool,
    /// Shelve (rather than drop) vault/exchange imports that mention a
    /// dormant cone on the lazy path, replaying them the moment the cone
    /// activates, so laziness never discards sound pruning. Imports only
    /// prune; suites are byte-identical either way. No effect without
    /// [`SynthConfig::lazy`].
    pub shelve: bool,
    /// Restrict each query's SAT decisions to its declared cone through
    /// the solver's two-level decision domain (local cone heap first,
    /// global VSIDS fallback once the cone is assigned). Only reorders
    /// decisions; suites are byte-identical either way. No effect without
    /// [`SynthConfig::incremental`] (a scratch compilation *is* its own
    /// cone).
    pub domain: bool,
    /// Run level-0 inprocessing on each worker solver's private clause
    /// database: purge satisfied clauses, strip false literals, subsume and
    /// strengthen new learnts. Inprocessing only removes redundant clauses
    /// and literals; suites are byte-identical either way.
    pub inprocess: bool,
    /// Retain learnt clauses in LBD tiers (core/mid/local) instead of the
    /// legacy single-activity reduction. Retention only discards learnt
    /// clauses; suites are byte-identical either way.
    pub tiered: bool,
    /// Re-verify every synthesized test with the polynomial consistency
    /// checker (`litsynth_models::check`) after the suite is assembled:
    /// each emitted (test, outcome) must be forbidden under its axiom's
    /// claim. Purely a read-only assertion — it never changes the suite
    /// bytes or the fingerprint — so it is excluded from
    /// `config_fingerprint`. Off by default (release sweeps); CI turns it
    /// on. Panics on the first disagreement.
    pub cross_check: bool,
    /// Per-query progress callback; `None` (the default) reports nothing.
    pub progress: Option<ProgressSink>,
    /// Deterministic fault-injection plan (testing only). Defaults to the
    /// process-wide plan armed via `LITSYNTH_FAULT_PLAN`, if any.
    pub fault_plan: Option<std::sync::Arc<litsynth_sat::FaultPlan>>,
    /// Checkpoint journal for crash-safe resume; `None` disables
    /// journaling. Completed (axiom, bound) queries are recorded here and
    /// replayed byte-identically on the next run.
    pub journal: Option<std::sync::Arc<crate::journal::Journal>>,
}

impl SynthConfig {
    /// Default bounds for `events` instructions.
    pub fn new(events: usize) -> SynthConfig {
        SynthConfig {
            events,
            max_threads: events.min(4),
            max_addrs: events.min(3),
            exact_canon: true,
            orphan_unconstrained: true,
            max_instances: 1_000_000,
            time_budget_ms: 0,
            threads: 1,
            cube_bits: 0,
            exchange: true,
            exchange_max_lbd: 6,
            exchange_max_len: 30,
            adaptive_cubes: true,
            probe_conflicts: 500,
            incremental: true,
            lazy: true,
            shelve: true,
            domain: true,
            inprocess: true,
            tiered: true,
            cross_check: false,
            progress: None,
            fault_plan: litsynth_sat::FaultPlan::global(),
            journal: None,
        }
    }

    /// Enables or disables the post-synthesis consistency cross-check
    /// (builder style). Read-only defense in depth: suites and fingerprints
    /// are identical either way.
    pub fn with_cross_check(mut self, cross_check: bool) -> SynthConfig {
        self.cross_check = cross_check;
        self
    }

    /// Sets the per-query progress callback (builder style).
    pub fn with_progress(mut self, progress: Option<ProgressSink>) -> SynthConfig {
        self.progress = progress;
        self
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> SynthConfig {
        self.threads = threads;
        self
    }

    /// Sets the cube-splitting width (builder style).
    pub fn with_cube_bits(mut self, cube_bits: usize) -> SynthConfig {
        self.cube_bits = cube_bits;
        self
    }

    /// Enables or disables the learnt-clause exchange (builder style).
    pub fn with_exchange(mut self, exchange: bool) -> SynthConfig {
        self.exchange = exchange;
        self
    }

    /// Enables or disables adaptive cube selection (builder style).
    pub fn with_adaptive_cubes(mut self, adaptive: bool) -> SynthConfig {
        self.adaptive_cubes = adaptive;
        self
    }

    /// Enables or disables incremental sweep compilation (builder style).
    pub fn with_incremental(mut self, incremental: bool) -> SynthConfig {
        self.incremental = incremental;
        self
    }

    /// Enables or disables lazy definitional propagation (builder style).
    pub fn with_lazy(mut self, lazy: bool) -> SynthConfig {
        self.lazy = lazy;
        self
    }

    /// Enables or disables shelve-and-replay of imports over dormant
    /// cones (builder style).
    pub fn with_shelve(mut self, shelve: bool) -> SynthConfig {
        self.shelve = shelve;
        self
    }

    /// Enables or disables the two-level decision domain (builder style).
    pub fn with_domain(mut self, domain: bool) -> SynthConfig {
        self.domain = domain;
        self
    }

    /// Enables or disables level-0 inprocessing (builder style).
    pub fn with_inprocess(mut self, inprocess: bool) -> SynthConfig {
        self.inprocess = inprocess;
        self
    }

    /// Enables or disables tiered learnt retention (builder style).
    pub fn with_tiered(mut self, tiered: bool) -> SynthConfig {
        self.tiered = tiered;
        self
    }

    /// Sets the checkpoint journal (builder style).
    pub fn with_journal(
        mut self,
        journal: Option<std::sync::Arc<crate::journal::Journal>>,
    ) -> SynthConfig {
        self.journal = journal;
        self
    }

    /// Sets the fault-injection plan (builder style, testing only).
    pub fn with_fault_plan(
        mut self,
        plan: Option<std::sync::Arc<litsynth_sat::FaultPlan>>,
    ) -> SynthConfig {
        self.fault_plan = plan;
        self
    }
}

/// One instruction shape in the model's vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// A load with the given order.
    Load(MemOrder),
    /// A store with the given order.
    Store(MemOrder),
    /// A fence of the given kind.
    Fence(FenceKind),
}

impl Shape {
    fn is_load(self) -> bool {
        matches!(self, Shape::Load(_))
    }
    fn is_store(self) -> bool {
        matches!(self, Shape::Store(_))
    }
    fn is_mem(self) -> bool {
        !matches!(self, Shape::Fence(_))
    }
    fn to_instr(self, addr: Option<Addr>) -> Instr {
        match self {
            Shape::Load(order) => Instr::Load {
                addr: addr.expect("load has addr"),
                order,
                scope: Scope::System,
            },
            Shape::Store(order) => Instr::Store {
                addr: addr.expect("store has addr"),
                order,
                scope: Scope::System,
            },
            Shape::Fence(kind) => Instr::Fence {
                kind,
                scope: Scope::System,
            },
        }
    }
}

/// The model's instruction vocabulary (RMWs are load/store pairs linked by
/// an `rmw` edge, the paper's Figure 4 formalization).
pub fn vocabulary<M: MemoryModel>(model: &M) -> Vec<Shape> {
    let mut v = Vec::new();
    for &o in model.read_orders() {
        v.push(Shape::Load(o));
    }
    for &o in model.write_orders() {
        v.push(Shape::Store(o));
    }
    for &k in model.fence_kinds() {
        v.push(Shape::Fence(k));
    }
    v
}

/// The symbolic test: free bits plus the derived base context.
pub struct SymbolicTest {
    /// Event count.
    pub n: usize,
    /// Thread bound.
    pub t_max: usize,
    /// Address bound.
    pub a_max: usize,
    /// The instruction vocabulary.
    pub vocab: Vec<Shape>,
    /// `kind[e][v]`: event `e` has shape `vocab[v]` (one-hot).
    pub kind: Vec<Vec<Bit>>,
    /// `thread[e][t]` (one-hot, contiguous canonical form).
    pub thread: Vec<Vec<Bit>>,
    /// `addr[e][a]` (one-hot for memory events, empty row for fences).
    pub addr: Vec<Vec<Bit>>,
    /// Dependency matrices per kind.
    pub deps: BTreeMap<DepKind, Matrix2>,
    /// RMW pair bits (only cells `(e, e+1)` can be true).
    pub rmw: Matrix2,
    /// Whether the model supports RMW pairs at all.
    pub has_rmw: bool,
    /// The well-formedness constraints.
    pub wellformed: Vec<Bit>,
    /// The base (unperturbed) execution context.
    pub ctx: Ctx<SymAlg>,
    /// Bits that define the observable instance (static test + outcome):
    /// blocking these enumerates distinct tests.
    pub observables: Vec<Bit>,
}

impl SymbolicTest {
    /// Builds the symbolic test for `model` under `cfg`, adding all free
    /// bits and well-formedness constraints to `alg`'s circuit.
    pub fn build<M: MemoryModel>(alg: &mut SymAlg, model: &M, cfg: &SynthConfig) -> SymbolicTest {
        let n = cfg.events;
        let t_max = cfg.max_threads.min(n).max(1);
        let a_max = cfg.max_addrs.min(n).max(1);
        let vocab = vocabulary(model);
        let c = &mut alg.circuit;
        let mut wf: Vec<Bit> = Vec::new();

        // --- Free bits ---------------------------------------------------
        let kind: Vec<Vec<Bit>> = (0..n)
            .map(|e| {
                (0..vocab.len())
                    .map(|v| c.input(format!("kind[{e}][{v}]")))
                    .collect()
            })
            .collect();
        let thread: Vec<Vec<Bit>> = (0..n)
            .map(|e| {
                (0..t_max)
                    .map(|t| c.input(format!("thread[{e}][{t}]")))
                    .collect()
            })
            .collect();
        let addr: Vec<Vec<Bit>> = (0..n)
            .map(|e| {
                (0..a_max)
                    .map(|a| c.input(format!("addr[{e}][{a}]")))
                    .collect()
            })
            .collect();
        let mut rf = Matrix2::empty(n, n);
        let mut co = Matrix2::empty(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    rf.set(i, j, c.input(format!("rf[{i},{j}]")));
                    co.set(i, j, c.input(format!("co[{i},{j}]")));
                }
            }
        }
        let mut deps: BTreeMap<DepKind, Matrix2> = BTreeMap::new();
        for &k in model.dep_kinds() {
            let mut m = Matrix2::empty(n, n);
            for i in 0..n {
                for j in (i + 1)..n {
                    m.set(i, j, c.input(format!("dep{k:?}[{i},{j}]")));
                }
            }
            deps.insert(k, m);
        }
        let has_rmw = !model.rmw_orders().is_empty() || model.uses_rmw_pairs();
        let mut rmw = Matrix2::empty(n, n);
        if has_rmw {
            for e in 0..n.saturating_sub(1) {
                rmw.set(e, e + 1, c.input(format!("rmw[{e}]")));
            }
        }
        let mut sc = Matrix2::empty(n, n);
        if model.uses_sc_order() {
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        sc.set(i, j, c.input(format!("sc[{i},{j}]")));
                    }
                }
            }
        }

        // --- Shape / kind constraints -------------------------------------
        for e in 0..n {
            wf.push(c.exactly_one(&kind[e]));
            wf.push(c.exactly_one(&thread[e]));
        }
        // Derived shape sets.
        let pick = |c: &mut Circuit, e: usize, f: &dyn Fn(Shape) -> bool| -> Bit {
            let bits: Vec<Bit> = vocab
                .iter()
                .enumerate()
                .filter(|(_, &s)| f(s))
                .map(|(v, _)| kind[e][v])
                .collect();
            c.or_many(bits)
        };
        let is_read: Vec<Bit> = (0..n).map(|e| pick(c, e, &|s| s.is_load())).collect();
        let is_write: Vec<Bit> = (0..n).map(|e| pick(c, e, &|s| s.is_store())).collect();
        let is_mem: Vec<Bit> = (0..n).map(|e| pick(c, e, &|s| s.is_mem())).collect();
        let is_fence: Vec<Bit> = (0..n).map(|e| pick(c, e, &|s| !s.is_mem())).collect();

        // --- Thread canonical form ----------------------------------------
        // Event 0 is in thread 0; each event's thread equals or is one past
        // the previous event's (contiguous, no gaps, nondecreasing).
        wf.push(thread[0][0]);
        for e in 1..n {
            for t in 0..t_max {
                let prev_same = thread[e - 1][t];
                let prev_one_less = if t > 0 {
                    thread[e - 1][t - 1]
                } else {
                    Circuit::FALSE
                };
                let ok = c.or(prev_same, prev_one_less);
                let imp = c.implies(thread[e][t], ok);
                wf.push(imp);
            }
        }
        let same_thread = |c: &mut Circuit, i: usize, j: usize| -> Bit {
            let terms: Vec<Bit> = (0..t_max)
                .map(|t| c.and(thread[i][t], thread[j][t]))
                .collect();
            c.or_many(terms)
        };

        // --- Address constraints ------------------------------------------
        for e in 0..n {
            let one = c.exactly_one(&addr[e]);
            let none = {
                let any = c.or_many(addr[e].iter().copied());
                any.not()
            };
            let mem_case = c.implies(is_mem[e], one);
            let fence_case = c.implies(is_fence[e], none);
            wf.push(mem_case);
            wf.push(fence_case);
            // First-use canonical addresses.
            for a in 1..a_max {
                let earlier: Vec<Bit> = (0..e).map(|e2| addr[e2][a - 1]).collect();
                let prior = c.or_many(earlier);
                let imp = c.implies(addr[e][a], prior);
                wf.push(imp);
            }
        }
        let same_addr = |c: &mut Circuit, i: usize, j: usize| -> Bit {
            let terms: Vec<Bit> = (0..a_max).map(|a| c.and(addr[i][a], addr[j][a])).collect();
            c.or_many(terms)
        };

        // --- Fences are never at a thread boundary (a boundary fence can
        // always be removed without changing behavior, §6.3). ---------------
        for e in 0..n {
            if e == 0 || e == n - 1 {
                wf.push(is_fence[e].not());
            } else {
                let before = same_thread(c, e - 1, e);
                let after = same_thread(c, e, e + 1);
                let interior = c.and(before, after);
                wf.push(c.implies(is_fence[e], interior));
            }
        }

        // --- Structural relations ------------------------------------------
        let mut po = Matrix2::empty(n, n);
        let mut loc = Matrix2::empty(n, n);
        let mut int = Matrix2::empty(n, n);
        let mut ext = Matrix2::empty(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let st = same_thread(c, i, j);
                if i < j {
                    po.set(i, j, st);
                }
                let sa = same_addr(c, i, j);
                loc.set(i, j, sa);
                int.set(i, j, st);
                ext.set(i, j, st.not());
            }
        }
        // loc is reflexive on memory events.
        for e in 0..n {
            loc.set(e, e, is_mem[e]);
        }

        // --- rf constraints -------------------------------------------------
        for w in 0..n {
            for r in 0..n {
                if w == r {
                    continue;
                }
                let edge = rf.get(w, r);
                let sa = loc.get(w, r);
                let w_ok = c.and(is_write[w], is_read[r]);
                let ok = c.and(w_ok, sa);
                wf.push(c.implies(edge, ok));
            }
        }
        for r in 0..n {
            let col: Vec<Bit> = (0..n).filter(|&w| w != r).map(|w| rf.get(w, r)).collect();
            wf.push(c.at_most_one(&col));
        }

        // --- co constraints: strict total order per address -----------------
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let edge = co.get(i, j);
                let ww = c.and(is_write[i], is_write[j]);
                let ok = c.and(ww, loc.get(i, j));
                wf.push(c.implies(edge, ok));
                if i < j {
                    let both = c.and(co.get(i, j), co.get(j, i));
                    wf.push(both.not());
                    let writes_same = c.and(is_write[i], is_write[j]);
                    let writes_same = c.and(writes_same, loc.get(i, j));
                    let either = c.or(co.get(i, j), co.get(j, i));
                    wf.push(c.implies(writes_same, either));
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i != j && j != k && i != k {
                        let two = c.and(co.get(i, j), co.get(j, k));
                        wf.push(c.implies(two, co.get(i, k)));
                    }
                }
            }
        }

        // --- dependency constraints -----------------------------------------
        for (&dk, m) in &deps {
            for i in 0..n {
                for j in (i + 1)..n {
                    let edge = m.get(i, j);
                    let src_read = is_read[i];
                    let st = int.get(i, j); // same thread
                    let tgt = match dk {
                        DepKind::Data => is_write[j],
                        _ => is_mem[j],
                    };
                    let ok = c.and(src_read, st);
                    let ok = c.and(ok, tgt);
                    wf.push(c.implies(edge, ok));
                }
            }
        }
        // At most one dependency kind per ordered pair.
        let kinds: Vec<DepKind> = deps.keys().copied().collect();
        for i in 0..n {
            for j in (i + 1)..n {
                for (x, &k1) in kinds.iter().enumerate() {
                    for &k2 in &kinds[x + 1..] {
                        let both = c.and(deps[&k1].get(i, j), deps[&k2].get(i, j));
                        wf.push(both.not());
                    }
                }
            }
        }

        // --- RMW pair constraints --------------------------------------------
        if has_rmw {
            for e in 0..n.saturating_sub(1) {
                let edge = rmw.get(e, e + 1);
                let shape_ok = c.and(is_read[e], is_write[e + 1]);
                let st = int.get(e, e + 1);
                let sa = loc.get(e, e + 1);
                let ok = c.and(shape_ok, st);
                let ok = c.and(ok, sa);
                wf.push(c.implies(edge, ok));
                if e > 0 {
                    let overlap = c.and(rmw.get(e - 1, e), rmw.get(e, e + 1));
                    wf.push(overlap.not());
                }
            }
        }

        // --- sc constraints (SCC): a total order over full fences, with the
        // paper's ≤2-FenceSC bound that makes Figure 19's reversal complete.
        if model.uses_sc_order() {
            let full: Vec<Bit> = (0..n)
                .map(|e| {
                    let bits: Vec<Bit> = vocab
                        .iter()
                        .enumerate()
                        .filter(|(_, &s)| s == Shape::Fence(FenceKind::Full))
                        .map(|(v, _)| kind[e][v])
                        .collect();
                    c.or_many(bits)
                })
                .collect();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let edge = sc.get(i, j);
                    let ok = c.and(full[i], full[j]);
                    wf.push(c.implies(edge, ok));
                    if i < j {
                        let both = c.and(sc.get(i, j), sc.get(j, i));
                        wf.push(both.not());
                        let pair = c.and(full[i], full[j]);
                        let either = c.or(sc.get(i, j), sc.get(j, i));
                        wf.push(c.implies(pair, either));
                    }
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        let two = c.and(full[i], full[j]);
                        let three = c.and(two, full[k]);
                        wf.push(three.not());
                    }
                }
            }
        }

        // --- Assemble the base context ---------------------------------------
        let mk_set = |c: &mut Circuit, f: &dyn Fn(Shape) -> bool| -> Matrix1 {
            Matrix1::from_bits(
                (0..n)
                    .map(|e| {
                        let bits: Vec<Bit> = vocab
                            .iter()
                            .enumerate()
                            .filter(|(_, &s)| f(s))
                            .map(|(v, _)| kind[e][v])
                            .collect();
                        c.or_many(bits)
                    })
                    .collect(),
            )
        };
        let read_set = Matrix1::from_bits(is_read.clone());
        let write_set = Matrix1::from_bits(is_write.clone());
        let fence_of = |k: FenceKind| move |s: Shape| s == Shape::Fence(k);
        let order_read = |os: &'static [MemOrder]| move |s: Shape| matches!(s, Shape::Load(o) if os.contains(&o));
        let order_write = |os: &'static [MemOrder]| move |s: Shape| matches!(s, Shape::Store(o) if os.contains(&o));
        let acq_orders: &'static [MemOrder] =
            &[MemOrder::Acquire, MemOrder::AcqRel, MemOrder::SeqCst];
        let rel_orders: &'static [MemOrder] =
            &[MemOrder::Release, MemOrder::AcqRel, MemOrder::SeqCst];
        let sc_orders: &'static [MemOrder] = &[MemOrder::SeqCst];
        let cons_orders: &'static [MemOrder] = &[MemOrder::Consume];

        let fence_full = mk_set(c, &fence_of(FenceKind::Full));
        let fence_lw = mk_set(c, &fence_of(FenceKind::Lightweight));
        let fence_acqrel = mk_set(c, &fence_of(FenceKind::AcqRel));
        let fence_acq = mk_set(c, &fence_of(FenceKind::Acquire));
        let fence_rel = mk_set(c, &fence_of(FenceKind::Release));
        let acquire = mk_set(c, &order_read(acq_orders));
        let release = mk_set(c, &order_write(rel_orders));
        let seqcst_r = mk_set(c, &order_read(sc_orders));
        let seqcst_w = mk_set(c, &order_write(sc_orders));
        let seqcst = seqcst_r.union(c, &seqcst_w);
        let consume = mk_set(c, &order_read(cons_orders));

        let empty = Matrix2::empty(n, n);
        let ctx = Ctx::<SymAlg> {
            n,
            read: read_set,
            write: write_set,
            fence_full,
            fence_lw,
            fence_acqrel,
            fence_acq,
            fence_rel,
            acquire,
            release,
            seqcst,
            consume,
            po,
            loc,
            rf: rf.clone(),
            co: co.clone(),
            addr_dep: deps
                .get(&DepKind::Addr)
                .cloned()
                .unwrap_or_else(|| empty.clone()),
            data_dep: deps
                .get(&DepKind::Data)
                .cloned()
                .unwrap_or_else(|| empty.clone()),
            ctrl_dep: deps
                .get(&DepKind::Ctrl)
                .cloned()
                .unwrap_or_else(|| empty.clone()),
            ctrlisync_dep: deps
                .get(&DepKind::CtrlIsync)
                .cloned()
                .unwrap_or_else(|| empty.clone()),
            rmw: rmw.clone(),
            sc,
            int,
            ext,
            orphan: Matrix1::empty(n),
        };

        // --- Observables -------------------------------------------------------
        let mut observables: Vec<Bit> = Vec::new();
        for e in 0..n {
            observables.extend(kind[e].iter().copied());
            observables.extend(thread[e].iter().copied());
            observables.extend(addr[e].iter().copied());
        }
        for m in deps.values() {
            for i in 0..n {
                for j in (i + 1)..n {
                    observables.push(m.get(i, j));
                }
            }
        }
        if has_rmw {
            for e in 0..n.saturating_sub(1) {
                observables.push(rmw.get(e, e + 1));
            }
        }
        for w in 0..n {
            for r in 0..n {
                if w != r {
                    observables.push(rf.get(w, r));
                }
            }
        }
        // Final-write bits: a write with no coherence successor.
        for w in 0..n {
            let succs: Vec<Bit> = (0..n).filter(|&j| j != w).map(|j| co.get(w, j)).collect();
            let any = c.or_many(succs);
            let fin = c.and(is_write[w], any.not());
            observables.push(fin);
        }

        SymbolicTest {
            n,
            t_max,
            a_max,
            vocab,
            kind,
            thread,
            addr,
            deps,
            rmw,
            has_rmw,
            wellformed: wf,
            ctx,
            observables,
        }
    }

    /// Decodes a solver instance into a concrete test and (complete)
    /// outcome.
    pub fn extract(&self, circuit: &Circuit, inst: &Instance) -> (LitmusTest, Outcome) {
        let n = self.n;
        let ev = |b: Bit| inst.eval(circuit, b);
        // Threads are contiguous by construction: read each event's thread.
        let mut tids = Vec::with_capacity(n);
        for e in 0..n {
            let t = (0..self.t_max)
                .find(|&t| ev(self.thread[e][t]))
                .expect("exactly-one thread");
            tids.push(t);
        }
        let mut threads: Vec<Vec<Instr>> =
            vec![Vec::new(); tids.iter().max().map_or(0, |&m| m + 1)];
        for e in 0..n {
            let v = (0..self.vocab.len())
                .find(|&v| ev(self.kind[e][v]))
                .expect("exactly-one kind");
            let shape = self.vocab[v];
            let a = (0..self.a_max)
                .find(|&a| ev(self.addr[e][a]))
                .map(|a| Addr(a as u8));
            threads[tids[e]].push(shape.to_instr(a));
        }
        let mut test = LitmusTest::new("synth", threads);
        // Deps: events are laid out in gid order already.
        for (&k, m) in &self.deps {
            for i in 0..n {
                for j in (i + 1)..n {
                    if ev(m.get(i, j)) {
                        let tid = test.thread_of(i);
                        debug_assert_eq!(tid, test.thread_of(j));
                        let (fi, fj) = (test.index_of(i), test.index_of(j));
                        test = test.with_dep(tid, fi, fj, k);
                    }
                }
            }
        }
        if self.has_rmw {
            for e in 0..n.saturating_sub(1) {
                if ev(self.rmw.get(e, e + 1)) {
                    let (tid, idx) = (test.thread_of(e), test.index_of(e));
                    test = test.with_rmw_pair(tid, idx);
                }
            }
        }
        // Outcome: rf per read, final write per address.
        let mut rf_map: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        for &r in &test.reads() {
            let mut src = None;
            for w in 0..n {
                if w != r && ev(self.ctx.rf.get(w, r)) {
                    src = Some(w);
                    break;
                }
            }
            rf_map.insert(r, src);
        }
        let mut finals: BTreeMap<Addr, usize> = BTreeMap::new();
        for a in test.addresses() {
            let ws = test.writes_to(a);
            if ws.is_empty() {
                continue;
            }
            let fin = ws
                .iter()
                .copied()
                .find(|&w| ws.iter().all(|&j| j == w || !ev(self.ctx.co.get(w, j))))
                .expect("some write is coherence-maximal");
            finals.insert(a, fin);
        }
        (test, Outcome { rf: rf_map, finals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litsynth_models::{Sc, Tso};
    use litsynth_relalg::Finder;
    use litsynth_sat::{NoExchange, SolveBudget};

    /// Test shorthand: the next instance with no guard, exchange or budget.
    fn next(f: &mut Finder, c: &Circuit, asserts: &[Bit]) -> Option<Instance> {
        f.next_instance_budgeted_assuming(
            c,
            asserts,
            &[],
            &mut NoExchange,
            &SolveBudget::unlimited(),
        )
        .expect("an unlimited budget never interrupts")
    }

    #[test]
    fn vocabulary_matches_model() {
        let v = vocabulary(&Tso::new());
        // Relaxed loads, relaxed stores, mfence.
        assert_eq!(v.len(), 3);
        assert!(v.contains(&Shape::Fence(FenceKind::Full)));
    }

    #[test]
    fn wellformed_instances_extract_to_valid_tests() {
        let mut alg = SymAlg::new();
        let cfg = SynthConfig::new(3);
        let st = SymbolicTest::build(&mut alg, &Sc::new(), &cfg);
        let circuit = alg.into_circuit();
        let mut finder = Finder::new(&circuit);
        let asserts = st.wellformed.clone();
        let mut seen = 0;
        while let Some(inst) = next(&mut finder, &circuit, &asserts) {
            let (test, outcome) = st.extract(&circuit, &inst);
            assert_eq!(test.num_events(), 3);
            // The extracted outcome is realizable by a candidate execution.
            let ok = litsynth_litmus::Execution::enumerate(&test)
                .iter()
                .any(|e| outcome.matches(&e.outcome()));
            assert!(
                ok,
                "unrealizable extraction: {test} {}",
                outcome.display(&test)
            );
            finder.block_guarded(&circuit, &inst, &st.observables, None);
            seen += 1;
            if seen > 200 {
                break;
            }
        }
        assert!(
            seen > 10,
            "the 3-event SC space is non-trivial (saw {seen})"
        );
    }

    #[test]
    fn no_boundary_fences_are_generated() {
        let mut alg = SymAlg::new();
        let cfg = SynthConfig::new(3);
        let st = SymbolicTest::build(&mut alg, &Tso::new(), &cfg);
        let circuit = alg.into_circuit();
        let mut finder = Finder::new(&circuit);
        let mut seen = 0;
        while let Some(inst) = next(&mut finder, &circuit, &st.wellformed) {
            let (test, _) = st.extract(&circuit, &inst);
            for t in test.threads() {
                if !t.is_empty() {
                    assert!(!t[0].is_fence(), "{test}");
                    assert!(!t[t.len() - 1].is_fence(), "{test}");
                }
            }
            finder.block_guarded(&circuit, &inst, &st.observables, None);
            seen += 1;
            if seen > 100 {
                break;
            }
        }
        assert!(seen > 0);
    }
}
