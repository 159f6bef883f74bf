//! The CDCL solver proper.

use crate::arena::{ClauseArena, TIER_CORE, TIER_LOCAL, TIER_MID};
use crate::heap::{ActivityHeap, DecisionDomain};
use crate::shared::SharedCnf;
use crate::types::{LBool, Lit, Var};
use std::sync::Arc;

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

impl SolveResult {
    /// `true` if the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }
}

/// Aggregate search statistics, useful for the benchmark harness.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: u64,
    /// Decisions served from the local level of the two-level decision
    /// domain (always ≤ `decisions`; 0 unless the domain is enabled).
    pub domain_decisions: u64,
    /// Imported clauses that were shelved over a dormant cone and later
    /// replayed when the cone activated (lazy attach only).
    pub shelved_replayed: u64,
    /// Level-0 inprocessing: local clauses purged because they were
    /// satisfied at level 0 (plus shared clauses whose private watchers
    /// were dropped for the same reason).
    pub simplify_removed: u64,
    /// Learnt clauses deleted because another learnt clause subsumed them.
    pub subsumed: u64,
    /// Literals removed from learnt clauses by level-0 false-literal
    /// stripping and self-subsuming resolution.
    pub strengthened: u64,
    /// Relocation GC passes over the local clause arena.
    pub gc_runs: u64,
    /// Arena words reclaimed by those GC passes.
    pub gc_reclaimed_words: u64,
    /// Live learnt clauses in the CORE retention tier (LBD ≤ 2; immortal).
    pub learnts_core: u64,
    /// Live learnt clauses in the MID retention tier (LBD ≤ 6; demoted to
    /// LOCAL when unused between two reductions).
    pub learnts_mid: u64,
    /// Live learnt clauses in the LOCAL retention tier (the
    /// activity-sorted deletion pool).
    pub learnts_local: u64,
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// Clause activities are stored as f32 bits in the arena header, so the
/// rescale threshold is far below the variable one.
const RESCALE_LIMIT_CLA: f64 = 1e20;
const RESTART_BASE: u64 = 100;
/// LBD boundaries of the learnt retention tiers.
const CORE_LBD: u32 = 2;
const MID_LBD: u32 = 6;
/// Initial live-learnt budget: `reduce_db` fires when the live learnt
/// count passes it (a function of database size, not conflict cadence),
/// and the budget grows geometrically afterwards.
const LEARNT_BUDGET_INIT: f64 = 1000.0;
const LEARNT_BUDGET_GROWTH: f64 = 1.3;
/// On-the-fly subsumption queue cap: learnts past it skip the queue (the
/// pass is opportunistic; missing one only costs pruning).
const SUBSUME_QUEUE_CAP: usize = 10_000;

fn tier_for_lbd(lbd: u32) -> u32 {
    if lbd <= CORE_LBD {
        TIER_CORE
    } else if lbd <= MID_LBD {
        TIER_MID
    } else {
        TIER_LOCAL
    }
}

/// High bit of a clause reference: set for clauses living in the shared
/// arena ([`SharedCnf`]), clear for clauses in this solver's local database.
const SHARED_BIT: u32 = 1 << 31;

/// Watcher-only tag beside [`SHARED_BIT`]: the watcher belongs to a binary
/// shared clause, so its blocker is the clause's other literal and
/// propagation decides unit-or-conflict without loading the clause.
/// Reasons and conflict crefs never carry it; attach keeps shared clause
/// indices below it.
const BINARY_BIT: u32 = 1 << 30;

/// The cref a watcher of shared clause `ci` (of `len` literals) carries.
fn shared_watcher_cref(ci: usize, len: usize) -> u32 {
    let tag = if len == 2 { BINARY_BIT } else { 0 };
    SHARED_BIT | tag | ci as u32
}

/// A CDCL SAT solver. See the crate-level documentation for an overview and
/// example.
///
/// A solver owns its clause database — unless it was created with
/// [`Solver::attach_shared`], in which case the original clauses live in an
/// immutable, reference-counted [`SharedCnf`] arena that any number of
/// sibling solvers read concurrently. Only the per-clause watch positions
/// (two `u32`s each) are private to the attached solver; learnt clauses and
/// incrementally added clauses (e.g. enumeration blocking clauses) stay
/// local as usual.
#[derive(Debug, Default)]
pub struct Solver {
    /// The flat local clause database: originals and learnts live side by
    /// side in one `u32` slab, addressed by word-offset crefs (see
    /// [`ClauseArena`]). Local crefs stay below [`BINARY_BIT`].
    ca: ClauseArena,
    /// CRefs of the live original (non-learnt) local clauses.
    local_clauses: Vec<u32>,
    /// CRefs of the live learnt clauses.
    learnt_refs: Vec<u32>,
    /// Live learnt count per retention tier (indexed by `TIER_*`).
    n_tier: [usize; 3],
    /// Learnts (own and imported) queued for the next level-0 subsumption
    /// pass.
    subsume_queue: Vec<u32>,
    /// Trail length after the last `simplify`; skipping the pass while it
    /// is unchanged is what makes the cadence cheap.
    simp_db_assigns: usize,
    /// Propagation count below which the next `simplify` is deferred
    /// (classic minisat `simpDB_props` pacing).
    simp_db_props: u64,
    /// Level-0 inprocessing on/off (see [`Solver::set_inprocessing`]).
    inprocess: bool,
    /// Tiered learnt retention on/off (see
    /// [`Solver::set_tiered_retention`]).
    tiered: bool,
    watches: Vec<Vec<Watcher>>,
    /// The current value of every literal, indexed by [`Lit::code`]: an
    /// assignment writes both polarities, so reading a literal's value is
    /// one load with no sign fix-up.
    vals: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    heap: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<u32>>,
    level: Vec<u32>,
    qhead: usize,
    ok: bool,
    var_inc: f64,
    cla_inc: f64,
    seen: Vec<bool>,
    /// Snapshot of `vals` at the last satisfying assignment.
    model: Vec<LBool>,
    stats: SolverStats,
    max_learnts: f64,
    /// The shared clause arena, if attached.
    shared: Option<Arc<SharedCnf>>,
    /// Per-shared-clause watched positions (indices into the clause's
    /// literal slice). The arena is immutable, so the usual MiniSAT trick
    /// of swapping watched literals to the front is replaced by this tiny
    /// per-solver table.
    shared_watch: Vec<[u32; 2]>,
    /// Local crefs of clauses learnt since the last exchange point.
    fresh_learnts: Vec<u32>,
    /// Unit clauses learnt since the last exchange point (units never get
    /// a cref; they are enqueued directly), with their skeleton purity.
    fresh_units: Vec<(Lit, bool)>,
    /// Skeleton purity of each variable's level-0 assignment (meaningful
    /// only while the variable is assigned at level 0): `true` iff the
    /// assignment is derivable from skeleton clauses alone. Conflict
    /// analysis silently drops level-0 literals from learnt clauses, so
    /// their derivations must flow into learnt-clause purity here.
    zero_pure: Vec<bool>,
    /// Scratch for LBD computation (level → generation stamp).
    lbd_seen: Vec<u64>,
    lbd_gen: u64,
    /// `true` when created with [`Solver::attach_shared_lazy`]:
    /// definitional shared gates start dormant and activate on demand.
    lazy: bool,
    /// Per-variable activation state. Local variables and every variable
    /// of an eager attach are always active; gate variables of a
    /// definitional layer are inactive — their defining clauses unwatched,
    /// the variable never assigned or branched on — until the search first
    /// references them ([`Solver::activate_vars`]).
    var_active: Vec<bool>,
    /// `false` restores the pre-shelving behavior of dropping imports over
    /// dormant cones (ablation knob; see [`Solver::set_shelving`]).
    shelve: bool,
    /// Shelved imports: clauses received over an exchange while at least
    /// one of their variables was dormant, parked here (with their purity
    /// claim) until [`Solver::activate_vars`] wakes the last dormant
    /// variable and replays them. `None` once replayed.
    shelved: Vec<Option<(Vec<Lit>, u32, bool)>>,
    /// Per-variable shelf watch: `shelf_watch[v]` lists the `shelved` slots
    /// currently parked on dormant variable `v` (each shelved clause is
    /// registered under exactly one of its dormant variables; on that
    /// variable's activation the slot re-registers under another dormant
    /// variable or, when none is left, replays).
    shelf_watch: Vec<Vec<u32>>,
    /// The local level of the two-level decision domain: the declared
    /// cone's variables, rebuilt by [`Solver::declare_roots`] when
    /// `use_domain` is set.
    domain: DecisionDomain,
    /// Whether [`Solver::declare_roots`] builds a decision domain and
    /// solves branch on it first (see [`Solver::set_domain_enabled`]).
    use_domain: bool,
    /// Whether the *current* solve consults the local domain — set on
    /// entry to [`Solver::solve`], cleared on exit, so the
    /// restriction is per-query and costs one flag check per decision.
    domain_active: bool,
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Solver {
        Solver {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            max_learnts: LEARNT_BUDGET_INIT,
            // usize::MAX ≠ any trail length, so the first simplify runs.
            simp_db_assigns: usize::MAX,
            inprocess: true,
            tiered: true,
            shelve: true,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars() as u32);
        self.vals.push(LBool::Undef);
        self.vals.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.zero_pure.push(false);
        self.var_active.push(true);
        self.shelf_watch.push(Vec::new());
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v.index(), &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.vals.len() / 2
    }

    /// Number of original (non-learnt, non-deleted) clauses, including the
    /// shared arena's clauses and units when attached.
    pub fn num_clauses(&self) -> usize {
        let shared = self
            .shared
            .as_ref()
            .map_or(0, |s| s.num_clauses() + s.units().len());
        self.local_clauses.len() + shared
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.learnt_refs.len() as u64;
        s.learnts_core = self.n_tier[TIER_CORE as usize] as u64;
        s.learnts_mid = self.n_tier[TIER_MID as usize] as u64;
        s.learnts_local = self.n_tier[TIER_LOCAL as usize] as u64;
        s
    }

    /// The VSIDS activity of `v` (0.0 for unknown variables). Activities
    /// are what the portfolio's adaptive cube selection samples from a
    /// probing run.
    pub fn activity(&self, v: Var) -> f64 {
        self.activity.get(v.index()).copied().unwrap_or(0.0)
    }

    /// Gives `v` one initial VSIDS activity bump, so the first decisions
    /// favor it over never-bumped variables. Callers attached to a large
    /// shared formula use this to steer branching into the cone their query
    /// actually constrains — on a formula compiled in shared layers, plain
    /// variable-index order would branch into the (unconstrained) layers of
    /// other queries first. A no-op once real conflict bumps have pushed
    /// `v` past the seed value; idempotent before that.
    pub fn warm_var(&mut self, v: Var) {
        let i = v.index();
        if i < self.activity.len() && self.activity[i] < self.var_inc {
            self.activity[i] = self.var_inc;
            self.heap.increased(i, &self.activity);
        }
    }

    /// Controls shelve-and-replay of imports over dormant cones (lazy
    /// attach only; default on). With shelving off, such imports are
    /// dropped outright — the PR 5 behavior, kept as an ablation knob.
    /// Sound either way: imports only prune.
    pub fn set_shelving(&mut self, on: bool) {
        self.shelve = on;
    }

    /// Enables the two-level decision domain (default off). When on, each
    /// [`Solver::declare_roots`] call rebuilds the local domain as the
    /// declared cone, and every subsequent [`Solver::solve`]
    /// branches on the cone's variables first, falling back to the global
    /// VSIDS heap only once no cone variable is left unassigned. The
    /// restriction only reorders decisions, so results (and, downstream,
    /// enumerated suites) are unchanged — it exists to keep a pooled
    /// solver's search inside the current query's cone even after earlier
    /// tasks activated unrelated cones.
    pub fn set_domain_enabled(&mut self, on: bool) {
        self.use_domain = on;
        if !on {
            self.domain.reset();
        }
    }

    /// Controls level-0 inprocessing (default on): between solves — at the
    /// classic `simpDB` cadence — the solver purges local clauses satisfied
    /// at level 0, strips false literals, and runs on-the-fly subsumption +
    /// self-subsuming resolution over recently landed learnts. Every step
    /// only deletes satisfied clauses or strengthens existing ones, so the
    /// model set (and downstream, enumerated suite bytes) is unchanged.
    pub fn set_inprocessing(&mut self, on: bool) {
        self.inprocess = on;
    }

    /// Controls tiered learnt retention (default on): learnts are filed
    /// CORE/MID/LOCAL by LBD; a reduction keeps CORE clauses, demotes
    /// unused MID clauses, and deletes the lowest-activity half of the
    /// LOCAL tier. Off restores the legacy single-activity halving. Both
    /// modes trigger when the live learnt count outgrows its budget — a
    /// function of database size, not conflict cadence. Retention only
    /// decides which *redundant* clauses to keep, so either policy yields
    /// the same models.
    pub fn set_tiered_retention(&mut self, on: bool) {
        self.tiered = on;
    }

    /// Overrides the live-learnt budget that triggers `reduce_db` (tests
    /// and tuning).
    pub fn set_learnt_budget(&mut self, budget: usize) {
        self.max_learnts = budget as f64;
    }

    /// Number of imports currently shelved awaiting cone activation.
    pub fn shelved_count(&self) -> usize {
        self.shelved.iter().filter(|s| s.is_some()).count()
    }

    /// The value of `v` in the most recent satisfying assignment, or `None`
    /// if the last solve was unsatisfiable (or never happened, or the variable
    /// was created afterwards).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(Lit::pos(v).code()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent satisfying assignment.
    pub fn lit_model_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// `true` while `v` is unassigned.
    #[inline]
    fn is_unassigned(&self, v: usize) -> bool {
        self.lit_value(Lit::pos(Var(v as u32))) == LBool::Undef
    }

    /// Number of literals in the clause behind `cref` (shared or local).
    #[inline]
    fn clause_len(&self, cref: u32) -> usize {
        if cref & SHARED_BIT != 0 {
            self.shared
                .as_ref()
                .expect("shared cref implies attached arena")
                .clause((cref & !SHARED_BIT) as usize)
                .len()
        } else {
            self.ca.len(cref)
        }
    }

    /// Literal `j` of the clause behind `cref` (shared or local).
    #[inline]
    fn clause_lit(&self, cref: u32, j: usize) -> Lit {
        if cref & SHARED_BIT != 0 {
            self.shared
                .as_ref()
                .expect("shared cref implies attached arena")
                .clause((cref & !SHARED_BIT) as usize)[j]
        } else {
            self.ca.lit(cref, j)
        }
    }

    /// Skeleton purity of the clause behind `cref` (shared or local).
    #[inline]
    fn clause_pure(&self, cref: u32) -> bool {
        if cref & SHARED_BIT != 0 {
            self.shared
                .as_ref()
                .expect("shared cref implies attached arena")
                .clause_is_skeleton((cref & !SHARED_BIT) as usize)
        } else {
            self.ca.is_skeleton(cref)
        }
    }
}

mod analyze;
mod attach;
mod cdb;
mod propagate;
mod search;
mod simplify;

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests;

#[cfg(test)]
mod shared_tests;
