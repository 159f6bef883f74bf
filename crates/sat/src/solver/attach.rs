//! Attaching to a shared arena and lazy cone activation.

use super::{shared_watcher_cref, Solver, Watcher, BINARY_BIT, SHARED_BIT};
use crate::shared::SharedCnf;
use crate::types::{LBool, Lit, Var};
use std::sync::Arc;

impl Solver {
    /// Creates a solver attached to a pre-compiled shared formula.
    ///
    /// The arena's variables are allocated, its clauses are watched in
    /// place (no literals are copied), and its unit clauses are enqueued
    /// and propagated. The attach cost is O(vars + clauses), independent of
    /// the total literal count — cheap enough to hand every portfolio
    /// worker its own solver over one compilation.
    pub fn attach_shared(shared: Arc<SharedCnf>) -> Solver {
        Solver::attach(shared, false)
    }

    /// [`Solver::attach_shared`], but the gates of *definitional* layers
    /// ([`crate::CnfLayer::is_definitional`]) start dormant: no watchers
    /// are installed for their defining clauses, the gate variables are
    /// never branched on or assigned, and propagation never walks their
    /// clauses. A dormant gate activates the moment the search references
    /// it — through an assumption, an added (non-imported) clause, or
    /// transitively as an input of another activating gate — at which
    /// point its defining clauses are installed and their consequences
    /// replayed at level 0 (see [`Solver::activate_vars`] for why that is
    /// sound). Imported clauses over a dormant gate are *shelved* instead
    /// of activating it: imports are redundant (they only prune), so
    /// deferring one is always sound, and activation replays the shelf the
    /// moment the cone wakes so no sound pruning is ever discarded (see
    /// [`Solver::set_shelving`]).
    ///
    /// Activation is per *gate*, not per layer: on a hash-consed
    /// sweep-shared chain most of a sibling query's cone lives in layers
    /// this query also draws shared sub-gates from, so waking whole layers
    /// would wake nearly everything. Walking the definitional sub-DAG var
    /// by var installs exactly the cone the query reaches and nothing
    /// else, while solving the *same formula* as far as the query can
    /// observe: a dormant gate only names a function nothing active
    /// constrains.
    pub fn attach_shared_lazy(shared: Arc<SharedCnf>) -> Solver {
        Solver::attach(shared, true)
    }

    /// The one attach constructor: an eager attach is the lazy one with no
    /// layer left dormant. Layers are walked oldest first, so watchers go
    /// in clause-index order and units go in [`SharedCnf::units`] order —
    /// the chain's units are exactly the layers' units concatenated.
    fn attach(shared: Arc<SharedCnf>, lazy: bool) -> Solver {
        assert!(
            shared.num_clauses() < BINARY_BIT as usize,
            "shared arena has 2^30 clauses or more"
        );
        let mut s = Solver::new();
        for _ in 0..shared.num_vars() {
            s.new_var();
        }
        s.shared_watch = vec![[0, 1]; shared.num_clauses()];
        s.lazy = lazy;
        let dormant = |layer: &crate::CnfLayer| lazy && layer.is_definitional();
        for (li, layer) in shared.layers().iter().enumerate() {
            if dormant(layer) {
                for v in shared.layer_var_range(li) {
                    s.var_active[v] = false;
                }
            }
        }
        s.ok = shared.is_ok();
        // Non-definitional layers (the skeleton, monolithic layers) assert
        // things; they are installed up front exactly as an eager attach
        // would watch them. Any definitional gate their clauses or units
        // reference as input is seeded active — the closure invariant is
        // that an installed clause only mentions active variables.
        let mut seed = Vec::new();
        let mut units = Vec::new();
        for (li, layer) in shared.layers().iter().enumerate() {
            if dormant(layer) {
                continue;
            }
            for ci in shared.layer_clause_range(li) {
                let cl = shared.clause(ci);
                debug_assert!(cl.len() >= 2, "arena clauses are never unit");
                let cref = shared_watcher_cref(ci, cl.len());
                s.watches[cl[0].code()].push(Watcher {
                    cref,
                    blocker: cl[1],
                });
                s.watches[cl[1].code()].push(Watcher {
                    cref,
                    blocker: cl[0],
                });
                if lazy {
                    seed.extend(cl.iter().map(|l| l.var()));
                }
            }
            for &u in layer.units() {
                units.push((u, layer.is_skeleton()));
                seed.push(u.var());
            }
        }
        seed.retain(|v| !s.var_active[v.index()]);
        s.shared = Some(shared);
        if s.ok {
            for (u, pure) in units {
                match s.lit_value(u) {
                    LBool::True => {
                        // Already true: keep the stronger (pure) provenance
                        // if this unit provides it.
                        if pure {
                            s.zero_pure[u.var().index()] = true;
                        }
                    }
                    LBool::False => {
                        s.ok = false;
                        break;
                    }
                    LBool::Undef => {
                        s.zero_pure[u.var().index()] = pure;
                        s.unchecked_enqueue(u, None);
                    }
                }
            }
        }
        if s.ok {
            s.activate_vars(seed);
        }
        if s.ok && s.propagate().is_some() {
            s.ok = false;
        }
        s
    }

    /// Number of shared layers with watchers installed: all of them after
    /// an eager [`Solver::attach_shared`], 0 with no arena. After
    /// [`Solver::attach_shared_lazy`], counts the layers at least one of
    /// whose own gates has activated (a layer owning no variables counts
    /// as active — it has nothing to defer).
    pub fn active_layer_count(&self) -> usize {
        let Some(sh) = &self.shared else { return 0 };
        if !self.lazy {
            return sh.num_layers();
        }
        (0..sh.num_layers())
            .filter(|&li| {
                let r = sh.layer_var_range(li);
                !sh.layers()[li].is_definitional()
                    || r.is_empty()
                    || r.clone().any(|v| self.var_active[v])
            })
            .count()
    }

    /// Number of variables with watchers live: every variable after an
    /// eager [`Solver::attach_shared`] (or on a solver with no arena),
    /// only the activated ones after [`Solver::attach_shared_lazy`].
    /// Diagnostic companion to [`Solver::active_layer_count`] at gate
    /// granularity.
    pub fn active_var_count(&self) -> usize {
        if !self.lazy {
            return self.num_vars();
        }
        self.var_active.iter().filter(|&&a| a).count()
    }

    /// Declares the cone roots a query is about to solve under: activates
    /// the listed literals' defining cones immediately instead of at the
    /// first `solve` call, and — when the two-level decision domain is
    /// enabled ([`Solver::set_domain_enabled`]) — rebuilds the local
    /// decision domain as exactly the declared cone, replacing whatever
    /// cone a previous query on this (pooled) solver declared. Declaring
    /// roots is no longer required for imports to stick (imports over
    /// dormant cones shelve and replay on activation), but declaring them
    /// up front lets a vault fetch or exchange drain install its clauses
    /// immediately instead of through the shelf. Sound at any point (it
    /// only installs constraints the full formula already contains).
    pub fn declare_roots<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        if !self.use_domain {
            self.activate_for_lits(lits);
            return;
        }
        let roots: Vec<Lit> = lits.into_iter().collect();
        self.activate_for_lits(roots.iter().copied());
        self.rebuild_domain(&roots);
    }

    /// Rebuilds the local decision domain as the definitional cone of
    /// `roots` (plus any solver-local root variables the arena does not
    /// know). Membership is generation-stamped, so replacing the previous
    /// query's domain is O(new cone), not O(vars).
    fn rebuild_domain(&mut self, roots: &[Lit]) {
        self.domain.reset();
        self.domain.reserve_keys(self.num_vars());
        let members: Vec<usize> = match &self.shared {
            Some(sh) => {
                let arena_vars = sh.num_vars();
                let mut m: Vec<usize> = sh
                    .cone_vars(roots.iter().map(|l| l.var()))
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                m.extend(
                    roots
                        .iter()
                        .map(|l| l.var().index())
                        .filter(|&v| v >= arena_vars),
                );
                m
            }
            None => roots.iter().map(|l| l.var().index()).collect(),
        };
        for v in members {
            if v < self.num_vars()
                && self.domain.add(v)
                && self.is_unassigned(v)
                && self.var_active[v]
            {
                self.domain.enqueue(v, &self.activity);
            }
        }
    }

    /// Activates every dormant gate variable of `lits`, transitively
    /// through their defining cones. No-op on eager solvers. Cancels to
    /// level 0 first: every call site is a level-0 boundary (solve entry,
    /// clause add), and watcher installation must not race a live trail.
    pub(super) fn activate_for_lits<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        if !self.lazy || !self.ok {
            return;
        }
        let want: Vec<Var> = lits
            .into_iter()
            .map(|l| l.var())
            .filter(|v| v.index() < self.var_active.len() && !self.var_active[v.index()])
            .collect();
        if !want.is_empty() {
            self.cancel_until(0);
            self.activate_vars(want);
        }
    }

    /// Activates each listed dormant gate variable: installs watchers for
    /// the clauses *defining* it ([`crate::CnfLayer::gate_defs`]) and,
    /// transitively, activates every dormant variable those clauses
    /// mention. The closure maintains the invariant that an installed
    /// clause's variables are all active — so a dormant gate appears in no
    /// watched clause and can never be assigned, watched, or branched on —
    /// and, symmetrically, that an active gate's defining clauses are all
    /// installed, so an active gate is always constrained to its defining
    /// function.
    ///
    /// Runs at decision level 0, replaying each installed clause against
    /// the level-0 trail exactly as eager attach-time propagation would
    /// have: a clause already satisfied at level 0 is skipped for good
    /// (level-0 assignments are permanent), a falsified clause fails the
    /// solver, an asserting clause enqueues its literal with the shared
    /// clause as reason (so skeleton purity flows through
    /// [`Solver::unchecked_enqueue`] exactly as in live propagation), and
    /// anything else gets two watchers on non-false literals. One
    /// propagation pass at the end replays the consequences. Soundness
    /// (DESIGN §3b): activation only ever *adds* constraints the full
    /// formula already contains, so no model is gained; and a dormant
    /// gate is definitional — its unwatched defining clauses are
    /// satisfiable by construction given any assignment to the active
    /// variables, and no active clause mentions the gate — so no
    /// observable model is lost.
    fn activate_vars(&mut self, mut worklist: Vec<Var>) {
        let shared = self.shared.clone().expect("activation requires an arena");
        debug_assert_eq!(self.decision_level(), 0);
        let mut touched = false;
        // Shelf slots whose last dormant variable wakes in this closure;
        // replayed (as ordinary imports) once the closure and its level-0
        // propagation settle.
        let mut replay: Vec<u32> = Vec::new();
        while let Some(v) = worklist.pop() {
            if self.var_active[v.index()] {
                continue;
            }
            self.var_active[v.index()] = true;
            // Re-enter the branching heap: the variable may have been
            // popped and discarded while inactive (insert is a no-op if it
            // is still there).
            self.heap.insert(v.index(), &self.activity);
            touched = true;
            // Wake the shelf parked on this variable: each slot re-parks on
            // another still-dormant variable of its clause, or — when this
            // was the last one — queues for replay. Dormant variables found
            // here are *not* pushed on the worklist: a shelved import must
            // never widen the activation closure.
            for slot in std::mem::take(&mut self.shelf_watch[v.index()]) {
                let next_dormant = match self.shelved[slot as usize].as_ref() {
                    None => continue,
                    Some((lits, _, _)) => lits
                        .iter()
                        .map(|l| l.var().index())
                        .find(|&w| !self.var_active[w]),
                };
                match next_dormant {
                    Some(w) => self.shelf_watch[w].push(slot),
                    None => replay.push(slot),
                }
            }
            let li = shared.layer_of_var(v);
            let layer = &shared.layers()[li];
            let clause_base = shared.layer_clause_range(li).start;
            let pure = layer.is_skeleton();
            for def in layer.gate_defs(v) {
                let ci = match def {
                    crate::GateDef::Unit(u) => {
                        match self.lit_value(u) {
                            LBool::True => {
                                if pure {
                                    self.zero_pure[u.var().index()] = true;
                                }
                            }
                            LBool::False => {
                                self.ok = false;
                                return;
                            }
                            LBool::Undef => {
                                self.zero_pure[u.var().index()] = pure;
                                self.unchecked_enqueue(u, None);
                            }
                        }
                        continue;
                    }
                    crate::GateDef::Clause(local) => clause_base + local,
                };
                let cl = shared.clause(ci);
                let mut satisfied = false;
                let mut free = [0u32; 2];
                let mut n_free = 0usize;
                // One scan does double duty: classify the clause against
                // the level-0 trail and discover which dormant inputs it
                // drags in (no early exit — the dependency scan must see
                // every literal).
                for (j, &l) in cl.iter().enumerate() {
                    if !self.var_active[l.var().index()] {
                        worklist.push(l.var());
                    }
                    match self.lit_value(l) {
                        LBool::True => satisfied = true,
                        LBool::False => {}
                        LBool::Undef => {
                            if n_free < 2 {
                                free[n_free] = j as u32;
                            }
                            n_free += 1;
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                let cref = SHARED_BIT | ci as u32;
                match n_free {
                    0 => {
                        self.ok = false;
                        return;
                    }
                    1 => {
                        self.unchecked_enqueue(cl[free[0] as usize], Some(cref));
                    }
                    _ => {
                        self.shared_watch[ci] = free;
                        let watch_cref = shared_watcher_cref(ci, cl.len());
                        self.watches[cl[free[0] as usize].code()].push(Watcher {
                            cref: watch_cref,
                            blocker: cl[free[1] as usize],
                        });
                        self.watches[cl[free[1] as usize].code()].push(Watcher {
                            cref: watch_cref,
                            blocker: cl[free[0] as usize],
                        });
                    }
                }
            }
        }
        if touched && self.propagate().is_some() {
            self.ok = false;
        }
        // Replay fully-awake shelved imports. Runs after the closure's own
        // propagation so the imports land on a settled level-0 trail; each
        // replay goes through the normal import path (which re-checks
        // satisfaction/units and may fail the solver on a genuine
        // level-0 conflict).
        for slot in replay {
            if !self.ok {
                break;
            }
            if let Some((lits, lbd, pure)) = self.shelved[slot as usize].take() {
                self.stats.shelved_replayed += 1;
                self.import_clause(lits, lbd, pure);
            }
        }
    }
}
