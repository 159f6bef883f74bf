//! Saturation-based consistency checking: the model-agnostic core.
//!
//! The explicit oracle ([`crate::Execution::enumerate`]) decides whether an
//! outcome is observable by materializing every (rf, co) candidate —
//! factorial in same-address writes. This module implements the polynomial
//! alternative in the style of reads-from consistency checking (Tunç et
//! al., Chakraborty): fix rf, then *saturate* the coherence order with
//! every edge that is forced (its reversal would close a cycle through a
//! relation the model requires acyclic), detect contradictions with an
//! incremental cycle check, and only fall back to enumerating the (usually
//! unique) linear extensions of the forced order.
//!
//! The memory-model side — which relations participate, per axiom — is
//! supplied by `litsynth-models` as [`AxiomSpec`]s; this module knows only
//! programs, rf maps, and graphs.
//!
//! Graphs keep one `u64` edge row and one `u64` closure row per event, so
//! the closure is current after every insertion and a cycle check is one
//! bit test.

use crate::event::Addr;
use crate::rel::Rel;
use crate::test::LitmusTest;
use std::collections::BTreeMap;

/// A violating cycle found by saturation: the axiom whose required-acyclic
/// relation closed, and the events along the cycle (each consecutive pair —
/// and last back to first — is an edge of that relation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleWitness {
    /// The axiom (or `"co"` for contradictory forced-coherence edges).
    pub axiom: String,
    /// Events along the cycle, in order.
    pub events: Vec<usize>,
}

impl CycleWitness {
    fn new(axiom: &str, events: Vec<usize>) -> CycleWitness {
        CycleWitness {
            axiom: axiom.to_string(),
            events,
        }
    }
}

/// A directed acyclic graph over at most 64 event ids, kept together with
/// its transitive closure.
///
/// `adj[u]` is the set of edges out of `u` and `reach[u]` the set of nodes
/// reachable from `u` by one or more edges, one `u64` row each. Every
/// accepted insertion brings the closure up to date, so a cycle check is
/// one bit test and a reachability query is one row load.
struct DiGraph {
    adj: Vec<u64>,
    reach: Vec<u64>,
}

impl DiGraph {
    /// An edgeless graph over `n ≤ 64` nodes.
    fn new(n: usize) -> DiGraph {
        assert!(n <= 64, "DiGraph carriers are litmus-sized");
        DiGraph {
            adj: vec![0; n],
            reach: vec![0; n],
        }
    }

    /// `true` if the edge `(u, v)` is present.
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u] >> v & 1 == 1
    }

    /// The nodes reachable from `from`, as a bitmask.
    fn reach(&self, from: usize) -> u64 {
        self.reach[from]
    }

    /// The transitive closure of the edges as a [`Rel`].
    fn closure(&self) -> Rel {
        let n = self.reach.len();
        let mut r = Rel::new(n);
        for (u, &row) in self.reach.iter().enumerate() {
            for v in (0..n).filter(|&v| row >> v & 1 == 1) {
                r.add(u, v);
            }
        }
        r
    }

    /// Adds the edge `(u, v)`.
    ///
    /// Returns `Ok(true)` if the edge is new, `Ok(false)` if it was already
    /// present, and `Err(cycle)` — the events along the cycle the edge
    /// would close, starting at `u` — if `v` already reaches `u`. A refused
    /// edge leaves the graph unchanged.
    fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, Vec<usize>> {
        if u == v {
            return Err(vec![u]);
        }
        if self.has_edge(u, v) {
            return Ok(false);
        }
        if self.reach[v] >> u & 1 == 1 {
            return Err(self.cycle_through(u, v));
        }
        self.adj[u] |= 1 << v;
        // `u` and everything that reaches `u` now also reach `v` and all
        // `v` reaches. No row gains `u` itself, so the test stays valid
        // while the rows change.
        let gained = self.reach[v] | 1 << v;
        for (x, row) in self.reach.iter_mut().enumerate() {
            if x == u || *row >> u & 1 == 1 {
                *row |= gained;
            }
        }
        Ok(true)
    }

    /// The cycle `u → v → a₁ → … → aₖ` (and back to `u`) that the edge
    /// `(u, v)` would close, given that `v` reaches `u`: `a₁ … aₖ` is the
    /// path on which a depth-first search from `v`, visiting successors
    /// lowest id first, discovers `u`.
    fn cycle_through(&self, u: usize, v: usize) -> Vec<usize> {
        let mut parent = [0usize; 64];
        let mut seen = 1u64 << v;
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            let mut row = self.adj[x] & !seen;
            while row != 0 {
                let y = row.trailing_zeros() as usize;
                row &= row - 1;
                parent[y] = x;
                if y == u {
                    let mut rev = Vec::new();
                    let mut node = x;
                    while node != v {
                        rev.push(node);
                        node = parent[node];
                    }
                    let mut cyc = vec![u, v];
                    cyc.extend(rev.into_iter().rev());
                    return cyc;
                }
                seen |= 1 << y;
                stack.push(y);
            }
        }
        unreachable!("v reaches u, so the search discovers u")
    }
}

/// Which part of the reads-from relation an axiom's acyclic union includes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RfPart {
    /// All rf edges.
    All,
    /// Only cross-thread rf edges (`rfe`, e.g. TSO causality).
    External,
}

/// How an axiom participates in saturation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpecKind {
    /// `acyclic(base ∪ rf-part)` with no coherence in the union: checked
    /// once, never forces co (SCC/C11 `no_thin_air`).
    Static,
    /// `acyclic(base ∪ rf-part ∪ co ∪ fr)`: maintains a graph that receives
    /// every forced co/fr edge and forces `co(w₁,w₂)` whenever `w₁` reaches
    /// `w₂` (sc_per_loc everywhere; SC/TSO causality).
    Closure,
    /// `irreflexive(base ; eco?)` with `base` transitive (C11 coherence):
    /// a one-shot rule pass — every single-address eco path between
    /// `base`-ordered endpoints either forces a co edge or is an outright
    /// violation.
    OrderEco,
}

/// One axiom's saturation interface, computed by the model for a fixed rf
/// choice (bases may depend on rf — C11's happens-before does — but never
/// on co).
#[derive(Clone, Debug)]
pub struct AxiomSpec {
    /// The axiom name, used to label cycle witnesses.
    pub axiom: &'static str,
    /// Participation kind.
    pub kind: SpecKind,
    /// The co/fr-free part of the axiom's relation (po_loc, po, ppo∪fence,
    /// dep, hb — whatever the model says).
    pub base: Rel,
    /// Which rf edges join `base` in the union.
    pub rf: RfPart,
}

/// Saturates the coherence order for one rf choice.
///
/// `rf` maps every read to its source write (or `None` for the initial
/// value); `seed_co` carries externally forced edges (e.g. "every other
/// write precedes the pinned final write"). Returns the forced co as a
/// transitive [`Rel`] (same-address write pairs only), or the first
/// violating cycle if the specs already contradict each other — in which
/// case *no* coherence completion of this rf choice satisfies the model
/// and matches the seeds.
///
/// Soundness: an edge is only ever forced when its reversal closes a cycle
/// through a relation some axiom requires acyclic (or contradicts a seed),
/// so every model-valid, seed-matching execution's co extends the result.
pub fn saturate(
    test: &LitmusTest,
    rf: &BTreeMap<usize, Option<usize>>,
    specs: &[AxiomSpec],
    seed_co: &[(usize, usize)],
) -> Result<Rel, CycleWitness> {
    let n = test.num_events();
    let mut co = DiGraph::new(n);
    let mut graphs: Vec<(usize, DiGraph)> = Vec::new(); // (spec idx, graph)

    let rf_edge_included = |part: RfPart, w: usize, r: usize| match part {
        RfPart::All => true,
        RfPart::External => test.thread_of(w) != test.thread_of(r),
    };

    // Seed the per-axiom graphs with base ∪ rf-part ∪ initial-read fr.
    for (si, spec) in specs.iter().enumerate() {
        if spec.kind == SpecKind::OrderEco {
            continue;
        }
        let mut g = DiGraph::new(n);
        let witness = |cyc| CycleWitness::new(spec.axiom, cyc);
        for (i, j) in spec.base.pairs() {
            g.add_edge(i, j).map_err(witness)?;
        }
        for (&r, &src) in rf {
            if let Some(w) = src {
                if rf_edge_included(spec.rf, w, r) {
                    g.add_edge(w, r).map_err(witness)?;
                }
            }
        }
        if spec.kind == SpecKind::Closure {
            // A read of the initial value from-reads to every same-address
            // write, unconditionally.
            for (&r, &src) in rf {
                if src.is_none() {
                    let addr = test.instr(r).addr().expect("read has address");
                    for w in test.writes_to(addr) {
                        if w != r {
                            g.add_edge(r, w).map_err(witness)?;
                        }
                    }
                }
            }
            graphs.push((si, g));
        }
        // Static specs are fully checked by the insertions above.
    }

    // Worklist of forced co edges.
    let mut pending: Vec<(usize, usize, &'static str)> =
        seed_co.iter().map(|&(a, b)| (a, b, "co")).collect();

    // One-shot OrderEco rule pass (rules consume only base and rf, so new
    // co conclusions never enable further OrderEco rules).
    for spec in specs {
        if spec.kind != SpecKind::OrderEco {
            continue;
        }
        order_eco_rules(test, rf, spec, &mut pending)?;
    }

    loop {
        // Drain: apply forced edges to the co order and every closure
        // graph, deriving fr edges as co grows.
        while let Some((w1, w2, why)) = pending.pop() {
            match co.add_edge(w1, w2) {
                Ok(false) => continue,
                Ok(true) => {}
                Err(cyc) => return Err(CycleWitness::new(why, cyc)),
            }
            for (si, g) in &mut graphs {
                g.add_edge(w1, w2)
                    .map_err(|cyc| CycleWitness::new(specs[*si].axiom, cyc))?;
                // Forced fr: a read of w1 from-reads every write forced
                // co-after w1.
                for (&r, &src) in rf {
                    if src == Some(w1) && r != w2 {
                        g.add_edge(r, w2)
                            .map_err(|cyc| CycleWitness::new(specs[*si].axiom, cyc))?;
                    }
                }
            }
        }
        // Force: same-address writes ordered by any closure graph's
        // reachability must be co-ordered the same way.
        let mut changed = false;
        for (si, g) in &graphs {
            for a in test.addresses() {
                let ws = test.writes_to(a);
                for &w1 in &ws {
                    let reach = g.reach(w1);
                    for &w2 in &ws {
                        if w1 != w2 && reach >> w2 & 1 == 1 && !co.has_edge(w1, w2) {
                            pending.push((w1, w2, specs[*si].axiom));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed && pending.is_empty() {
            break;
        }
    }

    Ok(co.closure())
}

/// The one-shot rule pass for `irreflexive(order ; eco?)` axioms.
///
/// Every eco (`(rf ∪ co ∪ fr)⁺`) path is single-address — each step relates
/// same-address events and consecutive steps share an endpoint — so a
/// violation pairs `order(a, b)` with an eco path `b → … → a` through one
/// address, and a case split on the roles of `a` and `b` either forces the
/// co edge whose reversal completes that path, or finds the violation
/// outright.
fn order_eco_rules(
    test: &LitmusTest,
    rf: &BTreeMap<usize, Option<usize>>,
    spec: &AxiomSpec,
    pending: &mut Vec<(usize, usize, &'static str)>,
) -> Result<(), CycleWitness> {
    for (a, b) in spec.base.pairs() {
        if a == b {
            // eco? is reflexive, so a reflexive order point is a violation.
            return Err(CycleWitness::new(spec.axiom, vec![a]));
        }
        let (ia, ib) = (test.instr(a), test.instr(b));
        let (Some(aa), Some(ab)) = (ia.addr(), ib.addr()) else {
            continue;
        };
        if aa != ab {
            continue;
        }
        // WW: order(w₁, w₂) forces co(w₁, w₂) — the reversal is
        // order(w₁,w₂) ; co(w₂,w₁).
        if ia.is_write() && ib.is_write() {
            pending.push((a, b, spec.axiom));
        }
        // WR: order(w, r) with r reading w₀ ≠ w forces co(w, w₀) — the
        // reversal puts w co-after w₀, giving fr(r, w) back to w. A read
        // of the initial value loses outright: fr(r, w) holds already.
        if ia.is_write() && ib.is_read() {
            match rf.get(&b) {
                Some(&Some(w0)) if w0 != a => pending.push((a, w0, spec.axiom)),
                Some(&None) => return Err(CycleWitness::new(spec.axiom, vec![a, b])),
                _ => {}
            }
        }
        // RW: order(r, w) with r reading w₀ forces co(w₀, w) — the
        // reversal gives eco(w → w₀ → r). Reading w itself is an
        // immediate violation: order(r, w) ; rf(w, r).
        if ia.is_read() && ib.is_write() {
            match rf.get(&a) {
                Some(&Some(w0)) if w0 == b => {
                    return Err(CycleWitness::new(spec.axiom, vec![a, b]))
                }
                Some(&Some(w0)) => pending.push((w0, b, spec.axiom)),
                _ => {}
            }
        }
        // RR: order(r₁, r₂) with r₁ reading w₁, r₂ reading w₂ ≠ w₁ forces
        // co(w₁, w₂) — the reversal gives eco(r₂ → w₁ → r₁) via fr then
        // rf. If r₂ reads the initial value, fr(r₂, w₁) holds already.
        if ia.is_read() && ib.is_read() {
            match (rf.get(&a), rf.get(&b)) {
                (Some(&Some(w1)), Some(&Some(w2))) if w1 != w2 => {
                    pending.push((w1, w2, spec.axiom))
                }
                (Some(&Some(w1)), Some(&None)) => {
                    return Err(CycleWitness::new(spec.axiom, vec![a, b, w1]))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Streams every per-address coherence order extending `forced` to `visit`
/// (last address varying fastest, each address's extensions in lexicographic
/// gid order — the same order [`crate::Execution::enumerate`] produces when
/// nothing is forced). Stops early — returning `true` — as soon as `visit`
/// returns `true`.
pub fn each_co_extension<F: FnMut(&BTreeMap<Addr, Vec<usize>>) -> bool>(
    test: &LitmusTest,
    forced: &Rel,
    visit: &mut F,
) -> bool {
    let per_addr: Vec<(Addr, Vec<usize>)> = test
        .addresses()
        .into_iter()
        .map(|a| (a, test.writes_to(a)))
        .filter(|(_, ws)| !ws.is_empty())
        .collect();
    extend(&per_addr, forced, &mut BTreeMap::new(), visit)
}

/// Extends `chosen` one write at a time. The first address in `per_addr`
/// whose order is incomplete takes, in gid order, each write whose forced
/// predecessors are all placed; a complete order moves on to the next
/// address, and `visit` sees `chosen` once every address is complete.
fn extend<F: FnMut(&BTreeMap<Addr, Vec<usize>>) -> bool>(
    per_addr: &[(Addr, Vec<usize>)],
    forced: &Rel,
    chosen: &mut BTreeMap<Addr, Vec<usize>>,
    visit: &mut F,
) -> bool {
    let Some(((addr, ws), rest)) = per_addr.split_first() else {
        return visit(chosen);
    };
    if chosen.entry(*addr).or_default().len() == ws.len() {
        return extend(rest, forced, chosen, visit);
    }
    for &w in ws {
        let order = &chosen[addr];
        let placed = |p: &usize| order.contains(p);
        if placed(&w) || !ws.iter().all(|p| placed(p) || !forced.contains(*p, w)) {
            continue;
        }
        chosen.get_mut(addr).expect("entered above").push(w);
        if extend(per_addr, forced, chosen, visit) {
            return true;
        }
        chosen.get_mut(addr).expect("entered above").pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Instr;

    #[test]
    fn digraph_orders_and_rejects_cycles() {
        let mut g = DiGraph::new(4);
        assert_eq!(g.add_edge(2, 1), Ok(true));
        assert_eq!(g.add_edge(2, 1), Ok(false), "duplicate is a no-op");
        assert_eq!(g.add_edge(1, 0), Ok(true));
        assert_eq!(g.add_edge(3, 2), Ok(true));
        assert_eq!(g.reach(3), 0b0111);
        let cyc = g.add_edge(0, 3).unwrap_err();
        assert_eq!(cyc.len(), 4, "0→3→2→1→0");
        assert_eq!(cyc[0], 0);
        assert_eq!(cyc[1], 3);
    }

    #[test]
    fn digraph_self_loop_is_a_cycle() {
        let mut g = DiGraph::new(2);
        assert_eq!(g.add_edge(1, 1), Err(vec![1]));
    }

    #[test]
    fn digraph_two_cycle_witness() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.add_edge(1, 0), Err(vec![1, 0]));
    }

    #[test]
    fn digraph_dense_random_insertions_match_rel_acyclicity() {
        // Insert edges in a scrambled order; the incremental structure must
        // accept exactly while the Rel closure stays acyclic.
        let edges = [
            (4usize, 2usize),
            (2, 7),
            (7, 1),
            (1, 5),
            (0, 4),
            (5, 3),
            (3, 6),
            (6, 0),
        ];
        let mut g = DiGraph::new(8);
        let mut r = Rel::new(8);
        for (i, &(u, v)) in edges.iter().enumerate() {
            let mut trial = r.clone();
            trial.add(u, v);
            if trial.is_acyclic() {
                assert!(g.add_edge(u, v).is_ok(), "edge {i} ({u},{v})");
                r = trial;
            } else {
                assert!(g.add_edge(u, v).is_err(), "edge {i} ({u},{v})");
                return;
            }
        }
        // The last edge closes the 8-cycle, so we must have returned.
        unreachable!("the edge list ends in a cycle");
    }

    fn two_writes() -> LitmusTest {
        // T0: Ld x; T1: St x; St x.
        LitmusTest::new(
            "t",
            vec![vec![Instr::load(0)], vec![Instr::store(0), Instr::store(0)]],
        )
    }

    fn spec_sc_per_loc(test: &LitmusTest) -> AxiomSpec {
        AxiomSpec {
            axiom: "sc_per_loc",
            kind: SpecKind::Closure,
            base: test.po_loc(),
            rf: RfPart::All,
        }
    }

    #[test]
    fn saturation_forces_po_loc_write_order() {
        let t = two_writes();
        // Read the first write: fr saturation forces nothing beyond po_loc,
        // but po_loc(1,2) forces co(1,2).
        let rf = BTreeMap::from([(0usize, Some(1usize))]);
        let forced = saturate(&t, &rf, &[spec_sc_per_loc(&t)], &[]).unwrap();
        assert!(forced.contains(1, 2));
        assert!(!forced.contains(2, 1));
    }

    #[test]
    fn saturation_detects_contradictory_seed() {
        let t = two_writes();
        let rf = BTreeMap::from([(0usize, None)]);
        // Seeding co(2,1) contradicts po_loc-forced co(1,2).
        let err = saturate(&t, &rf, &[spec_sc_per_loc(&t)], &[(2, 1)]).unwrap_err();
        assert!(!err.events.is_empty());
    }

    #[test]
    fn saturation_derives_fr_cycle_for_stale_read() {
        // T0: St x; Ld x — reading the initial value after the po-earlier
        // write violates sc_per_loc: po_loc(0,1) and fr(1,0).
        let t = LitmusTest::new("t", vec![vec![Instr::store(0), Instr::load(0)]]);
        let rf = BTreeMap::from([(1usize, None)]);
        let err = saturate(&t, &rf, &[spec_sc_per_loc(&t)], &[]).unwrap_err();
        assert_eq!(err.axiom, "sc_per_loc");
    }

    #[test]
    fn extensions_respect_forced_edges() {
        let t = two_writes();
        let mut forced = Rel::new(3);
        forced.add(2, 1);
        let mut seen = Vec::new();
        each_co_extension(&t, &forced, &mut |co| {
            seen.push(co[&Addr(0)].clone());
            false
        });
        assert_eq!(seen, vec![vec![2, 1]], "only the forced order survives");
    }

    #[test]
    fn extensions_enumerate_all_orders_when_unforced() {
        let t = two_writes();
        let forced = Rel::new(3);
        let mut seen = Vec::new();
        each_co_extension(&t, &forced, &mut |co| {
            seen.push(co[&Addr(0)].clone());
            false
        });
        assert_eq!(seen, vec![vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn extension_early_exit_stops_enumeration() {
        let t = two_writes();
        let forced = Rel::new(3);
        let mut calls = 0;
        let stopped = each_co_extension(&t, &forced, &mut |_| {
            calls += 1;
            true
        });
        assert!(stopped);
        assert_eq!(calls, 1);
    }
}
