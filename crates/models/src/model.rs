//! The memory-model abstraction and the instruction-relaxation vocabulary.

use crate::alg::{ConcreteAlg, RelAlg};
use crate::ctx::Ctx;
use litsynth_litmus::{
    AxiomSpec, DepKind, FenceKind, Instr, LitmusTest, MemOrder, RfPart, SpecKind,
};

/// The instruction-relaxation kinds of the paper's §3.2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RelaxKind {
    /// Remove Instruction.
    Ri,
    /// Decompose atomic read-modify-write.
    Drmw,
    /// Demote Fence strength.
    Df,
    /// Demote Memory Order.
    Dmo,
    /// Remove Dependency.
    Rd,
    /// Demote Scope.
    Ds,
}

/// An axiomatic memory model, written once against [`RelAlg`] and therefore
/// evaluable both concretely (oracle) and symbolically (synthesis).
///
/// The vocabulary methods (`fence_kinds`, `read_orders`, …) tell the
/// synthesizer which instruction features exist in this model's ISA; the
/// relaxation methods encode the model's row of the paper's Table 2.
pub trait MemoryModel {
    /// Short display name (`"TSO"`, `"Power"`, …).
    fn name(&self) -> &'static str;

    /// The named axioms; each generates its own suite (§5.2).
    fn axioms(&self) -> &'static [&'static str];

    /// Evaluates one named axiom over an execution context.
    ///
    /// # Panics
    ///
    /// Panics if `axiom` is not one of [`MemoryModel::axioms`].
    fn axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B;

    /// Conjunction of all axioms: the model's validity predicate.
    fn valid<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::B {
        let bs: Vec<A::B> = self
            .axioms()
            .iter()
            .map(|a| self.axiom(alg, ctx, a))
            .collect();
        alg.and_many(bs)
    }

    /// The axiom body the SAT-based synthesis uses. Defaults to
    /// [`MemoryModel::axiom`]; models with auxiliary relations override it
    /// to emulate enumeration (the paper's Figure 19 `sc`-reversal
    /// workaround in SCC).
    fn synthesis_axiom<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>, axiom: &str) -> A::B {
        self.axiom(alg, ctx, axiom)
    }

    /// Conjunction of all axioms in their synthesis form.
    fn synthesis_valid<A: RelAlg>(&self, alg: &mut A, ctx: &Ctx<A>) -> A::B {
        let bs: Vec<A::B> = self
            .axioms()
            .iter()
            .map(|a| self.synthesis_axiom(alg, ctx, a))
            .collect();
        alg.and_many(bs)
    }

    /// The saturation interface of this model's axioms for the polynomial
    /// consistency checker (`crate::check`): which acyclicity requirements
    /// can *force* coherence edges for a fixed rf choice.
    ///
    /// `ctx` is a probe context built from that rf choice with an **empty**
    /// coherence order — spec bases may depend on rf (C11's happens-before
    /// does) but must never read `ctx.co` or `ctx.fr`. The default covers
    /// every model with an `sc_per_loc` axiom (acyclic(po_loc ∪ com));
    /// models whose other axioms also admit saturation override and extend.
    /// Under-approximation is safe: the checker falls back to validating
    /// the linear extensions of whatever was forced.
    fn check_specs(&self, test: &LitmusTest, ctx: &Ctx<ConcreteAlg>) -> Vec<AxiomSpec> {
        let _ = ctx;
        let mut specs = Vec::new();
        if self.axioms().contains(&"sc_per_loc") {
            specs.push(AxiomSpec {
                axiom: "sc_per_loc",
                kind: SpecKind::Closure,
                base: test.po_loc(),
                rf: RfPart::All,
            });
        }
        specs
    }

    /// Fence kinds in this model's ISA.
    fn fence_kinds(&self) -> &'static [FenceKind] {
        &[]
    }

    /// Memory orders available on loads.
    fn read_orders(&self) -> &'static [MemOrder] {
        &[MemOrder::Relaxed]
    }

    /// Memory orders available on stores.
    fn write_orders(&self) -> &'static [MemOrder] {
        &[MemOrder::Relaxed]
    }

    /// Memory orders available on single-instruction RMWs (empty if the
    /// model has no single-instruction RMW primitive).
    fn rmw_orders(&self) -> &'static [MemOrder] {
        &[]
    }

    /// Dependency kinds the model gives semantics to.
    fn dep_kinds(&self) -> &'static [DepKind] {
        &[]
    }

    /// `true` if the model formalizes RMWs as adjacent load/store pairs.
    fn uses_rmw_pairs(&self) -> bool {
        false
    }

    /// `true` if the model needs the auxiliary `sc` total order over full
    /// fences (SCC, Figure 17).
    fn uses_sc_order(&self) -> bool {
        false
    }

    /// The model's applicable instruction relaxations (Table 2 row),
    /// restricted — as the paper's experiments are — to features the
    /// formalization actually exercises.
    fn relaxations(&self) -> Vec<RelaxKind> {
        let mut v = vec![RelaxKind::Ri];
        if !self.rmw_orders().is_empty() || self.uses_rmw_pairs() {
            v.push(RelaxKind::Drmw);
        }
        if self.fence_kinds().len() > 1 {
            v.push(RelaxKind::Df);
        }
        if self.read_orders().len() > 1 || self.write_orders().len() > 1 {
            v.push(RelaxKind::Dmo);
        }
        if !self.dep_kinds().is_empty() {
            v.push(RelaxKind::Rd);
        }
        v
    }

    /// One DF step for a fence of `kind`: the weaker kinds it may demote to
    /// (empty = DF inapplicable; removal is RI's job).
    fn fence_demotions(&self, kind: FenceKind) -> Vec<FenceKind> {
        let _ = kind;
        Vec::new()
    }

    /// One DMO step for `instr`: the weaker orders it may demote to within
    /// this model's vocabulary.
    ///
    /// Loads follow the chain `seq_cst > acquire > consume > relaxed`,
    /// stores `seq_cst > release > relaxed` (paper Table 1); orders absent
    /// from the model's vocabulary are skipped over. RMWs follow the full
    /// diamond, so `acq_rel` may demote to *either* `acquire` or `release`
    /// (§3.2's "multiple variants of DMO").
    fn order_demotions(&self, instr: Instr) -> Vec<MemOrder> {
        let Some(o) = instr.order() else {
            return Vec::new();
        };
        if instr.is_read() && instr.is_write() {
            // RMW: walk the demotion DAG, emitting the first orders (per
            // branch) that exist in the model's RMW vocabulary.
            let ladder = self.rmw_orders();
            let mut out = Vec::new();
            let mut frontier: Vec<MemOrder> = o.demotions().to_vec();
            while let Some(d) = frontier.pop() {
                if ladder.contains(&d) {
                    if !out.contains(&d) {
                        out.push(d);
                    }
                } else {
                    frontier.extend_from_slice(d.demotions());
                }
            }
            out.sort();
            out
        } else {
            let (chain, ladder): (&[MemOrder], &[MemOrder]) = if instr.is_read() {
                (
                    &[
                        MemOrder::SeqCst,
                        MemOrder::Acquire,
                        MemOrder::Consume,
                        MemOrder::Relaxed,
                    ],
                    self.read_orders(),
                )
            } else if instr.is_write() {
                (
                    &[MemOrder::SeqCst, MemOrder::Release, MemOrder::Relaxed],
                    self.write_orders(),
                )
            } else {
                return Vec::new();
            };
            let Some(pos) = chain.iter().position(|&c| c == o) else {
                return Vec::new();
            };
            chain[pos + 1..]
                .iter()
                .copied()
                .find(|d| ladder.contains(d))
                .into_iter()
                .collect()
        }
    }

    /// `true` if `instr` is part of this model's vocabulary (the synthesizer
    /// only emits well-formed tests; the oracle rejects ill-formed input).
    fn instr_wellformed(&self, instr: Instr) -> bool {
        match instr {
            Instr::Load { order, .. } => self.read_orders().contains(&order),
            Instr::Store { order, .. } => self.write_orders().contains(&order),
            Instr::Rmw { order, .. } => self.rmw_orders().contains(&order),
            Instr::Fence { kind, .. } => self.fence_kinds().contains(&kind),
        }
    }
}
