//! A query compiled once and shared by all of its cube workers.

use crate::cube::rank_pins;
use litsynth_relalg::{Bit, Circuit, CompiledCircuit, Finder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How cube pins are chosen for a [`CompiledQuery`].
#[derive(Clone, Copy, Debug)]
pub struct CubeConfig {
    /// `true`: rank pin candidates by probing-run VSIDS activity.
    /// `false`: keep the classic slot-0 order.
    pub adaptive: bool,
    /// Conflict budget for the probing run (ignored when not adaptive).
    pub probe_conflicts: u64,
}

impl Default for CubeConfig {
    fn default() -> Self {
        CubeConfig {
            adaptive: true,
            probe_conflicts: 500,
        }
    }
}

/// One relational query, Tseitin-compiled exactly once, plus the ranked
/// cube-pin bits every worker splits on.
///
/// `CompiledQuery` is `Sync`: workers share it behind an `Arc` (typically
/// through a `OnceLock` so whichever worker arrives first pays the
/// compilation) and each calls [`CompiledQuery::attach`] for a private
/// solver over the shared clause arena.
#[derive(Debug)]
pub struct CompiledQuery {
    circuit: Arc<Circuit>,
    compiled: Arc<CompiledCircuit>,
    pins: Vec<Bit>,
    probe: Duration,
}

impl CompiledQuery {
    /// Compiles the query once and selects its cube pins.
    ///
    /// `asserts` are the bits workers will assume, `observables` the bits
    /// blocking clauses range over, and `candidates` the pinnable bits
    /// (must be observed, or cubes would not partition the class space).
    /// All three are compiled as roots so attached workers never extend
    /// the CNF beyond their private blocking clauses.
    pub fn build(
        circuit: Circuit,
        asserts: &[Bit],
        observables: &[Bit],
        candidates: &[Bit],
        cube: &CubeConfig,
    ) -> CompiledQuery {
        let roots: Vec<Bit> = asserts
            .iter()
            .chain(observables)
            .chain(candidates)
            .copied()
            .collect();
        let compiled = Arc::new(CompiledCircuit::compile(&circuit, roots));
        CompiledQuery::from_compiled(Arc::new(circuit), compiled, asserts, candidates, cube)
    }

    /// Builds a query around an existing compilation — the incremental
    /// path: `compiled` is typically a link of a sweep-shared layer chain
    /// ([`litsynth_relalg::CompiledCircuit::extend`]), `Arc`-shared across
    /// every query that runs over the same formula (queries then differ
    /// only in their assumption literals), and the circuit arena is shared
    /// by `Arc` across every query of the sweep.
    ///
    /// `compiled`'s roots must cover `asserts`, the observables, and
    /// `candidates`, exactly as [`CompiledQuery::build`] would compile
    /// them; only pin ranking (the probing run) happens here.
    pub fn from_compiled(
        circuit: Arc<Circuit>,
        compiled: Arc<CompiledCircuit>,
        asserts: &[Bit],
        candidates: &[Bit],
        cube: &CubeConfig,
    ) -> CompiledQuery {
        let probe_conflicts = if cube.adaptive {
            cube.probe_conflicts
        } else {
            0
        };
        let probe_start = Instant::now();
        let pins = rank_pins(&circuit, &compiled, asserts, candidates, probe_conflicts);
        CompiledQuery {
            circuit,
            compiled,
            pins,
            probe: probe_start.elapsed(),
        }
    }

    /// The circuit the query was built over.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared compilation.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// A fresh private finder over the shared clause arena.
    pub fn attach(&self) -> Finder {
        Finder::attach(&self.compiled)
    }

    /// Like [`CompiledQuery::attach`], but definitional layers of the
    /// shared arena start dormant and are watcher-installed only when the
    /// worker's assumptions or blocking clauses first reference them
    /// ([`Finder::attach_lazy`]). On a sweep-shared chain carrying one
    /// definitional layer per axiom this spares each worker the
    /// propagation tax of every *other* query's Tseitin cones while
    /// enumerating exactly the same instance set. Exchange and vault
    /// imports that touch a still-dormant cone are shelved and replayed
    /// on activation ([`Finder::set_shelving`]), and branching can be
    /// scoped to the declared cone via the two-level decision domain
    /// ([`Finder::set_domain_enabled`]).
    pub fn attach_lazy(&self) -> Finder {
        Finder::attach_lazy(&self.compiled)
    }

    /// Number of distinct pinnable bits available for cube splitting.
    pub fn num_pinnable(&self) -> usize {
        self.pins.len()
    }

    /// Wall-clock time the pin-selection probe took.
    pub fn probe_time(&self) -> Duration {
        self.probe
    }

    /// The pin assertions for cube `cube` of `2^cube_bits`: the top
    /// `cube_bits` ranked pins, each with the polarity encoded by the
    /// matching bit of `cube`.
    ///
    /// # Panics
    ///
    /// Panics if `cube_bits` exceeds [`CompiledQuery::num_pinnable`] —
    /// callers clamp first.
    pub fn cube_pins(&self, cube: usize, cube_bits: usize) -> Vec<Bit> {
        assert!(cube_bits <= self.pins.len(), "cube_bits not clamped");
        (0..cube_bits)
            .map(|j| {
                let b = self.pins[j];
                if cube >> j & 1 == 1 {
                    b
                } else {
                    b.not()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::{ExchangeBus, ExchangeConfig};
    use litsynth_sat::{NoExchange, SolveBudget};

    fn build_query() -> (CompiledQuery, Vec<Bit>, Bit) {
        let mut c = Circuit::new();
        let xs: Vec<Bit> = (0..5).map(|i| c.input(format!("x{i}"))).collect();
        let a = c.and(xs[2], xs[3]);
        let b = c.or(xs[0], xs[1]);
        let root = c.or(a, b);
        let q = CompiledQuery::build(c, &[root], &xs.clone(), &xs.clone(), &CubeConfig::default());
        (q, xs, root)
    }

    /// Enumerates one cube, returning its observable classes.
    fn run_cube(
        q: &CompiledQuery,
        xs: &[Bit],
        root: Bit,
        cube: usize,
        cube_bits: usize,
        exchange: &mut dyn litsynth_sat::ClauseExchange,
    ) -> Vec<Vec<bool>> {
        let mut f = q.attach();
        let mut asserts = vec![root];
        asserts.extend(q.cube_pins(cube, cube_bits));
        let mut classes = Vec::new();
        let budget = SolveBudget::unlimited();
        while let Some(inst) = f
            .next_instance_budgeted_assuming(q.circuit(), &asserts, &[], exchange, &budget)
            .expect("an unlimited budget never interrupts")
        {
            classes.push(inst.eval_many(q.circuit(), xs));
            f.block_guarded(q.circuit(), &inst, xs, None);
            assert!(classes.len() <= 32);
        }
        classes
    }

    #[test]
    fn cubes_partition_and_exchange_preserves_the_class_set() {
        let (q, xs, root) = build_query();
        // Sequential reference: one worker, no cubes, no exchange.
        let mut reference = run_cube(&q, &xs, root, 0, 0, &mut NoExchange);
        reference.sort();
        assert_eq!(reference.len(), 26);
        for cube_bits in [1usize, 2] {
            for exchange_on in [false, true] {
                let bus = ExchangeBus::new(ExchangeConfig {
                    enabled: exchange_on,
                    ..ExchangeConfig::default()
                });
                let mut all = Vec::new();
                for cube in 0..(1 << cube_bits) {
                    let mut ep = bus.endpoint(cube);
                    all.extend(run_cube(&q, &xs, root, cube, cube_bits, &mut ep));
                }
                all.sort();
                assert_eq!(
                    all, reference,
                    "cube_bits={cube_bits} exchange={exchange_on}"
                );
            }
        }
    }

    #[test]
    fn adaptive_and_slot_pins_select_from_the_same_candidates() {
        let (q, xs, _) = build_query();
        assert_eq!(q.num_pinnable(), xs.len());
        let mut ranked: Vec<Bit> = (0..xs.len()).map(|j| q.pins[j]).collect();
        ranked.sort();
        let mut given = xs.clone();
        given.sort();
        assert_eq!(ranked, given, "adaptive ranking permutes the candidates");
    }

    #[test]
    fn compiled_query_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<CompiledQuery>();
    }
}
