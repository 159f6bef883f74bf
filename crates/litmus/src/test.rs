//! Litmus tests: multi-threaded programs plus a (usually forbidden) outcome.

use crate::event::{Addr, DepKind, Instr};
use crate::rel::Rel;
use std::collections::BTreeMap;
use std::fmt;

/// An intra-thread dependency edge (Power/ARM-style).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Dep {
    /// Thread containing both endpoints.
    pub tid: usize,
    /// Index of the source instruction (must be a read) within the thread.
    pub from: usize,
    /// Index of the target instruction within the thread; must be po-later.
    pub to: usize,
    /// Dependency flavor.
    pub kind: DepKind,
}

/// An RMW formalized as an adjacent load/store pair linked by an `rmw` edge
/// (the two-instruction formalization; the paper counts these as two
/// instructions, and single-instruction [`Instr::Rmw`]s as one).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RmwPair {
    /// Thread containing the pair.
    pub tid: usize,
    /// Index of the load within the thread.
    pub load: usize,
    /// Index of the store within the thread (must be `load + 1`).
    pub store: usize,
}

/// A multi-threaded litmus-test program.
///
/// Instructions are identified either by `(thread, index)` or by a *global
/// id*: threads flattened in order. Values follow the litmus convention:
/// the k-th write (in global-id order) to an address writes value `k+1`, the
/// initial value of every address is `0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LitmusTest {
    name: String,
    threads: Vec<Vec<Instr>>,
    deps: Vec<Dep>,
    rmw_pairs: Vec<RmwPair>,
    // Flattened cache.
    flat: Vec<Instr>,
    thread_of: Vec<usize>,
    index_of: Vec<usize>,
    start: Vec<usize>,
}

impl LitmusTest {
    /// Builds a test from per-thread instruction lists.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 events are supplied (the concrete relation
    /// layer is 64-bounded).
    pub fn new(name: impl Into<String>, threads: Vec<Vec<Instr>>) -> LitmusTest {
        let mut flat = Vec::new();
        let mut thread_of = Vec::new();
        let mut index_of = Vec::new();
        let mut start = Vec::new();
        for (tid, t) in threads.iter().enumerate() {
            start.push(flat.len());
            for (idx, &i) in t.iter().enumerate() {
                flat.push(i);
                thread_of.push(tid);
                index_of.push(idx);
            }
        }
        assert!(flat.len() <= 64, "too many events");
        LitmusTest {
            name: name.into(),
            threads,
            deps: Vec::new(),
            rmw_pairs: Vec::new(),
            flat,
            thread_of,
            index_of,
            start,
        }
    }

    /// Adds a dependency edge.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are out of range, `from >= to`, or the source
    /// is not a read.
    pub fn with_dep(mut self, tid: usize, from: usize, to: usize, kind: DepKind) -> LitmusTest {
        assert!(from < to, "dependencies go forward in program order");
        assert!(to < self.threads[tid].len(), "dep target out of range");
        assert!(
            self.threads[tid][from].is_read(),
            "dependencies originate at reads"
        );
        self.deps.push(Dep {
            tid,
            from,
            to,
            kind,
        });
        self
    }

    /// Declares instructions `load` and `load + 1` of `tid` an RMW pair.
    ///
    /// # Panics
    ///
    /// Panics unless the pair is an adjacent same-address load/store.
    pub fn with_rmw_pair(mut self, tid: usize, load: usize) -> LitmusTest {
        let store = load + 1;
        let t = &self.threads[tid];
        assert!(store < t.len(), "rmw store out of range");
        assert!(
            t[load].is_read() && !t[load].is_write(),
            "rmw pair starts with a load"
        );
        assert!(
            t[store].is_write() && !t[store].is_read(),
            "rmw pair ends with a store"
        );
        assert_eq!(
            t[load].addr(),
            t[store].addr(),
            "rmw pair must target one address"
        );
        self.rmw_pairs.push(RmwPair { tid, load, store });
        self
    }

    /// Renames the test.
    pub fn with_name(mut self, name: impl Into<String>) -> LitmusTest {
        self.name = name.into();
        self
    }

    /// The test's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-thread instruction lists.
    pub fn threads(&self) -> &[Vec<Instr>] {
        &self.threads
    }

    /// All dependency edges.
    pub fn deps(&self) -> &[Dep] {
        &self.deps
    }

    /// All two-instruction RMW pairs.
    pub fn rmw_pairs(&self) -> &[RmwPair] {
        &self.rmw_pairs
    }

    /// Total number of events (instructions).
    pub fn num_events(&self) -> usize {
        self.flat.len()
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The instruction with global id `gid`.
    pub fn instr(&self, gid: usize) -> Instr {
        self.flat[gid]
    }

    /// The thread of event `gid`.
    pub fn thread_of(&self, gid: usize) -> usize {
        self.thread_of[gid]
    }

    /// The intra-thread index of event `gid`.
    pub fn index_of(&self, gid: usize) -> usize {
        self.index_of[gid]
    }

    /// The global id of `(tid, idx)`.
    pub fn gid(&self, tid: usize, idx: usize) -> usize {
        self.start[tid] + idx
    }

    /// Global ids of all read events (loads and RMWs).
    pub fn reads(&self) -> Vec<usize> {
        (0..self.flat.len())
            .filter(|&g| self.flat[g].is_read())
            .collect()
    }

    /// Global ids of all write events (stores and RMWs).
    pub fn writes(&self) -> Vec<usize> {
        (0..self.flat.len())
            .filter(|&g| self.flat[g].is_write())
            .collect()
    }

    /// Global ids of writes to `addr`, in global-id order.
    pub fn writes_to(&self, addr: Addr) -> Vec<usize> {
        self.writes()
            .into_iter()
            .filter(|&g| self.flat[g].addr() == Some(addr))
            .collect()
    }

    /// The distinct addresses accessed, sorted.
    pub fn addresses(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> = self.flat.iter().filter_map(|i| i.addr()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The write to `addr` that writes value `value` (1-based rank), i.e.
    /// the inverse of [`LitmusTest::write_value`].
    ///
    /// # Panics
    ///
    /// Panics if no such write exists.
    pub fn write_with_value(&self, addr: Addr, value: u32) -> usize {
        let ws = self.writes_to(addr);
        assert!(
            value >= 1 && (value as usize) <= ws.len(),
            "no write of {value} to {addr}"
        );
        ws[value as usize - 1]
    }

    /// The value written by write `gid` (per-address 1-based rank).
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a write.
    pub fn write_value(&self, gid: usize) -> u32 {
        let addr = self.flat[gid].addr().expect("write has an address");
        let ws = self.writes_to(addr);
        ws.iter()
            .position(|&w| w == gid)
            .expect("gid is a write to addr") as u32
            + 1
    }

    // -------------------------------------------------------------------
    // Static relations (fully determined by the program text)
    // -------------------------------------------------------------------

    /// Program order: strictly earlier in the same thread. (Transitive; the
    /// paper keeps po non-transitive for display only.)
    pub fn po(&self) -> Rel {
        let n = self.num_events();
        let mut r = Rel::new(n);
        for i in 0..n {
            for j in 0..n {
                if self.thread_of[i] == self.thread_of[j] && self.index_of[i] < self.index_of[j] {
                    r.add(i, j);
                }
            }
        }
        r
    }

    /// Same-address pairs among memory accesses (reflexive on accesses).
    pub fn same_addr(&self) -> Rel {
        let n = self.num_events();
        let mut r = Rel::new(n);
        for i in 0..n {
            for j in 0..n {
                if let (Some(a), Some(b)) = (self.flat[i].addr(), self.flat[j].addr()) {
                    if a == b {
                        r.add(i, j);
                    }
                }
            }
        }
        r
    }

    /// `po_loc`: program order restricted to same-address accesses.
    pub fn po_loc(&self) -> Rel {
        self.po().intersect(&self.same_addr())
    }

    /// Dependency edges of the given kinds, as a relation.
    pub fn dep_rel(&self, kinds: &[DepKind]) -> Rel {
        let mut r = Rel::new(self.num_events());
        for d in &self.deps {
            if kinds.contains(&d.kind) {
                r.add(self.gid(d.tid, d.from), self.gid(d.tid, d.to));
            }
        }
        r
    }

    /// The `rmw` relation: two-instruction pairs *and* single-instruction
    /// RMWs (which relate to themselves, read-part to write-part).
    pub fn rmw_rel(&self) -> Rel {
        let mut r = Rel::new(self.num_events());
        for p in &self.rmw_pairs {
            r.add(self.gid(p.tid, p.load), self.gid(p.tid, p.store));
        }
        for (g, i) in self.flat.iter().enumerate() {
            if matches!(i, Instr::Rmw { .. }) {
                r.add(g, g);
            }
        }
        r
    }

    /// Bitmask of read events.
    pub fn read_mask(&self) -> u64 {
        self.reads().iter().fold(0, |m, &g| m | 1 << g)
    }

    /// Bitmask of write events.
    pub fn write_mask(&self) -> u64 {
        self.writes().iter().fold(0, |m, &g| m | 1 << g)
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for (tid, t) in self.threads.iter().enumerate() {
            write!(f, "  T{tid}:")?;
            for i in t {
                write!(f, " {i};")?;
            }
            writeln!(f)?;
        }
        for d in &self.deps {
            writeln!(
                f,
                "  dep[{}] T{} {}->{}",
                d.kind.mnemonic(),
                d.tid,
                d.from,
                d.to
            )?;
        }
        for p in &self.rmw_pairs {
            writeln!(f, "  rmw T{} {}->{}", p.tid, p.load, p.store)?;
        }
        Ok(())
    }
}

/// The observable outcome of one execution: who each read read from, and the
/// final (coherence-maximal) write per address.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Outcome {
    /// For each read gid: `Some(write gid)` or `None` for the initial value.
    pub rf: BTreeMap<usize, Option<usize>>,
    /// For each address with at least one write: the final write's gid.
    pub finals: BTreeMap<Addr, usize>,
}

impl Outcome {
    /// An empty (fully unconstrained) outcome.
    pub fn empty() -> Outcome {
        Outcome {
            rf: BTreeMap::new(),
            finals: BTreeMap::new(),
        }
    }

    /// Builds a (possibly partial) outcome from rf entries (read gid →
    /// source write gid or `None` for initial) and final-write entries.
    pub fn of(
        rf: impl IntoIterator<Item = (usize, Option<usize>)>,
        finals: impl IntoIterator<Item = (Addr, usize)>,
    ) -> Outcome {
        Outcome {
            rf: rf.into_iter().collect(),
            finals: finals.into_iter().collect(),
        }
    }

    /// `true` if every constraint in this (possibly partial) outcome holds in
    /// the complete outcome `full`.
    ///
    /// Suites typically specify only the components the original authors
    /// wrote down (e.g. `r1=1 ∧ r2=0` with no final values); an outcome is
    /// *observable* if some allowed execution's full outcome matches it.
    pub fn matches(&self, full: &Outcome) -> bool {
        self.rf.iter().all(|(r, w)| full.rf.get(r) == Some(w))
            && self
                .finals
                .iter()
                .all(|(a, w)| full.finals.get(a) == Some(w))
    }

    /// Human-readable rendering like `(r0=1, r1=0, [x]=2)` against `test`.
    pub fn display(&self, test: &LitmusTest) -> String {
        let mut parts = Vec::new();
        for (i, (&read, &src)) in self.rf.iter().enumerate() {
            let val = src.map(|w| test.write_value(w)).unwrap_or(0);
            let addr = test.instr(read).addr().expect("reads have addresses");
            parts.push(format!("r{i}:[{addr}]={val}"));
        }
        for (&addr, &w) in &self.finals {
            parts.push(format!("[{addr}]={}", test.write_value(w)));
        }
        format!("({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FenceKind, MemOrder};

    /// The message-passing test of the paper's Figure 1.
    pub(crate) fn mp_acq_rel() -> LitmusTest {
        LitmusTest::new(
            "MP",
            vec![
                vec![Instr::store(0), Instr::store_ord(1, MemOrder::Release)],
                vec![Instr::load_ord(1, MemOrder::Acquire), Instr::load(0)],
            ],
        )
    }

    #[test]
    fn flattening_and_ids() {
        let t = mp_acq_rel();
        assert_eq!(t.num_events(), 4);
        assert_eq!(t.num_threads(), 2);
        assert_eq!(t.gid(1, 0), 2);
        assert_eq!(t.thread_of(3), 1);
        assert_eq!(t.index_of(3), 1);
        assert_eq!(t.reads(), vec![2, 3]);
        assert_eq!(t.writes(), vec![0, 1]);
    }

    #[test]
    fn po_and_po_loc() {
        let t = mp_acq_rel();
        let po = t.po();
        assert!(po.contains(0, 1));
        assert!(po.contains(2, 3));
        assert!(!po.contains(1, 2));
        assert!(!po.contains(1, 0));
        // No same-address pair is po-adjacent in MP.
        assert!(t.po_loc().no_edges());
    }

    #[test]
    fn same_addr_ignores_fences() {
        let t = LitmusTest::new(
            "t",
            vec![vec![
                Instr::store(0),
                Instr::fence(FenceKind::Full),
                Instr::load(0),
            ]],
        );
        let sa = t.same_addr();
        assert!(sa.contains(0, 2));
        assert!(sa.contains(0, 0));
        assert!(!sa.contains(0, 1));
        assert!(!sa.contains(1, 1));
    }

    #[test]
    fn write_values_are_per_address_ranks() {
        let t = LitmusTest::new(
            "t",
            vec![
                vec![Instr::store(0), Instr::store(1)],
                vec![Instr::store(0)],
            ],
        );
        assert_eq!(t.write_value(0), 1);
        assert_eq!(t.write_value(1), 1);
        assert_eq!(t.write_value(2), 2);
    }

    #[test]
    fn deps_and_rmw() {
        let t = LitmusTest::new("t", vec![vec![Instr::load(0), Instr::store(1)]]).with_dep(
            0,
            0,
            1,
            DepKind::Data,
        );
        assert_eq!(t.dep_rel(&[DepKind::Data]).edge_count(), 1);
        assert!(t.dep_rel(&[DepKind::Addr]).no_edges());

        let t2 =
            LitmusTest::new("t2", vec![vec![Instr::load(0), Instr::store(0)]]).with_rmw_pair(0, 0);
        assert!(t2.rmw_rel().contains(0, 1));

        let t3 = LitmusTest::new("t3", vec![vec![Instr::rmw(0)]]);
        assert!(t3.rmw_rel().contains(0, 0));
        assert!(t3.instr(0).is_read() && t3.instr(0).is_write());
    }

    #[test]
    #[should_panic(expected = "rmw pair must target one address")]
    fn rmw_pair_address_mismatch_panics() {
        let _ =
            LitmusTest::new("bad", vec![vec![Instr::load(0), Instr::store(1)]]).with_rmw_pair(0, 0);
    }

    #[test]
    #[should_panic(expected = "dependencies originate at reads")]
    fn dep_from_store_panics() {
        let _ = LitmusTest::new("bad", vec![vec![Instr::store(0), Instr::store(1)]]).with_dep(
            0,
            0,
            1,
            DepKind::Addr,
        );
    }

    #[test]
    fn display_contains_threads() {
        let s = mp_acq_rel().to_string();
        assert!(s.contains("T0:"));
        assert!(s.contains("St.release [y]"));
        assert!(s.contains("Ld.acquire [y]"));
    }
}
