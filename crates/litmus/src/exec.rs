//! Candidate executions of a litmus test, enumerated explicitly.
//!
//! A *candidate execution* fixes each read's source write (or the initial
//! value) and a coherence order per address. Whether a candidate is *allowed*
//! is the memory model's decision (`litsynth-models`); this module only
//! enumerates the well-formed candidates — the ground truth against which the
//! SAT-based synthesis is cross-validated.

use crate::event::Addr;
use crate::rel::Rel;
use crate::test::{LitmusTest, Outcome};
use std::collections::BTreeMap;

/// One candidate execution: a reads-from choice plus per-address coherence
/// orders.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Execution {
    /// For each read gid (sorted): the source write gid, or `None` for the
    /// initial value.
    pub rf: BTreeMap<usize, Option<usize>>,
    /// For each address with ≥1 write: write gids in coherence order.
    pub co: BTreeMap<Addr, Vec<usize>>,
}

impl Execution {
    /// Enumerates every candidate execution of `test`.
    ///
    /// Materializes [`Execution::iter`]; callers that can stop early (first
    /// witness found) should iterate instead of collecting.
    pub fn enumerate(test: &LitmusTest) -> Vec<Execution> {
        Execution::iter(test).collect()
    }

    /// Streams every candidate execution of `test` without materializing
    /// the (factorial-sized) candidate set.
    ///
    /// Each read may source from any same-address write (including po-later
    /// ones — filtering those is the `sc_per_loc` axiom's job) or the initial
    /// value; each address's writes may be coherence-ordered in any
    /// permutation. The order matches the historical `enumerate`: coherence
    /// permutations vary fastest (last address innermost, lexicographic by
    /// gid), then reads-from choices (last read innermost, initial value
    /// first then writes in gid order).
    pub fn iter(test: &LitmusTest) -> ExecutionIter {
        let reads = test.reads();
        let mut sources: Vec<(usize, Vec<Option<usize>>)> = Vec::with_capacity(reads.len());
        for &r in &reads {
            let addr = test.instr(r).addr().expect("read has address");
            let mut srcs: Vec<Option<usize>> = vec![None];
            for w in test.writes_to(addr) {
                if w != r {
                    srcs.push(Some(w));
                }
            }
            sources.push((r, srcs));
        }
        let perms: Vec<(Addr, Vec<usize>)> = test
            .addresses()
            .into_iter()
            .filter_map(|a| {
                let ws = test.writes_to(a); // gid order = lexicographic start
                (!ws.is_empty()).then_some((a, ws))
            })
            .collect();
        ExecutionIter {
            rf_idx: vec![0; sources.len()],
            sources,
            perms,
            done: false,
        }
    }

    /// The observable outcome of this execution.
    pub fn outcome(&self) -> Outcome {
        Outcome {
            rf: self.rf.clone(),
            finals: self
                .co
                .iter()
                .map(|(&a, order)| (a, *order.last().expect("non-empty co")))
                .collect(),
        }
    }

    /// The `rf` relation (write → read edges; initial reads have none).
    pub fn rf_rel(&self, n: usize) -> Rel {
        let mut r = Rel::new(n);
        for (&read, &src) in &self.rf {
            if let Some(w) = src {
                r.add(w, read);
            }
        }
        r
    }

    /// The `co` relation: transitive same-address write order.
    pub fn co_rel(&self, n: usize) -> Rel {
        let mut r = Rel::new(n);
        for order in self.co.values() {
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    r.add(order[i], order[j]);
                }
            }
        }
        r
    }

    /// The `fr` (from-reads) relation, accounting for implicit initial
    /// writes: a read of the initial value reads-before *every* write to its
    /// address; a read of write `w` reads-before every write co-after `w`.
    pub fn fr_rel(&self, test: &LitmusTest) -> Rel {
        let n = test.num_events();
        let mut r = Rel::new(n);
        for (&read, &src) in &self.rf {
            let addr = test.instr(read).addr().expect("read has address");
            let order = match self.co.get(&addr) {
                Some(o) => o.as_slice(),
                None => continue,
            };
            let after: &[usize] = match src {
                None => order,
                Some(w) => {
                    let pos = order.iter().position(|&x| x == w).expect("rf source in co");
                    &order[pos + 1..]
                }
            };
            for &w in after {
                if w != read {
                    r.add(read, w);
                }
            }
        }
        r
    }
}

/// Streaming candidate-execution enumerator: an odometer over per-read
/// reads-from choices and per-address coherence permutations. Holds O(events)
/// state regardless of how many candidates exist.
pub struct ExecutionIter {
    /// Per read: (gid, source choices — `None` first, then writes in gid
    /// order).
    sources: Vec<(usize, Vec<Option<usize>>)>,
    /// Current source index per read.
    rf_idx: Vec<usize>,
    /// Per address with ≥1 write: current coherence permutation, advanced
    /// lexicographically in place.
    perms: Vec<(Addr, Vec<usize>)>,
    done: bool,
}

impl Iterator for ExecutionIter {
    type Item = Execution;

    fn next(&mut self) -> Option<Execution> {
        if self.done {
            return None;
        }
        let current = Execution {
            rf: self
                .sources
                .iter()
                .zip(&self.rf_idx)
                .map(|((r, srcs), &i)| (*r, srcs[i]))
                .collect(),
            co: self.perms.iter().map(|(a, p)| (*a, p.clone())).collect(),
        };
        // Advance: co digits first (last address fastest), then rf digits
        // (last read fastest) — the historical nesting order.
        let mut carried = true;
        for (_, p) in self.perms.iter_mut().rev() {
            if next_permutation(p) {
                carried = false;
                break;
            }
            p.sort_unstable(); // wrap to the lexicographic minimum
        }
        if carried {
            for (i, (_, srcs)) in self.rf_idx.iter_mut().zip(&self.sources).rev() {
                *i += 1;
                if *i < srcs.len() {
                    carried = false;
                    break;
                }
                *i = 0;
            }
        }
        self.done = carried;
        Some(current)
    }
}

/// Advances `items` to its lexicographic successor in place; `false` (and
/// leaves the maximal permutation) when already at the last one.
fn next_permutation(items: &mut [usize]) -> bool {
    if items.len() < 2 {
        return false;
    }
    let Some(i) = (0..items.len() - 1)
        .rev()
        .find(|&i| items[i] < items[i + 1])
    else {
        return false;
    };
    let j = (i + 1..items.len())
        .rev()
        .find(|&j| items[j] > items[i])
        .expect("successor exists right of pivot");
    items.swap(i, j);
    items[i + 1..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Instr, MemOrder};

    fn mp() -> LitmusTest {
        LitmusTest::new(
            "MP",
            vec![
                vec![Instr::store(0), Instr::store_ord(1, MemOrder::Release)],
                vec![Instr::load_ord(1, MemOrder::Acquire), Instr::load(0)],
            ],
        )
    }

    #[test]
    fn enumeration_count_mp() {
        // Each read: 1 same-address write + initial = 2 choices; co orders
        // are singletons. 2 * 2 = 4 candidates.
        let t = mp();
        let execs = Execution::enumerate(&t);
        assert_eq!(execs.len(), 4);
        // All outcomes distinct.
        let mut outcomes: Vec<_> = execs.iter().map(|e| e.outcome()).collect();
        outcomes.sort();
        outcomes.dedup();
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn enumeration_count_two_writes_same_addr() {
        // CoRW-ish: one read of x, two writes to x (one same thread).
        // rf choices: init, w1, w2 → 3; co: 2 permutations. Total 6.
        let t = LitmusTest::new(
            "CoRW",
            vec![vec![Instr::load(0), Instr::store(0)], vec![Instr::store(0)]],
        );
        assert_eq!(Execution::enumerate(&t).len(), 6);
    }

    #[test]
    fn fr_with_initial_read() {
        let t = mp();
        // Read of x (gid 3) reads initial; write to x is gid 0.
        let mut rf: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        rf.insert(2, Some(1));
        rf.insert(3, None);
        let e = Execution {
            rf,
            co: BTreeMap::from([(Addr(0), vec![0]), (Addr(1), vec![1])]),
        };
        let fr = e.fr_rel(&t);
        assert!(fr.contains(3, 0), "initial read frs to the write");
        assert!(!fr.contains(2, 1), "read of the final write has no fr");
    }

    #[test]
    fn fr_with_co_chain() {
        // One read + two writes to x in another thread.
        let t = LitmusTest::new(
            "t",
            vec![vec![Instr::load(0)], vec![Instr::store(0), Instr::store(0)]],
        );
        let e = Execution {
            rf: BTreeMap::from([(0usize, Some(1usize))]),
            co: BTreeMap::from([(Addr(0), vec![1, 2])]),
        };
        let fr = e.fr_rel(&t);
        assert!(fr.contains(0, 2));
        assert!(!fr.contains(0, 1));
    }

    #[test]
    fn outcome_finals_are_co_max() {
        let _two_writes = LitmusTest::new("t", vec![vec![Instr::store(0)], vec![Instr::store(0)]]);
        let e = Execution {
            rf: BTreeMap::new(),
            co: BTreeMap::from([(Addr(0), vec![1, 0])]),
        };
        assert_eq!(e.outcome().finals[&Addr(0)], 0);
    }

    #[test]
    fn rmw_instruction_does_not_read_itself() {
        let t = LitmusTest::new("t", vec![vec![Instr::rmw(0)], vec![Instr::store(0)]]);
        for e in Execution::enumerate(&t) {
            assert_ne!(e.rf[&0], Some(0), "an RMW cannot read its own write");
        }
    }

    #[test]
    fn next_permutation_is_lexicographic() {
        let mut p = vec![1, 2, 3];
        let mut seen = vec![p.clone()];
        while next_permutation(&mut p) {
            seen.push(p.clone());
        }
        assert_eq!(seen.len(), 6);
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "visited in lexicographic order");
        assert!(!next_permutation(&mut []));
        assert!(!next_permutation(&mut [7]));
    }

    /// The pre-iterator enumeration (materializing cartesian products), kept
    /// as the reference the streaming odometer must reproduce exactly —
    /// same candidates, same order.
    fn naive_enumerate(test: &LitmusTest) -> Vec<Execution> {
        fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
            if items.is_empty() {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for (i, &x) in items.iter().enumerate() {
                let mut rest: Vec<usize> = items.to_vec();
                rest.remove(i);
                for mut p in permutations(&rest) {
                    p.insert(0, x);
                    out.push(p);
                }
            }
            out
        }
        let mut rf_choices: Vec<BTreeMap<usize, Option<usize>>> = vec![BTreeMap::new()];
        for &r in &test.reads() {
            let addr = test.instr(r).addr().expect("read has address");
            let mut sources: Vec<Option<usize>> = vec![None];
            for w in test.writes_to(addr) {
                if w != r {
                    sources.push(Some(w));
                }
            }
            let mut next = Vec::new();
            for base in &rf_choices {
                for &s in &sources {
                    let mut m = base.clone();
                    m.insert(r, s);
                    next.push(m);
                }
            }
            rf_choices = next;
        }
        let mut co_choices: Vec<BTreeMap<Addr, Vec<usize>>> = vec![BTreeMap::new()];
        for &a in &test.addresses() {
            let ws = test.writes_to(a);
            if ws.is_empty() {
                continue;
            }
            let mut next = Vec::new();
            for base in &co_choices {
                for p in permutations(&ws) {
                    let mut m = base.clone();
                    m.insert(a, p);
                    next.push(m);
                }
            }
            co_choices = next;
        }
        let mut out = Vec::new();
        for rf in &rf_choices {
            for co in &co_choices {
                out.push(Execution {
                    rf: rf.clone(),
                    co: co.clone(),
                });
            }
        }
        out
    }

    #[test]
    fn streaming_iterator_matches_naive_enumeration_exactly() {
        let tests = vec![
            mp(),
            LitmusTest::new(
                "CoRW",
                vec![vec![Instr::load(0), Instr::store(0)], vec![Instr::store(0)]],
            ),
            LitmusTest::new("rmw", vec![vec![Instr::rmw(0)], vec![Instr::store(0)]]),
            LitmusTest::new(
                "3w1r",
                vec![
                    vec![Instr::store(0), Instr::store(0)],
                    vec![Instr::store(0), Instr::load(0)],
                    vec![Instr::load(1)],
                ],
            ),
            LitmusTest::new("no_events_read", vec![vec![Instr::load(0)]]),
        ];
        for t in tests {
            let naive = naive_enumerate(&t);
            let streamed: Vec<Execution> = Execution::iter(&t).collect();
            assert_eq!(
                streamed,
                naive,
                "{}: same candidates in the same order",
                t.name()
            );
        }
    }

    #[test]
    fn streaming_iterator_is_lazy() {
        // 3 writes + 2 reads to one address: the full set is 3! × (4 × 4)
        // candidates, but taking one costs one.
        let t = LitmusTest::new(
            "big",
            vec![
                vec![Instr::store(0), Instr::store(0), Instr::store(0)],
                vec![Instr::load(0), Instr::load(0)],
            ],
        );
        let first = Execution::iter(&t).next().expect("nonempty");
        assert_eq!(first.rf[&3], None);
        assert_eq!(first.rf[&4], None);
        assert_eq!(first.co[&Addr(0)], vec![0, 1, 2]);
        assert_eq!(Execution::iter(&t).count(), 6 * 16);
    }
}
