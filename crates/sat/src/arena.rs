//! Flat clause arena: the solver's local clause database as one `u32` slab.
//!
//! Every local clause — original or learnt — lives in a single `Vec<u32>`,
//! addressed by a `CRef` (the word offset of its header). The layout per
//! clause is three header words followed by the literal codes:
//!
//! ```text
//! word 0   size << 6 | flags        (LEARNT, IMPORTED, SKELETON, DELETED,
//!                                    RELOC, USED)
//! word 1   tier << 30 | lbd         (forwarding CRef while RELOC is set)
//! word 2   f32 activity bits
//! word 3.. literal codes (Lit::code), `size` of them
//! ```
//!
//! Compared to the previous `Vec<Clause>`-of-`Vec<Lit>` storage this buys
//! cache locality in the propagation hot loop (one pointer chase per clause
//! instead of two) and makes deletion cheap: freed blocks enter an
//! exact-size free list and are reused by later allocations, and once the
//! wasted-word ratio passes a threshold a relocation GC
//! ([`ClauseArena::reloc`]) compacts every live clause into a fresh slab.
//!
//! Invariants:
//!
//! * A `CRef` is always `< 1 << 30`: the solver reserves the two high bits
//!   for references into the shared [`crate::SharedCnf`] arena and the
//!   binary tag on their watchers. [`ClauseArena::alloc`] checks it in
//!   every build.
//! * Freed blocks are never relocated — the GC walks only live roots
//!   (watchers, reasons, the solver's clause lists), so a block on the
//!   free list is unreachable by construction.
//! * [`ClauseArena::remove_lit`] shrinks a clause in place; the stranded
//!   tail word is counted as waste and reclaimed by the next GC (the
//!   relocation copies only the live `size` words).

use crate::types::Lit;
use std::collections::HashMap;

/// Words of metadata preceding a clause's literals.
const HEADER: usize = 3;
/// Bits of word 0 reserved for flags; the clause size uses the rest.
const SIZE_SHIFT: u32 = 6;

const LEARNT: u32 = 1;
const IMPORTED: u32 = 2;
const SKELETON: u32 = 4;
const DELETED: u32 = 8;
const RELOC: u32 = 16;
const USED: u32 = 32;

/// Tier of a learnt clause under tiered retention (stored in the top two
/// bits of header word 1): `CORE` clauses (LBD ≤ 2) are kept forever,
/// `MID` clauses (LBD ≤ 6) survive reductions but are demoted to `LOCAL`
/// when unused between two reductions, and `LOCAL` clauses are the
/// activity-sorted deletion pool.
pub(crate) const TIER_CORE: u32 = 0;
pub(crate) const TIER_MID: u32 = 1;
pub(crate) const TIER_LOCAL: u32 = 2;

const LBD_MASK: u32 = (1 << 30) - 1;

/// The flat clause slab plus its free list and waste accounting.
#[derive(Debug, Default)]
pub(crate) struct ClauseArena {
    data: Vec<u32>,
    /// Words belonging to no live clause: freed blocks and shrunk tails.
    wasted: usize,
    /// Total literals across live (allocated, non-freed) clauses.
    live_lits: usize,
    /// Freed blocks by exact total word size.
    free: HashMap<u32, Vec<u32>>,
}

impl ClauseArena {
    pub(crate) fn with_capacity(words: usize) -> ClauseArena {
        ClauseArena {
            data: Vec::with_capacity(words),
            ..ClauseArena::default()
        }
    }

    /// Allocates a clause, reusing an exact-size freed block when one is
    /// available. The caller sets LBD/tier/flags afterwards as needed.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2, "unit clauses never enter the arena");
        let total = (HEADER + lits.len()) as u32;
        let cref = match self.free.get_mut(&total).and_then(Vec::pop) {
            Some(cref) => {
                self.wasted -= total as usize;
                cref
            }
            None => {
                let cref = self.data.len() as u32;
                self.data.resize(self.data.len() + total as usize, 0);
                cref
            }
        };
        assert!(
            (cref as u64 + total as u64) < (1 << 30),
            "local clause arena overflow"
        );
        let base = cref as usize;
        self.data[base] = ((lits.len() as u32) << SIZE_SHIFT) | if learnt { LEARNT } else { 0 };
        self.data[base + 1] = 0;
        self.data[base + 2] = 0f32.to_bits();
        for (j, &l) in lits.iter().enumerate() {
            self.data[base + HEADER + j] = l.0;
        }
        self.live_lits += lits.len();
        cref
    }

    /// Returns a clause's block to the free list. The caller must have
    /// detached every watcher and reason referencing it first.
    pub(crate) fn free(&mut self, cref: u32) {
        let size = self.len(cref);
        let total = (HEADER + size) as u32;
        self.wasted += total as usize;
        self.live_lits -= size;
        // Poison the header so a stale reference trips debug assertions.
        self.data[cref as usize] = DELETED;
        self.free.entry(total).or_default().push(cref);
    }

    #[inline]
    pub(crate) fn len(&self, cref: u32) -> usize {
        (self.data[cref as usize] >> SIZE_SHIFT) as usize
    }

    #[inline]
    pub(crate) fn lit(&self, cref: u32, j: usize) -> Lit {
        debug_assert!(j < self.len(cref));
        Lit(self.data[cref as usize + HEADER + j])
    }

    #[inline]
    pub(crate) fn swap_lits(&mut self, cref: u32, i: usize, j: usize) {
        let base = cref as usize + HEADER;
        self.data.swap(base + i, base + j);
    }

    pub(crate) fn iter_lits(&self, cref: u32) -> impl Iterator<Item = Lit> + '_ {
        let base = cref as usize + HEADER;
        self.data[base..base + self.len(cref)]
            .iter()
            .map(|&w| Lit(w))
    }

    pub(crate) fn copy_lits(&self, cref: u32) -> Vec<Lit> {
        self.iter_lits(cref).collect()
    }

    /// Removes the literal at position `j` by swapping the tail literal in
    /// (clause order is irrelevant past the two watch positions). The tail
    /// word becomes waste until the next GC.
    pub(crate) fn remove_lit(&mut self, cref: u32, j: usize) {
        let size = self.len(cref);
        debug_assert!(size > 2 && j < size);
        self.swap_lits(cref, j, size - 1);
        let base = cref as usize;
        self.data[base] =
            (((size - 1) as u32) << SIZE_SHIFT) | (self.data[base] & ((1 << SIZE_SHIFT) - 1));
        self.wasted += 1;
        self.live_lits -= 1;
    }

    #[inline]
    fn flag(&self, cref: u32, f: u32) -> bool {
        self.data[cref as usize] & f != 0
    }

    #[inline]
    fn set_flag(&mut self, cref: u32, f: u32, on: bool) {
        if on {
            self.data[cref as usize] |= f;
        } else {
            self.data[cref as usize] &= !f;
        }
    }

    #[inline]
    pub(crate) fn is_learnt(&self, cref: u32) -> bool {
        self.flag(cref, LEARNT)
    }

    #[inline]
    pub(crate) fn is_imported(&self, cref: u32) -> bool {
        self.flag(cref, IMPORTED)
    }

    #[inline]
    pub(crate) fn set_imported(&mut self, cref: u32) {
        self.set_flag(cref, IMPORTED, true);
    }

    #[inline]
    pub(crate) fn is_skeleton(&self, cref: u32) -> bool {
        self.flag(cref, SKELETON)
    }

    #[inline]
    pub(crate) fn set_skeleton(&mut self, cref: u32, on: bool) {
        self.set_flag(cref, SKELETON, on);
    }

    /// The transient deletion mark used inside batch sweeps (reduce,
    /// simplify): set while the sweep filters its index lists, cleared by
    /// [`ClauseArena::free`]'s poisoning. Never observed by propagation.
    #[inline]
    pub(crate) fn is_deleted(&self, cref: u32) -> bool {
        self.flag(cref, DELETED)
    }

    #[inline]
    pub(crate) fn set_deleted(&mut self, cref: u32) {
        self.set_flag(cref, DELETED, true);
    }

    /// The glucose-style probation mark: set when the clause participates
    /// in conflict analysis, cleared at each reduction; a MID-tier clause
    /// without it is demoted.
    #[inline]
    pub(crate) fn is_used(&self, cref: u32) -> bool {
        self.flag(cref, USED)
    }

    #[inline]
    pub(crate) fn set_used(&mut self, cref: u32, on: bool) {
        self.set_flag(cref, USED, on);
    }

    #[inline]
    pub(crate) fn lbd(&self, cref: u32) -> u32 {
        self.data[cref as usize + 1] & LBD_MASK
    }

    #[inline]
    pub(crate) fn set_lbd(&mut self, cref: u32, lbd: u32) {
        let w = &mut self.data[cref as usize + 1];
        *w = (*w & !LBD_MASK) | lbd.min(LBD_MASK);
    }

    #[inline]
    pub(crate) fn tier(&self, cref: u32) -> u32 {
        self.data[cref as usize + 1] >> 30
    }

    #[inline]
    pub(crate) fn set_tier(&mut self, cref: u32, tier: u32) {
        let w = &mut self.data[cref as usize + 1];
        *w = (*w & LBD_MASK) | (tier << 30);
    }

    #[inline]
    pub(crate) fn activity(&self, cref: u32) -> f32 {
        f32::from_bits(self.data[cref as usize + 2])
    }

    #[inline]
    pub(crate) fn set_activity(&mut self, cref: u32, a: f32) {
        self.data[cref as usize + 2] = a.to_bits();
    }

    /// Relocates the clause at `cref` into `to`, returning its new CRef.
    /// Idempotent: the first call copies the live words and leaves a
    /// forwarding pointer behind (word 1, under the RELOC flag); later
    /// calls through other roots just follow it.
    pub(crate) fn reloc(&mut self, cref: u32, to: &mut ClauseArena) -> u32 {
        let base = cref as usize;
        let h = self.data[base];
        if h & RELOC != 0 {
            return self.data[base + 1];
        }
        let size = (h >> SIZE_SHIFT) as usize;
        let new = to.data.len() as u32;
        to.data
            .extend_from_slice(&self.data[base..base + HEADER + size]);
        to.live_lits += size;
        self.data[base] = h | RELOC;
        self.data[base + 1] = new;
        new
    }

    /// Whether a relocation GC is worth running: at least 20% of the slab
    /// is waste and the slab is big enough for the pass to matter.
    pub(crate) fn should_gc(&self) -> bool {
        self.data.len() >= 1024 && self.wasted * 5 >= self.data.len()
    }

    /// Slab size in words (live + waste).
    pub(crate) fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Words belonging to no live clause (freed blocks + shrunk tails).
    pub(crate) fn wasted(&self) -> usize {
        self.wasted
    }

    /// Total literals across live clauses — the simplify cadence budget.
    pub(crate) fn live_lits(&self) -> usize {
        self.live_lits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(code: u32) -> Lit {
        Lit(code)
    }

    #[test]
    fn alloc_roundtrips_literals_and_flags() {
        let mut ca = ClauseArena::default();
        let ls: Vec<Lit> = (0..5).map(|i| lit(i * 2)).collect();
        let c = ca.alloc(&ls, true);
        assert_eq!(ca.len(c), 5);
        assert_eq!(ca.copy_lits(c), ls);
        assert!(ca.is_learnt(c));
        assert!(!ca.is_imported(c) && !ca.is_skeleton(c) && !ca.is_deleted(c));
        ca.set_imported(c);
        ca.set_skeleton(c, true);
        ca.set_lbd(c, 7);
        ca.set_tier(c, TIER_LOCAL);
        ca.set_activity(c, 2.5);
        assert!(ca.is_imported(c) && ca.is_skeleton(c));
        assert_eq!(ca.lbd(c), 7);
        assert_eq!(ca.tier(c), TIER_LOCAL);
        assert_eq!(ca.activity(c), 2.5);
        // Tier and LBD live in one word without clobbering each other.
        ca.set_lbd(c, 3);
        assert_eq!(ca.tier(c), TIER_LOCAL);
        ca.set_tier(c, TIER_CORE);
        assert_eq!(ca.lbd(c), 3);
    }

    #[test]
    fn free_list_reuses_exact_size_blocks() {
        let mut ca = ClauseArena::default();
        let a = ca.alloc(&[lit(0), lit(2), lit(4)], false);
        let b = ca.alloc(&[lit(1), lit(3)], false);
        let before = ca.data_len();
        ca.free(a);
        assert_eq!(ca.live_lits(), 2);
        // Same size: the freed block is reused, the slab does not grow.
        let c = ca.alloc(&[lit(6), lit(8), lit(10)], true);
        assert_eq!(c, a);
        assert_eq!(ca.data_len(), before);
        assert_eq!(ca.copy_lits(c), vec![lit(6), lit(8), lit(10)]);
        assert!(ca.is_learnt(c), "reused block takes the new clause's flags");
        assert_eq!(ca.lbd(c), 0);
        assert_eq!(ca.activity(c), 0.0);
        // Different size: no reuse, the slab grows.
        ca.free(b);
        let d = ca.alloc(&[lit(1), lit(3), lit(5), lit(7)], false);
        assert!(d as usize >= before);
    }

    #[test]
    fn remove_lit_shrinks_and_counts_waste() {
        let mut ca = ClauseArena::default();
        let c = ca.alloc(&[lit(0), lit(2), lit(4), lit(6)], true);
        ca.remove_lit(c, 2);
        assert_eq!(ca.len(c), 3);
        assert_eq!(ca.copy_lits(c), vec![lit(0), lit(2), lit(6)]);
        assert_eq!(ca.live_lits(), 3);
        ca.remove_lit(c, 0);
        assert_eq!(ca.copy_lits(c), vec![lit(6), lit(2)]);
    }

    #[test]
    fn reloc_is_idempotent_and_compacts() {
        let mut ca = ClauseArena::default();
        let a = ca.alloc(&[lit(0), lit(2), lit(4)], false);
        let b = ca.alloc(&[lit(1), lit(3)], true);
        ca.set_lbd(b, 2);
        ca.set_tier(b, TIER_MID);
        ca.set_activity(b, 1.5);
        ca.free(a);
        let mut to = ClauseArena::default();
        let nb = ca.reloc(b, &mut to);
        assert_eq!(ca.reloc(b, &mut to), nb, "second reloc follows the forward");
        assert_eq!(to.copy_lits(nb), vec![lit(1), lit(3)]);
        assert!(to.is_learnt(nb));
        assert_eq!(to.lbd(nb), 2);
        assert_eq!(to.tier(nb), TIER_MID);
        assert_eq!(to.activity(nb), 1.5);
        assert_eq!(to.live_lits(), 2);
        assert!(to.data_len() < ca.data_len(), "the freed block is dropped");
    }

    #[test]
    fn should_gc_tracks_waste_ratio() {
        let mut ca = ClauseArena::default();
        let mut crefs = Vec::new();
        for i in 0..200u32 {
            crefs.push(ca.alloc(&[lit(i * 2), lit(i * 2 + 1), lit((i * 2 + 2) % 400)], false));
        }
        assert!(!ca.should_gc());
        for &c in &crefs[..80] {
            ca.free(c);
        }
        assert!(ca.should_gc(), "40% waste on a big-enough slab");
    }

    /// Randomized alloc/free/shrink rounds cross-checked against a
    /// Vec-backed model of the same clause set.
    #[test]
    fn random_ops_match_vec_model() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut ca = ClauseArena::default();
        // (cref, model lits, learnt, lbd)
        let mut live: Vec<(u32, Vec<Lit>, bool, u32)> = Vec::new();
        for _ in 0..2000 {
            match next() % 4 {
                0 | 1 => {
                    let n = 2 + (next() % 6) as usize;
                    let ls: Vec<Lit> = (0..n).map(|_| lit(next() % 64)).collect();
                    let learnt = next() % 2 == 0;
                    let c = ca.alloc(&ls, learnt);
                    let lbd = next() % 10;
                    ca.set_lbd(c, lbd);
                    live.push((c, ls, learnt, lbd));
                }
                2 if !live.is_empty() => {
                    let i = (next() as usize) % live.len();
                    let (c, _, _, _) = live.swap_remove(i);
                    ca.free(c);
                }
                3 if !live.is_empty() => {
                    let i = (next() as usize) % live.len();
                    if live[i].1.len() > 2 {
                        let j = (next() as usize) % live[i].1.len();
                        ca.remove_lit(live[i].0, j);
                        let last = live[i].1.len() - 1;
                        live[i].1.swap(j, last);
                        live[i].1.pop();
                    }
                }
                _ => {}
            }
            // Occasionally compact and remap the model's crefs.
            if ca.should_gc() {
                let mut to = ClauseArena::default();
                for e in &mut live {
                    e.0 = ca.reloc(e.0, &mut to);
                }
                ca = to;
            }
        }
        let expect_lits: usize = live.iter().map(|e| e.1.len()).sum();
        assert_eq!(ca.live_lits(), expect_lits);
        for (c, ls, learnt, lbd) in live {
            assert_eq!(ca.copy_lits(c), ls);
            assert_eq!(ca.is_learnt(c), learnt);
            assert_eq!(ca.lbd(c), lbd);
        }
    }
}
