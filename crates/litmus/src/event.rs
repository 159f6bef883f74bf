//! Instruction-level vocabulary: memory orders, scopes, fences, dependencies.

use std::fmt;

/// A memory location, identified by a small dense index.
///
/// Display uses the conventional litmus names `x, y, z, …`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Addr(pub u8);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: &[u8] = b"xyzwabcd";
        if (self.0 as usize) < NAMES.len() {
            write!(f, "{}", NAMES[self.0 as usize] as char)
        } else {
            write!(f, "m{}", self.0)
        }
    }
}

/// Memory-order annotation ladder, ordered by decreasing strength
/// (paper Table 1). Hardware models use the subsets that apply: ARMv8/SCC
/// use `SeqCst`/`Acquire`/`Release`/`Relaxed`; TSO and Power accesses are
/// all `Relaxed` (their ordering comes from fences and dependencies).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemOrder {
    /// `memory_order_relaxed`: no ordering beyond coherence.
    Relaxed,
    /// `memory_order_consume`: dependency-ordered before.
    Consume,
    /// `memory_order_acquire` (loads / RMWs).
    Acquire,
    /// `memory_order_release` (stores / RMWs).
    Release,
    /// `memory_order_acq_rel` (RMWs).
    AcqRel,
    /// `memory_order_seq_cst`.
    SeqCst,
}

impl MemOrder {
    /// Short annotation used by the pretty printer (empty for relaxed).
    pub fn suffix(self) -> &'static str {
        match self {
            MemOrder::Relaxed => "",
            MemOrder::Consume => ".consume",
            MemOrder::Acquire => ".acquire",
            MemOrder::Release => ".release",
            MemOrder::AcqRel => ".acq_rel",
            MemOrder::SeqCst => ".sc",
        }
    }

    /// The orders one DMO (demote-memory-order) step can produce from this
    /// one, per the paper's §3.2: e.g. `acq_rel` demotes to either `acquire`
    /// or `release`.
    pub fn demotions(self) -> &'static [MemOrder] {
        match self {
            MemOrder::Relaxed => &[],
            MemOrder::Consume => &[MemOrder::Relaxed],
            MemOrder::Acquire => &[MemOrder::Consume],
            MemOrder::Release => &[MemOrder::Relaxed],
            MemOrder::AcqRel => &[MemOrder::Acquire, MemOrder::Release],
            MemOrder::SeqCst => &[MemOrder::AcqRel],
        }
    }
}

/// Synchronization scope (OpenCL/HSA-style). Only models with scoped
/// synchronization (our C11 fragment ignores it; SCC/TSO/Power ignore it)
/// consult this; `System` is the strongest and the default.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Scope {
    /// A single work-item / thread.
    WorkItem,
    /// A work-group / CTA.
    WorkGroup,
    /// The whole device.
    Device,
    /// The whole system (default; unscoped models behave as if all
    /// instructions were `System`-scoped).
    System,
}

impl Scope {
    /// One demotion step (DS relaxation), or `None` at the bottom.
    pub fn demotion(self) -> Option<Scope> {
        match self {
            Scope::System => Some(Scope::Device),
            Scope::Device => Some(Scope::WorkGroup),
            Scope::WorkGroup => Some(Scope::WorkItem),
            Scope::WorkItem => None,
        }
    }
}

/// Fence flavor. Each model interprets the subset it defines and treats the
/// rest as ill-formed (the synthesis never emits them for that model).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FenceKind {
    /// Full/heavyweight fence: x86 `mfence`, Power `sync`, ARM `dmb`,
    /// SCC `FenceSC`.
    Full,
    /// Power `lwsync` — the lightweight fence (no equivalent on ARMv7,
    /// which is exactly how our ARMv7 variant differs from Power, §6.2).
    Lightweight,
    /// SCC `FenceAcqRel` / C11 `atomic_thread_fence(memory_order_acq_rel)`.
    AcqRel,
    /// C11 acquire fence.
    Acquire,
    /// C11 release fence.
    Release,
}

impl FenceKind {
    /// Printable mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FenceKind::Full => "FenceSC",
            FenceKind::Lightweight => "lwsync",
            FenceKind::AcqRel => "FenceAcqRel",
            FenceKind::Acquire => "FenceAcq",
            FenceKind::Release => "FenceRel",
        }
    }
}

/// Dependency kinds used by Power/ARM (`RD` removes these).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DepKind {
    /// Address dependency.
    Addr,
    /// Data dependency (into a store's value).
    Data,
    /// Control dependency.
    Ctrl,
    /// Control + isync/isb.
    CtrlIsync,
}

impl DepKind {
    /// Printable mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DepKind::Addr => "addr",
            DepKind::Data => "data",
            DepKind::Ctrl => "ctrl",
            DepKind::CtrlIsync => "ctrlisync",
        }
    }
}

/// One instruction in a litmus-test thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Instr {
    /// A load from `addr`.
    Load {
        /// Location read.
        addr: Addr,
        /// Ordering annotation.
        order: MemOrder,
        /// Synchronization scope.
        scope: Scope,
    },
    /// A store to `addr`. The value is implicit: every store in a test writes
    /// a distinct non-zero value (the store's 1-based per-address index), the
    /// standard litmus convention.
    Store {
        /// Location written.
        addr: Addr,
        /// Ordering annotation.
        order: MemOrder,
        /// Synchronization scope.
        scope: Scope,
    },
    /// A single-instruction atomic read-modify-write (reads and writes
    /// `addr` atomically). Models that formalize RMWs as load/store pairs
    /// use two instructions linked by an `rmw` edge instead — see
    /// [`crate::LitmusTest::rmw_pairs`].
    Rmw {
        /// Location updated.
        addr: Addr,
        /// Ordering annotation.
        order: MemOrder,
        /// Synchronization scope.
        scope: Scope,
    },
    /// A fence.
    Fence {
        /// Fence flavor.
        kind: FenceKind,
        /// Synchronization scope.
        scope: Scope,
    },
}

impl Instr {
    /// Plain relaxed load.
    pub fn load(addr: u8) -> Instr {
        Instr::Load {
            addr: Addr(addr),
            order: MemOrder::Relaxed,
            scope: Scope::System,
        }
    }

    /// Plain relaxed store.
    pub fn store(addr: u8) -> Instr {
        Instr::Store {
            addr: Addr(addr),
            order: MemOrder::Relaxed,
            scope: Scope::System,
        }
    }

    /// Load with an explicit order.
    pub fn load_ord(addr: u8, order: MemOrder) -> Instr {
        Instr::Load {
            addr: Addr(addr),
            order,
            scope: Scope::System,
        }
    }

    /// Store with an explicit order.
    pub fn store_ord(addr: u8, order: MemOrder) -> Instr {
        Instr::Store {
            addr: Addr(addr),
            order,
            scope: Scope::System,
        }
    }

    /// Atomic RMW (relaxed unless overridden).
    pub fn rmw(addr: u8) -> Instr {
        Instr::Rmw {
            addr: Addr(addr),
            order: MemOrder::Relaxed,
            scope: Scope::System,
        }
    }

    /// A fence of the given kind.
    pub fn fence(kind: FenceKind) -> Instr {
        Instr::Fence {
            kind,
            scope: Scope::System,
        }
    }

    /// The address accessed, if this is a memory access.
    pub fn addr(&self) -> Option<Addr> {
        match *self {
            Instr::Load { addr, .. } | Instr::Store { addr, .. } | Instr::Rmw { addr, .. } => {
                Some(addr)
            }
            Instr::Fence { .. } => None,
        }
    }

    /// Rewrites the address (used by canonicalization).
    pub fn with_addr(self, addr: Addr) -> Instr {
        match self {
            Instr::Load { order, scope, .. } => Instr::Load { addr, order, scope },
            Instr::Store { order, scope, .. } => Instr::Store { addr, order, scope },
            Instr::Rmw { order, scope, .. } => Instr::Rmw { addr, order, scope },
            f @ Instr::Fence { .. } => f,
        }
    }

    /// The memory-order annotation, if any.
    pub fn order(&self) -> Option<MemOrder> {
        match *self {
            Instr::Load { order, .. } | Instr::Store { order, .. } | Instr::Rmw { order, .. } => {
                Some(order)
            }
            Instr::Fence { .. } => None,
        }
    }

    /// Rewrites the memory order (used by DMO).
    pub fn with_order(self, order: MemOrder) -> Instr {
        match self {
            Instr::Load { addr, scope, .. } => Instr::Load { addr, order, scope },
            Instr::Store { addr, scope, .. } => Instr::Store { addr, order, scope },
            Instr::Rmw { addr, scope, .. } => Instr::Rmw { addr, order, scope },
            f @ Instr::Fence { .. } => f,
        }
    }

    /// The scope annotation.
    pub fn scope(&self) -> Scope {
        match *self {
            Instr::Load { scope, .. }
            | Instr::Store { scope, .. }
            | Instr::Rmw { scope, .. }
            | Instr::Fence { scope, .. } => scope,
        }
    }

    /// `true` for loads and RMWs.
    pub fn is_read(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Rmw { .. })
    }

    /// `true` for stores and RMWs.
    pub fn is_write(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::Rmw { .. })
    }

    /// `true` for fences.
    pub fn is_fence(&self) -> bool {
        matches!(self, Instr::Fence { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Load { addr, order, .. } => write!(f, "Ld{} [{}]", order.suffix(), addr),
            Instr::Store { addr, order, .. } => write!(f, "St{} [{}]", order.suffix(), addr),
            Instr::Rmw { addr, order, .. } => write!(f, "RMW{} [{}]", order.suffix(), addr),
            Instr::Fence { kind, .. } => write!(f, "{}", kind.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_names() {
        assert_eq!(Addr(0).to_string(), "x");
        assert_eq!(Addr(1).to_string(), "y");
        assert_eq!(Addr(9).to_string(), "m9");
    }

    #[test]
    fn demotion_ladder() {
        assert_eq!(MemOrder::SeqCst.demotions(), &[MemOrder::AcqRel]);
        assert_eq!(
            MemOrder::AcqRel.demotions(),
            &[MemOrder::Acquire, MemOrder::Release]
        );
        assert!(MemOrder::Relaxed.demotions().is_empty());
        assert_eq!(Scope::System.demotion(), Some(Scope::Device));
        assert_eq!(Scope::WorkItem.demotion(), None);
    }

    #[test]
    fn instr_accessors() {
        let ld = Instr::load_ord(1, MemOrder::Acquire);
        assert!(ld.is_read());
        assert!(!ld.is_write());
        assert_eq!(ld.addr(), Some(Addr(1)));
        assert_eq!(ld.order(), Some(MemOrder::Acquire));
        let st = ld.with_addr(Addr(0));
        assert_eq!(st.addr(), Some(Addr(0)));
        assert_eq!(st.order(), Some(MemOrder::Acquire));
        let rmw = Instr::rmw(0);
        assert!(rmw.is_read() && rmw.is_write());
        let fence = Instr::fence(FenceKind::Full);
        assert!(fence.is_fence());
        assert_eq!(fence.addr(), None);
        assert_eq!(fence.order(), None);
    }

    #[test]
    fn instr_display() {
        assert_eq!(Instr::load(0).to_string(), "Ld [x]");
        assert_eq!(
            Instr::store_ord(1, MemOrder::Release).to_string(),
            "St.release [y]"
        );
        assert_eq!(Instr::fence(FenceKind::Lightweight).to_string(), "lwsync");
    }
}
