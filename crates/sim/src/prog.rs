//! The abstract vector instruction set fed to the timing engine.
//!
//! Instructions carry *virtual registers* for data-dependence tracking.
//! Registers are SSA-ish: the engine captures producer completion times when
//! an instruction enters the window, which models perfect register renaming
//! (WAW/WAR never stall, exactly like the renamed out-of-order core the
//! paper simulates).

/// A virtual register id.
pub type Reg = u32;

/// Scalar ALU operation classes (latency selection only — the timing model
/// does not evaluate values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AluKind {
    /// Integer add/compare/bit ops.
    Int,
    /// Floating-point add/sub.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Fused multiply-add.
    FpFma,
}

/// Vector ALU operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VecOpKind {
    /// Element-wise add/sub.
    Add,
    /// Element-wise multiply.
    Mul,
    /// Fused multiply-add.
    Fma,
    /// Horizontal reduction (sum over lanes).
    Reduce,
    /// Shuffle/permutation (including the index-merging sequences the
    /// baseline index-matching kernels need, paper §III-A challenge 2).
    Permute,
    /// Lane-wise compare producing a mask.
    Compare,
    /// Mask blend/select.
    Blend,
    /// AVX-512CD-style conflict detection (`vpconflictd`), used by the
    /// histogram baseline (paper §IV-F1).
    ConflictDetect,
}

/// An instruction's operation payload.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Op {
    /// Scalar ALU operation.
    Scalar {
        /// Operation class (selects latency).
        kind: AluKind,
    },
    /// Unit-stride load of `bytes` starting at `addr` (scalar loads are
    /// `bytes = 8`; a full vector load is `8 * vl`).
    Load {
        /// Start address.
        addr: u64,
        /// Bytes accessed.
        bytes: u32,
    },
    /// Unit-stride store.
    Store {
        /// Start address.
        addr: u64,
        /// Bytes accessed.
        bytes: u32,
    },
    /// Indexed vector load: one cache access *per element* plus the fixed
    /// gather overhead (paper §III-A: ≥ 22 cycles best case).
    Gather {
        /// Per-element addresses.
        addrs: AddrList,
        /// Bytes per element.
        elem_bytes: u32,
    },
    /// Indexed vector store, symmetric to [`Op::Gather`].
    Scatter {
        /// Per-element addresses.
        addrs: AddrList,
        /// Bytes per element.
        elem_bytes: u32,
    },
    /// Vector ALU operation over `vl` lanes.
    Vec {
        /// Operation class (selects latency).
        kind: VecOpKind,
    },
    /// An operation executed by the custom (FIVU) unit. `via-core` lowers
    /// every VIA ISA instruction to one of these with the SSPM-derived
    /// occupancy/latency.
    Custom {
        /// Cycles the custom unit is busy (non-pipelined portion).
        occupancy: u32,
        /// Cycles until the result is available.
        latency: u32,
        /// If true, the op issues only at commit: all older instructions
        /// must have completed first (paper §IV-E). Consecutive custom ops
        /// still pipeline through the unit.
        at_commit: bool,
    },
    /// A *data-dependent* conditional branch (merge directions, index-match
    /// outcomes, value tests). It runs through the engine's 2-bit branch
    /// predictor: a misprediction redirects fetch after the branch resolves
    /// (its sources complete) plus the front-end penalty. Loop-control
    /// branches should NOT use this — modern loop predictors capture them,
    /// so kernels model loop overhead as plain scalar ops.
    Branch {
        /// The actual direction taken.
        taken: bool,
        /// Static branch site id (indexes the predictor table).
        site: u32,
    },
    /// A pure timing delay: completes `cycles` after its sources are ready,
    /// consuming no functional unit. Used to model micro-architectural
    /// delays that are not instructions — e.g. the store-buffer drain a
    /// gather must wait for before it can read a line with a pending
    /// scatter (gathers cannot forward from the store buffer).
    Delay {
        /// Delay length in cycles.
        cycles: u32,
    },
    /// Full serialization barrier: subsequent instructions enter the window
    /// only after everything before has completed. Used sparingly (e.g.
    /// between experiment phases).
    Fence,
}

impl Op {
    /// A compact tag naming the operation class (used in diagnostics).
    pub fn tag(&self) -> &'static str {
        match self {
            Op::Scalar { .. } => "scalar",
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Gather { .. } => "gather",
            Op::Scatter { .. } => "scatter",
            Op::Vec { .. } => "vec",
            Op::Custom { .. } => "custom",
            Op::Branch { .. } => "branch",
            Op::Delay { .. } => "delay",
            Op::Fence => "fence",
        }
    }
}

/// Maximum number of gather/scatter addresses stored inline (covers every
/// vector length the evaluated machines use, VL ≤ 8).
pub const MAX_INLINE_ADDRS: usize = 8;

/// Per-element address list for [`Op::Gather`]/[`Op::Scatter`].
///
/// Up to [`MAX_INLINE_ADDRS`] addresses live inline in the instruction — no
/// heap allocation on the multi-million-instruction hot path. Longer lists
/// (wider experimental vector configurations) spill to a boxed slice.
#[derive(Debug, Clone, PartialEq)]
pub struct AddrList(AddrRepr);

#[derive(Debug, Clone, PartialEq)]
enum AddrRepr {
    Inline([u64; MAX_INLINE_ADDRS], u8),
    Spilled(Box<[u64]>),
}

impl AddrList {
    /// Builds a list, inlining when the slice fits.
    pub fn from_slice(addrs: &[u64]) -> Self {
        if addrs.len() <= MAX_INLINE_ADDRS {
            let mut buf = [0u64; MAX_INLINE_ADDRS];
            buf[..addrs.len()].copy_from_slice(addrs);
            AddrList(AddrRepr::Inline(buf, addrs.len() as u8))
        } else {
            AddrList(AddrRepr::Spilled(addrs.into()))
        }
    }

    /// The addresses as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            AddrRepr::Inline(buf, len) => &buf[..*len as usize],
            AddrRepr::Spilled(b) => b,
        }
    }

    /// Number of addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<&[u64]> for AddrList {
    fn from(addrs: &[u64]) -> Self {
        AddrList::from_slice(addrs)
    }
}

impl From<Vec<u64>> for AddrList {
    fn from(addrs: Vec<u64>) -> Self {
        AddrList::from_slice(&addrs)
    }
}

/// Maximum number of register sources per instruction.
pub const MAX_SRCS: usize = 4;

/// A fixed-capacity source-register list (avoids per-instruction heap
/// allocation on the multi-million-instruction streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcList {
    regs: [Reg; MAX_SRCS],
    len: u8,
}

impl SrcList {
    /// Creates a list from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `srcs.len() > MAX_SRCS`.
    pub fn new(srcs: &[Reg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "too many sources");
        let mut regs = [0; MAX_SRCS];
        regs[..srcs.len()].copy_from_slice(srcs);
        SrcList {
            regs,
            len: srcs.len() as u8,
        }
    }

    /// The sources as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Register sources this instruction waits on.
    pub srcs: SrcList,
    /// Destination register, if the instruction produces a value.
    pub dst: Option<Reg>,
}

impl Inst {
    /// A new instruction from parts.
    pub fn new(op: Op, srcs: &[Reg], dst: Option<Reg>) -> Self {
        Inst {
            op,
            srcs: SrcList::new(srcs),
            dst,
        }
    }

    /// Scalar ALU instruction.
    pub fn scalar(kind: AluKind, srcs: &[Reg], dst: Option<Reg>) -> Self {
        Inst::new(Op::Scalar { kind }, srcs, dst)
    }

    /// Unit-stride load into `dst`.
    pub fn load(addr: u64, bytes: u32, dst: Reg) -> Self {
        Inst::new(Op::Load { addr, bytes }, &[], Some(dst))
    }

    /// Unit-stride load whose address depends on `srcs` (e.g. pointer
    /// chasing).
    pub fn load_dep(addr: u64, bytes: u32, srcs: &[Reg], dst: Reg) -> Self {
        Inst::new(Op::Load { addr, bytes }, srcs, Some(dst))
    }

    /// Unit-stride store of the value in `srcs`.
    pub fn store(addr: u64, bytes: u32, srcs: &[Reg]) -> Self {
        Inst::new(Op::Store { addr, bytes }, srcs, None)
    }

    /// Gather of `addrs` (dependent on the index register) into `dst`.
    pub fn gather(addrs: impl Into<AddrList>, elem_bytes: u32, srcs: &[Reg], dst: Reg) -> Self {
        Inst::new(
            Op::Gather {
                addrs: addrs.into(),
                elem_bytes,
            },
            srcs,
            Some(dst),
        )
    }

    /// Scatter to `addrs`.
    pub fn scatter(addrs: impl Into<AddrList>, elem_bytes: u32, srcs: &[Reg]) -> Self {
        Inst::new(
            Op::Scatter {
                addrs: addrs.into(),
                elem_bytes,
            },
            srcs,
            None,
        )
    }

    /// Vector ALU instruction.
    pub fn vec(kind: VecOpKind, srcs: &[Reg], dst: Option<Reg>) -> Self {
        Inst::new(Op::Vec { kind }, srcs, dst)
    }

    /// Custom-unit (FIVU) instruction.
    pub fn custom(
        occupancy: u32,
        latency: u32,
        at_commit: bool,
        srcs: &[Reg],
        dst: Option<Reg>,
    ) -> Self {
        Inst::new(
            Op::Custom {
                occupancy,
                latency,
                at_commit,
            },
            srcs,
            dst,
        )
    }

    /// Data-dependent conditional branch; `srcs` are the registers the
    /// branch outcome depends on (its resolve time).
    pub fn branch(taken: bool, site: u32, srcs: &[Reg]) -> Self {
        Inst::new(Op::Branch { taken, site }, srcs, None)
    }

    /// Pure timing delay of `cycles` after `srcs` are ready.
    pub fn delay(cycles: u32, srcs: &[Reg], dst: Reg) -> Self {
        Inst::new(Op::Delay { cycles }, srcs, Some(dst))
    }

    /// Serialization barrier.
    pub fn fence() -> Self {
        Inst::new(Op::Fence, &[], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srclist_round_trips() {
        let s = SrcList::new(&[3, 5, 9]);
        assert_eq!(s.as_slice(), &[3, 5, 9]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(SrcList::new(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "too many sources")]
    fn srclist_rejects_overflow() {
        SrcList::new(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn constructors_fill_fields() {
        let ld = Inst::load(0x100, 8, 7);
        assert_eq!(ld.dst, Some(7));
        assert!(matches!(
            ld.op,
            Op::Load {
                addr: 0x100,
                bytes: 8
            }
        ));

        let g = Inst::gather(&[0u64, 8, 16][..], 8, &[1], 2);
        assert_eq!(g.srcs.as_slice(), &[1]);
        if let Op::Gather { addrs, elem_bytes } = &g.op {
            assert_eq!(addrs.as_slice(), &[0, 8, 16]);
            assert_eq!(*elem_bytes, 8);
        } else {
            panic!("wrong op");
        }

        // Address lists at or under MAX_INLINE_ADDRS stay inline; longer
        // ones spill but round-trip identically.
        let long: Vec<u64> = (0..MAX_INLINE_ADDRS as u64 + 3).map(|i| i * 64).collect();
        let spilled = AddrList::from_slice(&long);
        assert_eq!(spilled.as_slice(), long.as_slice());
        assert_eq!(spilled.len(), long.len());
        assert!(!spilled.is_empty());

        let f = Inst::fence();
        assert!(matches!(f.op, Op::Fence));
        assert!(f.dst.is_none());
    }

    #[test]
    fn tags_name_the_op_class() {
        assert_eq!(Inst::load(0, 8, 1).op.tag(), "load");
        assert_eq!(Inst::fence().op.tag(), "fence");
        assert_eq!(Inst::branch(true, 0, &[]).op.tag(), "branch");
    }

    #[test]
    fn custom_carries_commit_flag() {
        let c = Inst::custom(2, 6, true, &[1, 2], Some(3));
        if let Op::Custom {
            occupancy,
            latency,
            at_commit,
        } = c.op
        {
            assert_eq!((occupancy, latency, at_commit), (2, 6, true));
        } else {
            panic!("wrong op");
        }
    }
}
