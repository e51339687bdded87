//! Abstract µop instruction model.
//!
//! Fetch policies are ISA-agnostic: they act on per-thread occupancy counters
//! and cache events. The simulator therefore runs an abstract RISC-like µop
//! set — enough structure (register dependencies, memory addresses, control
//! flow) to drive a cycle-accurate out-of-order SMT back-end, without Alpha
//! instruction semantics.

/// Architectural register name. Integer and FP registers live in separate
/// spaces of [`NUM_ARCH_REGS`] names each.
pub type ArchReg = u8;

/// Architectural registers per class (int / fp), matching a classic RISC ISA.
pub const NUM_ARCH_REGS: u8 = 32;

/// Instruction word size in bytes; PCs advance by this much.
pub const INST_BYTES: u64 = 4;

/// Operation classes. Each class maps to one functional-unit pool and one
/// issue queue in the back-end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU op.
    #[default]
    IntAlu,
    /// Multi-cycle integer multiply/divide.
    IntMul,
    /// Floating-point op.
    FpAlu,
    /// Memory load (int destination).
    Load,
    /// Memory store (no destination).
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional control transfer (jump, call, or return; see
    /// [`CtrlKind`]).
    Jump,
}

impl OpClass {
    /// True for control-flow instructions.
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::CondBranch | OpClass::Jump)
    }

    /// True for memory instructions.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Register class of the destination (if any): true = fp.
    pub fn dest_is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu)
    }

    /// Base execution latency in cycles (memory latency is added dynamically
    /// for loads by the cache hierarchy).
    pub fn base_latency(self) -> u64 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::FpAlu => 4,
            OpClass::Load => 1,  // address generation; cache adds the rest
            OpClass::Store => 1, // address generation; data drains at commit
            OpClass::CondBranch => 1,
            OpClass::Jump => 1,
        }
    }
}

/// Refinement of control-flow instructions, used by the front-end to choose
/// the right predictor structure (gshare, BTB, or return-address stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// Not a control-flow instruction.
    #[default]
    None,
    /// Conditional branch: gshare direction + BTB target.
    CondBr,
    /// Unconditional direct jump: BTB target.
    Jump,
    /// Call: BTB target; pushes the return address on the RAS.
    Call,
    /// Return: target predicted by popping the RAS.
    Return,
}

/// Address pools a static memory instruction can draw from. The pool mix is
/// what calibrates a benchmark's L1/L2 miss rates against the *real* cache
/// model (see `profile.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemPool {
    /// Small region resident in L1 — hits.
    Hot,
    /// Circularly-streamed region larger than L1 but resident in L2 —
    /// L1 misses that hit in L2.
    Warm,
    /// Endless streaming region — misses both levels.
    Cold,
}

/// A *static* instruction: one slot in a program's code image. Register
/// assignments are fixed at program-generation time, so data dependencies are
/// structural, as in real code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticInst {
    pub class: OpClass,
    /// Control-flow refinement; `CtrlKind::None` unless `class.is_branch()`.
    pub ctrl: CtrlKind,
    /// Destination architectural register, if the class produces a value.
    pub dest: Option<ArchReg>,
    /// Up to two source registers.
    pub srcs: [Option<ArchReg>; 2],
    /// For memory ops: the pool this static instruction is *dominated* by.
    /// Each dynamic instance draws from the dominant pool with the profile's
    /// concentration probability, else from the aggregate mixture.
    pub mem_dominant: Option<MemPool>,
    /// For conditional branches: per-static probability of being taken
    /// (i.i.d. draw). Ignored when `loop_period > 0`.
    pub taken_bias: f32,
    /// For loop back-edges: the branch is taken except on every
    /// `loop_period`-th execution (a deterministic trip count, which is what
    /// makes real loop branches predictable). 0 = not a loop branch.
    pub loop_period: u16,
    /// For CondBr/Jump/Call: *instruction index* of the taken target.
    /// Unused (0) for other classes and for returns.
    pub taken_target: u32,
}

/// A *dynamic* instruction: one element of the executed (or wrong-path)
/// instruction stream handed to the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DynInst {
    /// Byte PC of this instruction.
    pub pc: u64,
    /// Index of the static instruction in its program (for predictor tables
    /// and wrong-path dictionary lookups).
    pub static_idx: u32,
    pub class: OpClass,
    pub ctrl: CtrlKind,
    pub dest: Option<ArchReg>,
    pub srcs: [Option<ArchReg>; 2],
    /// Effective byte address for memory ops.
    pub mem_addr: Option<u64>,
    /// For branches: the actual direction taken in this dynamic instance
    /// (unconditional transfers are always taken).
    pub taken: bool,
    /// Byte PC of the next instruction actually executed after this one.
    pub next_pc: u64,
    /// True if this instruction was synthesized for wrong-path fetch (its
    /// `taken`/`next_pc` fields are placeholders the front-end overrides).
    pub wrong_path: bool,
}

impl DynInst {
    /// True if this instruction can redirect fetch.
    pub fn is_branch(&self) -> bool {
        self.class.is_branch()
    }
}

// --- Snapshot serialization (see `snapio`): dynamic instructions appear in
// --- evolving machine state (replay buffers, in-flight slabs), so they
// --- round-trip through the checkpoint format with explicit enum tags.

use crate::snapio::ensure;

crate::snap_tags!(OpClass {
    IntAlu = 0,
    IntMul = 1,
    FpAlu = 2,
    Load = 3,
    Store = 4,
    CondBranch = 5,
    Jump = 6,
});

crate::snap_tags!(CtrlKind {
    None = 0,
    CondBr = 1,
    Jump = 2,
    Call = 3,
    Return = 4,
});

// Register names index the per-thread rename tables, so a restored name
// must be in range before any stage can use it.
crate::snap_fields! {
    DynInst { pc, static_idx, class, ctrl, dest, srcs, mem_addr, taken, next_pc, wrong_path }
    check {
        for &reg in dest.iter().chain(srcs.iter().flatten()) {
            ensure(reg < NUM_ARCH_REGS, || format!("register name {reg} out of range"))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapio::{Snap, SnapError, SnapReader};

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::CondBranch.is_branch());
        assert!(OpClass::Jump.is_branch());
        assert!(!OpClass::Load.is_branch());
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
    }

    #[test]
    fn latencies_are_positive() {
        for c in [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::FpAlu,
            OpClass::Load,
            OpClass::Store,
            OpClass::CondBranch,
            OpClass::Jump,
        ] {
            assert!(c.base_latency() >= 1);
        }
    }

    #[test]
    fn dyn_inst_round_trips_through_snapshot_bytes() {
        let insts = [
            DynInst {
                pc: 0x4000_0010,
                static_idx: 4,
                class: OpClass::Load,
                ctrl: CtrlKind::None,
                dest: Some(7),
                srcs: [Some(1), None],
                mem_addr: Some(0xDEAD_BEE0),
                taken: false,
                next_pc: 0x4000_0014,
                wrong_path: false,
            },
            DynInst {
                pc: 0x4000_0020,
                static_idx: 8,
                class: OpClass::CondBranch,
                ctrl: CtrlKind::CondBr,
                dest: None,
                srcs: [Some(3), Some(4)],
                mem_addr: None,
                taken: true,
                next_pc: 0x4000_0000,
                wrong_path: true,
            },
        ];
        let mut buf = Vec::new();
        for d in &insts {
            d.save_state(&mut buf);
        }
        let mut r = SnapReader::new(&buf);
        for d in &insts {
            let mut back = DynInst::default();
            back.load_state(&mut r).unwrap();
            assert_eq!(back, *d);
        }
        r.finish("insts").unwrap();
        // Unknown enum tags are typed errors, not panics.
        let mut bad = Vec::new();
        insts[0].save_state(&mut bad);
        bad[12] = 0xFF; // OpClass tag byte (after pc + static_idx)
        let mut r = SnapReader::new(&bad);
        assert!(DynInst::default().load_state(&mut r).is_err());
    }

    #[test]
    fn out_of_range_register_names_are_rejected_on_restore() {
        for inst in [
            DynInst {
                dest: Some(NUM_ARCH_REGS),
                ..DynInst::default()
            },
            DynInst {
                srcs: [None, Some(200)],
                ..DynInst::default()
            },
        ] {
            let mut buf = Vec::new();
            inst.save_state(&mut buf);
            let e = DynInst::default()
                .load_state(&mut SnapReader::new(&buf))
                .unwrap_err();
            assert!(matches!(e, SnapError::Malformed(_)), "{e}");
        }
    }

    #[test]
    fn only_fp_ops_write_fp_regs() {
        assert!(OpClass::FpAlu.dest_is_fp());
        assert!(!OpClass::Load.dest_is_fp());
        assert!(!OpClass::IntAlu.dest_is_fp());
    }
}
