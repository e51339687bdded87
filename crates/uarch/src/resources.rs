//! Shared back-end resource accounting: physical registers, issue queues,
//! functional-unit bandwidth, and per-thread reorder buffers.
//!
//! These are the resources the paper's analysis revolves around: "the actual
//! problems are the issue queues and the physical registers, because they are
//! used for a variable, long period". The pipeline allocates from these pools
//! at rename/dispatch and a thread stalls when any of them is exhausted —
//! which is exactly the clog the fetch policies try to prevent.

use smt_trace::snapio::{self, ensure, Snap, SnapError, SnapReader};
use smt_trace::OpClass;
use smt_trace::{snap_fields, snap_tags};

/// A counted pool of physical registers (one per class: int / fp).
///
/// `total` registers exist; `reserved` are permanently held as the
/// architectural state of the running contexts (32 per context per class),
/// matching how SMTSIM accounts renameable registers.
#[derive(Debug, Clone, Copy)]
pub struct RegPool {
    total: u32,
    reserved: u32,
    in_use: u32,
    /// High-water mark, for reporting.
    peak: u32,
}

impl RegPool {
    pub fn new(total: u32, reserved: u32) -> RegPool {
        assert!(
            reserved <= total,
            "architectural state exceeds the physical register file"
        );
        RegPool {
            total,
            reserved,
            in_use: 0,
            peak: 0,
        }
    }

    /// Renameable registers still free.
    pub fn free(&self) -> u32 {
        self.total - self.reserved - self.in_use
    }

    pub fn in_use(&self) -> u32 {
        self.in_use
    }

    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Try to allocate one register.
    #[must_use]
    pub fn alloc(&mut self) -> bool {
        if self.free() == 0 {
            return false;
        }
        self.in_use += 1;
        self.peak = self.peak.max(self.in_use);
        true
    }

    /// Release one register.
    pub fn release(&mut self) {
        debug_assert!(self.in_use > 0, "register double-free");
        self.in_use -= 1;
    }
}

snap_fields! {
    RegPool { in_use, peak }
    derived { total, reserved }
    check {
        ensure(*in_use <= *total - *reserved, || {
            format!(
                "register occupancy {in_use} exceeds pool of {}",
                *total - *reserved
            )
        })?;
    }
}

/// The three issue queues of Table 3 (32 int, 32 fp, 32 ld/st entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum IqKind {
    #[default]
    Int,
    Fp,
    LdSt,
}

impl IqKind {
    /// Queue an operation class dispatches into.
    pub fn for_class(class: OpClass) -> IqKind {
        match class {
            OpClass::Load | OpClass::Store => IqKind::LdSt,
            OpClass::FpAlu => IqKind::Fp,
            OpClass::IntAlu | OpClass::IntMul | OpClass::CondBranch | OpClass::Jump => IqKind::Int,
        }
    }

    pub const ALL: [IqKind; 3] = [IqKind::Int, IqKind::Fp, IqKind::LdSt];
}

snap_tags!(IqKind {
    Int = 0,
    Fp = 1,
    LdSt = 2,
});

/// Occupancy accounting for the shared issue queues.
#[derive(Debug, Clone, Copy)]
pub struct IssueQueues {
    caps: [u32; 3],
    used: [u32; 3],
    peaks: [u32; 3],
}

impl IssueQueues {
    pub fn new(int_cap: u32, fp_cap: u32, ldst_cap: u32) -> IssueQueues {
        IssueQueues {
            caps: [int_cap, fp_cap, ldst_cap],
            used: [0; 3],
            peaks: [0; 3],
        }
    }

    #[inline]
    fn idx(kind: IqKind) -> usize {
        match kind {
            IqKind::Int => 0,
            IqKind::Fp => 1,
            IqKind::LdSt => 2,
        }
    }

    pub fn free(&self, kind: IqKind) -> u32 {
        let i = Self::idx(kind);
        self.caps[i] - self.used[i]
    }

    pub fn used(&self, kind: IqKind) -> u32 {
        self.used[Self::idx(kind)]
    }

    pub fn peak(&self, kind: IqKind) -> u32 {
        self.peaks[Self::idx(kind)]
    }

    #[must_use]
    pub fn alloc(&mut self, kind: IqKind) -> bool {
        let i = Self::idx(kind);
        if self.used[i] == self.caps[i] {
            return false;
        }
        self.used[i] += 1;
        self.peaks[i] = self.peaks[i].max(self.used[i]);
        true
    }

    pub fn release(&mut self, kind: IqKind) {
        let i = Self::idx(kind);
        debug_assert!(self.used[i] > 0, "issue-queue double-free");
        self.used[i] -= 1;
    }

    pub fn total_used(&self) -> u32 {
        self.used.iter().sum()
    }
}

/// Per-queue occupancy and high-water marks, interleaved per queue.
impl Snap for IssueQueues {
    #[deny(unused_variables)]
    fn save_state(&self, out: &mut Vec<u8>) {
        let IssueQueues {
            caps: _,
            used,
            peaks,
        } = self;
        for (u, p) in used.iter().zip(peaks) {
            snapio::put_u32(out, *u);
            snapio::put_u32(out, *p);
        }
    }

    #[deny(unused_variables)]
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let IssueQueues { caps, used, peaks } = self;
        for i in 0..3 {
            used[i] = r.u32()?;
            ensure(used[i] <= caps[i], || {
                format!(
                    "issue-queue occupancy {} exceeds capacity {}",
                    used[i], caps[i]
                )
            })?;
            peaks[i] = r.u32()?;
        }
        Ok(())
    }
}
/// Functional-unit pools. The paper's FUs are fully pipelined, so a pool of
/// `n` units means at most `n` operations of that class can *begin* execution
/// per cycle; occupancy across cycles is unconstrained.
#[derive(Debug, Clone, Copy)]
pub struct FuPools {
    caps: [u32; 3],
    used_this_cycle: [u32; 3],
}

/// FU classes: int (ALU/mul/branch), fp, load/store ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuKind {
    Int,
    Fp,
    LdSt,
}

impl FuKind {
    pub fn for_class(class: OpClass) -> FuKind {
        match class {
            OpClass::Load | OpClass::Store => FuKind::LdSt,
            OpClass::FpAlu => FuKind::Fp,
            OpClass::IntAlu | OpClass::IntMul | OpClass::CondBranch | OpClass::Jump => FuKind::Int,
        }
    }
}

impl FuPools {
    pub fn new(int_units: u32, fp_units: u32, ldst_units: u32) -> FuPools {
        FuPools {
            caps: [int_units, fp_units, ldst_units],
            used_this_cycle: [0; 3],
        }
    }

    #[inline]
    fn idx(kind: FuKind) -> usize {
        match kind {
            FuKind::Int => 0,
            FuKind::Fp => 1,
            FuKind::LdSt => 2,
        }
    }

    /// Called at the start of every cycle.
    pub fn new_cycle(&mut self) {
        self.used_this_cycle = [0; 3];
    }

    /// Try to start an operation of `kind` this cycle.
    #[must_use]
    pub fn issue(&mut self, kind: FuKind) -> bool {
        let i = Self::idx(kind);
        if self.used_this_cycle[i] == self.caps[i] {
            return false;
        }
        self.used_this_cycle[i] += 1;
        true
    }

    pub fn available(&self, kind: FuKind) -> u32 {
        let i = Self::idx(kind);
        self.caps[i] - self.used_this_cycle[i]
    }
}

snap_fields! {
    FuPools { used_this_cycle }
    derived { caps }
}

/// Per-thread reorder-buffer occupancy (Table 3: 256 entries per thread; the
/// ROB is private, so it is a counter, not a shared pool).
#[derive(Debug, Clone)]
pub struct RobCounters {
    cap: u32,
    used: Vec<u32>,
}

impl RobCounters {
    pub fn new(cap_per_thread: u32, num_threads: usize) -> RobCounters {
        RobCounters {
            cap: cap_per_thread,
            used: vec![0; num_threads],
        }
    }

    pub fn free(&self, thread: usize) -> u32 {
        self.cap - self.used[thread]
    }

    pub fn used(&self, thread: usize) -> u32 {
        self.used[thread]
    }

    #[must_use]
    pub fn alloc(&mut self, thread: usize) -> bool {
        if self.used[thread] == self.cap {
            return false;
        }
        self.used[thread] += 1;
        true
    }

    pub fn release(&mut self, thread: usize) {
        debug_assert!(self.used[thread] > 0, "ROB double-free");
        self.used[thread] -= 1;
    }
}

snap_fields! {
    RobCounters { used }
    derived { cap }
    check {
        ensure(used.iter().all(|u| u <= cap), || {
            format!("ROB occupancy exceeds capacity {cap}")
        })?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_pool_excludes_architectural_state() {
        // Table 3: 384 int regs; 4 threads reserve 128.
        let p = RegPool::new(384, 128);
        assert_eq!(p.free(), 256);
    }

    #[test]
    fn reg_pool_exhausts_and_releases() {
        let mut p = RegPool::new(10, 8);
        assert!(p.alloc());
        assert!(p.alloc());
        assert!(!p.alloc(), "pool exhausted");
        p.release();
        assert!(p.alloc());
        assert_eq!(p.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "architectural state exceeds")]
    fn reg_pool_rejects_impossible_reservation() {
        let _ = RegPool::new(64, 65);
    }

    #[test]
    fn iq_kinds_map_classes() {
        assert_eq!(IqKind::for_class(OpClass::Load), IqKind::LdSt);
        assert_eq!(IqKind::for_class(OpClass::Store), IqKind::LdSt);
        assert_eq!(IqKind::for_class(OpClass::FpAlu), IqKind::Fp);
        assert_eq!(IqKind::for_class(OpClass::IntAlu), IqKind::Int);
        assert_eq!(IqKind::for_class(OpClass::CondBranch), IqKind::Int);
    }

    #[test]
    fn issue_queues_track_per_kind() {
        let mut q = IssueQueues::new(2, 1, 1);
        assert!(q.alloc(IqKind::Int));
        assert!(q.alloc(IqKind::Int));
        assert!(!q.alloc(IqKind::Int));
        assert!(q.alloc(IqKind::Fp));
        assert!(!q.alloc(IqKind::Fp));
        assert_eq!(q.total_used(), 3);
        q.release(IqKind::Int);
        assert_eq!(q.free(IqKind::Int), 1);
        assert_eq!(q.peak(IqKind::Int), 2);
    }

    #[test]
    fn fu_bandwidth_resets_each_cycle() {
        let mut fu = FuPools::new(2, 1, 1);
        assert!(fu.issue(FuKind::Int));
        assert!(fu.issue(FuKind::Int));
        assert!(!fu.issue(FuKind::Int));
        fu.new_cycle();
        assert!(fu.issue(FuKind::Int));
        assert_eq!(fu.available(FuKind::Int), 1);
    }

    #[test]
    fn rob_is_per_thread() {
        let mut rob = RobCounters::new(2, 2);
        assert!(rob.alloc(0));
        assert!(rob.alloc(0));
        assert!(!rob.alloc(0));
        assert!(rob.alloc(1), "thread 1 has its own ROB");
        rob.release(0);
        assert_eq!(rob.free(0), 1);
        assert_eq!(rob.used(1), 1);
    }
}
