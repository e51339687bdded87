//! # smt-trace — synthetic instruction-trace substrate
//!
//! The DWarn paper drives a trace-driven SMT simulator with Alpha traces of
//! the SPEC2000 integer suite. Those traces are not reproducible, so this
//! crate provides the closest synthetic equivalent:
//!
//! * [`profile`] — one statistical profile per SPECint benchmark, carrying
//!   the measured cache behaviour of the paper's Table 2(a) plus an
//!   instruction-mix / control-flow / dependency model;
//! * [`program`] — deterministic expansion of a profile into a *static
//!   program* (the paper's basic-block dictionary), enabling wrong-path
//!   fetch;
//! * [`stream`] — the correct-path dynamic instruction stream
//!   ([`ThreadTrace`]) and wrong-path synthesis ([`SynthState`]);
//! * [`rng`] — a reproducible xoshiro256** PRNG so a `(profile, seed)` pair
//!   pins the trace bit-for-bit.
//!
//! Loads draw addresses from three pools — an L1-resident *hot* set, a
//! circularly-streamed L2-resident *warm* set, and a *cold* streaming
//! region — with probabilities taken from Table 2(a), so the **real**
//! simulated cache hierarchy reproduces each benchmark's L1/L2 miss rates.

// User-facing paths degrade to typed errors; a stray unwrap turns a
// recoverable fault into an abort.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod instr;
pub mod profile;
pub mod program;
pub mod rng;
pub mod snapio;
pub mod stream;

pub use instr::{
    ArchReg, CtrlKind, DynInst, MemPool, OpClass, StaticInst, INST_BYTES, NUM_ARCH_REGS,
};
pub use profile::{all_benchmarks, by_name, BenchProfile, ProfileBuilder, ThreadClass};
pub use program::{Block, Function, StaticProgram};
pub use rng::Rng;
pub use stream::{PoolState, SynthState, ThreadTrace};
