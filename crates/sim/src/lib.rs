//! # ks-sim — a SIMT GPU simulator for the kernel-specialization toolchain
//!
//! Substitutes for the dissertation's NVIDIA hardware (Tesla C1060 /
//! C2070): it executes `ks-ir` modules functionally — warps in lockstep
//! with post-dominator reconvergence, shared memory, barriers, constant and
//! local memory — and models performance with a per-warp register
//! scoreboard (ILP), occupancy-based latency hiding (TLP), per-compute-
//! capability coalescing rules, shared-memory bank conflicts, and
//! per-generation instruction throughputs (including the `*`/`__mul24`
//! inversion between CC 1.3 and CC 2.0).
//!
//! The phenomena the dissertation's results rely on are all first-class
//! here, so specialized kernels win for the same reasons they win on
//! silicon: fewer dynamic instructions (unrolling), fewer registers
//! (→ higher occupancy), no param-space loads, no local-memory spills for
//! register-blocked accumulators, and strength-reduced address math.
//!
//! ```
//! use ks_sim::*;
//!
//! // Compile a kernel with the front-end crates (ks-core wraps this).
//! let prog = ks_lang::frontend(
//!     "__global__ void dbl(float* x) { x[threadIdx.x] = x[threadIdx.x] * 2.0f; }",
//!     &[],
//! ).unwrap();
//! let module = ks_codegen::compile(&prog, &Default::default()).unwrap();
//!
//! // Decode the kernel once; every launch of the plan reuses the decode
//! // (`ks_core::Binary::plan` keeps one per compiled kernel).
//! let plan = LaunchPlan::from_function(module.function("dbl").unwrap());
//!
//! let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
//! let p = st.global.alloc(32 * 4).unwrap();
//! st.global.write_f32_slice(p, &[1.5; 32]).unwrap();
//! let report = launch_planned(
//!     &mut st, &module.textures, &plan,
//!     LaunchDims::linear(1, 32),
//!     &[KArg::Ptr(p)],
//!     LaunchOptions::default(),
//!     0, "", // no fault-plan identity
//! ).unwrap();
//! assert_eq!(st.global.read_f32_slice(p, 32).unwrap(), vec![3.0; 32]);
//! assert!(report.time_ms > 0.0);
//! ```

pub mod device;
mod event;
pub mod interp;
mod launch;
pub mod mem;
mod memo;
mod occupancy;
pub mod plan;
pub mod racecheck;
mod regalloc;
mod report;
pub mod simt;

pub use device::DeviceConfig;
pub use event::run_sm_round;
pub use interp::{executor_isa, ExecStats, SimError};
pub use launch::{
    launch, launch_planned, Bound, DeviceState, KArg, LaunchDims, LaunchOptions, LaunchReport,
};
pub use mem::{GlobalMem, MemError, GLOBAL_BASE};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use plan::LaunchPlan;
pub use regalloc::{allocate, RegAlloc};
pub use report::summarize;
