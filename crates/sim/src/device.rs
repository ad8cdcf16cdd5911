//! GPU device models.
//!
//! Two presets mirror the dissertation's testbed (§6.1.1): a Tesla C1060
//! (compute capability 1.3, the GT200 generation) and a Tesla C2070
//! (compute capability 2.0, Fermi). Architectural parameters follow
//! Tables 2.1 and 2.2 of the dissertation plus the published board specs.

use ks_ir::{BinOp, Inst, Space, Ty, UnOp};

/// Static description of a simulated CUDA-capable GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    pub name: String,
    pub cc_major: u32,
    pub cc_minor: u32,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Shader clock in GHz.
    pub clock_ghz: f64,
    /// Scalar cores per SM (8 on CC 1.x, 32 on CC 2.0).
    pub cores_per_sm: u32,
    pub warp_size: u32,
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM (Table 2.2: 64 KB ⇒ 16 K regs on CC 1.3,
    /// 128 KB ⇒ 32 K regs on CC 2.x).
    pub regs_per_sm: u32,
    /// Register allocation granularity (regs are allocated in these units).
    pub reg_alloc_unit: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u32,
    /// Shared-memory allocation granularity in bytes.
    pub shared_alloc_unit: u32,
    pub shared_banks: u32,
    pub max_warps_per_sm: u32,
    pub max_blocks_per_sm: u32,
    /// Warp schedulers per SM (1 on CC 1.x, 2 on Fermi).
    pub schedulers_per_sm: u32,
    /// Global-memory latency in core cycles.
    pub mem_latency: u64,
    /// Aggregate off-chip bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Memory transaction segment size in bytes (64 on CC 1.3 per
    /// half-warp; 128-byte cache lines per warp on CC 2.x).
    pub mem_segment: u64,
    /// Whether global accesses are evaluated per half-warp (CC 1.x) or per
    /// full warp (CC 2.x).
    pub half_warp_coalescing: bool,
    /// 32-bit integer multiply is slow and `__mul24` fast (CC 1.x); the
    /// relation inverts on CC 2.x (§2.4).
    pub fast_mul24: bool,
    /// Constant memory size in bytes (64 KB on all CUDA GPUs).
    pub const_bytes: u32,
}

impl DeviceConfig {
    /// Tesla C1060: 30 SMs × 8 cores, 1.296 GHz, CC 1.3.
    pub fn tesla_c1060() -> DeviceConfig {
        DeviceConfig {
            name: "Tesla C1060".into(),
            cc_major: 1,
            cc_minor: 3,
            sm_count: 30,
            clock_ghz: 1.296,
            cores_per_sm: 8,
            warp_size: 32,
            max_threads_per_block: 512,
            regs_per_sm: 16 * 1024,
            reg_alloc_unit: 512,
            shared_per_sm: 16 * 1024,
            shared_alloc_unit: 512,
            shared_banks: 16,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 8,
            schedulers_per_sm: 1,
            mem_latency: 520,
            mem_bw_gbps: 102.0,
            mem_segment: 64,
            half_warp_coalescing: true,
            fast_mul24: true,
            const_bytes: 64 * 1024,
        }
    }

    /// Tesla C2070: 14 SMs × 32 cores, 1.15 GHz, CC 2.0 (Fermi).
    pub fn tesla_c2070() -> DeviceConfig {
        DeviceConfig {
            name: "Tesla C2070".into(),
            cc_major: 2,
            cc_minor: 0,
            sm_count: 14,
            clock_ghz: 1.15,
            cores_per_sm: 32,
            warp_size: 32,
            max_threads_per_block: 1024,
            regs_per_sm: 32 * 1024,
            reg_alloc_unit: 64,
            shared_per_sm: 48 * 1024,
            shared_alloc_unit: 128,
            shared_banks: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            schedulers_per_sm: 2,
            mem_latency: 440,
            mem_bw_gbps: 144.0,
            mem_segment: 128,
            half_warp_coalescing: false,
            fast_mul24: false,
            const_bytes: 64 * 1024,
        }
    }

    /// Both presets, in the order the dissertation reports them.
    pub fn presets() -> Vec<DeviceConfig> {
        vec![DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()]
    }

    /// Cycles the scheduler is occupied issuing one instruction of `class`
    /// for a full warp (per scheduler).
    pub fn issue_cycles(&self, class: IssueClass) -> u64 {
        let base = (self.warp_size / self.cores_per_sm / self.schedulers_per_sm).max(1) as u64;
        let mult = match class {
            // 32-bit integer multiply: multi-instruction on CC 1.x.
            IssueClass::IntMul if self.cc_major == 1 => 4,
            IssueClass::Mul24 if !self.fast_mul24 => 4, // emulated on Fermi
            IssueClass::IntDiv => 16,
            IssueClass::FloatDivSqrt => 8,
            _ => 1,
        };
        base * mult
    }

    /// Result latency (producer → consumer) in cycles.
    pub fn dep_latency(&self, class: LatencyClass) -> u64 {
        let alu = if self.cc_major == 1 { 24 } else { 18 };
        match class {
            LatencyClass::LoadGlobal => self.mem_latency,
            // Non-scalarized local arrays live in local memory: raw
            // DRAM latency on CC 1.x; Fermi's L1 caches spills (§2.4's
            // changed memory hierarchy), so the round trip is cheaper
            // but still far from a register.
            LatencyClass::LoadLocal => {
                if self.cc_major == 1 {
                    self.mem_latency
                } else {
                    2 * alu + 4
                }
            }
            LatencyClass::LoadShared => {
                if self.cc_major == 1 {
                    alu
                } else {
                    // Fermi shared throughput dropped relative to the
                    // register file (§2.4).
                    alu + 12
                }
            }
            // Constant cache hit; param space is cached like const.
            LatencyClass::LoadCached => 8,
            LatencyClass::IntDiv => 4 * alu,
            LatencyClass::FloatDivSqrt => 2 * alu,
            // Texture fetches are cached but still long-latency.
            LatencyClass::Tex => self.mem_latency * 3 / 4,
            LatencyClass::Alu => alu,
        }
    }

    /// Off-chip bytes one SM can move per core cycle (bandwidth share).
    pub fn bytes_per_cycle_per_sm(&self) -> f64 {
        self.mem_bw_gbps * 1e9 / (self.clock_ghz * 1e9) / self.sm_count as f64
    }

    /// Theoretical single-precision FLOPS peak (MAD = 2 flops/core/cycle).
    pub fn peak_gflops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 2.0
    }
}

/// What an instruction costs the issue port, independent of the device:
/// [`DeviceConfig::issue_cycles`] turns a class into cycles, so a
/// decoded kernel (`LaunchPlan`) classifies once and serves every device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueClass {
    Plain,
    /// 32-bit integer `*`.
    IntMul,
    Mul24,
    /// 32-bit integer `/` and `%`.
    IntDiv,
    /// `div.f32`, `sqrt`, `rsqrt`.
    FloatDivSqrt,
}

impl IssueClass {
    /// Every class, in discriminant order (`ALL[c as usize] == c`).
    pub const ALL: [IssueClass; 5] = [
        IssueClass::Plain,
        IssueClass::IntMul,
        IssueClass::Mul24,
        IssueClass::IntDiv,
        IssueClass::FloatDivSqrt,
    ];

    pub fn of(inst: &Inst) -> IssueClass {
        match inst {
            Inst::Bin { op, ty, .. } => match (op, ty) {
                (BinOp::Mul, Ty::S32 | Ty::U32) => IssueClass::IntMul,
                (BinOp::Mul24, _) => IssueClass::Mul24,
                (BinOp::Div | BinOp::Rem, Ty::S32 | Ty::U32) => IssueClass::IntDiv,
                (BinOp::Div, Ty::F32) => IssueClass::FloatDivSqrt,
                _ => IssueClass::Plain,
            },
            Inst::Un {
                op: UnOp::Sqrt | UnOp::Rsqrt,
                ..
            } => IssueClass::FloatDivSqrt,
            _ => IssueClass::Plain,
        }
    }
}

/// Device-independent producer → consumer latency class of an
/// instruction; see [`DeviceConfig::dep_latency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyClass {
    Alu,
    /// 32-bit integer `/` and `%`.
    IntDiv,
    /// `div.f32`, `sqrt`, `rsqrt`.
    FloatDivSqrt,
    LoadGlobal,
    LoadLocal,
    LoadShared,
    /// Constant and parameter space.
    LoadCached,
    Tex,
}

impl LatencyClass {
    /// Every class, in discriminant order (`ALL[c as usize] == c`).
    pub const ALL: [LatencyClass; 8] = [
        LatencyClass::Alu,
        LatencyClass::IntDiv,
        LatencyClass::FloatDivSqrt,
        LatencyClass::LoadGlobal,
        LatencyClass::LoadLocal,
        LatencyClass::LoadShared,
        LatencyClass::LoadCached,
        LatencyClass::Tex,
    ];

    /// The class of a load from `space`.
    pub fn load(space: Space) -> LatencyClass {
        match space {
            Space::Global => LatencyClass::LoadGlobal,
            Space::Local => LatencyClass::LoadLocal,
            Space::Shared => LatencyClass::LoadShared,
            Space::Const | Space::Param => LatencyClass::LoadCached,
        }
    }

    pub fn of(inst: &Inst) -> LatencyClass {
        match inst {
            Inst::Ld { space, .. } => LatencyClass::load(*space),
            Inst::Bin { op, ty, .. } => match (op, ty) {
                (BinOp::Div | BinOp::Rem, Ty::S32 | Ty::U32) => LatencyClass::IntDiv,
                (BinOp::Div, Ty::F32) => LatencyClass::FloatDivSqrt,
                _ => LatencyClass::Alu,
            },
            Inst::Un {
                op: UnOp::Sqrt | UnOp::Rsqrt,
                ..
            } => LatencyClass::FloatDivSqrt,
            Inst::Tex { .. } => LatencyClass::Tex,
            _ => LatencyClass::Alu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::{Address, Operand, VReg};

    #[test]
    fn class_tables_are_in_discriminant_order() {
        for (i, c) in IssueClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, c) in LatencyClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn preset_sanity() {
        let c1060 = DeviceConfig::tesla_c1060();
        let c2070 = DeviceConfig::tesla_c2070();
        assert_eq!(c1060.regs_per_sm, 16384);
        assert_eq!(c2070.regs_per_sm, 32768);
        assert_eq!(c1060.max_threads_per_block, 512);
        assert_eq!(c2070.max_threads_per_block, 1024);
        assert!(c2070.peak_gflops() > c1060.peak_gflops());
        // C1060: 30*8*1.296*2 ≈ 622 GFLOPS; C2070: 14*32*1.15*2 ≈ 1030.
        assert!((c1060.peak_gflops() - 622.0).abs() < 1.0);
        assert!((c2070.peak_gflops() - 1030.4).abs() < 1.0);
    }

    #[test]
    fn mul24_throughput_inversion() {
        // §2.4: the relative throughput of `*` and `__mul24` inverted
        // between CC 1.3 and CC 2.0.
        let c1060 = DeviceConfig::tesla_c1060();
        let c2070 = DeviceConfig::tesla_c2070();
        let mul = Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::S32,
            dst: VReg(0),
            a: Operand::ImmI(1),
            b: Operand::ImmI(1),
        };
        let mul24 = Inst::Bin {
            op: BinOp::Mul24,
            ty: Ty::S32,
            dst: VReg(0),
            a: Operand::ImmI(1),
            b: Operand::ImmI(1),
        };
        let (mul, mul24) = (IssueClass::of(&mul), IssueClass::of(&mul24));
        assert!(c1060.issue_cycles(mul) > c1060.issue_cycles(mul24));
        assert!(c2070.issue_cycles(mul) < c2070.issue_cycles(mul24));
    }

    #[test]
    fn local_memory_is_slow() {
        let d = DeviceConfig::tesla_c1060();
        let local = Inst::Ld {
            space: Space::Local,
            ty: Ty::F32,
            dst: VReg(0),
            addr: Address::abs(0),
        };
        let shared = Inst::Ld {
            space: Space::Shared,
            ty: Ty::F32,
            dst: VReg(0),
            addr: Address::abs(0),
        };
        let (local, shared) = (LatencyClass::of(&local), LatencyClass::of(&shared));
        assert!(d.dep_latency(local) > 10 * d.dep_latency(shared));
    }

    #[test]
    fn division_expensive() {
        let d = DeviceConfig::tesla_c2070();
        let div = Inst::Bin {
            op: BinOp::Div,
            ty: Ty::U32,
            dst: VReg(0),
            a: Operand::ImmI(1),
            b: Operand::ImmI(1),
        };
        let add = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::U32,
            dst: VReg(0),
            a: Operand::ImmI(1),
            b: Operand::ImmI(1),
        };
        let (div, add) = (IssueClass::of(&div), IssueClass::of(&add));
        assert!(d.issue_cycles(div) >= 8 * d.issue_cycles(add));
    }
}
