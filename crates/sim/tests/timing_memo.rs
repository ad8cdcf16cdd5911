//! The timing memo on `LaunchPlan`: which kernels may reuse a timing
//! sample, and that reusing one changes nothing but host time.
//!
//! Kernels whose branches or addresses read memory data must be
//! ineligible, and for each of them two launches through one plan on
//! different data — the same memo key — really do time differently.
//! For an eligible kernel, a launch that hits the memo traps, races,
//! faults and flips exactly like one that misses, and any change of a
//! keyed input (a constant byte the kernel reads, a pointer argument)
//! misses.

use ks_codegen::{compile, CodegenOptions};
use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
use ks_ir::Module;
use ks_lang::frontend;
use ks_sim::*;
use std::sync::Arc;

fn module(src: &str) -> Module {
    let prog = frontend(src, &[]).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);
    m
}

fn plan(m: &Module, kernel: &str) -> LaunchPlan {
    LaunchPlan::from_function(m.function(kernel).unwrap())
}

fn state(heap: u64) -> DeviceState {
    DeviceState::new(DeviceConfig::tesla_c2070(), heap)
}

/// Everything a launch reports that is not host time.
fn describe(result: &Result<LaunchReport, SimError>) -> String {
    match result {
        Ok(r) => format!(
            "cycles={} time_ms={:?} bound={:?} stats={:?}",
            r.cycles, r.time_ms, r.bound, r.stats
        ),
        Err(e) => format!("trap: {}", e.0),
    }
}

fn alloc_i32(st: &mut DeviceState, data: &[i32]) -> u64 {
    let p = st.global.alloc(data.len() as u64 * 4).unwrap();
    st.global.write_i32_slice(p, data).unwrap();
    p
}

/// One kernel launch: the geometry and arguments, against whatever
/// device state the caller brings.
struct Launch<'a> {
    m: &'a Module,
    kernel: &'a str,
    dims: LaunchDims,
    args: Vec<KArg>,
    opts: LaunchOptions,
}

impl Launch<'_> {
    fn through(&self, st: &mut DeviceState, plan: &LaunchPlan) -> Result<LaunchReport, SimError> {
        let (dims, opts) = (self.dims, self.opts);
        launch_planned(st, &self.m.textures, plan, dims, &self.args, opts, 0, "")
    }

    /// Through a throw-away plan: always a miss.
    fn fresh(&self, st: &mut DeviceState) -> Result<LaunchReport, SimError> {
        launch(st, self.m, self.kernel, self.dims, &self.args, self.opts)
    }
}

// ---- ineligible: the timing reads data ----

const BRANCH_ON_DATA: &str = r#"
    __global__ void branch_on_data(int* in, int* out) {
        int t = (int)threadIdx.x;
        int v = in[t];
        if (v > 0) {
            for (int k = 0; k < 4; k++) { v = v * 3 + k; }
        }
        out[t] = v;
    }
"#;

const ADDRESS_FROM_DATA: &str = r#"
    __global__ void address_from_data(int* idx, float* src, float* out) {
        int t = (int)threadIdx.x;
        out[t] = src[idx[t]];
    }
"#;

const TEX_INDEX: &str = r#"
    texture<float> texIdx;
    __global__ void tex_index(int* idx, float* src, float* out) {
        int t = (int)threadIdx.x;
        out[t] = src[(int)tex1Dfetch(texIdx, t)];
    }
"#;

const SHARED_INDEX: &str = r#"
    __global__ void shared_index(int* idx, float* src, float* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t] = idx[t];
        __syncthreads();
        out[t] = src[s[63 - t]];
    }
"#;

/// Indices of `src` that share one line, and indices a line apart.
fn coalesced() -> Vec<i32> {
    (0..64).collect()
}

fn scattered() -> Vec<i32> {
    (0..64).map(|i| (i * 37) % 64 * 32).collect()
}

/// Launch `kernel` twice through one plan, on `first` and then `second`
/// as its `int* idx` data (same buffers, so the same memo key), and
/// check each against a throw-away plan on an identical device.
fn data_changes_the_timing(src: &str, kernel: &str, first: &[i32], second: &[i32]) {
    let m = module(src);
    let p = plan(&m, kernel);
    assert!(!p.timing_is_data_independent(), "{kernel} is eligible");
    let setup = |st: &mut DeviceState, data: &[i32]| {
        let idx = alloc_i32(st, data);
        // Room for every index either data set uses.
        let src = alloc_i32(st, &(0..64 * 64).collect::<Vec<_>>());
        let out = alloc_i32(st, &[0; 64]);
        // The texture reads the same indices, as floats.
        let tex = st.global.alloc(64 * 4).unwrap();
        let as_f32: Vec<f32> = data.iter().map(|&i| i as f32).collect();
        st.global.write_f32_slice(tex, &as_f32).unwrap();
        st.bind_texture("texIdx", tex);
        vec![KArg::Ptr(idx), KArg::Ptr(src), KArg::Ptr(out)]
    };
    let mut planned = Vec::new();
    for data in [first, second] {
        let (mut a, mut b) = (state(1 << 20), state(1 << 20));
        let mut args = setup(&mut a, data);
        setup(&mut b, data);
        if kernel == "branch_on_data" {
            args.remove(1);
        }
        let l = Launch {
            m: &m,
            kernel,
            dims: LaunchDims::linear(1, 64),
            args,
            opts: LaunchOptions::default(),
        };
        let got = describe(&l.through(&mut a, &p));
        assert!(!got.starts_with("trap"), "{kernel}: {got}");
        assert_eq!(got, describe(&l.fresh(&mut b)), "{kernel}");
        planned.push(got);
    }
    assert_ne!(planned[0], planned[1], "{kernel}: the data did not matter");
    assert_eq!(p.timing_memo_len(), 0);
}

#[test]
fn a_branch_on_a_loaded_value_is_ineligible() {
    let positive = vec![1; 64];
    let mixed: Vec<i32> = (0..64).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    data_changes_the_timing(BRANCH_ON_DATA, "branch_on_data", &positive, &mixed);
}

#[test]
fn an_address_from_a_loaded_value_is_ineligible() {
    data_changes_the_timing(
        ADDRESS_FROM_DATA,
        "address_from_data",
        &coalesced(),
        &scattered(),
    );
}

#[test]
fn a_texture_fetch_used_as_an_index_is_ineligible() {
    data_changes_the_timing(TEX_INDEX, "tex_index", &coalesced(), &scattered());
}

#[test]
fn a_shared_memory_value_used_as_an_index_is_ineligible() {
    data_changes_the_timing(SHARED_INDEX, "shared_index", &coalesced(), &scattered());
}

// ---- eligible: a hit is a miss without the timed run ----

/// `dst[t + off] = src[t] * 2 + 1` over two blocks of 32.
const COPY_AT: &str = r#"
    __global__ void copy_at(int* src, int* dst, int off) {
        int t = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        dst[t + off] = src[t] * 2 + 1;
    }
"#;

fn copy_at<'a>(m: &'a Module, st: &mut DeviceState, off: i32) -> Launch<'a> {
    let src = alloc_i32(st, &(0..64).collect::<Vec<_>>());
    let dst = alloc_i32(st, &[0; 64]);
    Launch {
        m,
        kernel: "copy_at",
        dims: LaunchDims::linear(2, 32),
        args: vec![KArg::Ptr(src), KArg::Ptr(dst), KArg::I32(off)],
        opts: LaunchOptions::default(),
    }
}

#[test]
fn a_hit_reproduces_the_miss_report_and_memory() {
    let m = module(COPY_AT);
    let p = plan(&m, "copy_at");
    assert!(p.timing_is_data_independent());
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let mut st = state(1 << 20);
        let l = copy_at(&m, &mut st, 0);
        let mut fresh_st = state(1 << 20);
        copy_at(&m, &mut fresh_st, 0);
        let want = describe(&l.fresh(&mut fresh_st));
        assert_eq!(describe(&l.through(&mut st, &p)), want);
        assert_eq!(
            st.global.read_bytes(0x1_0000, 1024).unwrap(),
            fresh_st.global.read_bytes(0x1_0000, 1024).unwrap()
        );
        outputs.push(st.global.read_i32_slice(0x1_0000 + 256, 64).unwrap());
        assert_eq!(p.timing_memo_len(), 1, "one key, remembered once");
    }
    assert_eq!(outputs[0], (0..64).map(|i| i * 2 + 1).collect::<Vec<_>>());
    assert_eq!(outputs[0], outputs[1]);
}

#[test]
fn an_out_of_bounds_store_traps_the_same_on_a_hit() {
    // The heap size is not part of the key: the same launch that fit a
    // 1 MiB heap stores past the end of a 4 KiB one.
    let m = module(COPY_AT);
    let p = plan(&m, "copy_at");
    let mut big = state(1 << 20);
    let fits = copy_at(&m, &mut big, 2000);
    assert!(fits.through(&mut big, &p).is_ok());
    assert_eq!(p.timing_memo_len(), 1);

    let (mut small, mut small_fresh) = (state(4096), state(4096));
    let l = copy_at(&m, &mut small, 2000);
    copy_at(&m, &mut small_fresh, 2000);
    let hit = describe(&l.through(&mut small, &p));
    assert!(
        hit.starts_with("trap: global access out of bounds"),
        "{hit}"
    );
    assert_eq!(hit, describe(&l.fresh(&mut small_fresh)));
    assert_eq!(
        small.global.read_bytes(0x1_0000, 4096).unwrap(),
        small_fresh.global.read_bytes(0x1_0000, 4096).unwrap()
    );
    assert_eq!(p.timing_memo_len(), 1, "a trapping launch inserts nothing");
}

const RACY: &str = r#"
    __global__ void racy(int* a, int* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t] = a[t];
        out[t] = s[(t + 32) & 63];
    }
"#;

const HALF_BARRIER: &str = r#"
    __global__ void half_barrier(int* a, int* out) {
        int t = (int)threadIdx.x;
        if (t < 32) { __syncthreads(); }
        out[t] = a[t];
    }
"#;

/// Memoize `kernel`'s sample with the checks off, then launch it with
/// `checked` through the memo (a hit) and through a throw-away plan (a
/// miss): the same trap, the same memory.
fn checks_hold_on_a_hit(src: &str, kernel: &str, checked: LaunchOptions, trap: &str) {
    let m = module(src);
    let p = plan(&m, kernel);
    assert!(p.timing_is_data_independent(), "{kernel}");
    let run = |st: &mut DeviceState, opts: LaunchOptions, plan: Option<&LaunchPlan>| {
        let a = alloc_i32(st, &(0..64).collect::<Vec<_>>());
        let out = alloc_i32(st, &[0; 64]);
        let l = Launch {
            m: &m,
            kernel,
            dims: LaunchDims::linear(1, 64),
            args: vec![KArg::Ptr(a), KArg::Ptr(out)],
            opts,
        };
        describe(&match plan {
            Some(p) => l.through(st, p),
            None => l.fresh(st),
        })
    };
    let unchecked = run(&mut state(1 << 20), LaunchOptions::default(), Some(&p));
    assert!(!unchecked.starts_with("trap"), "{unchecked}");
    assert_eq!(p.timing_memo_len(), 1);

    let (mut hit_st, mut miss_st) = (state(1 << 20), state(1 << 20));
    let hit = run(&mut hit_st, checked, Some(&p));
    assert!(hit.starts_with(trap), "{kernel}: {hit}");
    assert_eq!(hit, run(&mut miss_st, checked, None));
    assert_eq!(
        hit_st.global.read_bytes(0x1_0000, 1024).unwrap(),
        miss_st.global.read_bytes(0x1_0000, 1024).unwrap()
    );
    assert_eq!(p.timing_memo_len(), 1);
}

#[test]
fn racecheck_reports_the_same_hazard_on_a_hit() {
    let opts = LaunchOptions {
        racecheck: true,
        ..LaunchOptions::default()
    };
    checks_hold_on_a_hit(RACY, "racy", opts, "trap: racecheck: shared-memory");
}

#[test]
fn strict_barriers_reject_the_same_barrier_on_a_hit() {
    let opts = LaunchOptions {
        strict_barriers: true,
        ..LaunchOptions::default()
    };
    checks_hold_on_a_hit(
        HALF_BARRIER,
        "half_barrier",
        opts,
        "trap: divergent barrier",
    );
}

const VICTIM: &str = r#"
    __global__ void memo_victim(int* src, int* dst, int off) {
        int t = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        dst[t + off] = src[t] * 2 + 1;
    }
"#;

/// Injected faults fire the same whether the launch would hit or miss.
/// One test, because a fault plan is process-wide; it targets a kernel
/// name no other test launches.
#[test]
fn injected_faults_behave_the_same_on_a_hit() {
    let m = module(VICTIM);
    let p = plan(&m, "memo_victim");
    let victim = |st: &mut DeviceState| {
        let mut l = copy_at(&m, st, 0);
        l.kernel = "memo_victim";
        l
    };
    let target = || Target::Kernel("memo_victim".into());

    // A transient device fault, first on a would-be miss, then on a
    // would-be hit: the same error, device memory untouched.
    let fault_once =
        || Arc::new(FaultPlan::new(5).rule(FaultRule::new(FaultKind::EccFault, target()).nth(1)));
    let mut faulted = Vec::new();
    for _ in 0..2 {
        let mut st = state(1 << 20);
        let l = victim(&mut st);
        let before = st.global.read_bytes(0x1_0000, 1024).unwrap().to_vec();
        ks_fault::install(fault_once());
        faulted.push(describe(&l.through(&mut st, &p)));
        ks_fault::clear();
        assert_eq!(st.global.read_bytes(0x1_0000, 1024).unwrap(), before);
        // The retry succeeds: a miss the first time round, then a hit.
        assert!(l.through(&mut st, &p).is_ok());
        assert_eq!(p.timing_memo_len(), 1);
    }
    assert!(
        faulted[0].contains("injected fault: ecc-fault"),
        "{}",
        faulted[0]
    );
    assert_eq!(faulted[0], faulted[1]);

    // A seeded silent flip lands on the same bit of the same word: its
    // address comes from the sample's recorded stores, which a hit takes
    // from the memo.
    let flip = || {
        Arc::new(FaultPlan::new(77).rule(FaultRule::new(FaultKind::SilentFlip, target()).nth(1)))
    };
    let mut flipped = Vec::new();
    for plan in [None, Some(&p)] {
        let mut st = state(1 << 20);
        let l = victim(&mut st);
        let f = flip();
        ks_fault::install(f.clone());
        let r = match plan {
            Some(p) => l.through(&mut st, p),
            None => l.fresh(&mut st),
        };
        ks_fault::clear();
        assert!(r.is_ok());
        assert_eq!(f.injected_count(), 1);
        flipped.push(st.global.read_i32_slice(0x1_0000 + 256, 64).unwrap());
    }
    let clean: Vec<i32> = (0..64).map(|i| i * 2 + 1).collect();
    let bits: u32 = clean
        .iter()
        .zip(&flipped[0])
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(bits, 1, "exactly one bit flipped");
    assert_eq!(flipped[0], flipped[1], "the hit flipped another bit");
}

const CONST_READER: &str = r#"
    __constant__ int k[16];
    __global__ void fixed_const(int* out) {
        int t = (int)threadIdx.x;
        if (t < k[1]) { out[t] = t; }
    }
    __global__ void indexed_const(int* out) {
        int t = (int)threadIdx.x;
        if (t < k[t & 7]) { out[t] = t; }
    }
"#;

/// `k[1]` bounds how many threads store: a changed constant changes the
/// timing, so it must miss; a constant the kernel cannot read must not.
#[test]
fn constant_bytes_and_pointer_arguments_are_keyed() {
    let m = module(CONST_READER);
    for (kernel, unread_hits) in [("fixed_const", true), ("indexed_const", false)] {
        let p = plan(&m, kernel);
        assert!(p.timing_is_data_independent(), "{kernel}");
        let mut st = state(1 << 20);
        let out = alloc_i32(&mut st, &[0; 64]);
        let other = alloc_i32(&mut st, &[0; 64]);
        let mut expect_len = 0;
        let mut step = |st: &mut DeviceState, consts: [i32; 16], ptr: u64, hit: bool| {
            let bytes: Vec<u8> = consts.iter().flat_map(|v| v.to_le_bytes()).collect();
            st.set_const(&m, "k", &bytes).unwrap();
            let l = Launch {
                m: &m,
                kernel,
                dims: LaunchDims::linear(1, 64),
                args: vec![KArg::Ptr(ptr)],
                opts: LaunchOptions::default(),
            };
            let got = describe(&l.through(st, &p));
            assert_eq!(got, describe(&l.fresh(st)), "{kernel}");
            expect_len += usize::from(!hit);
            assert_eq!(p.timing_memo_len(), expect_len, "{kernel}: hit = {hit}");
            got
        };
        let mut consts = [40; 16];
        let base = step(&mut st, consts, out, false);
        assert_eq!(step(&mut st, consts, out, true), base);
        // A word neither kernel reads: only the whole-bank key of the
        // indexed kernel sees it change.
        consts[9] = 3;
        step(&mut st, consts, out, unread_hits);
        // The word both read: the timing moves, and the key did.
        consts[1] = 10;
        let fewer = step(&mut st, consts, out, false);
        assert_ne!(fewer, base, "{kernel}");
        // Another output buffer.
        step(&mut st, consts, other, false);
        step(&mut st, consts, other, true);
    }
}
