//! # ks-fault — deterministic, seeded fault injection
//!
//! The dissertation's adaptability story makes compilation and kernel
//! launch *runtime* operations: GPU-PF re-specializes kernels mid-run,
//! which means the pipeline must survive compiles that fail and launches
//! that fault. This crate is the failure model the resilience layer in
//! ks-core and gpu-pf is tested against.
//!
//! A [`FaultPlan`] is a seeded list of [`FaultRule`]s. Each rule targets
//! a site (`compile` or `launch`), selects victims by kernel name, cache
//! key, or `-D` define substring ([`Target`]), and fires either on exact
//! occurrence numbers (`nth`), for a bounded number of injections
//! (`limit`), or probabilistically at a fixed parts-per-million rate
//! driven by a SplitMix64 stream keyed on `(seed, rule, identity,
//! occurrence)`. **Determinism is the contract**: the same plan, seed,
//! and sequence of `check_*` calls produce the same injections and a
//! byte-identical [`FaultPlan::event_log`] — no wall-clock, no global
//! RNG. That is what lets CI run a fault drill twice and `diff` the
//! output, and what makes failures found under injection replayable.
//!
//! Consumers poll the plan at their existing instrumentation points:
//!
//! * ks-core calls [`FaultPlan::check_compile`] before running the real
//!   compile pipeline (per attempt, so retries re-roll the dice);
//! * ks-sim calls [`FaultPlan::check_device_keyed`] at the top of
//!   `launch`, before any device state is touched, so injected device
//!   faults are always retry-safe.
//!
//! Plans are attached per-compiler (`Compiler::with_fault_plan`) or
//! process-wide via [`install`]; [`active`] is a lock-free no-op when
//! nothing is installed, so production binaries pay one relaxed atomic
//! load per site.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// What kind of failure to inject. Compile-site kinds surface as
/// `CompileError`s (or a panic) from ks-core; device-site kinds surface
/// as `SimError`s from `ks_sim::launch_planned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The compile returns an error ("nvcc" failure analogue).
    CompileError,
    /// The compile panics (compiler bug analogue); exercises the
    /// single-flight panic handoff and `catch_panics` resilience.
    CompilePanic,
    /// The compile reports exceeding its deadline.
    CompileTimeout,
    /// The kernel launch times out (watchdog analogue).
    LaunchTimeout,
    /// Device memory allocation fails at launch.
    DeviceOom,
    /// An uncorrectable ECC/memory fault is reported at launch.
    EccFault,
    /// A *silent* data corruption: the launch succeeds, but one bit of
    /// an output buffer is flipped after the kernel completes — the
    /// caller sees `Ok`. Unlike every other launch kind this never
    /// surfaces as an error; ks-sim applies the flip to device memory
    /// using the fault's [`InjectedFault::entropy`], so placement is as
    /// deterministic as the injection decision itself. Only an
    /// end-to-end integrity check (golden checksum or witness re-run)
    /// can catch it.
    SilentFlip,
    /// A background compile worker drops the job before compiling
    /// (killed-worker analogue). Checked at the worker site — the ticket
    /// resolves with an error, the pool thread survives, and the
    /// blocking compile path never sees it.
    WorkerDrop,
}

impl FaultKind {
    /// Which instrumentation site checks this kind.
    fn site(self) -> Site {
        match self {
            FaultKind::CompileError | FaultKind::CompilePanic | FaultKind::CompileTimeout => {
                Site::Compile
            }
            FaultKind::LaunchTimeout
            | FaultKind::DeviceOom
            | FaultKind::EccFault
            | FaultKind::SilentFlip => Site::Launch,
            FaultKind::WorkerDrop => Site::Worker,
        }
    }

    /// Stable lowercase label used in messages and the event log.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CompileError => "compile-error",
            FaultKind::CompilePanic => "compile-panic",
            FaultKind::CompileTimeout => "compile-timeout",
            FaultKind::LaunchTimeout => "launch-timeout",
            FaultKind::DeviceOom => "device-oom",
            FaultKind::EccFault => "ecc-fault",
            FaultKind::SilentFlip => "silent-flip",
            FaultKind::WorkerDrop => "worker-drop",
        }
    }
}

/// Which compiles/launches a rule applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Every check at the rule's site.
    Any,
    /// Kernels whose name matches exactly (first `__global__` name of
    /// the translation unit at the compile site; the launched kernel at
    /// the device site).
    Kernel(String),
    /// A specific specialization cache key. Matches at the compile and
    /// worker sites, and at the launch site when the caller identifies
    /// the bound binary via [`FaultPlan::check_device_keyed`] — which is
    /// how a drill faults launches of one exact variant.
    Key(u64),
    /// Checks whose `-D` command line contains this substring. This is
    /// how a plan faults *specialized* variants of a kernel while
    /// letting the generic (define-free) build through — the fallback
    /// path gpu-pf degrades onto. An empty `-D` line never matches.
    Define(String),
}

impl Target {
    fn matches(&self, identity: &str, key: u64, defines: &str) -> bool {
        match self {
            Target::Any => true,
            Target::Kernel(name) => name == identity,
            Target::Key(k) => *k == key,
            Target::Define(s) => !defines.is_empty() && defines.contains(s.as_str()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Compile,
    Launch,
    /// A background compile job on its worker, before it compiles.
    Worker,
}

impl Site {
    fn label(self) -> &'static str {
        match self {
            Site::Compile => "compile",
            Site::Launch => "launch",
            Site::Worker => "worker",
        }
    }
}

/// One injection rule. Build with [`FaultRule::new`] and the fluent
/// setters; fires when the target matches and the occurrence/limit/rate
/// gates all pass.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub kind: FaultKind,
    pub target: Target,
    /// Transient faults are expected to clear on retry (the resilience
    /// layer retries them); persistent faults reproduce every time.
    pub transient: bool,
    /// Injection probability in parts per million (1_000_000 = always).
    pub rate_ppm: u32,
    /// Fire only on exactly the nth matching occurrence (1-based),
    /// counted per identity.
    pub nth: Option<u64>,
    /// Stop after this many injections from this rule (across all
    /// identities). `limit(3)` with an always-firing rule models a fault
    /// that clears after three attempts.
    pub limit: Option<u64>,
}

impl FaultRule {
    pub fn new(kind: FaultKind, target: Target) -> FaultRule {
        FaultRule {
            kind,
            target,
            transient: true,
            rate_ppm: 1_000_000,
            nth: None,
            limit: None,
        }
    }

    /// Mark the fault persistent: retries observe it again.
    pub fn persistent(mut self) -> FaultRule {
        self.transient = false;
        self
    }

    /// Fire probabilistically at `ppm` parts per million.
    pub fn rate_ppm(mut self, ppm: u32) -> FaultRule {
        self.rate_ppm = ppm.min(1_000_000);
        self
    }

    /// Fire only on the nth matching occurrence (1-based, per identity).
    pub fn nth(mut self, n: u64) -> FaultRule {
        self.nth = Some(n);
        self
    }

    /// Cap total injections from this rule.
    pub fn limit(mut self, n: u64) -> FaultRule {
        self.limit = Some(n);
        self
    }
}

/// A fault the plan decided to inject, returned to the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    pub kind: FaultKind,
    pub transient: bool,
    /// Which matching occurrence (1-based, per identity) fired.
    pub occurrence: u64,
    /// The kernel name (or `"?"` when unknown) the check was made for.
    pub identity: String,
    /// Deterministic per-injection entropy: a SplitMix64 output keyed on
    /// `(seed, rule, identity, occurrence)` under a domain tag distinct
    /// from the rate-roll stream. Consumers that need seeded randomness
    /// beyond the fire/no-fire decision (e.g. where a [`FaultKind::
    /// SilentFlip`] lands) draw from this so replays stay byte-exact.
    pub entropy: u64,
}

impl InjectedFault {
    /// Deterministic human-readable message for error payloads. The
    /// `(transient)`/`(persistent)` marker is load-bearing: retry layers
    /// key off it (`SimError::is_transient`).
    pub fn message(&self) -> String {
        format!(
            "injected fault: {} on `{}` ({}, occurrence {})",
            self.kind.label(),
            self.identity,
            if self.transient {
                "transient"
            } else {
                "persistent"
            },
            self.occurrence
        )
    }
}

/// One line of the deterministic event log.
#[derive(Debug)]
struct FaultEvent {
    /// `"compile"` or `"launch"`.
    pub site: &'static str,
    pub kind: FaultKind,
    pub identity: String,
    pub occurrence: u64,
    pub transient: bool,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[fault] site={} kind={} id={} occ={} {}",
            self.site,
            self.kind.label(),
            self.identity,
            self.occurrence,
            if self.transient {
                "transient"
            } else {
                "persistent"
            }
        )
    }
}

#[derive(Default)]
struct PlanState {
    /// Matching-occurrence counters per (rule index, identity).
    occurrences: HashMap<(usize, String), u64>,
    /// Injections fired per rule (for `limit`).
    injected: Vec<u64>,
    events: Vec<FaultEvent>,
}

/// A seeded, deterministic fault-injection plan. See the crate docs.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    state: Mutex<PlanState>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
            state: Mutex::new(PlanState::default()),
        }
    }

    /// Append a rule (builder style). Rules are checked in insertion
    /// order; the first one that fires wins.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self.state.get_mut().injected.push(0);
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Build a plan from `KS_FAULT_*` environment variables:
    /// `KS_FAULT_SEED` (u64), `KS_FAULT_COMPILE_PPM`,
    /// `KS_FAULT_DEVICE_PPM`, and `KS_FAULT_SILENT_PPM` (silent output
    /// bit flips). Returns `None` when no rate is set, so unconfigured
    /// processes keep the zero-cost fast path.
    pub fn from_env() -> Option<FaultPlan> {
        fn var_u64(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.trim().parse().ok()
        }
        let compile_ppm = var_u64("KS_FAULT_COMPILE_PPM").unwrap_or(0) as u32;
        let device_ppm = var_u64("KS_FAULT_DEVICE_PPM").unwrap_or(0) as u32;
        let silent_ppm = var_u64("KS_FAULT_SILENT_PPM").unwrap_or(0) as u32;
        if compile_ppm == 0 && device_ppm == 0 && silent_ppm == 0 {
            return None;
        }
        let mut plan = FaultPlan::new(var_u64("KS_FAULT_SEED").unwrap_or(0));
        if compile_ppm > 0 {
            plan = plan
                .rule(FaultRule::new(FaultKind::CompileError, Target::Any).rate_ppm(compile_ppm));
        }
        if device_ppm > 0 {
            plan = plan
                .rule(FaultRule::new(FaultKind::LaunchTimeout, Target::Any).rate_ppm(device_ppm));
        }
        if silent_ppm > 0 {
            plan =
                plan.rule(FaultRule::new(FaultKind::SilentFlip, Target::Any).rate_ppm(silent_ppm));
        }
        Some(plan)
    }

    /// Should this compile attempt fault? `identity` is the kernel name
    /// (first `__global__` in the unit), `key` the specialization cache
    /// key, `defines` the rendered `-D` command line. Called once per
    /// *attempt*, so a bounded transient fault clears under retry.
    pub fn check_compile(&self, identity: &str, key: u64, defines: &str) -> Option<InjectedFault> {
        self.check(Site::Compile, identity, key, defines)
    }

    /// Should this kernel launch fault? Called before any device state
    /// is modified, so injected device faults are always retry-safe.
    /// The bound binary is identified by its canonical specialization
    /// cache key and rendered `-D` command line, so launch faults can be
    /// scoped to one exact variant (`Target::Key` / `Target::Define`).
    /// gpu-pf calls this for every pipeline launch with the key of
    /// whichever binary is bound — generic, specialized, or
    /// last-known-good.
    pub fn check_device_keyed(
        &self,
        kernel: &str,
        key: u64,
        defines: &str,
    ) -> Option<InjectedFault> {
        self.check(Site::Launch, kernel, key, defines)
    }

    /// Should the background worker drop this job? Called by the async
    /// compile tier on the job's worker, before the compile runs;
    /// an injection resolves the ticket with an error without touching
    /// the cache, so the blocking path is unaffected.
    pub fn check_worker(&self, identity: &str, key: u64, defines: &str) -> Option<InjectedFault> {
        self.check(Site::Worker, identity, key, defines)
    }

    fn check(&self, site: Site, identity: &str, key: u64, defines: &str) -> Option<InjectedFault> {
        let mut st = self.state.lock();
        for (i, rule) in self.rules.iter().enumerate() {
            if rule.kind.site() != site {
                continue;
            }
            if !rule.target.matches(identity, key, defines) {
                continue;
            }
            let occ = st
                .occurrences
                .entry((i, identity.to_string()))
                .and_modify(|o| *o += 1)
                .or_insert(1);
            let occ = *occ;
            if let Some(n) = rule.nth {
                if occ != n {
                    continue;
                }
            }
            if let Some(limit) = rule.limit {
                if st.injected[i] >= limit {
                    continue;
                }
            }
            let stream = self.seed
                ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ fnv1a(identity).wrapping_mul(0x5851_F42D_4C95_7F2D)
                ^ occ;
            if rule.rate_ppm < 1_000_000 {
                let roll = splitmix64(stream);
                if (roll % 1_000_000) as u32 >= rule.rate_ppm {
                    continue;
                }
            }
            st.injected[i] += 1;
            let fault = InjectedFault {
                kind: rule.kind,
                transient: rule.transient,
                occurrence: occ,
                identity: identity.to_string(),
                // A second draw under a domain tag keeps the placement
                // stream independent of the fire/no-fire roll.
                entropy: splitmix64(stream ^ 0xB17F_11B5_ED5D_C0DE),
            };
            st.events.push(FaultEvent {
                site: site.label(),
                kind: rule.kind,
                identity: identity.to_string(),
                occurrence: occ,
                transient: rule.transient,
            });
            return Some(fault);
        }
        None
    }

    /// Total injections fired so far.
    pub fn injected_count(&self) -> u64 {
        self.state.lock().injected.iter().sum()
    }

    /// The deterministic event log: one line per injection, no
    /// timestamps, byte-identical across runs with the same seed and
    /// call sequence.
    pub fn event_log(&self) -> String {
        let st = self.state.lock();
        let mut out = String::new();
        for e in &st.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// SplitMix64 finalizer — a tiny, well-distributed stateless mixer. The
/// decision stream is a pure function of (seed, rule, identity,
/// occurrence), which is what makes rate-based injection replayable.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

static INSTALLED: AtomicBool = AtomicBool::new(false);

fn global_plan() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(None))
}

/// Install a process-wide plan consulted by every compile and launch
/// that doesn't have a per-compiler plan attached. Replaces any
/// previous plan.
pub fn install(plan: Arc<FaultPlan>) {
    *global_plan().lock() = Some(plan);
    INSTALLED.store(true, Ordering::Release);
}

/// Remove the process-wide plan.
pub fn clear() {
    *global_plan().lock() = None;
    INSTALLED.store(false, Ordering::Release);
}

/// The process-wide plan, if any. One relaxed atomic load when nothing
/// is installed — cheap enough for per-launch polling.
pub fn active() -> Option<Arc<FaultPlan>> {
    if !INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    global_plan().lock().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_occurrence_fires_once_per_identity() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::new(FaultKind::CompileError, Target::Kernel("k".into())).nth(2));
        assert!(plan.check_compile("k", 0, "").is_none());
        let f = plan.check_compile("k", 0, "").expect("2nd occurrence");
        assert_eq!(f.occurrence, 2);
        assert!(plan.check_compile("k", 0, "").is_none());
        // A different kernel has its own occurrence stream.
        assert!(plan.check_compile("other", 0, "").is_none());
    }

    #[test]
    fn limit_clears_after_n_injections() {
        let plan =
            FaultPlan::new(7).rule(FaultRule::new(FaultKind::CompileError, Target::Any).limit(3));
        for _ in 0..3 {
            assert!(plan.check_compile("k", 9, "").is_some());
        }
        assert!(plan.check_compile("k", 9, "").is_none());
        assert_eq!(plan.injected_count(), 3);
    }

    #[test]
    fn define_target_spares_generic_compiles() {
        let plan = FaultPlan::new(0).rule(
            FaultRule::new(FaultKind::CompileError, Target::Define("-D FACTOR=".into()))
                .persistent(),
        );
        assert!(plan.check_compile("scale", 1, "-D FACTOR=4").is_some());
        assert!(plan.check_compile("scale", 2, "").is_none());
    }

    #[test]
    fn rate_stream_is_deterministic_and_roughly_calibrated() {
        let run = || {
            let plan = FaultPlan::new(42)
                .rule(FaultRule::new(FaultKind::CompileError, Target::Any).rate_ppm(100_000));
            let mut hits = 0u32;
            for i in 0..10_000 {
                let id = format!("k{}", i % 64);
                if plan.check_compile(&id, 0, "").is_some() {
                    hits += 1;
                }
            }
            (hits, plan.event_log())
        };
        let (a, log_a) = run();
        let (b, log_b) = run();
        assert_eq!(a, b);
        assert_eq!(log_a, log_b, "event log must be byte-identical");
        // 10% nominal on 10k trials: accept a generous band.
        assert!((500..2_000).contains(&a), "hit count {a} out of band");
    }

    #[test]
    fn device_checks_ignore_compile_rules_and_vice_versa() {
        let plan = FaultPlan::new(3)
            .rule(FaultRule::new(FaultKind::CompileError, Target::Any))
            .rule(FaultRule::new(FaultKind::LaunchTimeout, Target::Kernel("k".into())).nth(1));
        let d = plan.check_device_keyed("k", 0, "").expect("launch rule");
        assert_eq!(d.kind, FaultKind::LaunchTimeout);
        assert!(d.message().contains("(transient"), "{}", d.message());
        let c = plan.check_compile("k", 0, "").expect("compile rule");
        assert_eq!(c.kind, FaultKind::CompileError);
    }

    #[test]
    fn worker_site_is_independent_of_compile_and_launch() {
        let plan = FaultPlan::new(9)
            .rule(FaultRule::new(FaultKind::WorkerDrop, Target::Define("-D F=".into())).limit(1));
        // Compile and launch sites never see worker rules.
        assert!(plan.check_compile("k", 0, "-D F=3").is_none());
        assert!(plan.check_device_keyed("k", 0, "").is_none());
        // Generic (define-free) jobs are spared by the Define target.
        assert!(plan.check_worker("k", 0, "").is_none());
        let f = plan.check_worker("k", 0, "-D F=3").expect("worker drop");
        assert_eq!(f.kind, FaultKind::WorkerDrop);
        assert!(f.message().contains("worker-drop"), "{}", f.message());
        // limit(1) exhausted.
        assert!(plan.check_worker("k", 0, "-D F=3").is_none());
        assert!(
            plan.event_log().contains("site=worker"),
            "{}",
            plan.event_log()
        );
    }

    #[test]
    fn launch_faults_match_on_key_and_define_when_keyed() {
        // Regression: the old `site != Site::Launch` guard in
        // `Target::matches` made per-variant launch drills impossible —
        // a Key/Define-targeted launch rule could never fire.
        let plan = FaultPlan::new(11)
            .rule(FaultRule::new(FaultKind::SilentFlip, Target::Key(0xBEEF)).nth(1))
            .rule(
                FaultRule::new(
                    FaultKind::LaunchTimeout,
                    Target::Define("-D TILE_W=".into()),
                )
                .nth(1),
            );
        // Key 0 and an empty -D line match neither selector.
        assert!(plan.check_device_keyed("k", 0, "").is_none());
        // Wrong key / non-matching defines: spared.
        assert!(plan.check_device_keyed("k", 0xF00D, "-D OTHER=1").is_none());
        // The exact variant: both selectors now fire at the launch site.
        let f = plan
            .check_device_keyed("k", 0xBEEF, "-D OTHER=1")
            .expect("key-scoped launch fault");
        assert_eq!(f.kind, FaultKind::SilentFlip);
        let g = plan
            .check_device_keyed("k", 0x1234, "-D TILE_W=16")
            .expect("define-scoped launch fault");
        assert_eq!(g.kind, FaultKind::LaunchTimeout);
        assert!(plan.event_log().contains("site=launch"));
    }

    #[test]
    fn silent_flip_entropy_is_deterministic_and_decoupled() {
        let draw = || {
            let plan = FaultPlan::new(21)
                .rule(FaultRule::new(FaultKind::SilentFlip, Target::Kernel("k".into())).nth(2));
            assert!(plan.check_device_keyed("k", 1, "-D A=1").is_none());
            plan.check_device_keyed("k", 1, "-D A=1").expect("nth(2)")
        };
        let a = draw();
        let b = draw();
        assert_eq!(a.entropy, b.entropy, "entropy must replay exactly");
        assert_ne!(a.entropy, 0);
        // Distinct occurrences draw distinct placement entropy.
        let plan = FaultPlan::new(21)
            .rule(FaultRule::new(FaultKind::SilentFlip, Target::Kernel("k".into())).limit(2));
        let e1 = plan.check_device_keyed("k", 0, "").unwrap().entropy;
        let e2 = plan.check_device_keyed("k", 0, "").unwrap().entropy;
        assert_ne!(e1, e2);
    }

    #[test]
    fn install_clear_roundtrip() {
        assert!(active().is_none());
        install(Arc::new(FaultPlan::new(5)));
        assert!(active().is_some());
        clear();
        assert!(active().is_none());
    }
}
