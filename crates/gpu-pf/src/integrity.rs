//! End-to-end output integrity: checksums, the generic-binary witness,
//! N-of-M re-execution voting, and recovery (DESIGN §14). A convicted
//! variant is handed to [`crate::select`]'s ladder, like any other
//! reason a module cannot serve its exact binary.

use crate::select::bound_key;
use crate::{Arg, Launch, NoDeviceMem, PfError, Pipeline, Resource};
use ks_core::{Defines, Fingerprint};
use ks_sim::LaunchReport;

/// End-to-end output-integrity checking for kernel executions
/// ([`Pipeline::set_integrity`]).
///
/// When enabled, every `Exec` action snapshots its device-memory
/// arguments before launching, checksums them after (FNV-1a-128 via
/// [`ks_core::StableHasher`]), and periodically *witnesses* the result:
/// the inputs are restored and the generic (define-free) binary —
/// compiled from the same source, reading its runtime arguments — re-runs
/// on them. Specialization is semantics-preserving, so any byte
/// divergence between the specialized output and the witness output is
/// an integrity violation: either a transient device flip or a corrupt
/// specialized binary. N-of-M re-execution voting tells the two apart,
/// the degradation ladder quarantines a corrupt variant, and the
/// iteration re-executes so downstream actions only ever see verified
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Witness every Nth integrity-checked execution (1 = every one).
    /// 0 disables periodic witnessing: a witness then runs only when a
    /// pinned golden checksum ([`Pipeline::expect_checksum`]) mismatches.
    pub witness_period: u64,
    /// Re-execution votes cast when a witness disagrees (the M in
    /// N-of-M).
    pub vote_m: u32,
    /// Votes that must agree with the witness to call the divergence a
    /// transient device flip (the N). Fewer agreements convict the
    /// specialized binary itself, which is then quarantined.
    pub vote_n: u32,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            witness_period: 16,
            vote_m: 3,
            vote_n: 2,
        }
    }
}

/// What first exposed an integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A pinned golden checksum ([`Pipeline::expect_checksum`])
    /// mismatched, and the witness confirmed the divergence.
    GoldenMismatch,
    /// A scheduled witness launch disagreed with the specialized output.
    WitnessMismatch,
}

/// Root cause assigned by N-of-M re-execution voting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Re-executions of the same specialized binary agree with the
    /// witness: the original output was corrupted in flight (an SDC
    /// event), not by the binary. The variant keeps serving.
    TransientFlip,
    /// Re-executions reproduce the divergence: the specialized binary
    /// itself computes wrong bytes. The variant is quarantined through
    /// the degradation ladder and the generic binary takes over.
    CorruptBinary,
}

/// One detected-and-adjudicated output-integrity violation.
#[derive(Debug, Clone)]
pub struct IntegrityViolation {
    /// Pipeline iteration the violating execution ran in.
    pub iteration: u64,
    /// The `Exec` action's label.
    pub label: String,
    /// Resource index of the module whose binary was suspect.
    pub module: usize,
    /// Kernel name launched.
    pub kernel: String,
    /// Canonical cache key of the suspect variant.
    pub key: Fingerprint,
    /// The suspect variant's `-D` command line.
    pub defines: String,
    pub kind: ViolationKind,
    pub verdict: Verdict,
    /// Votes that agreed with the witness, out of `votes_total` cast.
    pub votes_agree: u32,
    pub votes_total: u32,
    /// The post-recovery re-execution reproduced the witness output
    /// byte-for-byte — downstream actions saw verified bytes.
    pub recovered: bool,
}

/// Per-pipeline integrity accounting: this pipeline's share of the
/// `gpu_pf.integrity.*` registry counters (which sum it globally and
/// under the pipeline's label scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Executions that ran with integrity checking active.
    pub checks: u64,
    /// Witness launches performed (generic re-runs on restored inputs).
    pub witness_launches: u64,
    /// Violations detected (witness disagreed with the checked output).
    pub violations: u64,
    /// Violations adjudicated as transient device flips.
    pub transient_flips: u64,
    /// Violations adjudicated as corrupt specialized binaries.
    pub corrupt_binaries: u64,
    /// Violations whose recovery re-execution matched the witness.
    pub recovered: u64,
    /// Voting and recovery re-executions of the checked kernel.
    pub reexecutions: u64,
}

impl Pipeline {
    /// Enable (or disable, with `None`) end-to-end output-integrity
    /// checking for every `Exec` action. See [`IntegrityConfig`].
    pub fn set_integrity(&mut self, cfg: Option<IntegrityConfig>) {
        self.integrity = cfg;
    }

    /// Per-pipeline integrity accounting.
    pub fn integrity_stats(&self) -> IntegrityStats {
        let m = &self.metrics;
        IntegrityStats {
            checks: m.integrity_checks.get(),
            witness_launches: m.integrity_witness.get(),
            violations: m.integrity_violations.get(),
            transient_flips: m.integrity_transient.get(),
            corrupt_binaries: m.integrity_corrupt.get(),
            recovered: m.integrity_recovered.get(),
            reexecutions: m.integrity_reexecs.get(),
        }
    }

    /// Every detected integrity violation (oldest first).
    pub fn integrity_violations(&self) -> &[IntegrityViolation] {
        &self.violations
    }

    /// Pin the expected output checksum for an `Exec` action's label.
    /// While integrity checking is on, any execution whose observed
    /// checksum differs triggers an immediate witness — even between
    /// scheduled witness periods. Only pin stages whose inputs are
    /// stationary across iterations; for streaming stages rely on the
    /// periodic witness instead.
    pub fn expect_checksum(&mut self, label: &str, checksum: Fingerprint) {
        self.golden.insert(label.to_string(), checksum);
    }

    /// The most recent observed output checksum (FNV-1a-128 over the
    /// execution's device-memory arguments; `Display` is the 32-hex
    /// form) for an exec label, once integrity checking has seen it
    /// fire.
    pub fn last_checksum(&self, label: &str) -> Option<Fingerprint> {
        self.observed_checksums.get(label).copied()
    }

    fn observe_checksum(&mut self, label: &str, sum: Fingerprint) {
        match self.observed_checksums.get_mut(label) {
            Some(seen) => *seen = sum,
            None => {
                self.observed_checksums.insert(label.to_string(), sum);
            }
        }
    }

    /// `(addr, bytes)` of every device-memory argument of an exec — the
    /// buffers integrity checking snapshots, checksums, and compares.
    /// Kernels can only write through the pointers they receive, so the
    /// `Arg::Mem` set covers the execution's entire write set.
    pub(crate) fn mem_arg_buffers(&self, args: &[Arg]) -> Result<Vec<(u64, u64)>, PfError> {
        let mut bufs = Vec::new();
        for a in args {
            let Arg::Mem(r) = a else { continue };
            bufs.push(self.device_mem(*r).map_err(NoDeviceMem::bind_error)?);
        }
        Ok(bufs)
    }

    pub(crate) fn read_bufs(&self, bufs: &[(u64, u64)]) -> Result<Vec<Vec<u8>>, PfError> {
        bufs.iter()
            .map(|&(a, n)| Ok(self.state.global.read_bytes(a, n)?.to_vec()))
            .collect()
    }

    fn write_bufs(&mut self, bufs: &[(u64, u64)], data: &[Vec<u8>]) -> Result<(), PfError> {
        for (&(a, _), d) in bufs.iter().zip(data) {
            self.state.global.write_bytes(a, d)?;
        }
        Ok(())
    }

    /// Post-launch output-integrity check for one `Exec` firing: observe
    /// the output checksum, witness with the generic binary when due (or
    /// when a pinned golden checksum mismatches), adjudicate any
    /// divergence by N-of-M re-execution voting, quarantine a corrupt
    /// variant, and re-execute so the device holds verified bytes when
    /// this returns. Returns the launch report that ultimately produced
    /// the surviving output.
    pub(crate) fn check_integrity(
        &mut self,
        cfg: IntegrityConfig,
        module_idx: usize,
        l: &Launch,
        bufs: &[(u64, u64)],
        pre: &[Vec<u8>],
        report: LaunchReport,
    ) -> Result<LaunchReport, PfError> {
        let label = l.label;
        self.metrics.integrity_checks.inc();
        self.integrity_seq += 1;
        let post = self.read_bufs(bufs)?;
        let observed = checksum(&post);
        let golden_mismatch = self
            .golden
            .get(label)
            .is_some_and(|pinned| *pinned != observed);
        self.observe_checksum(label, observed);
        let witness_due =
            cfg.witness_period > 0 && self.integrity_seq.is_multiple_of(cfg.witness_period);
        if !witness_due && !golden_mismatch {
            return Ok(report);
        }
        // Witness: re-run the generic (define-free) binary — compiled
        // from the same source, reading its runtime arguments — on the
        // restored inputs. Compile before touching device state so an
        // unavailable witness leaves the original output in place.
        let Some(module) = self.module_at(module_idx) else {
            return Ok(report);
        };
        let generic = match self.compiler.compile(&module.source, Defines::new()) {
            Ok(g) => g,
            Err(e) => {
                self.log.line_with(|| {
                    format!("  [integrity] {label}: witness unavailable (generic compile: {e})")
                });
                return Ok(report);
            }
        };
        let gkey = bound_key(&generic);
        let witness_launch = Launch {
            bin: &generic,
            bound: &gkey,
            ..*l
        };
        self.metrics.integrity_witness.inc();
        self.write_bufs(bufs, pre)?;
        self.launch_with_retry(&witness_launch)?;
        let witness = self.read_bufs(bufs)?;
        if witness == post {
            if golden_mismatch {
                // The computation is self-consistent across two distinct
                // binaries; the pinned expectation is stale for this
                // input. Surface it, but do not convict anything.
                self.log.line_with(|| {
                    format!(
                        "  [integrity] {label}: pinned checksum mismatch but witness \
                         agrees (observed {observed}); pin is stale for this input"
                    )
                });
            }
            // Device state already equals the verified output.
            return Ok(report);
        }
        // Divergence: either the original output was corrupted in flight
        // or the specialized binary computes wrong bytes. Vote: restore
        // the inputs and re-run the *same* specialized binary; runs that
        // agree with the witness exonerate the binary.
        self.metrics.integrity_violations.inc();
        let kind = if golden_mismatch {
            ViolationKind::GoldenMismatch
        } else {
            ViolationKind::WitnessMismatch
        };
        let mut votes_agree = 0u32;
        for _ in 0..cfg.vote_m {
            self.write_bufs(bufs, pre)?;
            self.launch_with_retry(l)?;
            self.metrics.integrity_reexecs.inc();
            if self.read_bufs(bufs)? == witness {
                votes_agree += 1;
            }
        }
        let verdict = if votes_agree >= cfg.vote_n {
            self.metrics.integrity_transient.inc();
            Verdict::TransientFlip
        } else {
            // Quarantine the variant through the ladder: the generic
            // binary takes over, the module sits on a recorded fallback
            // (the next refresh retries the specialization), and the
            // degradation names the convicted variant.
            self.metrics.integrity_corrupt.inc();
            let error = format!(
                "integrity violation: specialized output diverges from generic \
                 witness ({votes_agree}/{} votes agreed with witness)",
                cfg.vote_m
            );
            let (resources, mut books) = self.split();
            if let Resource::Module(m) = &mut resources[module_idx] {
                m.convict(&mut books, module_idx, generic.clone(), error);
            }
            Verdict::CorruptBinary
        };
        // Recovery: restore the inputs once more and re-execute with the
        // binary the verdict left in service (the exonerated specialized
        // variant, or the generic that replaced a convicted one), so
        // downstream actions only ever see verified bytes.
        self.write_bufs(bufs, pre)?;
        let final_report = self.launch_with_retry(match verdict {
            Verdict::TransientFlip => l,
            Verdict::CorruptBinary => &witness_launch,
        })?;
        self.metrics.integrity_reexecs.inc();
        let final_out = self.read_bufs(bufs)?;
        let recovered = final_out == witness;
        if recovered {
            self.metrics.integrity_recovered.inc();
        }
        self.observe_checksum(label, checksum(&final_out));
        let violation = IntegrityViolation {
            iteration: self.iteration,
            label: label.to_string(),
            module: module_idx,
            kernel: l.kernel.to_string(),
            key: l.bound.fingerprint,
            defines: l.bound.defines.to_string(),
            kind,
            verdict,
            votes_agree,
            votes_total: cfg.vote_m,
            recovered,
        };
        self.log.line_with(|| {
            format!(
                "  [integrity] {label}: {:?} on variant {} [{}] -> {:?} \
                 ({votes_agree}/{} votes agreed with witness), recovered={recovered}",
                violation.kind, violation.key, violation.defines, violation.verdict, cfg.vote_m
            )
        });
        self.violations.push(violation);
        Ok(final_report)
    }
}

/// FNV-1a-128 over an execution's device-memory buffers (count- and
/// length-prefixed, via [`ks_core::StableHasher`]): the checksum
/// [`Pipeline::last_checksum`] reports and
/// [`Pipeline::expect_checksum`] pins, in the same form `ks-store`
/// fingerprints use.
fn checksum(bufs: &[Vec<u8>]) -> Fingerprint {
    let mut h = ks_core::StableHasher::new();
    h.str("gpu-pf.integrity.v1");
    h.usize(bufs.len());
    for b in bufs {
        h.bytes(b);
    }
    h.finish()
}
