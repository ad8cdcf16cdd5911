//! The timing memo.
//!
//! A kernel whose branch predicates and memory addresses never depend on
//! a value read from global, shared or local memory or through a texture
//! executes the same control flow and touches the same addresses whatever
//! the buffers hold. The scoreboard-timed sample of such a launch is then
//! a pure function of the device, the geometry, the sample count, the
//! argument bytes, the texture bindings and the constant bytes the kernel
//! can read. [`timing_is_data_independent`] decides that once per plan at
//! decode; the plan's [`TimingMemo`] keeps the last few samples, and a
//! launch that finds its [`Key`] there runs every block untimed and hands
//! the remembered per-block stats to the SM model.

use crate::device::DeviceConfig;
use crate::interp::ExecStats;
use crate::launch::LaunchDims;
use crate::plan::{Kind, Op, NONE};
use ks_ir::Space;
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};

/// Samples one plan remembers; the oldest is dropped first.
const CAPACITY: usize = 8;

/// What a launch did with its plan's memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The sample came from the memo; every block ran untimed.
    Hit,
    /// The sample blocks ran timed and the sample was remembered.
    Miss,
    /// The plan's timing can depend on data; there is no memo.
    Ineligible,
}

/// Whether no value loaded from global, shared or local memory or
/// fetched from a texture can reach a branch predicate or the address
/// of a load, store or fetch. A flow-insensitive taint fixpoint over the
/// virtual registers: loads from those spaces and fetches taint their
/// destination, any op with a tainted source taints its destination.
/// Constant and parameter loads are not sources: those bytes are part of
/// the memo [`Key`]. The ISA has no atomics and no clock register, so
/// nothing else lets timing see data.
pub(crate) fn timing_is_data_independent(ops: &[Op], num_vregs: usize) -> bool {
    let mut tainted = vec![false; num_vregs];
    // Immediate rows and `NONE` lie beyond the registers: never tainted.
    let is_tainted = |t: &[bool], row: u32| t.get(row as usize).copied().unwrap_or(false);
    let mut changed = true;
    while changed {
        changed = false;
        for op in ops {
            if op.dst == NONE || tainted[op.dst as usize] {
                continue;
            }
            let source = matches!(
                op.kind,
                Kind::Tex { .. }
                    | Kind::Ld {
                        space: Space::Global | Space::Shared | Space::Local,
                        ..
                    }
            );
            if source || [op.a, op.b, op.c].iter().any(|&r| is_tainted(&tainted, r)) {
                tainted[op.dst as usize] = true;
                changed = true;
            }
        }
    }
    ops.iter().all(|op| match op.kind {
        Kind::CondBr { .. } | Kind::Ld { .. } | Kind::St { .. } | Kind::Tex { .. } => {
            !is_tainted(&tainted, op.a)
        }
        _ => true,
    })
}

/// The constant-bank bytes a plan's loads can reach.
#[derive(Debug)]
pub(crate) enum ConstReads {
    /// Every constant load has an absolute address: the byte offsets of
    /// the words read, ascending (empty when nothing reads the bank).
    Words(Vec<usize>),
    /// Some constant load is indexed by a register: the whole bank.
    Bank,
}

impl ConstReads {
    pub(crate) fn of(ops: &[Op]) -> ConstReads {
        let mut words = Vec::new();
        for op in ops {
            if let Kind::Ld {
                space: Space::Const,
                ..
            } = op.kind
            {
                if op.a != NONE {
                    return ConstReads::Bank;
                }
                // A negative offset traps at run time; it reads nothing.
                if let Ok(off) = usize::try_from(op.imm) {
                    words.push(off);
                }
            }
        }
        words.sort_unstable();
        words.dedup();
        ConstReads::Words(words)
    }

    /// The bytes of `bank` this plan can read, as a key component. The
    /// whole bank is keyed without its trailing all-zero 64-byte chunks:
    /// with the device (and so the bank size) in the key, two banks are
    /// equal exactly when those prefixes are.
    fn key<'a>(&self, bank: &'a [u8]) -> Cow<'a, [u8]> {
        match self {
            ConstReads::Words(words) if words.is_empty() => Cow::Borrowed(&[]),
            ConstReads::Words(words) => Cow::Owned(
                words
                    .iter()
                    .flat_map(|&off| bank.get(off..off + 4).unwrap_or(&[]))
                    .copied()
                    .collect(),
            ),
            ConstReads::Bank => {
                let used = bank
                    .chunks(64)
                    .rposition(|c| c.iter().fold(0, |acc, &b| acc | b) != 0)
                    .map_or(0, |i| bank.len().min((i + 1) * 64));
                Cow::Borrowed(&bank[..used])
            }
        }
    }
}

/// Everything a data-independent launch's timing sample depends on,
/// compared exactly. A probe borrows the launch's own buffers; a stored
/// key owns copies. Options that do not change the sample (`functional`,
/// `racecheck`, `strict_barriers`, `event_timing`) are not in it.
#[derive(Debug, PartialEq)]
pub(crate) struct Key<'a> {
    dims: LaunchDims,
    sample_blocks: u32,
    params: Cow<'a, [u8]>,
    textures: Cow<'a, [u64]>,
    consts: Cow<'a, [u8]>,
    device: Cow<'a, DeviceConfig>,
}

impl<'a> Key<'a> {
    pub(crate) fn new(
        device: &'a DeviceConfig,
        dims: LaunchDims,
        sample_blocks: u32,
        params: &'a [u8],
        textures: &'a [u64],
        consts: &ConstReads,
        bank: &'a [u8],
    ) -> Key<'a> {
        Key {
            dims,
            sample_blocks,
            params: Cow::Borrowed(params),
            textures: Cow::Borrowed(textures),
            consts: consts.key(bank),
            device: Cow::Borrowed(device),
        }
    }

    fn into_owned(self) -> Key<'static> {
        Key {
            dims: self.dims,
            sample_blocks: self.sample_blocks,
            params: Cow::Owned(self.params.into_owned()),
            textures: Cow::Owned(self.textures.into_owned()),
            consts: Cow::Owned(self.consts.into_owned()),
            device: Cow::Owned(self.device.into_owned()),
        }
    }
}

/// A plan's remembered timing samples: per key, the sample blocks'
/// per-block stats in sample order. The lock is held for a lookup or an
/// insert, never while a block runs.
#[derive(Default)]
pub(crate) struct TimingMemo(Mutex<Vec<(Key<'static>, Arc<[ExecStats]>)>>);

impl TimingMemo {
    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(Key<'static>, Arc<[ExecStats]>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn get(&self, key: &Key<'_>) -> Option<Arc<[ExecStats]>> {
        let entries = self.entries();
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s.clone())
    }

    /// Remember `samples` for `key`, dropping the oldest entry when full.
    /// A key another launch inserted meanwhile is left as it is.
    pub(crate) fn insert(&self, key: Key<'_>, samples: Arc<[ExecStats]>) {
        let key = key.into_owned();
        let mut entries = self.entries();
        if entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        if entries.len() == CAPACITY {
            entries.remove(0);
        }
        entries.push((key, samples));
    }

    pub(crate) fn len(&self) -> usize {
        self.entries().len()
    }
}

impl std::fmt::Debug for TimingMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimingMemo")
            .field("entries", &self.len())
            .finish()
    }
}
