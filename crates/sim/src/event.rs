//! Event-driven SM scheduler — the higher-fidelity timing mode.
//!
//! Where the default (hybrid) model times each warp in isolation and
//! assembles SM time analytically, this mode co-schedules every warp of an
//! SM's *resident block set* at instruction granularity: a greedy
//! event loop always advances the warp with the earliest clock, issue
//! ports (one per warp scheduler) serialize concurrent issue, and
//! barriers synchronize per block. Latency hiding across warps and blocks
//! therefore emerges from the schedule instead of from a max() formula.

use crate::device::DeviceConfig;
use crate::interp::{BlockScratch, Costs, ExecStats, GlobalView, LaunchEnv, SimError};
use crate::plan::LaunchPlan;
use crate::simt::{release, run_warp};

/// Result of simulating one SM round.
#[derive(Debug, Clone)]
pub struct SmRound {
    /// Cycles until the last resident warp retires.
    pub cycles: u64,
    /// Aggregated stats over the resident set.
    pub stats: ExecStats,
}

struct ResidentBlock {
    scratch: BlockScratch,
    block_idx: (u32, u32, u32),
}

/// Execute a resident set of blocks on one SM, event-driven.
#[allow(clippy::too_many_arguments)]
pub fn run_sm_round(
    dev: &DeviceConfig,
    plan: &LaunchPlan,
    global: GlobalView,
    const_mem: &[u8],
    params: &[u8],
    block_dim: (u32, u32, u32),
    grid_dim: (u32, u32, u32),
    block_indices: &[(u32, u32, u32)],
    dynamic_shared: u32,
    tex_bindings: &[u64],
) -> Result<SmRound, SimError> {
    let env = LaunchEnv {
        dev,
        plan,
        global,
        const_mem,
        params,
        tex_bindings,
        block_dim,
        grid_dim,
        dynamic_shared,
        racecheck: false,
        strict_barriers: false,
        costs: Costs::new(dev),
    };
    let mut blocks: Vec<ResidentBlock> = block_indices
        .iter()
        .map(|&block_idx| ResidentBlock {
            scratch: BlockScratch::new(&env),
            block_idx,
        })
        .collect();

    // One issue port per warp scheduler.
    let mut ports = vec![0u64; dev.schedulers_per_sm as usize];

    loop {
        // Find the runnable warp with the smallest clock.
        let mut pick: Option<(usize, usize, u64)> = None;
        for (bi, b) in blocks.iter().enumerate() {
            for (wi, w) in b.scratch.warps.iter().enumerate() {
                if !w.done && !w.at_barrier && pick.is_none_or(|(_, _, c)| w.state.clock < c) {
                    pick = Some((bi, wi, w.state.clock));
                }
            }
        }
        let Some((bi, wi, _)) = pick else {
            // No runnable warp: either everything is done, or some blocks
            // wait at barriers.
            let mut any_released = false;
            for b in blocks.iter_mut() {
                let (warps, mut block) = b.scratch.split::<true>(&env, b.block_idx);
                if warps.iter().any(|w| w.at_barrier) {
                    release(&mut block, warps)?;
                    any_released = true;
                }
            }
            if any_released {
                continue;
            }
            break; // all done
        };

        // Issue-port contention: the warp cannot issue before some port is
        // free.
        let port_i = ports
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .unwrap();
        let b = &mut blocks[bi];
        let (warps, mut block) = b.scratch.split::<true>(&env, b.block_idx);
        let w = &mut warps[wi];
        w.state.clock = w.state.clock.max(ports[port_i]);
        // One instruction; whether the warp went on, parked or retired
        // shows in its flags.
        run_warp(plan, &mut block, w, &mut 1)?;
        let (t_issue, issue) = w.state.last_issue;
        ports[port_i] = ports[port_i].max(t_issue) + issue.max(1);
    }

    let mut stats = ExecStats::default();
    let mut cycles = 0u64;
    for b in &blocks {
        for w in &b.scratch.warps {
            stats.accumulate(&w.state.stats);
            cycles = cycles.max(w.state.clock);
        }
    }
    Ok(SmRound { cycles, stats })
}
