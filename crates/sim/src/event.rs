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
use crate::interp::{run_warp, BlockScratch, Costs, ExecStats, GlobalView, LaunchEnv, SimError};
use crate::plan::LaunchPlan;

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
        trace: false,
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
                if !w.done && !w.at_barrier && pick.is_none_or(|(_, _, c)| w.clock < c) {
                    pick = Some((bi, wi, w.clock));
                }
            }
        }
        let Some((bi, wi, _)) = pick else {
            // No runnable warp: either everything is done, or some blocks
            // wait at barriers.
            let mut any_released = false;
            for b in blocks.iter_mut() {
                let warps = &mut b.scratch.warps;
                let alive = warps.iter().filter(|w| !w.done).count();
                let waiting = warps.iter().filter(|w| w.at_barrier).count();
                if alive > 0 && waiting == alive {
                    const BARRIER_COST: u64 = 40;
                    let release = warps
                        .iter()
                        .filter(|w| w.at_barrier)
                        .map(|w| w.clock)
                        .max()
                        .unwrap();
                    for w in warps.iter_mut().filter(|w| w.at_barrier) {
                        w.at_barrier = false;
                        w.clock = w.clock.max(release) + BARRIER_COST;
                    }
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
        let w = &mut b.scratch.warps[wi];
        w.clock = w.clock.max(ports[port_i]);
        // One instruction; whether the warp went on, parked or retired
        // shows in its flags.
        run_warp::<true>(
            &env,
            b.block_idx,
            w,
            &mut b.scratch.shared,
            &mut b.scratch.state,
            1,
        )?;
        let (t_issue, issue) = w.last_issue;
        ports[port_i] = ports[port_i].max(t_issue) + issue.max(1);
    }

    let mut stats = ExecStats::default();
    let mut cycles = 0u64;
    for b in &blocks {
        for w in &b.scratch.warps {
            stats.accumulate(&w.stats);
            cycles = cycles.max(w.clock);
        }
    }
    Ok(SmRound { cycles, stats })
}
