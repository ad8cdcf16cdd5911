//! The SIMT control core: one thread block's warps over a [`LaunchPlan`],
//! generic over what a lane holds.
//!
//! Warps execute in lockstep with the classic post-dominator
//! reconvergence stack (the mechanism real NVIDIA hardware and GPGPU-Sim
//! use): a divergent branch pushes per-path frames whose masks partition
//! the warp, and a frame pops when it reaches its reconvergence pc (the
//! branch's immediate post-dominator). Between barriers the warps run
//! round-robin; when every warp still running waits at a barrier, the
//! barrier releases them.
//!
//! What an op does to the lanes is the [`Domain`]'s business. The
//! simulator's concrete domain (`crate::interp`) keeps 32-bit and 64-bit
//! register banks, memory, the scoreboard and the timing models; `ks-analysis` runs abstract lanes
//! through the same core and stops as *inconclusive* where a branch or an
//! address depends on a value it does not know. Both see every divergence,
//! barrier and reconvergence exactly where the other does.

use crate::plan::{Branch, Kind, LaunchPlan, Op, NONE};

/// What one warp-instruction does to a warp's lanes, and what happens at
/// each point where the control core cannot go on by itself. An error
/// stops the whole block.
pub trait Domain {
    /// One warp's lane state (registers, and whatever else the domain
    /// tracks per warp).
    type Lanes;
    type Error;

    /// Execute a non-control op for the lanes in `mask`.
    fn exec(&mut self, w: &mut Self::Lanes, op: &Op, pc: u32, mask: u32)
        -> Result<(), Self::Error>;

    /// The lanes of `mask` that take the conditional branch `op`.
    fn taken(
        &mut self,
        w: &mut Self::Lanes,
        op: &Op,
        pc: u32,
        mask: u32,
    ) -> Result<u32, Self::Error>;

    /// Charge a `Bar`, `Br` or `Ret` (`kind`) the core is about to act
    /// on. Nothing by default.
    #[inline(always)]
    fn charge(&mut self, _w: &mut Self::Lanes, _kind: Kind) {}

    /// The barrier at `pc` was reached by the partial mask `mask`.
    fn divergent_barrier(&mut self, w: &Self::Lanes, pc: u32, mask: u32) -> Self::Error;

    /// The return at `pc` was reached before the warp reconverged.
    fn divergent_return(&mut self, pc: u32) -> Self::Error;

    /// A barrier is about to release with `exited` warps already
    /// returned and `waiting` warps at it. `Ok` releases the waiting ones.
    fn partial_barrier(&mut self, exited: usize, waiting: usize) -> Result<(), Self::Error>;

    /// Every warp still running waits at a barrier, which now releases
    /// them.
    fn release(&mut self, warps: &mut [Warp<Self::Lanes>]);

    /// The core cannot go on, for the reason `why`.
    fn fault(&mut self, why: String) -> Self::Error;

    /// The block issued its whole op budget and is not done.
    fn out_of_steps(&mut self) -> Self::Error;
}

/// A reconvergence-stack frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    pc: u32,
    /// Pc at which this frame pops ([`NONE`] for the bottom frame).
    reconv: u32,
    mask: u32,
}

/// Why [`run_warp`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpStop {
    /// The op budget ran out; the warp can go on.
    Budget,
    Barrier,
    Done,
}

/// One warp: its control state here, its lanes in `state`.
pub struct Warp<S> {
    /// Lanes that exist (a block's last warp may be partial).
    lanes_mask: u32,
    stack: Vec<Frame>,
    pub(crate) done: bool,
    pub(crate) at_barrier: bool,
    pub(crate) state: S,
}

impl<S> Warp<S> {
    /// The warps of a block of `threads` threads, about to execute pc 0;
    /// `state` makes the lanes of the warp whose first thread is its
    /// argument.
    pub fn block(threads: u32, mut state: impl FnMut(u32) -> S) -> Vec<Warp<S>> {
        (0..threads.div_ceil(32))
            .map(|w| {
                let base_tid = w * 32;
                let mut warp = Warp {
                    lanes_mask: u32::MAX >> (32 - (threads - base_tid).min(32)),
                    stack: Vec::new(),
                    done: false,
                    at_barrier: false,
                    state: state(base_tid),
                };
                warp.restart();
                warp
            })
            .collect()
    }

    /// Back to "about to execute pc 0", with every lane active.
    pub(crate) fn restart(&mut self) {
        self.stack.clear();
        self.stack.push(Frame {
            pc: 0,
            reconv: NONE,
            mask: self.lanes_mask,
        });
        self.done = false;
        self.at_barrier = false;
    }
}

/// Run the warps of one block to completion, round-robin between
/// barriers, issuing at most `budget` ops in all.
#[inline(always)]
pub fn run_block<D: Domain>(
    plan: &LaunchPlan,
    d: &mut D,
    warps: &mut [Warp<D::Lanes>],
    mut budget: u64,
) -> Result<(), D::Error> {
    loop {
        let mut all_done = true;
        let mut any_progress = false;
        for w in warps.iter_mut() {
            if w.done || w.at_barrier {
                all_done &= w.done;
                continue;
            }
            all_done = false;
            any_progress = true;
            if run_warp(plan, d, w, &mut budget)? == WarpStop::Budget {
                return Err(d.out_of_steps());
            }
        }
        if all_done {
            return Ok(());
        }
        if !any_progress {
            release(d, warps)?;
        }
    }
}

/// Release a barrier every warp still running waits at.
#[inline(always)]
pub(crate) fn release<D: Domain>(d: &mut D, warps: &mut [Warp<D::Lanes>]) -> Result<(), D::Error> {
    let exited = warps.iter().filter(|w| w.done).count();
    if exited > 0 {
        let waiting = warps.iter().filter(|w| w.at_barrier).count();
        d.partial_barrier(exited, waiting)?;
    }
    d.release(warps);
    for w in warps.iter_mut() {
        w.at_barrier = false;
    }
    Ok(())
}

/// Execute a warp until it finishes, parks at a barrier, or has spent
/// `budget` (terminators count, reconvergence pops do not). The event
/// scheduler interleaves warps with a budget of one.
#[inline(always)]
pub(crate) fn run_warp<D: Domain>(
    plan: &LaunchPlan,
    d: &mut D,
    w: &mut Warp<D::Lanes>,
    budget: &mut u64,
) -> Result<WarpStop, D::Error> {
    let ops = &plan.ops[..];
    loop {
        if *budget == 0 {
            return Ok(WarpStop::Budget);
        }
        let Some(&Frame {
            mut pc,
            reconv,
            mask,
        }) = w.stack.last()
        else {
            w.done = true;
            return Ok(WarpStop::Done);
        };
        // Pop frames that reached their reconvergence point.
        if pc == reconv {
            w.stack.pop();
            continue;
        }
        // Straight-line ops of this frame. Only a branch can land on a
        // reconvergence pc, so the frame is re-examined after each.
        loop {
            let op = &ops[pc as usize];
            pc += 1;
            *budget -= 1;
            match op.kind {
                Kind::Bar => {
                    w.stack.last_mut().expect("frame").pc = pc;
                    d.charge(&mut w.state, Kind::Bar);
                    if w.stack.len() > 1 {
                        return Err(d.divergent_barrier(&w.state, pc - 1, mask));
                    }
                    w.at_barrier = true;
                    return Ok(WarpStop::Barrier);
                }
                Kind::Ret => {
                    if w.stack.len() > 1 {
                        return Err(d.divergent_return(pc - 1));
                    }
                    d.charge(&mut w.state, Kind::Ret);
                    w.done = true;
                    return Ok(WarpStop::Done);
                }
                Kind::Br => {
                    d.charge(&mut w.state, Kind::Br);
                    w.stack.last_mut().expect("frame").pc = op.imm as u32;
                    break;
                }
                Kind::CondBr { .. } => {
                    let Branch {
                        then_pc,
                        else_pc,
                        reconv: join,
                    } = plan.branches[op.imm as usize];
                    let taken = d.taken(&mut w.state, op, pc - 1, mask)?;
                    let not_taken = mask & !taken;
                    let fr = w.stack.last_mut().expect("frame");
                    if not_taken == 0 {
                        fr.pc = then_pc;
                    } else if taken == 0 {
                        fr.pc = else_pc;
                    } else {
                        // Divergence: the current frame becomes the
                        // reconvergence continuation; push else then then
                        // (then runs first).
                        if join == NONE {
                            return Err(d.fault(format!(
                                "divergent branch in {} without a reconvergence point",
                                plan.block_of(pc - 1)
                            )));
                        }
                        fr.pc = join;
                        w.stack.push(Frame {
                            pc: else_pc,
                            reconv: join,
                            mask: not_taken,
                        });
                        w.stack.push(Frame {
                            pc: then_pc,
                            reconv: join,
                            mask: taken,
                        });
                    }
                    break;
                }
                _ => {
                    d.exec(&mut w.state, op, pc - 1, mask)?;
                    if *budget == 0 {
                        w.stack.last_mut().expect("frame").pc = pc;
                        return Ok(WarpStop::Budget);
                    }
                }
            }
        }
    }
}
