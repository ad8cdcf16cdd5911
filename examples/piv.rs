//! PIV flow-field estimation (§5.2): recover a known uniform displacement
//! from a synthetic particle-image pair, comparing the run-time-evaluated
//! kernel, the specialized kernel, and the warp-specialized reduction
//! variant on both simulated GPUs. Exits non-zero unless every recovered
//! displacement equals the planted flow.
//!
//! Run with: `cargo run --release --example piv`

use ks_apps::piv::{run_gpu, PivImpl, PivKernel, PivProblem};
use ks_apps::{synth, Variant};
use ks_core::Compiler;
use ks_sim::DeviceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prob = PivProblem::standard(192, 32, 50, 6);
    let flow = (4, -3);
    let scen = synth::piv_scenario(prob.img_w, prob.img_h, flow, 2024);
    println!(
        "image {}x{}, {} masks of {}x{}, {} search offsets, true flow {:?}",
        prob.img_w,
        prob.img_h,
        prob.num_masks(),
        prob.mask_w,
        prob.mask_h,
        prob.num_offsets(),
        flow
    );

    let imp = PivImpl {
        rb: 4,
        threads: 128,
    };
    let mut wrong = 0;
    for dev in DeviceConfig::presets() {
        let compiler = Compiler::new(dev.clone());
        println!("\n── {} ──", dev.name);
        for (variant, kernel, tag) in [
            (Variant::Re, PivKernel::Basic, "run-time evaluated "),
            (Variant::Sk, PivKernel::Basic, "specialized        "),
            (Variant::Sk, PivKernel::WarpSpec, "specialized + warp "),
        ] {
            let out = run_gpu(&compiler, variant, kernel, &prob, &imp, &scen, true)?;
            let hits = out.displacements.iter().filter(|d| **d == flow).count();
            wrong += out.displacements.len() - hits;
            let rep = &out.run.reports[0];
            println!(
                "{tag}: {:8.4} ms | {:2} regs | occ {:.2} | local {:4} B | {}/{} vectors correct",
                out.run.sim_ms,
                out.run.regs_per_thread(),
                rep.occupancy.occupancy,
                rep.local_bytes_per_thread,
                hits,
                out.displacements.len()
            );
        }
    }

    // Show part of the recovered flow field.
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());
    let out = run_gpu(
        &compiler,
        Variant::Sk,
        PivKernel::Basic,
        &prob,
        &imp,
        &scen,
        true,
    )?;
    let (gx, gy) = prob.mask_grid();
    println!("\nrecovered flow field ({gx}x{gy} vectors):");
    for y in 0..gy.min(6) {
        let row: Vec<String> = (0..gx.min(8))
            .map(|x| {
                let (dx, dy) = out.displacements[y * gx + x];
                format!("({dx:+},{dy:+})")
            })
            .collect();
        println!("  {}", row.join(" "));
    }
    if wrong > 0 {
        return Err(format!("{wrong} displacement vectors differ from the planted flow").into());
    }
    Ok(())
}
