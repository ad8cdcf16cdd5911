//! The OpenCV row-filter case study (§2.6 / §4.2, Appendices E/F).
//!
//! The original OpenCV CUDA module pre-instantiates ~800 kernel variants
//! (every filter size 1–32 × addressing mode × type pair) so the compiler
//! can unroll the filter loop, and caps the `__constant__` filter at 32
//! taps. With kernel specialization, the same single source compiles on
//! demand for the exact `KSIZE`/`ANCHOR` requested — including sizes the
//! precompiled ceiling would reject — and the run-time-evaluated fallback
//! still works when no parameters are known.
//!
//! Every output must equal the CPU reference exactly (both sum the taps in
//! the same order in f32); the example exits non-zero otherwise.
//!
//! Run with: `cargo run --release --example row_filter`

use ks_apps::launch_binary;
use ks_core::{Compiler, Defines};
use ks_sim::{DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions};

const ROW_FILTER: &str = r#"
// Separable row filter with replicate borders (OpenCV linearRowFilter).
#ifndef KSIZE
#define KSIZE ksize
// The precompiled-variant ceiling of the original implementation:
#define KSIZE_ALLOC 32
#else
#define KSIZE_ALLOC KSIZE
#endif
#ifndef ANCHOR
#define ANCHOR anchor
#endif

__constant__ float c_kernel[KSIZE_ALLOC];

__global__ void linearRowFilter(
    float* src, float* dst, int width, int height, int ksize, int anchor)
{
    int x = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    int y = (int)(blockIdx.y * blockDim.y + threadIdx.y);
    if (x < width) {
        if (y < height) {
            float sum = 0.0f;
            for (int k = 0; k < KSIZE; k++) {
                int xx = x + k - ANCHOR;
                xx = max(0, min(xx, width - 1));
                sum += c_kernel[k] * src[y * width + xx];
            }
            dst[y * width + x] = sum;
        }
    }
}
"#;

fn box_filter(k: usize) -> Vec<f32> {
    vec![1.0 / k as f32; k]
}

/// CPU reference with replicate borders.
fn cpu_filter(src: &[f32], w: usize, h: usize, kern: &[f32], anchor: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut s = 0.0;
            for (k, c) in kern.iter().enumerate() {
                let xx = (x + k).saturating_sub(anchor).min(w - 1);
                s += c * src[y * w + xx];
            }
            out[y * w + x] = s;
        }
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dev = DeviceConfig::tesla_c2070();
    let compiler = Compiler::new(dev.clone());
    let (w, h) = (128usize, 96usize);
    let src: Vec<f32> = (0..w * h)
        .map(|i| ((i * 37) % 101) as f32 / 100.0)
        .collect();

    println!("filter | RE ms     SK ms     speedup | RE regs SK regs | max err");
    let mut mismatches = Vec::new();
    for ksize in [3usize, 7, 15, 31, 63] {
        let anchor = ksize / 2;
        let kern = box_filter(ksize);
        let reference = cpu_filter(&src, w, h, &kern, anchor);

        let mut results = Vec::new();
        for defines in [
            None,
            Some(Defines::new().def("KSIZE", ksize).def("ANCHOR", anchor)),
        ] {
            let defines_given = defines.is_some();
            // The RE build caps filters at 32 taps (its fixed constant
            // ceiling, §2.6); specialization removes the ceiling.
            if defines.is_none() && ksize > 32 {
                results.push(None);
                continue;
            }
            let bin = compiler.compile(ROW_FILTER, defines.unwrap_or_default())?;
            let mut st = DeviceState::new(dev.clone(), 32 << 20);
            let kb: Vec<u8> = kern.iter().flat_map(|v| v.to_le_bytes()).collect();
            st.set_const(&bin.module, "c_kernel", &kb)?;
            let p_src = st.global.alloc((w * h * 4) as u64)?;
            let p_dst = st.global.alloc((w * h * 4) as u64)?;
            st.global.write_f32_slice(p_src, &src)?;
            let dims = LaunchDims {
                grid: ((w as u32).div_ceil(32), (h as u32).div_ceil(8), 1),
                block: (32, 8, 1),
                dynamic_shared: 0,
            };
            let rep = launch_binary(
                &mut st,
                &bin,
                "linearRowFilter",
                dims,
                &[
                    KArg::Ptr(p_src),
                    KArg::Ptr(p_dst),
                    KArg::I32(w as i32),
                    KArg::I32(h as i32),
                    KArg::I32(ksize as i32),
                    KArg::I32(anchor as i32),
                ],
                LaunchOptions::default(),
            )?;
            let out = st.global.read_f32_slice(p_dst, w * h)?;
            let wrong = out.iter().zip(&reference).filter(|(a, b)| a != b).count();
            if wrong > 0 {
                let build = if defines_given { "SK" } else { "RE" };
                mismatches.push(format!("{build} ksize {ksize}: {wrong} outputs differ"));
            }
            let err = out
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            results.push(Some((rep.time_ms, rep.regs_per_thread, err)));
        }
        match (&results[0], &results[1]) {
            (Some(re), Some(sk)) => println!(
                "  {ksize:4} | {:8.4}  {:8.4}  {:5.2}x  |   {:4}   {:4}   | {:.1e}",
                re.0,
                sk.0,
                re.0 / sk.0,
                re.1,
                sk.1,
                re.2.max(sk.2)
            ),
            (None, Some(sk)) => println!(
                "  {ksize:4} |   (exceeds precompiled 32-tap ceiling)  {:8.4} ms |  -  {:4}  | {:.1e}",
                sk.0, sk.1, sk.2
            ),
            _ => unreachable!(),
        }
    }
    println!(
        "\none source file; {} binaries compiled on demand (the original \
         OpenCV module ships ~800 precompiled variants)",
        compiler.cache_stats().misses
    );
    if !mismatches.is_empty() {
        return Err(format!(
            "output differs from the CPU reference: {}",
            mismatches.join("; ")
        )
        .into());
    }
    Ok(())
}
