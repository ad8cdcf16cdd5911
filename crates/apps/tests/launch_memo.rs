//! An app's run function launches each kernel through its binary's
//! cached plan, so a second run on one compiler reuses the first run's
//! decode and hits the timing memo, with the same simulated results.
//! (Its own test binary: it reads the process-wide registry.)

use ks_apps::synth::match_scenario;
use ks_apps::template_match::{run_gpu, MatchImpl, MatchProblem};
use ks_apps::Variant;
use ks_core::Compiler;
use ks_sim::DeviceConfig;

#[test]
fn a_second_run_hits_the_timing_memo() {
    let prob = MatchProblem {
        frame_w: 96,
        frame_h: 72,
        templ_w: 28,
        templ_h: 20,
        shift_w: 8,
        shift_h: 8,
        frames: 1,
    };
    let scen = match_scenario(
        prob.frame_w,
        prob.frame_h,
        prob.templ_w,
        prob.templ_h,
        prob.shift_w,
        prob.shift_h,
        42,
    );
    let imp = MatchImpl {
        tile_w: 8,
        tile_h: 8,
        threads: 64,
    };
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());
    let hits = || ks_trace::registry().counter_value(ks_trace::names::SIM_MEMO_HITS);

    let first = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
    let before = hits();
    let second = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
    assert!(hits() > before, "the second run never hit the timing memo");

    assert_eq!(first.ncc, second.ncc);
    assert_eq!(first.run.reports.len(), second.run.reports.len());
    for (a, b) in first.run.reports.iter().zip(&second.run.reports) {
        assert_eq!(a.time_ms, b.time_ms, "{}", a.kernel);
        assert_eq!(a.cycles, b.cycles, "{}", a.kernel);
        assert_eq!(a.stats, b.stats, "{}", a.kernel);
    }
}
