//! Calibration probe: prints the raw model outputs that the published
//! numbers are calibrated against. Not part of the paper's artefacts —
//! a development tool for checking where the model sits.

use th_stack3d::Unit;
use th_workloads::{all_workloads, workload_by_name};
use thermal_herding::{run_chip, thermal_analysis, thermal_analysis_scaled, Variant};

fn main() {
    let budget = th_bench::arg_or_usage(1, u64::MAX, "calibrate [instruction-budget] [thermal]");

    println!("== power: mpeg2-like dual-core ==");
    let mpeg2 = workload_by_name("mpeg2-like").unwrap();
    let base = run_chip(Variant::Base, mpeg2, budget).unwrap();
    let noth = run_chip(Variant::ThreeDNoTh, mpeg2, budget).unwrap();
    let th = run_chip(Variant::ThreeD, mpeg2, budget).unwrap();
    println!(
        "Base   total {:7.2} W (dyn {:6.2} clk {:5.2} leak {:5.2})  [paper 90.0]",
        base.power.total_w(),
        base.power.dynamic_w(),
        base.power.clock_w,
        base.power.leakage_w
    );
    println!(
        "3DnoTH total {:7.2} W (dyn {:6.2} clk {:5.2} leak {:5.2})  [paper 72.7]",
        noth.power.total_w(),
        noth.power.dynamic_w(),
        noth.power.clock_w,
        noth.power.leakage_w
    );
    println!(
        "3D+TH  total {:7.2} W (dyn {:6.2} clk {:5.2} leak {:5.2})  [paper 64.3]",
        th.power.total_w(),
        th.power.dynamic_w(),
        th.power.clock_w,
        th.power.leakage_w
    );
    for &u in Unit::all() {
        println!(
            "  {:<11} {:7.2} {:7.2} {:7.2}",
            u.label(),
            base.power.unit_w(u),
            noth.power.unit_w(u),
            th.power.unit_w(u)
        );
    }

    let skip_speedups = std::env::args().nth(2).as_deref() == Some("thermal");
    if !skip_speedups {
        speedups(budget);
    }

    println!("\n== thermal (mpeg2, grid 32) ==");
    let tb = thermal_analysis(&base, 32).unwrap();
    let tn = thermal_analysis(&noth, 32).unwrap();
    let tt = thermal_analysis(&th, 32).unwrap();
    println!(
        "Base   peak {:6.1} K at {:<10} [paper 360 K @ Scheduler]",
        tb.peak_k(),
        tb.hottest_unit().0.label()
    );
    println!(
        "3DnoTH peak {:6.1} K at {:<10} [paper 377 K]",
        tn.peak_k(),
        tn.hottest_unit().0.label()
    );
    println!(
        "3D+TH  peak {:6.1} K at {:<10} [paper 372 K]",
        tt.peak_k(),
        tt.hottest_unit().0.label()
    );
    // Iso-power study (§5.3): the planar 90 W power map (no 3D latency
    // or power benefits) compressed into the 4-die stack.
    let mut iso = noth.clone();
    iso.power = base.power.clone();
    iso.chip_stats = base.chip_stats.clone();
    let ti = thermal_analysis_scaled(&iso, 32, 1.0).unwrap();
    println!("iso-90W peak {:6.1} K [paper 418 K]", ti.peak_k());
}

fn speedups(budget: u64) {
    println!("\n== speedups (3D vs Base, ipns) ==");
    let mut sum = 0.0;
    let mut n = 0;
    for w in all_workloads() {
        let b = run_chip(Variant::Base, w, budget).unwrap();
        let d = run_chip(Variant::ThreeD, w, budget).unwrap();
        let s = d.ipns() / b.ipns();
        sum += s;
        n += 1;
        println!(
            "  {:<16} {:>5.2}x  (ipc {:.2} -> {:.2}; dram/ki {:5.1}; wacc {:.3}; saving {:4.1}%)",
            w.name,
            s,
            b.ipc(),
            d.ipc(),
            b.core_stats.dram_per_kilo_inst(),
            d.core_stats.width_pred.accuracy(),
            100.0 * (1.0 - d.power.total_w() / b.power.total_w()),
        );
    }
    println!("  mean {:.3}x  [paper 1.47]", sum / n as f64);
}
