//! Quickstart: assemble a small TH64 program, run it on the planar
//! baseline and the full 3D Thermal Herding processor, and compare
//! performance, power, and peak temperature.
//!
//! ```text
//! cargo run --release -p thermal-herding --example quickstart
//! ```

use th_isa::parse_asm;
use th_sim::{SimConfig, Simulator};
use th_workloads::{workload_by_name, Workload};
use thermal_herding::{run_chip, thermal_analysis, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The simulator runs real programs: write one in TH64 asm. ---
    let program = parse_asm(
        "
        # dot product of two small integer vectors
        .data a 1, 2, 3, 4, 5, 6, 7, 8
        .data b 8, 7, 6, 5, 4, 3, 2, 1
            la   x5, a
            la   x6, b
            li   x7, 8
            li   x10, 0
        loop:
            ld   x1, 0(x5)
            ld   x2, 0(x6)
            mul  x3, x1, x2
            add  x10, x10, x3
            addi x5, x5, 8
            addi x6, x6, 8
            addi x7, x7, -1
            bne  x7, x0, loop
            halt
        ",
    )?;
    let result = Simulator::new(SimConfig::baseline()).run(&program, 10_000)?;
    println!(
        "dot-product demo: {} instructions in {} cycles (IPC {:.2})\n",
        result.stats.committed,
        result.stats.cycles,
        result.ipc()
    );

    // --- 2. The paper's evaluation: a workload on two design points. ---
    let workload: &Workload =
        workload_by_name("mpeg2-like").expect("bundled workload exists");
    println!("running {} on Base and 3D ...", workload.name);
    let base = run_chip(Variant::Base, workload, u64::MAX)?;
    let three_d = run_chip(Variant::ThreeD, workload, u64::MAX)?;

    println!("                {:>12} {:>12}", "Base", "3D+TH");
    println!("clock (GHz)     {:>12.2} {:>12.2}", base.clock_ghz, three_d.clock_ghz);
    println!("IPC             {:>12.2} {:>12.2}", base.ipc(), three_d.ipc());
    println!("inst/ns         {:>12.2} {:>12.2}", base.ipns(), three_d.ipns());
    println!(
        "chip power (W)  {:>12.1} {:>12.1}",
        base.power.total_w(),
        three_d.power.total_w()
    );
    println!(
        "\nspeedup {:.2}x, power saving {:.1}%",
        three_d.ipns() / base.ipns(),
        100.0 * (1.0 - three_d.power.total_w() / base.power.total_w())
    );

    // --- 3. Thermal analysis of both designs. ---
    let t_base = thermal_analysis(&base, 32)?;
    let t_3d = thermal_analysis(&three_d, 32)?;
    println!(
        "\npeak temperature: planar {:.1} K ({}), 3D {:.1} K ({})",
        t_base.peak_k(),
        t_base.hottest_unit().0,
        t_3d.peak_k(),
        t_3d.hottest_unit().0
    );
    println!(
        "width prediction accuracy: {:.1}%",
        100.0 * three_d.core_stats.width_pred.accuracy()
    );
    Ok(())
}
