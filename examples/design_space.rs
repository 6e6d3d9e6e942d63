//! Walk the design space around the paper's 4-die point: how the clock
//! gain, chip power, and peak temperature respond to the reservation
//! station size, the width-predictor size, and the heat-sink quality.
//! This is the "what would I change if I adopted this library" tour.
//!
//! ```text
//! cargo run --release -p thermal-herding --example design_space
//! ```

use th_sim::{SimConfig, Simulator};
use th_stack3d::{derive_frequency, BlockDelayModel};
use th_workloads::workload_by_name;
use thermal_herding::{run_chip, thermal_analysis, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plan = derive_frequency(&BlockDelayModel::new());
    println!(
        "critical-loop frequency derivation: {:.2} GHz -> {:.2} GHz (+{:.1}%)\n",
        plan.base_ghz,
        plan.three_d_ghz,
        100.0 * plan.gain()
    );

    // --- RS size sweep at the 3D point (Table 1 uses 32 entries). ---
    let w = workload_by_name("mpeg2-like").expect("exists");
    println!("RS size sweep (3D, {}):", w.name);
    println!("{:>8} {:>8} {:>14}", "entries", "IPC", "top-die allocs");
    for rs_size in [16usize, 32, 64] {
        let mut cfg = SimConfig::three_d(plan.three_d_ghz);
        cfg.core.rs_size = rs_size;
        let r = Simulator::new(cfg)
            .run_with_warmup(&w.program, w.inst_budget / 5, w.inst_budget)?;
        println!(
            "{rs_size:>8} {:>8.2} {:>13.1}%",
            r.ipc(),
            100.0 * r.stats.rs_top_die_fraction()
        );
    }

    // --- Width predictor size at the 3D point. ---
    println!("\nwidth predictor sweep (3D, {}):", w.name);
    println!("{:>8} {:>10} {:>10}", "entries", "accuracy", "IPC");
    for entries in [512usize, 4096, 32768] {
        let mut cfg = SimConfig::three_d(plan.three_d_ghz);
        cfg.herding.predictor_entries = entries;
        let r = Simulator::new(cfg)
            .run_with_warmup(&w.program, w.inst_budget / 5, w.inst_budget)?;
        println!(
            "{entries:>8} {:>9.1}% {:>10.2}",
            100.0 * r.stats.width_pred.accuracy(),
            r.ipc()
        );
    }

    // --- Frequency-for-power trade (§5.3, Black et al.): run the 3D
    //     design at reduced clocks and watch power and heat fall. ---
    println!("\nfrequency-for-power trade (3D+TH, {}):", w.name);
    println!("{:>10} {:>10} {:>10} {:>10}", "clock", "inst/ns", "power", "peak K");
    for scale in [1.0, 0.9, 0.8] {
        let clock = plan.three_d_ghz * scale;
        let mut run = run_chip(Variant::ThreeD, w, u64::MAX)?;
        // Reprice the same activity at the scaled clock.
        let mut pcfg = Variant::ThreeD.power_config();
        pcfg.clock_ghz = clock;
        run.power =
            th_power::PowerModel::new().compute(&run.chip_stats, run.cycles(), &pcfg);
        run.clock_ghz = clock;
        let t = thermal_analysis(&run, 32)?;
        println!(
            "{:>7.2}GHz {:>10.2} {:>9.1}W {:>10.1}",
            clock,
            run.ipc() * clock,
            run.power.total_w(),
            t.peak_k()
        );
    }
    Ok(())
}
