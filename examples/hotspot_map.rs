//! Render ASCII thermal maps of every die for one workload on one design
//! point — the visual counterpart of the paper's Figure 10.
//!
//! ```text
//! cargo run --release -p thermal-herding --example hotspot_map [workload] [base|3d|3d-noth]
//! ```

use th_workloads::workload_by_name;
use thermal_herding::{run_chip, thermal_analysis, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = std::env::args().nth(1).unwrap_or_else(|| "mpeg2-like".into());
    let variant = match std::env::args().nth(2).as_deref() {
        Some("base") => Variant::Base,
        Some("3d-noth") => Variant::ThreeDNoTh,
        _ => Variant::ThreeD,
    };
    let w = workload_by_name(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;

    println!("simulating {} on {} ...", w.name, variant);
    let run = run_chip(variant, w, u64::MAX)?;
    let analysis = thermal_analysis(&run, 40)?;
    let map = &analysis.map;

    let t_min = map.temps().iter().copied().fold(f64::INFINITY, f64::min);
    let t_max = map.max_temp();
    println!(
        "chip power {:.1} W; temperature range {:.1}..{:.1} K (' ' cold .. '@' hot)\n",
        run.power.total_w(),
        t_min,
        t_max
    );

    let dies = if variant.is_three_d() { 4 } else { 1 };
    for die in 0..dies {
        let layer = map
            .layer_of_power_index(die)
            .expect("every die has an active layer");
        // Scale the ramp to this layer's own range so intra-die structure
        // is visible (the sink-to-die drop would otherwise flatten it).
        let (lo, hi) = (map.layer_min(layer), map.layer_max(layer));
        println!("die {die} (active layer {layer}, {lo:.1}..{hi:.1} K):");
        println!("{}", map.render_layer(layer, lo, hi));
    }

    println!("hottest blocks:");
    let mut peaks = analysis.unit_peaks.clone();
    peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (unit, t) in peaks.iter().take(6) {
        println!("  {:<10} {:>6.1} K", unit.label(), t);
    }
    Ok(())
}
