//! Regenerates Figure 10: worst-case thermal maps for the planar
//! baseline, 3D without herding, and 3D with herding; the same-application
//! comparison; the §5.3 iso-power (4× density) study; and the §5.3 ROB
//! width statistics. Renders ASCII heat maps of the hottest die.
//!
//! ```text
//! cargo run --release -p th-bench --bin fig10 [instruction-budget] [grid-rows]
//! ```

use th_stack3d::Unit;

fn main() {
    const USAGE: &str = "fig10 [instruction-budget] [grid-rows]";
    let budget = th_bench::arg_or_usage(1, u64::MAX, USAGE);
    let rows = th_bench::arg_or_usage(2, 32, USAGE);
    let fig10 = thermal_herding::experiments::fig10::run(budget, rows);
    println!("{fig10}");
    println!();

    // ASCII heat maps of the hottest active layer (Figure 10's map view).
    for wc in &fig10.worst {
        let map = &wc.analysis.map;
        let (layer, _, _) = map.argmax();
        let (lo, hi) = (map.layer_min(layer), map.layer_max(layer));
        println!(
            "{} ({}), hottest layer {layer}, {lo:.1}..{hi:.1} K  [cold ' ' .. '@' hot]",
            wc.variant.label(),
            wc.workload,
        );
        println!("{}", map.render_layer(layer, lo, hi));
    }

    // Per-unit peaks of the 3D herded design for the common app.
    if let Some(th) = fig10.same_app.last() {
        println!("Per-block peaks, 3D+TH running {}:", fig10.same_app_workload);
        for &unit in Unit::all() {
            let t = th.unit_peak(unit);
            if t.is_finite() {
                println!("  {:<10} {:>6.1} K", unit.label(), t);
            }
        }
    }
}
