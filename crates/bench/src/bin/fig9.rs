//! Regenerates Figure 9: the chip power distribution of the planar
//! baseline (≈90 W), the 3D design without Thermal Herding (paper:
//! 72.7 W), and the full 3D Thermal Herding design (paper: 64.3 W),
//! plus the per-application savings range (paper: 15 %–30 %).
//!
//! ```text
//! cargo run --release -p th-bench --bin fig9 [instruction-budget]
//! ```

fn main() {
    let budget = th_bench::arg_or_usage(1, u64::MAX, "fig9 [instruction-budget]");
    println!("{}", thermal_herding::experiments::fig9::run(budget));
}
