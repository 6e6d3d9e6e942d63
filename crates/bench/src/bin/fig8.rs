//! Regenerates Figure 8: IPC (a), instructions/ns (b), and speedup (c)
//! per benchmark group for the Base/TH/Pipe/Fast/3D design points, plus
//! the §3.8 width-prediction accuracy statistic.
//!
//! ```text
//! cargo run --release -p th-bench --bin fig8 [instruction-budget]
//! ```
//!
//! By default each workload runs to its own full instruction budget
//! (after a 20 % warmup); pass a smaller budget for a quicker sweep.

fn main() {
    let budget = th_bench::arg_or_usage(1, u64::MAX, "fig8 [instruction-budget]");
    println!("{}", thermal_herding::experiments::fig8::run(budget));
}
