//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * width-predictor size sweep (accuracy and unsafe-stall rate);
//! * RS herding allocation on/off (top-die activity share);
//! * partial address memoization on/off (LSQ top-die broadcasts);
//! * partial value encoding: the full 2-bit code vs a plain
//!   width-memoization bit (zeros/ones only).
//!
//! ```text
//! cargo run --release -p th-bench --bin ablation [instruction-budget]
//! ```

use th_sim::{SimConfig, Simulator};
use th_width::UpperEncoding;
use th_workloads::{all_workloads, workload_by_name};

fn main() {
    let budget = th_bench::arg_or_usage(1, u64::MAX, "ablation [instruction-budget]");

    predictor_size_sweep(budget);
    rs_herding(budget);
    pam(budget);
    partial_value_encoding(budget);
}

fn run(cfg: SimConfig, name: &str, budget: u64) -> th_sim::SimResult {
    let w = workload_by_name(name).expect("workload");
    Simulator::new(cfg)
        .run_with_warmup(&w.program, budget / 5, budget.min(w.inst_budget))
        .expect("runs")
}

fn predictor_size_sweep(budget: u64) {
    println!("== width predictor size sweep (aggregate over all workloads) ==");
    println!("{:>8} {:>10} {:>12} {:>12}", "entries", "accuracy", "unsafe-rate", "ipc-geomean");
    for entries in [16usize, 64, 256, 4096] {
        let mut cfg = SimConfig::three_d(3.93);
        cfg.herding.predictor_entries = entries;
        let mut correct = 0u64;
        let mut unsafe_m = 0u64;
        let mut total = 0u64;
        let mut log_ipc = 0.0;
        let mut n = 0;
        for w in all_workloads() {
            let r = Simulator::new(cfg)
                .run_with_warmup(&w.program, budget / 5, budget.min(w.inst_budget))
                .expect("runs");
            let wp = &r.stats.width_pred;
            correct += wp.correct_low + wp.correct_full;
            unsafe_m += wp.unsafe_mispredictions;
            total += wp.predictions;
            log_ipc += r.ipc().ln();
            n += 1;
        }
        println!(
            "{entries:>8} {:>9.2}% {:>11.4}% {:>12.3}",
            100.0 * correct as f64 / total as f64,
            100.0 * unsafe_m as f64 / total as f64,
            (log_ipc / n as f64).exp()
        );
    }
    println!();
}

fn rs_herding(budget: u64) {
    // A saturated scheduler has nothing to herd (every die is occupied),
    // so the effect is strongest on workloads that keep the RS partially
    // empty (branchy, fetch-limited code) and weakest on high-occupancy
    // ones like mpeg2.
    println!("== RS allocation: herd-top-first vs round-robin ==");
    for name in ["mpeg2-like", "swalign-like", "adpcm-like"] {
        let herd = run(SimConfig::three_d(3.93), name, budget);
        let mut cfg = SimConfig::three_d(3.93);
        cfg.herding.rs_herding = false;
        let scatter = run(cfg, name, budget);
        for (label, r) in [("herded", &herd), ("scattered", &scatter)] {
            println!(
                "  {name:<14} {label:<10} top-die allocs {:>5.1}%  broadcast gating {:>5.1}%  ipc {:.3}",
                100.0 * r.stats.rs_top_die_fraction(),
                100.0 * r.stats.broadcast_gating_fraction(),
                r.ipc()
            );
        }
    }
    println!();
}

fn pam(budget: u64) {
    println!("== partial address memoization (treeadd-like vs susan-like) ==");
    for name in ["treeadd-like", "susan-like", "mcf-like"] {
        let r = run(SimConfig::three_d(3.93), name, budget);
        println!(
            "  {name:<14} broadcasts {:>8}  herded to top die {:>5.1}%",
            r.stats.pam.total(),
            100.0 * r.stats.pam.match_rate()
        );
    }
    println!();
}

fn partial_value_encoding(budget: u64) {
    println!("== L1-D upper-bit handling: 2-bit encoding vs plain memo bit ==");
    println!("{:<16} {:>10} {:>10} {:>12} {:>12}", "workload", "2bit-stall", "1bit-stall", "addr-upper%", "gated-loads%");
    for name in ["treeadd-like", "gcc-like", "yacr2-like", "patricia-like"] {
        let two_bit = run(SimConfig::three_d(3.93), name, budget);
        let mut cfg = SimConfig::three_d(3.93);
        cfg.herding.partial_value_encoding = false;
        let one_bit = run(cfg, name, budget);
        let enc = &two_bit.stats.dcache_encodings;
        let addr_upper =
            enc.counts[UpperEncoding::AddrUpper.code() as usize] as f64 / enc.total().max(1) as f64;
        println!(
            "{name:<16} {:>10} {:>10} {:>11.1}% {:>11.1}%",
            two_bit.stats.dcache_width_stalls,
            one_bit.stats.dcache_width_stalls,
            100.0 * addr_upper,
            100.0 * enc.top_die_fraction()
        );
    }
}
