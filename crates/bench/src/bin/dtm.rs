//! Extension study: dynamic thermal management under a temperature cap.
//! Compares the unherded and herded 3D designs' delivered throughput
//! when a DTM controller enforces the cap by throttling the clock.
//!
//! ```text
//! cargo run --release -p th-bench --bin dtm [cap-kelvin] [workload]
//! ```

use th_workloads::workload_by_name;

fn main() {
    let cap = th_bench::arg_or_usage(1, 376.0, "dtm [cap-kelvin] [workload]");
    let workload = std::env::args().nth(2).unwrap_or_else(|| "mpeg2-like".into());
    let w = workload_by_name(&workload).expect("known workload");
    println!("{}", thermal_herding::experiments::dtm::run(w, cap, 24));
}
