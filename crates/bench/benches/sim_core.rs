//! Core-loop microbenchmark: `Simulator::run` throughput under the scan
//! and event engines, on one pointer-chasing workload (treeadd-like, low
//! ILP — long idle stretches the event core can skip) and one SPECint
//! workload (gzip-like, busy pipeline — the wakeup structures carry the
//! load). This isolates the cycle-loop cost from the experiment sweeps
//! that the repository benchmark (`BENCHMARK.json`, `perfbench/`) times
//! end to end.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use th_sim::{CoreEngine, SimConfig, Simulator};
use th_workloads::workload_by_name;

const BUDGET: u64 = 20_000;

fn core_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_core");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BUDGET));
    for name in ["treeadd-like", "gzip-like"] {
        let w = workload_by_name(name).expect("workload");
        for (engine_name, engine) in
            [("scan", CoreEngine::Scan), ("event", CoreEngine::Event)]
        {
            for (cfg_name, mut cfg) in
                [("base", SimConfig::baseline()), ("3d", SimConfig::three_d(3.93))]
            {
                cfg.engine = engine;
                g.bench_with_input(
                    BenchmarkId::new(format!("{engine_name}/{cfg_name}"), name),
                    w,
                    |b, w| {
                        b.iter(|| {
                            black_box(
                                Simulator::new(cfg).run(&w.program, BUDGET).expect("runs"),
                            )
                        })
                    },
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, core_engines);
criterion_main!(benches);
