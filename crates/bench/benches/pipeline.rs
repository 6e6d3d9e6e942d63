//! Whole-pipeline benchmarks: simulator throughput (simulated
//! instructions per wall-clock second) for representative workload
//! classes on the planar and 3D configurations, plus functional-interpreter
//! throughput. Workloads come from the once-per-process registry, so
//! neither group times kernel construction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use th_isa::Machine;
use th_sim::{SimConfig, Simulator};
use th_workloads::workload_by_name;

const BUDGET: u64 = 20_000;

fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.throughput(Throughput::Elements(BUDGET));
    for name in ["mpeg2-like", "mcf-like", "crafty-like"] {
        let w = workload_by_name(name).expect("workload");
        for (cfg_name, cfg) in
            [("base", SimConfig::baseline()), ("3d", SimConfig::three_d(3.93))]
        {
            g.bench_with_input(
                BenchmarkId::new(cfg_name, name),
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
    g.finish();
}

fn functional_interpreter(c: &mut Criterion) {
    let mut g = c.benchmark_group("interpreter");
    g.sample_size(20);
    g.throughput(Throughput::Elements(BUDGET));
    let w = workload_by_name("mpeg2-like").expect("workload");
    g.bench_function("golden_model_20k", |b| {
        b.iter(|| {
            let mut m = Machine::new(&w.program);
            black_box(m.run(BUDGET).expect("runs"))
        })
    });
    g.finish();
}

criterion_group!(benches, simulator_throughput, functional_interpreter);
criterion_main!(benches);
