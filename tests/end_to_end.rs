//! End-to-end integration tests: assemble → simulate → price power →
//! solve thermals, across crates.

use th_isa::parse_asm;
use th_sim::{SimConfig, Simulator};
use th_workloads::{all_workloads, workload_by_name};
use thermal_herding::{run_chip, thermal_analysis, Variant};

#[test]
fn asm_text_to_timing_pipeline() {
    let p = parse_asm(
        "
        .data v 3, 1, 4, 1, 5, 9, 2, 6
            la   x5, v
            li   x6, 8
            li   x10, 0
        loop:
            ld   x1, 0(x5)
            add  x10, x10, x1
            addi x5, x5, 8
            addi x6, x6, -1
            bne  x6, x0, loop
            halt
        ",
    )
    .expect("assembles");
    let r = Simulator::new(SimConfig::baseline()).run(&p, 1_000).expect("runs");
    // 3 setup (li/li are 1 inst each, la is 4) + 8×5 loop + halt.
    assert_eq!(r.stats.committed, 47);
    assert!(r.stats.cycles > 0);
}

#[test]
fn timing_matches_functional_instruction_count() {
    // The timing model must commit exactly the instructions the golden
    // model executes, for every bundled workload.
    for w in all_workloads().iter().take(6) {
        let mut m = th_isa::Machine::new(&w.program);
        let summary = m.run(w.inst_budget).expect("functional run");
        let r = Simulator::new(SimConfig::baseline())
            .run(&w.program, w.inst_budget)
            .expect("timing run");
        assert_eq!(
            r.stats.committed, summary.instructions,
            "{}: timing committed {} vs functional {}",
            w.name, r.stats.committed, summary.instructions
        );
    }
}

#[test]
fn every_variant_runs_every_suite_representative() {
    for name in ["gzip-like", "swim-like", "mpeg2-like", "susan-like", "treeadd-like", "blast-like"]
    {
        let w = workload_by_name(name).unwrap();
        for &variant in Variant::figure8() {
            let r = run_chip(variant, w, 60_000).expect("runs");
            assert!(r.ipc() > 0.0, "{name} at {variant}: zero IPC");
            assert!(r.power.total_w() > 30.0 && r.power.total_w() < 150.0);
        }
    }
}

#[test]
fn chip_to_thermal_round_trip() {
    let w = workload_by_name("gzip-like").unwrap();
    for variant in [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD] {
        let run = run_chip(variant, w, 60_000).expect("runs");
        let t = thermal_analysis(&run, 20).expect("solves");
        assert!(t.peak_k() > th_thermal::AMBIENT_K);
        assert!(t.peak_k() < 460.0, "{variant}: {:.1} K", t.peak_k());
        // Hotter-than-ambient cells exist on every active die.
        let dies = if variant.is_three_d() { 4 } else { 1 };
        for die in 0..dies {
            let layer = t.map.layer_of_power_index(die).expect("active layer");
            assert!(t.map.layer_max(layer) > th_thermal::AMBIENT_K + 1.0);
        }
    }
}

#[test]
fn herding_only_ever_reduces_power() {
    // For every workload, 3D+TH must cost no more than 3D-noTH, which
    // must cost no more than planar.
    for w in all_workloads().iter().take(8) {
        let base = run_chip(Variant::Base, w, 50_000).unwrap().power.total_w();
        let noth = run_chip(Variant::ThreeDNoTh, w, 50_000).unwrap().power.total_w();
        let th = run_chip(Variant::ThreeD, w, 50_000).unwrap().power.total_w();
        assert!(noth < base, "{}: 3D {noth:.1} !< planar {base:.1}", w.name);
        assert!(th <= noth + 0.5, "{}: TH {th:.1} > noTH {noth:.1}", w.name);
    }
}

#[test]
fn warmup_reduces_cold_start_artifacts() {
    let w = workload_by_name("susan-like").unwrap();
    let cold = Simulator::new(SimConfig::baseline()).run(&w.program, w.inst_budget).unwrap();
    let warm = Simulator::new(SimConfig::baseline())
        .run_with_warmup(&w.program, w.inst_budget / 5, w.inst_budget)
        .unwrap();
    assert!(
        warm.stats.dram_per_kilo_inst() < cold.stats.dram_per_kilo_inst(),
        "warm {} !< cold {}",
        warm.stats.dram_per_kilo_inst(),
        cold.stats.dram_per_kilo_inst()
    );
    assert!(warm.ipc() >= cold.ipc());
}
