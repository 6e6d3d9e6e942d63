//! Cross-crate property tests: invariants that span the simulator, the
//! power model, and the thermal solver.

use proptest::prelude::*;
use th_isa::{Assembler, Machine, Reg};
use th_sim::{SimConfig, Simulator};
use th_workloads::workload_by_name;
use thermal_herding::{run_chip, thermal_analysis_scaled, Variant};

/// Builds a random straight-line program that the proptest strategies
/// drive through both the golden model and the timing model.
fn random_program(ops: &[(u8, u8, u8, i32)]) -> th_isa::Program {
    let mut a = Assembler::new(0x1000);
    a.data_zeros("buf", 4096);
    a.la(Reg::X30, "buf");
    for &(kind, rd, rs, imm) in ops {
        let rd = Reg::x(1 + rd % 28);
        let rs = Reg::x(1 + rs % 28);
        let imm = imm % 1000;
        match kind % 8 {
            0 => a.addi(rd, rs, imm),
            1 => a.add(rd, rs, rd),
            2 => a.xor(rd, rs, rd),
            3 => a.slli(rd, rs, (imm.unsigned_abs() % 63) as i32),
            4 => a.mul(rd, rs, rd),
            5 => a.sd(rs, (imm.abs() % 500) * 8, Reg::X30),
            6 => a.ld(rd, (imm.abs() % 500) * 8, Reg::X30),
            _ => a.slt(rd, rs, rd),
        }
    }
    a.halt();
    a.assemble().expect("random program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The timing model commits exactly the golden model's instruction
    /// stream and leaves identical architectural results, for random
    /// programs, on every design point.
    #[test]
    fn timing_model_is_architecturally_transparent(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i32>()), 1..120)
    ) {
        let program = random_program(&ops);
        let mut golden = Machine::new(&program);
        let summary = golden.run(100_000).unwrap();
        prop_assert!(summary.halted);

        for cfg in [SimConfig::baseline(), SimConfig::thermal_herding(), SimConfig::three_d(3.93)] {
            let r = Simulator::new(cfg).run(&program, 100_000).unwrap();
            prop_assert_eq!(r.stats.committed, summary.instructions);
        }
    }

    /// Width-misprediction penalties may slow the pipeline but never
    /// change the committed instruction count, and herding never *adds*
    /// IPC beyond the penalty-free baseline at the same clock.
    #[test]
    fn herding_costs_cycles_not_correctness(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<i32>()), 1..100)
    ) {
        let program = random_program(&ops);
        let base = Simulator::new(SimConfig::baseline()).run(&program, 100_000).unwrap();
        let th = Simulator::new(SimConfig::thermal_herding()).run(&program, 100_000).unwrap();
        prop_assert_eq!(base.stats.committed, th.stats.committed);
        prop_assert!(th.stats.cycles >= base.stats.cycles,
            "herding produced a faster pipeline: {} < {}", th.stats.cycles, base.stats.cycles);
    }
}

/// Thermal linearity across the whole stack: scaling a chip's power
/// scales every cell's rise above ambient by the same factor.
#[test]
fn thermal_rise_is_linear_in_power() {
    let w = workload_by_name("gzip-like").unwrap();
    let r = run_chip(Variant::ThreeD, w, 40_000).unwrap();
    let a = thermal_analysis_scaled(&r, 16, 1.0).unwrap();
    let b = thermal_analysis_scaled(&r, 16, 2.0).unwrap();
    let ambient = th_thermal::AMBIENT_K;
    for (ta, tb) in a.map.temps().iter().zip(b.map.temps()) {
        let (ra, rb) = (ta - ambient, tb - ambient);
        assert!((rb - 2.0 * ra).abs() < 1e-3 * (1.0 + rb.abs()), "{ta} vs {tb}");
    }
}

/// Power accounting: the per-unit dynamic breakdown plus clock and
/// leakage always reproduces the reported total.
#[test]
fn power_breakdown_sums_to_total() {
    for name in ["gzip-like", "mcf-like", "mpeg2-like"] {
        let w = workload_by_name(name).unwrap();
        for variant in [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD] {
            let r = run_chip(variant, w, 40_000).unwrap();
            let sum: f64 = r.power.per_unit.iter().map(|(_, w)| w).sum::<f64>()
                + r.power.clock_w
                + r.power.leakage_w;
            assert!((sum - r.power.total_w()).abs() < 1e-9);
        }
    }
}

#[test]
fn stats_merge_and_delta_invert_on_a_real_run() {
    // A herded 3D run exercises every counter block: scalar counters,
    // per-die arrays, the width predictor, PAM, the D-cache encodings and
    // the activity ledger. `merge` and `subtract_prefix` must cover every
    // field, so a run minus itself is empty and (s ⊔ s) − s is s again.
    let w = workload_by_name("mpeg2-like").unwrap();
    let s = run_chip(Variant::ThreeD, w, 20_000).unwrap().core_stats;
    assert!(s.cycles > 0 && s.rf_reads_low > 0 && s.dcache_accesses > 0);
    assert!(s.rs_occupancy_cycles_per_die.iter().all(|&c| c > 0));
    assert!(s.width_pred.predictions > 0 && s.pam.total() > 0);
    assert!(s.dcache_encodings.total() > 0 && !s.activity.is_empty());

    assert_eq!(s.delta(&s), th_sim::SimStats::default());
    let mut doubled = s.clone();
    doubled.merge(&s);
    assert_eq!(doubled.delta(&s), s);
}
