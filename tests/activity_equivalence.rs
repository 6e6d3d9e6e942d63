//! Ledger-vs-modeled pricing equivalence (the `PowerConfig::activity`
//! contract).
//!
//! The measured activity ledger replaces the statistical reconstruction
//! on the default pricing path; the reconstruction survives as a
//! reference oracle. The two must stay close on the experiment
//! workloads: the only *systematic* difference is the capture-fraction
//! heuristic (the modeled path books safely-mispredicted low results as
//! partially gated, where the ledger knows exactly which accesses were
//! gated), plus small documented deltas in D-cache/scheduler/LSQ
//! bookkeeping (see DESIGN.md §11). Empirically the total dynamic-power
//! gap is ≤ ~5 % on every workload (worst: `yacr2`-like and `blast`-like
//! at 5.1 %, where mispredicted-width results are common; most workloads
//! sit below 0.5 %). The bound asserted here is 8 % — headroom over the
//! measured worst case without letting a real regression through.

use thermal_herding::{run_chip, Variant};
use th_power::{ActivitySource, DieFractionTable, PowerModel};
use th_sim::SimStats;
use th_stack3d::{ActivityMatrix, Unit};
use th_workloads::{all_workloads, workload_by_name};

/// Documented tolerance between ledger-priced and modeled dynamic power.
const DYNAMIC_W_TOLERANCE: f64 = 0.08;

#[test]
fn ledger_and_modeled_watts_agree_on_experiment_workloads() {
    let model = PowerModel::new();
    let runs = th_exec::pool().map(all_workloads(), |w| {
        run_chip(Variant::ThreeD, w, 40_000).expect("workload runs")
    });
    for r in &runs {
        let mut ledger_cfg = r.variant.power_config();
        ledger_cfg.activity = ActivitySource::Ledger;
        let mut modeled_cfg = ledger_cfg;
        modeled_cfg.activity = ActivitySource::Modeled;
        assert_eq!(
            ledger_cfg.resolve_activity(&r.chip_stats),
            ActivitySource::Ledger,
            "{}: run recorded no ledger",
            r.workload
        );
        let ledger = model.compute(&r.chip_stats, r.cycles(), &ledger_cfg);
        let modeled = model.compute(&r.chip_stats, r.cycles(), &modeled_cfg);
        let rel = (ledger.dynamic_w() - modeled.dynamic_w()).abs() / modeled.dynamic_w();
        assert!(
            rel < DYNAMIC_W_TOLERANCE,
            "{}: ledger {:.2} W vs modeled {:.2} W ({:.1}% apart)",
            r.workload,
            ledger.dynamic_w(),
            modeled.dynamic_w(),
            100.0 * rel
        );
    }
}

#[test]
fn measured_herding_keeps_the_register_file_on_the_top_die() {
    // The peak-power workload under the full 3D design at the sweep
    // presets' default budget. If the measured (ledger) top-die register
    // file share drops below what the modeled reconstruction claims,
    // either the ledger lost recording sites or herding stopped steering
    // accesses to the top die.
    let w = workload_by_name("mpeg2-like").expect("known workload");
    let run = run_chip(Variant::ThreeD, w, 60_000).expect("workload runs");
    let model = PowerModel::new();
    let mut ledger_cfg = run.variant.power_config();
    ledger_cfg.activity = ActivitySource::Ledger;
    let mut modeled_cfg = ledger_cfg;
    modeled_cfg.activity = ActivitySource::Modeled;

    let ledger_w = model.compute(&run.chip_stats, run.cycles(), &ledger_cfg).dynamic_w();
    let modeled_w = model.compute(&run.chip_stats, run.cycles(), &modeled_cfg).dynamic_w();
    let rel = (ledger_w - modeled_w).abs() / modeled_w;
    assert!(
        rel < DYNAMIC_W_TOLERANCE,
        "dynamic {ledger_w:.2} W ledger vs {modeled_w:.2} W modeled ({:.1}% apart)",
        100.0 * rel
    );

    let measured = DieFractionTable::new(&run.chip_stats, model.energies(), &ledger_cfg);
    let modeled = DieFractionTable::new(&run.chip_stats, model.energies(), &modeled_cfg);
    for &unit in Unit::all().iter().filter(|u| u.is_width_partitioned()) {
        for (source, table) in [("measured", &measured), ("modeled", &modeled)] {
            let top = table.fractions(unit)[0];
            let unit = unit.label();
            assert!((0.0..=1.0).contains(&top), "{unit} {source} top-die {top} out of [0,1]");
        }
    }
    let rf_measured = measured.fractions(Unit::RegFile)[0];
    let rf_modeled = modeled.fractions(Unit::RegFile)[0];
    assert!(
        rf_measured + 0.005 >= rf_modeled,
        "RF top-die {:.1}% measured fell below {:.1}% modeled",
        100.0 * rf_measured,
        100.0 * rf_modeled
    );
    assert!(rf_measured > 0.4, "RF top-die concentration lost: {:.1}%", 100.0 * rf_measured);
}

#[test]
fn empty_ledger_falls_back_to_the_modeled_oracle() {
    // Hand-built stats (no simulation) carry no ledger; pricing must
    // silently use the reconstruction instead of returning zeros.
    let stats = SimStats { cycles: 1000, rf_reads_full: 500, ..Default::default() };
    let cfg = Variant::ThreeD.power_config();
    assert_eq!(cfg.resolve_activity(&stats), ActivitySource::Modeled);
}

#[test]
fn ledger_merge_is_associative_and_commutative_under_fanout() {
    // The experiment drivers fan runs out over the th-exec pool and fold
    // the per-run stats in reduction order; any grouping or order must
    // produce the same chip-level ledger.
    let runs = th_exec::pool().map(all_workloads(), |w| {
        run_chip(Variant::ThreeD, w, 20_000).expect("workload runs")
    });
    let ledgers: Vec<&ActivityMatrix> = runs.iter().map(|r| &r.core_stats.activity).collect();
    assert!(ledgers.len() >= 3, "need at least three runs to exercise grouping");

    let fold = |order: &[usize]| {
        let mut acc = ActivityMatrix::new();
        for &i in order {
            acc.merge(ledgers[i]);
        }
        acc
    };
    let forward = fold(&(0..ledgers.len()).collect::<Vec<_>>());
    let reverse = fold(&(0..ledgers.len()).rev().collect::<Vec<_>>());
    assert_eq!(forward, reverse, "merge is not commutative");

    // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c), folded pairwise from both ends.
    let mut left = ledgers[0].clone();
    left.merge(ledgers[1]);
    left.merge(ledgers[2]);
    let mut bc = ledgers[1].clone();
    bc.merge(ledgers[2]);
    let mut right = ledgers[0].clone();
    right.merge(&bc);
    assert_eq!(left, right, "merge is not associative");
}
