//! The paper's headline numbers, asserted as regression tests.
//!
//! These use reduced instruction budgets so the whole file runs in
//! ~a minute in release mode; the bands are therefore looser than the
//! full-budget numbers reported by the `fig8`/`fig9`/`fig10` binaries
//! (recorded in EXPERIMENTS.md). They pin the *shape*: who wins, by
//! roughly what factor, and where the extremes sit.

use th_workloads::workload_by_name;
use thermal_herding::{experiments, run_chip, thermal_analysis, Variant};

/// §5.1.1 / Table 2: a 47.9 % clock-frequency increase.
#[test]
fn frequency_gain() {
    let t2 = experiments::table2::run();
    assert!(
        (t2.frequency.gain() - 0.479).abs() < 0.01,
        "clock gain {:.3} (paper 0.479)",
        t2.frequency.gain()
    );
    let sched = t2.table.row("Scheduler").unwrap();
    assert!((sched.improvement_pct() - 32.0).abs() < 2.0);
    let alu = t2.table.row("ALU + Bypass").unwrap();
    assert!((alu.improvement_pct() - 36.0).abs() < 2.0);
}

/// Figure 8(c) extremes: `mcf` at the bottom (paper 1.07×), the best
/// case far above (paper 1.77×), and compute-bound media near the clock
/// gain (≈1.48×).
#[test]
fn speedup_extremes() {
    let budget = 250_000;
    let speedup = |name: &str| {
        let w = workload_by_name(name).unwrap();
        let b = run_chip(Variant::Base, w, budget).unwrap();
        let d = run_chip(Variant::ThreeD, w, budget).unwrap();
        d.ipns() / b.ipns()
    };
    let mcf = speedup("mcf-like");
    assert!((1.02..1.15).contains(&mcf), "mcf speedup {mcf:.2} (paper 1.07)");
    let mpeg2 = speedup("mpeg2-like");
    assert!((1.35..1.60).contains(&mpeg2), "mpeg2 speedup {mpeg2:.2}");
    let perimeter = speedup("perimeter-like");
    assert!(perimeter > 1.5, "best-case speedup {perimeter:.2} (paper max 1.77)");
    assert!(perimeter > mpeg2 && mpeg2 > mcf, "ordering violated");
}

/// Figure 9: 90 W baseline, ≈19 % 3D reduction, ≈29 % with herding.
#[test]
fn power_distribution() {
    let w = workload_by_name("mpeg2-like").unwrap();
    let base = run_chip(Variant::Base, w, u64::MAX).unwrap().power.total_w();
    let noth = run_chip(Variant::ThreeDNoTh, w, u64::MAX).unwrap().power.total_w();
    let th = run_chip(Variant::ThreeD, w, u64::MAX).unwrap().power.total_w();
    assert!((base - 90.0).abs() < 2.0, "baseline {base:.1} W (paper 90)");
    assert!((noth - 72.7).abs() < 3.0, "3D {noth:.1} W (paper 72.7)");
    assert!((th - 64.3).abs() < 3.0, "3D+TH {th:.1} W (paper 64.3)");
}

/// §5.2: per-application savings between roughly 15 % and 30 %, with the
/// compute-intensive image kernel near the top and the memory-bound
/// mixed-width kernel near the bottom.
#[test]
fn power_savings_range() {
    let saving = |name: &str| {
        let w = workload_by_name(name).unwrap();
        let b = run_chip(Variant::Base, w, u64::MAX).unwrap().power.total_w();
        let d = run_chip(Variant::ThreeD, w, u64::MAX).unwrap().power.total_w();
        1.0 - d / b
    };
    let susan = saving("susan-like");
    let yacr2 = saving("yacr2-like");
    assert!((0.25..0.34).contains(&susan), "susan saving {susan:.3} (paper 0.30)");
    assert!((0.12..0.22).contains(&yacr2), "yacr2 saving {yacr2:.3} (paper 0.15)");
    assert!(susan > yacr2 + 0.05, "savings spread collapsed");
}

/// Figure 10: planar ≈360 K at the scheduler; stacking adds ≈+17 K
/// without herding and less with it.
#[test]
fn thermal_deltas() {
    let w = workload_by_name("mpeg2-like").unwrap();
    let rows = 24;
    let base = thermal_analysis(&run_chip(Variant::Base, w, u64::MAX).unwrap(), rows).unwrap();
    let noth =
        thermal_analysis(&run_chip(Variant::ThreeDNoTh, w, u64::MAX).unwrap(), rows).unwrap();
    let th = thermal_analysis(&run_chip(Variant::ThreeD, w, u64::MAX).unwrap(), rows).unwrap();

    assert!((base.peak_k() - 360.0).abs() < 5.0, "planar peak {:.1} (paper 360)", base.peak_k());
    let d_noth = noth.peak_k() - base.peak_k();
    let d_th = th.peak_k() - base.peak_k();
    assert!((12.0..25.0).contains(&d_noth), "3D increase {d_noth:.1} K (paper +17)");
    assert!((7.0..18.0).contains(&d_th), "3D+TH increase {d_th:.1} K (paper +12)");
    assert!(d_th < d_noth, "herding must reduce the increase");
}

/// §3.8: ~97 % of instructions have their widths correctly predicted.
#[test]
fn width_prediction_accuracy() {
    let mut correct = 0u64;
    let mut total = 0u64;
    for name in ["gzip-like", "mpeg2-like", "susan-like", "crafty-like", "swalign-like"] {
        let w = workload_by_name(name).unwrap();
        let r = run_chip(Variant::ThreeD, w, 200_000).unwrap();
        correct += r.core_stats.width_pred.correct_low + r.core_stats.width_pred.correct_full;
        total += r.core_stats.width_pred.predictions;
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.94, "width accuracy {acc:.3} (paper ~0.97)");
}

/// §5.3: the iso-power 4×-density stack runs far hotter than any real
/// configuration (paper: 418 K vs 377 K).
#[test]
fn iso_power_density_study() {
    let w = workload_by_name("mpeg2-like").unwrap();
    let base = run_chip(Variant::Base, w, u64::MAX).unwrap();
    let mut iso = run_chip(Variant::ThreeDNoTh, w, u64::MAX).unwrap();
    let noth_peak = thermal_analysis(&iso, 24).unwrap().peak_k();
    iso.power = base.power.clone();
    iso.chip_stats = base.chip_stats.clone();
    let iso_peak =
        thermal_herding::thermal_analysis_scaled(&iso, 24, 1.0).unwrap().peak_k();
    assert!(
        iso_peak > noth_peak + 10.0,
        "iso-power {iso_peak:.1} K should far exceed 3D-noTH {noth_peak:.1} K"
    );
    assert!(iso_peak > 390.0, "iso-power peak {iso_peak:.1} K (paper 418)");
}
