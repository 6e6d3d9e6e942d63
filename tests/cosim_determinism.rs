//! Co-simulation determinism: the full closed-loop trace — temperatures,
//! clocks, fetch widths, IPC, and power split per interval — must be
//! bit-identical at any `th-exec` thread count, and zero-activity tails
//! must cool monotonically (the property lives in `th-cosim`'s own
//! tests; here we pin the cross-crate fan-out).

use th_cosim::{CoSimConfig, PolicyKind};
use th_exec::Pool;
use thermal_herding::experiments::dtm;
use thermal_herding::Variant;
use th_workloads::workload_by_name;

/// A scaled-down closed-loop pair, fanned over `pool`.
fn traces_with_pool(pool: &Pool) -> Vec<dtm::DtmTrace> {
    let w = workload_by_name("mpeg2-like").unwrap();
    let cfg = CoSimConfig::sampled(0.02, 20_000, 10);
    pool.map(&[Variant::ThreeDNoTh, Variant::ThreeD], |&v| {
        dtm::run_variant_scaled(v, w, 376.0, 10, PolicyKind::Dvfs.build(376.0), cfg)
    })
}

#[test]
fn closed_loop_trace_is_bit_identical_across_thread_counts() {
    let seq = traces_with_pool(&Pool::new(1));
    let par = traces_with_pool(&Pool::new(4));

    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.variant, b.variant);
        assert_eq!(
            a.report.intervals.len(),
            b.report.intervals.len(),
            "{}: interval counts differ",
            a.variant
        );
        for (i, (x, y)) in a.report.intervals.iter().zip(&b.report.intervals).enumerate() {
            assert_eq!(x.committed, y.committed, "{} interval {i}: committed", a.variant);
            assert_eq!(x.cycles, y.cycles, "{} interval {i}: cycles", a.variant);
            assert_eq!(x.fetch_width, y.fetch_width, "{} interval {i}: fetch width", a.variant);
            for (name, u, v) in [
                ("t_s", x.t_s, y.t_s),
                ("peak_k", x.peak_k, y.peak_k),
                ("clock_ghz", x.clock_ghz, y.clock_ghz),
                ("dynamic_w", x.dynamic_w, y.dynamic_w),
                ("clock_w", x.clock_w, y.clock_w),
                ("leakage_w", x.leakage_w, y.leakage_w),
            ] {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{} interval {i}: {name} differs: {u} vs {v}",
                    a.variant
                );
            }
            assert_eq!(x.die_peak_k.len(), y.die_peak_k.len());
            for (d, (u, v)) in x.die_peak_k.iter().zip(&y.die_peak_k).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "{} interval {i}: die {d} peak differs",
                    a.variant
                );
            }
        }
        // Final per-unit state must match too (order and bits).
        assert_eq!(a.report.unit_peaks_k.len(), b.report.unit_peaks_k.len());
        for ((ua, ta), (ub, tb)) in a.report.unit_peaks_k.iter().zip(&b.report.unit_peaks_k) {
            assert_eq!(ua, ub);
            assert_eq!(ta.to_bits(), tb.to_bits(), "{}: unit {ua:?} peak differs", a.variant);
        }
        for ((ua, wa), (ub, wb)) in a.report.unit_leakage_w.iter().zip(&b.report.unit_leakage_w) {
            assert_eq!(ua, ub);
            assert_eq!(wa.to_bits(), wb.to_bits(), "{}: unit {ua:?} leakage differs", a.variant);
        }
    }
}
