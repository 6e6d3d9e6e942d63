//! The power computation: activity × energy × frequency.

use crate::energy::EnergyTable;
use th_sim::SimStats;
use th_stack3d::{ActivityMatrix, Unit, DIES};

/// Where per-unit low/full activity comes from when pricing a run.
///
/// `Ledger` reads the event-sourced [`ActivityMatrix`] the pipeline
/// recorded at each access site — the measured path, and the default.
/// `Modeled` reconstructs the split from aggregate scalar counters via
/// the width predictor's capture fraction — the original statistical
/// path, kept as a reference oracle (the scan/event-engine precedent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ActivitySource {
    /// Price from the measured per-(unit, die) access ledger.
    #[default]
    Ledger,
    /// Reconstruct gating statistically from scalar counters.
    Modeled,
}

/// Which physical design the activity is priced against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerConfig {
    /// 4-die 3D implementation (wire-reduced energies) vs planar.
    pub three_d: bool,
    /// Thermal Herding gating active (only meaningful with `three_d`).
    pub herding: bool,
    /// Clock frequency, GHz.
    pub clock_ghz: f64,
    /// Chip-level (dual-core) clock-network power of the planar design at
    /// the baseline frequency, watts. §4: 35 % of the 90 W baseline.
    pub chip_clock_power_2d_w: f64,
    /// Chip-level leakage power, watts — §4: 20 % of the 90 W baseline,
    /// "3D organization and Thermal Herding do not reduce the leakage".
    pub chip_leakage_w: f64,
    /// Clock-power factor of the 3D implementation (§4: footprint shrinks
    /// 4×, power "conservatively" halved).
    pub clock_3d_factor: f64,
    /// Where the low/full activity split comes from (measured ledger vs
    /// the statistical reconstruction). Runs whose statistics carry no
    /// ledger (hand-built [`SimStats`]) fall back to `Modeled`.
    pub activity: ActivitySource,
}

impl PowerConfig {
    /// Baseline planar configuration at 2.66 GHz.
    pub fn planar(clock_ghz: f64) -> PowerConfig {
        PowerConfig {
            three_d: false,
            herding: false,
            clock_ghz,
            chip_clock_power_2d_w: 0.35 * 90.0,
            chip_leakage_w: 0.20 * 90.0,
            clock_3d_factor: 0.5,
            activity: ActivitySource::Ledger,
        }
    }

    /// 3D configuration (with or without herding).
    pub fn three_d(clock_ghz: f64, herding: bool) -> PowerConfig {
        PowerConfig { three_d: true, herding, ..PowerConfig::planar(clock_ghz) }
    }

    /// The activity source actually used for `stats`: the configured one,
    /// except that stats carrying no ledger fall back to the modeled
    /// reconstruction.
    pub fn resolve_activity(&self, stats: &SimStats) -> ActivitySource {
        match self.activity {
            ActivitySource::Ledger if !stats.activity.is_empty() => ActivitySource::Ledger,
            _ => ActivitySource::Modeled,
        }
    }
}

/// Computed power, chip level.
#[derive(Clone, Debug)]
pub struct PowerBreakdown {
    /// Dynamic power per unit, watts. Core-private units appear once with
    /// both cores' activity merged. [`Unit::Clock`] has no row — the
    /// clock network is priced separately as [`PowerBreakdown::clock_w`].
    pub per_unit: Vec<(Unit, f64)>,
    /// Clock network power, watts.
    pub clock_w: f64,
    /// Leakage power, watts.
    pub leakage_w: f64,
}

impl PowerBreakdown {
    /// Dynamic (non-clock) power.
    pub fn dynamic_w(&self) -> f64 {
        self.per_unit.iter().map(|(_, w)| w).sum()
    }

    /// Total chip power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w() + self.clock_w + self.leakage_w
    }

    /// Power of one unit.
    pub fn unit_w(&self, unit: Unit) -> f64 {
        self.per_unit.iter().find(|(u, _)| *u == unit).map_or(0.0, |(_, w)| *w)
    }
}

/// Equivalent access counts for one unit: `full` accesses touch the whole
/// structure; `low` accesses are gated to the top die.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UnitActivity {
    /// Full-width-equivalent accesses.
    pub full: f64,
    /// Gated low-width accesses.
    pub low: f64,
}

/// Derives per-unit activity from the simulator counters.
///
/// With `herding` false, everything is counted as full-width (no gating);
/// the width statistics still exist but a planar or plain-3D design
/// cannot exploit them.
pub fn unit_activity(stats: &SimStats, herding: bool) -> Vec<(Unit, UnitActivity)> {
    // Fraction of actually-low-width values the predictor captured
    // (predicted low): only captured ones are gated.
    let denom = stats.width_pred.correct_low + stats.width_pred.safe_mispredictions;
    let capture = if denom == 0 {
        0.0
    } else {
        stats.width_pred.correct_low as f64 / denom as f64
    };
    let split = |low: u64, full: u64| -> UnitActivity {
        if herding {
            let gated = low as f64 * capture;
            UnitActivity { full: full as f64 + low as f64 - gated, low: gated }
        } else {
            UnitActivity { full: (low + full) as f64, low: 0.0 }
        }
    };

    let mut v = Vec::new();
    v.push((Unit::ICache, UnitActivity { full: stats.icache_accesses as f64, low: 0.0 }));
    v.push((Unit::Itlb, UnitActivity { full: stats.itlb_accesses as f64, low: 0.0 }));
    // §3.7: BTB hits whose target upper bits come from the branch PC stay
    // on the top die.
    let btb_total = stats.btb_lookups + stats.btb_updates;
    let btb_low = if herding { stats.btb_partial_target_hits.min(btb_total) } else { 0 };
    v.push((
        Unit::Btb,
        UnitActivity { full: (btb_total - btb_low) as f64, low: btb_low as f64 },
    ));
    v.push((
        Unit::Bpred,
        UnitActivity { full: (stats.bpred_lookups + stats.bpred_updates) as f64, low: 0.0 },
    ));
    v.push((Unit::Decode, UnitActivity { full: stats.fetched as f64, low: 0.0 }));
    v.push((Unit::Rename, UnitActivity { full: stats.rename_ops as f64, low: 0.0 }));
    v.push((
        Unit::Rob,
        split(
            stats.rob_reads_low + stats.rob_writes_low,
            stats.rob_reads_full + stats.rob_writes_full,
        ),
    ));
    // Scheduler: allocations plus tag broadcasts; per-die broadcast gating
    // (§3.4) shows up as driven-die fractions.
    let driven: u64 = stats.tag_broadcast_die_driven.iter().sum();
    let broadcast_eq = if stats.tag_broadcasts == 0 {
        0.0
    } else {
        driven as f64 / 4.0
    };
    v.push((
        Unit::Scheduler,
        UnitActivity { full: stats.dispatched as f64 * 0.5 + broadcast_eq, low: 0.0 },
    ));
    v.push((
        Unit::RegFile,
        split(
            stats.rf_reads_low + stats.rf_writes_low,
            stats.rf_reads_full + stats.rf_writes_full,
        ),
    ));
    v.push((Unit::IntExec, split(stats.int_ops_low, stats.int_ops_full)));
    v.push((Unit::FpExec, UnitActivity { full: stats.fp_ops as f64, low: 0.0 }));
    v.push((Unit::Bypass, split(stats.bypass_low, stats.bypass_full)));
    // LSQ: every load/store broadcasts its address into the queues; PAM
    // matches stay on the top die (§3.5).
    let lsq_total = stats.loads + stats.stores;
    let lsq_low = if herding { stats.pam.matches.min(lsq_total) } else { 0 };
    v.push((
        Unit::Lsq,
        UnitActivity { full: (lsq_total - lsq_low) as f64, low: lsq_low as f64 },
    ));
    // D-cache: gated loads are exactly those predicted low and serviced
    // from the top die; stores know their width at commit (§3.6); L2
    // spills/fills always touch all four dies.
    let gated_loads = if herding {
        stats.dcache_encodings.total().saturating_sub(stats.dcache_width_stalls)
    } else {
        0
    };
    let store_low = if herding { stats.dcache_writes_low } else { 0 };
    let dcache_low = gated_loads + store_low;
    let dcache_total = stats.dcache_accesses + stats.spill_fill_transfers;
    v.push((
        Unit::DCache,
        UnitActivity {
            full: (dcache_total.saturating_sub(dcache_low)) as f64,
            low: dcache_low as f64,
        },
    ));
    v.push((Unit::Dtlb, UnitActivity { full: stats.dtlb_accesses as f64, low: 0.0 }));
    v.push((
        Unit::L2,
        UnitActivity {
            full: (stats.l2_accesses + stats.spill_fill_transfers) as f64,
            low: 0.0,
        },
    ));
    // No Unit::Clock row: the clock network is priced separately
    // (`PowerBreakdown::clock_w`), not per access.
    v
}

/// Derives per-unit activity from the measured [`ActivityMatrix`]: the
/// event-sourced counterpart of [`unit_activity`], with no statistical
/// reconstruction.
///
/// The ledger records *die-touches* for full accesses (one per die
/// driven), so full-access equivalents are the row sum divided by the
/// die count. With `herding` false the design cannot gate, so accesses
/// the machine recorded as gated are priced full-width — the same
/// pricing-time decision [`unit_activity`] makes.
pub fn unit_activity_ledger(ledger: &ActivityMatrix, herding: bool) -> Vec<(Unit, UnitActivity)> {
    Unit::all()
        .iter()
        .filter(|&&u| u != Unit::Clock)
        .map(|&unit| {
            let full = ledger.full_touches(unit) as f64 / DIES as f64;
            let low = ledger.low_total(unit) as f64;
            let act = if herding {
                UnitActivity { full, low }
            } else {
                UnitActivity { full: full + low, low: 0.0 }
            };
            (unit, act)
        })
        .collect()
}

/// The power model.
#[derive(Clone, Debug, Default)]
pub struct PowerModel {
    energies: EnergyTable,
}

impl PowerModel {
    /// Creates the model with the default energy table.
    pub fn new() -> PowerModel {
        PowerModel { energies: EnergyTable::new() }
    }

    /// The energy table in use.
    pub fn energies(&self) -> &EnergyTable {
        &self.energies
    }

    /// Computes chip power from (chip-aggregated) statistics.
    ///
    /// `cycles` is the time basis of the run — the cycle count of one
    /// core, not the sum over cores (both cores of the dual-core
    /// experiments run concurrently).
    ///
    /// The low/full activity split comes from the source selected by
    /// `cfg.activity`: the measured per-(unit, die) ledger by default, or
    /// the capture-fraction reconstruction as the reference oracle.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn compute(&self, stats: &SimStats, cycles: u64, cfg: &PowerConfig) -> PowerBreakdown {
        assert!(cycles > 0, "power needs a time basis");
        let herding = cfg.three_d && cfg.herding;
        let f_hz = cfg.clock_ghz * 1e9;
        let per_second = f_hz / cycles as f64;
        let activity = match cfg.resolve_activity(stats) {
            ActivitySource::Ledger => unit_activity_ledger(&stats.activity, herding),
            ActivitySource::Modeled => unit_activity(stats, herding),
        };
        let per_unit = activity
            .into_iter()
            .map(|(unit, act)| {
                let (e_full, e_low) = if cfg.three_d {
                    (self.energies.e3d_pj(unit), self.energies.e3d_low_pj(unit))
                } else {
                    (self.energies.e2d_pj(unit), self.energies.e2d_pj(unit))
                };
                let watts = (act.full * e_full + act.low * e_low) * 1e-12 * per_second;
                (unit, watts)
            })
            .collect();
        let clock_w = cfg.chip_clock_power_2d_w * (cfg.clock_ghz / 2.66)
            * if cfg.three_d { cfg.clock_3d_factor } else { 1.0 };
        PowerBreakdown { per_unit, clock_w, leakage_w: cfg.chip_leakage_w }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_stats() -> SimStats {
        SimStats {
            cycles: 1000,
            committed: 1500,
            fetched: 1600,
            icache_accesses: 500,
            dispatched: 1500,
            rename_ops: 1500,
            rf_reads_low: 1200,
            rf_reads_full: 400,
            rf_writes_low: 700,
            rf_writes_full: 300,
            int_ops_low: 900,
            int_ops_full: 300,
            bypass_low: 900,
            bypass_full: 300,
            rob_reads_low: 900,
            rob_reads_full: 600,
            rob_writes_low: 900,
            rob_writes_full: 600,
            loads: 300,
            stores: 150,
            dcache_accesses: 450,
            dcache_writes_low: 100,
            tag_broadcasts: 1000,
            tag_broadcast_die_driven: [1000, 600, 200, 200],
            width_pred: th_width::WidthPredictStats {
                predictions: 1500,
                correct_low: 1100,
                correct_full: 300,
                unsafe_mispredictions: 20,
                safe_mispredictions: 80,
            },
            ..Default::default()
        }
    }

    #[test]
    fn three_d_reduces_dynamic_power_at_same_frequency() {
        let m = PowerModel::new();
        let s = busy_stats();
        let planar = m.compute(&s, 1000, &PowerConfig::planar(2.66));
        let three_d = m.compute(&s, 1000, &PowerConfig::three_d(2.66, false));
        assert!(three_d.dynamic_w() < planar.dynamic_w());
        assert!(three_d.clock_w < planar.clock_w);
        assert_eq!(three_d.leakage_w, planar.leakage_w);
    }

    #[test]
    fn herding_reduces_power_further() {
        let m = PowerModel::new();
        let s = busy_stats();
        let plain = m.compute(&s, 1000, &PowerConfig::three_d(2.66, false));
        let herded = m.compute(&s, 1000, &PowerConfig::three_d(2.66, true));
        assert!(herded.dynamic_w() < plain.dynamic_w());
        // Clock and leakage are unaffected by herding.
        assert_eq!(herded.clock_w, plain.clock_w);
        assert_eq!(herded.leakage_w, plain.leakage_w);
    }

    #[test]
    fn power_scales_with_frequency() {
        let m = PowerModel::new();
        let s = busy_stats();
        let slow = m.compute(&s, 1000, &PowerConfig::planar(2.66));
        let fast = m.compute(&s, 1000, &PowerConfig::planar(3.93));
        let ratio = fast.dynamic_w() / slow.dynamic_w();
        assert!((ratio - 3.93 / 2.66).abs() < 1e-9);
    }

    #[test]
    fn activity_conserves_accesses() {
        let s = busy_stats();
        let with = unit_activity(&s, true);
        let without = unit_activity(&s, false);
        for ((u1, a), (u2, b)) in with.iter().zip(&without) {
            assert_eq!(u1, u2);
            // Gating moves accesses from full to low but never loses any
            // (scheduler broadcasts are fractional-equivalent, skip).
            if *u1 != Unit::Scheduler {
                assert!(
                    (a.full + a.low) - (b.full + b.low) < 1e-6,
                    "{u1}: herded {} vs plain {}",
                    a.full + a.low,
                    b.full + b.low
                );
            }
        }
    }

    #[test]
    fn capture_rate_limits_gating() {
        // With a predictor that never predicts low, no gating happens
        // even if values are low-width.
        let mut s = busy_stats();
        s.width_pred.correct_low = 0;
        s.width_pred.safe_mispredictions = 1180;
        let acts = unit_activity(&s, true);
        let rf = acts.iter().find(|(u, _)| *u == Unit::RegFile).unwrap().1;
        assert_eq!(rf.low, 0.0);
    }

    #[test]
    #[should_panic(expected = "time basis")]
    fn zero_cycles_rejected() {
        let m = PowerModel::new();
        let s = busy_stats();
        m.compute(&s, 0, &PowerConfig::planar(2.66));
    }
}
