//! Simulation statistics: everything the power, thermal, and reporting
//! layers need, as raw counters.

use th_stack3d::ActivityMatrix;
use th_width::{DieActivity, EncodingStats, PamStats, WidthPredictStats};

/// Componentwise accumulation and its inverse: what every [`SimStats`]
/// field supports, so each field is listed exactly once (in the struct).
trait Counter {
    fn merge(&mut self, other: &Self);
    fn subtract_prefix(&mut self, prefix: &Self, field: &'static str);
}

impl Counter for u64 {
    fn merge(&mut self, other: &u64) {
        *self += other;
    }

    fn subtract_prefix(&mut self, prefix: &u64, field: &'static str) {
        debug_assert!(*self >= *prefix, "{field} underflow");
        *self -= prefix;
    }
}

impl Counter for [u64; 4] {
    fn merge(&mut self, other: &[u64; 4]) {
        for (c, o) in self.iter_mut().zip(other) {
            c.merge(o);
        }
    }

    fn subtract_prefix(&mut self, prefix: &[u64; 4], field: &'static str) {
        for (c, p) in self.iter_mut().zip(prefix) {
            c.subtract_prefix(p, field);
        }
    }
}

/// Nested counter blocks carry their own `merge`/`subtract_prefix`.
macro_rules! nested_counters {
    ($($t:ty),* $(,)?) => { $(
        impl Counter for $t {
            fn merge(&mut self, other: &$t) {
                <$t>::merge(self, other);
            }

            fn subtract_prefix(&mut self, prefix: &$t, _field: &'static str) {
                <$t>::subtract_prefix(self, prefix);
            }
        }
    )* };
}

nested_counters!(WidthPredictStats, PamStats, EncodingStats, ActivityMatrix);

/// Declares [`SimStats`] and derives `merge`/`subtract_prefix` from its
/// field list.
macro_rules! sim_stats {
    (
        $(#[$meta:meta])*
        pub struct SimStats { $($(#[$fmeta:meta])* pub $f:ident: $t:ty,)* }
    ) => {
        $(#[$meta])*
        pub struct SimStats { $($(#[$fmeta])* pub $f: $t,)* }

        impl SimStats {
            /// Subtracts a prefix snapshot from this stats block — used to
            /// discard a warmup period (caches and predictors stay warm;
            /// only the measurement window is reported).
            ///
            /// # Panics
            ///
            /// Debug-asserts that `prefix` is componentwise ≤ `self`.
            pub fn subtract_prefix(&mut self, prefix: &SimStats) {
                $( Counter::subtract_prefix(&mut self.$f, &prefix.$f, stringify!($f)); )*
            }

            /// Merges another run's counters into this one (used to
            /// aggregate the two cores of the dual-core experiments).
            pub fn merge(&mut self, other: &SimStats) {
                $( Counter::merge(&mut self.$f, &other.$f); )*
            }
        }
    };
}

sim_stats! {
    /// Counters accumulated over one simulation run.
    ///
    /// Width-split counters (`*_low` / `*_full`) record the *architectural*
    /// width of the value handled, which is what determines how many dies
    /// switch in the significance-partitioned datapath. They are recorded
    /// regardless of whether herding is enabled so that the same run can be
    /// priced as a planar or a 3D design; whether gating actually *happens*
    /// is the power model's decision based on the configuration.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    #[allow(missing_docs)]
    pub struct SimStats {
        // ---- global ----
        pub cycles: u64,
        pub committed: u64,
        pub fetched: u64,

        // ---- front end ----
        pub icache_accesses: u64,
        pub icache_misses: u64,
        pub itlb_accesses: u64,
        pub itlb_misses: u64,
        pub fetch_stall_cycles: u64,
        pub ifq_full_stalls: u64,

        // ---- branches ----
        pub cond_branches: u64,
        pub cond_mispredicts: u64,
        pub jumps: u64,
        pub indirect_jumps: u64,
        pub indirect_mispredicts: u64,
        pub btb_lookups: u64,
        pub btb_hits: u64,
        pub btb_updates: u64,
        /// Predicted-taken fetches whose BTB target needed the upper 48 bits
        /// from the lower dies (target memoization miss, §3.7): one-cycle
        /// front-end stall each.
        pub btb_full_target_stalls: u64,
        /// BTB targets serviced from the top die (upper bits reused from the
        /// branch PC).
        pub btb_partial_target_hits: u64,
        pub ras_pushes: u64,
        pub ras_pops: u64,
        pub bpred_lookups: u64,
        pub bpred_updates: u64,

        // ---- dispatch / rename / rob ----
        pub dispatched: u64,
        pub rename_ops: u64,
        pub rob_writes_low: u64,
        pub rob_writes_full: u64,
        pub rob_reads_low: u64,
        pub rob_reads_full: u64,
        pub rob_full_stalls: u64,
        pub rs_full_stalls: u64,
        pub lsq_full_stalls: u64,
        /// Dispatch groups stalled one cycle by an unsafe operand-width
        /// misprediction at register read (§3.1: at most one per group).
        pub rf_unsafe_group_stalls: u64,

        // ---- register file ----
        pub rf_reads_low: u64,
        pub rf_reads_full: u64,
        pub rf_writes_low: u64,
        pub rf_writes_full: u64,

        // ---- scheduler ----
        pub rs_allocs_per_die: [u64; 4],
        /// Entry-cycles of residency per die: each cycle, every occupied RS
        /// entry adds one to its die. This — not the allocation count — is
        /// what determines where scheduler power burns, since an entry keeps
        /// its CAM comparators matching for as long as it waits.
        pub rs_occupancy_cycles_per_die: [u64; 4],
        /// Tag broadcasts issued (each wakeup event counts once).
        pub tag_broadcasts: u64,
        /// Per-die broadcasts actually driven (unoccupied dies are gated,
        /// §3.4).
        pub tag_broadcast_die_driven: [u64; 4],
        pub issued: u64,

        // ---- execution ----
        pub int_ops_low: u64,
        pub int_ops_full: u64,
        pub fp_ops: u64,
        pub bypass_low: u64,
        pub bypass_full: u64,
        /// One-cycle stalls to re-enable the upper 48 bits of an arithmetic
        /// unit after an unsafe input-width misprediction (§3.2).
        pub exec_reenable_stalls: u64,
        /// Re-executions forced by output-width mispredictions (§3.2).
        pub output_width_replays: u64,

        // ---- memory ----
        pub loads: u64,
        pub stores: u64,
        pub store_forwards: u64,
        pub dcache_accesses: u64,
        pub dcache_misses: u64,
        pub dcache_writes_low: u64,
        pub dcache_writes_full: u64,
        /// One-cycle cache-pipeline stalls on unsafe load-width
        /// mispredictions (§3.6).
        pub dcache_width_stalls: u64,
        pub dtlb_accesses: u64,
        pub dtlb_misses: u64,
        pub l2_accesses: u64,
        pub l2_misses: u64,
        pub dram_accesses: u64,
        /// L1⇄L2 spill/fill transfers — always full-width on all dies (§3.6).
        pub spill_fill_transfers: u64,

        // ---- width machinery ----
        pub width_pred: WidthPredictStats,
        pub pam: PamStats,
        pub dcache_encodings: EncodingStats,

        /// Event-sourced per-(unit, die) access ledger, recorded at every
        /// pipeline access site (see `th_stack3d::ActivityMatrix` for the
        /// die-touch semantics). This is the measured counterpart of the
        /// scalar width-split counters above: the power model prices watts
        /// directly from it on the default path.
        pub activity: ActivityMatrix,
    }
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional branch direction-prediction accuracy.
    pub fn branch_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// L1-D miss rate per access.
    pub fn dcache_miss_rate(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }

    /// L2 miss rate per access.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// DRAM accesses per thousand committed instructions — the
    /// memory-boundedness metric that separates `mcf`-like from
    /// compute-bound workloads.
    pub fn dram_per_kilo_inst(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            1000.0 * self.dram_accesses as f64 / self.committed as f64
        }
    }

    /// Register-file read activity split per die, assuming the
    /// significance-partitioned organisation.
    pub fn rf_read_activity(&self) -> DieActivity {
        let mut a = DieActivity::default();
        a.record_n(th_width::Width::Low, self.rf_reads_low);
        a.record_n(th_width::Width::Full, self.rf_reads_full);
        a
    }

    /// Fraction of integer operations whose values were low-width.
    pub fn low_width_fraction(&self) -> f64 {
        let total = self.int_ops_low + self.int_ops_full;
        if total == 0 {
            0.0
        } else {
            self.int_ops_low as f64 / total as f64
        }
    }

    /// Fraction of RS allocations that landed on the top die.
    pub fn rs_top_die_fraction(&self) -> f64 {
        let total: u64 = self.rs_allocs_per_die.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.rs_allocs_per_die[0] as f64 / total as f64
        }
    }

    /// Fraction of RS entry-residency (entry-cycles) spent on the top die
    /// — the herding metric that actually drives scheduler power.
    pub fn rs_top_die_residency(&self) -> f64 {
        let total: u64 = self.rs_occupancy_cycles_per_die.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.rs_occupancy_cycles_per_die[0] as f64 / total as f64
        }
    }

    /// Fraction of per-die tag broadcasts that were gated off.
    pub fn broadcast_gating_fraction(&self) -> f64 {
        let possible = self.tag_broadcasts * 4;
        if possible == 0 {
            return 0.0;
        }
        let driven: u64 = self.tag_broadcast_die_driven.iter().sum();
        1.0 - driven as f64 / possible as f64
    }

    /// A point-in-time copy of the counters, for later use with
    /// [`SimStats::delta`]. (An explicit name for `clone()` at interval
    /// boundaries — co-simulation snapshots the counters every interval
    /// and prices only the work done since the previous snapshot.)
    pub fn snapshot(&self) -> SimStats {
        self.clone()
    }

    /// The counters accumulated since `prev` was snapshotted: the
    /// per-interval activity delta that drives phase-coupled power.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `prev` is componentwise ≤ `self` (i.e. it really
    /// is an earlier snapshot of the same run).
    pub fn delta(&self, prev: &SimStats) -> SimStats {
        let mut d = self.clone();
        d.subtract_prefix(prev);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_handle_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.branch_accuracy(), 1.0);
        assert_eq!(s.dcache_miss_rate(), 0.0);
        assert_eq!(s.dram_per_kilo_inst(), 0.0);
        assert_eq!(s.rs_top_die_fraction(), 0.0);
        assert_eq!(s.broadcast_gating_fraction(), 0.0);
    }

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed: 150,
            cond_branches: 10,
            cond_mispredicts: 1,
            dcache_accesses: 50,
            dcache_misses: 5,
            dram_accesses: 3,
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.branch_accuracy() - 0.9).abs() < 1e-12);
        assert!((s.dcache_miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.dram_per_kilo_inst() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn gating_fraction() {
        let s = SimStats {
            tag_broadcasts: 10,
            tag_broadcast_die_driven: [10, 5, 3, 2],
            ..Default::default()
        };
        assert!((s.broadcast_gating_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats { cycles: 10, committed: 20, ..Default::default() };
        a.rs_allocs_per_die = [4, 3, 2, 1];
        let mut b = SimStats { cycles: 5, committed: 10, ..Default::default() };
        b.rs_allocs_per_die = [1, 1, 1, 1];
        b.dcache_encodings.counts = [1, 2, 3, 4];
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.committed, 30);
        assert_eq!(a.rs_allocs_per_die, [5, 4, 3, 2]);
        assert_eq!(a.dcache_encodings.counts, [1, 2, 3, 4]);
    }

    #[test]
    fn rf_activity_projects_widths() {
        let s = SimStats { rf_reads_low: 3, rf_reads_full: 1, ..Default::default() };
        let a = s.rf_read_activity();
        assert_eq!(a.die(0), 4);
        assert_eq!(a.die(3), 1);
    }
}
