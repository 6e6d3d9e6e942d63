//! Named sweep presets reproducing the paper's experiment grids.
//!
//! Each preset expands one experiment into its independent shards:
//! `fig8` and `fig9` are chip-run grids (workload × design point),
//! `fig10` is the worst-case thermal search grid, and `dtm` is the
//! closed-loop policy comparison. `selftest` is the orchestrator's own
//! cheap exercise grid (used by tests and the CI resume gate).

use crate::{ShardSpec, ShardTask, SweepSpec};
use th_cosim::PolicyKind;
use th_workloads::all_workloads;
use thermal_herding::experiments::fig10::worst_case_candidates;
use thermal_herding::Variant;

/// Default per-core instruction budget for the chip-run presets.
pub const DEFAULT_BUDGET: u64 = 60_000;
/// Default thermal grid resolution for `fig10`.
pub const DEFAULT_ROWS: usize = 16;
/// The DTM presets' temperature cap, kelvin (between the herded and
/// unherded steady-state ceilings, as in the `dtm` experiment).
pub const DTM_CAP_K: f64 = 376.0;

/// The Figure 8 grid: every workload × the five design points.
pub fn fig8(budget: u64) -> SweepSpec {
    let shards = all_workloads()
        .iter()
        .flat_map(|w| {
            Variant::figure8().iter().map(|&variant| ShardSpec {
                id: format!("fig8/{}/{}", w.name, variant.label()),
                task: ShardTask::ChipRun {
                    workload: w.name.to_string(),
                    variant,
                    budget,
                },
            })
        })
        .collect();
    SweepSpec { name: "fig8".into(), shards }
}

/// The Figure 9 grid: every workload × {planar, 3D without herding,
/// 3D with herding}.
pub fn fig9(budget: u64) -> SweepSpec {
    let variants = [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD];
    let shards = all_workloads()
        .iter()
        .flat_map(|w| {
            variants.iter().map(|&variant| ShardSpec {
                id: format!("fig9/{}/{}", w.name, variant.label()),
                task: ShardTask::ChipRun {
                    workload: w.name.to_string(),
                    variant,
                    budget,
                },
            })
        })
        .collect();
    SweepSpec { name: "fig9".into(), shards }
}

/// The Figure 10 worst-case search grid: the hotspot candidate
/// workloads × {planar, 3D without herding, 3D with herding}, each
/// shard a chip run plus a steady-state thermal solve.
pub fn fig10(budget: u64, rows: usize) -> SweepSpec {
    let variants = [Variant::Base, Variant::ThreeDNoTh, Variant::ThreeD];
    let shards = variants
        .iter()
        .flat_map(|&variant| {
            worst_case_candidates().into_iter().map(move |w| ShardSpec {
                id: format!("fig10/{}/{}", w.name, variant.label()),
                task: ShardTask::ThermalRun {
                    workload: w.name.to_string(),
                    variant,
                    budget,
                    rows,
                },
            })
        })
        .collect();
    SweepSpec { name: "fig10".into(), shards }
}

/// The closed-loop DTM comparison: the two 3D design points × the three
/// active policies under one cap, at the scaled smoke-budget interval
/// structure (30 × 20 ms intervals, 20k-cycle slices, 12×12 grid).
pub fn dtm() -> SweepSpec {
    let variants = [Variant::ThreeDNoTh, Variant::ThreeD];
    let policies = [PolicyKind::Dvfs, PolicyKind::Fetch, PolicyKind::Herding];
    let shards = variants
        .iter()
        .flat_map(|&variant| {
            policies.iter().map(move |&policy| ShardSpec {
                id: format!("dtm/{}/{}", variant.label(), policy.name()),
                task: dtm_task(variant, policy),
            })
        })
        .collect();
    SweepSpec { name: "dtm".into(), shards }
}

fn dtm_task(variant: Variant, policy: PolicyKind) -> ShardTask {
    ShardTask::CosimRun {
        workload: "mpeg2-like".into(),
        variant,
        policy,
        cap_k: DTM_CAP_K,
        rows: 12,
        interval_s: 0.02,
        slice_cycles: 20_000,
        steps: 30,
    }
}

/// Eight cheap deterministic shards for exercising the orchestrator
/// itself (resume, retries, fault injection).
pub fn selftest() -> SweepSpec {
    SweepSpec {
        name: "selftest".into(),
        shards: (0..8)
            .map(|i| ShardSpec {
                id: format!("selftest-{i}"),
                task: ShardTask::SelfTest { seed: i, spin: 50_000 },
            })
            .collect(),
    }
}

/// All preset names, for help text.
pub fn names() -> &'static [&'static str] {
    &["fig8", "fig9", "fig10", "dtm", "selftest"]
}

/// Expands a preset by name. `budget` and `rows` apply to the presets
/// that use them.
pub fn by_name(name: &str, budget: u64, rows: usize) -> Option<SweepSpec> {
    match name {
        "fig8" => Some(fig8(budget)),
        "fig9" => Some(fig9(budget)),
        "fig10" => Some(fig10(budget, rows)),
        "dtm" => Some(dtm()),
        "selftest" => Some(selftest()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_expands_with_unique_ids() {
        for name in names() {
            let spec = by_name(name, 1000, 8).unwrap();
            assert_eq!(&spec.name, name);
            assert!(!spec.shards.is_empty(), "{name} expanded empty");
            let mut ids: Vec<&str> = spec.shards.iter().map(|s| s.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), spec.shards.len(), "{name} has duplicate shard ids");
        }
        assert!(by_name("bogus", 1000, 8).is_none());
    }

    #[test]
    fn grid_sizes_match_the_experiments() {
        let n = all_workloads().len();
        assert_eq!(fig8(1000).shards.len(), 5 * n);
        assert_eq!(fig9(1000).shards.len(), 3 * n);
        assert_eq!(fig10(1000, 8).shards.len(), 3 * worst_case_candidates().len());
        assert_eq!(dtm().shards.len(), 6);
    }

    #[test]
    fn budget_changes_the_fingerprint() {
        assert_ne!(fig8(1000).fingerprint(), fig8(2000).fingerprint());
        assert_eq!(fig8(1000).fingerprint(), fig8(1000).fingerprint());
    }
}
