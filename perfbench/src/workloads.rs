//! The benchmark's named workloads: paper experiment presets expanded
//! into sweep specs, in a shard order fixed by the workload seed.

use std::time::Instant;
use th_sweep::{presets, SweepSpec};

/// Per-core instruction budget of the chip-run and thermal-run shards
/// (the sweep presets' default, pinned here so the benchmark's work does
/// not move with it).
pub const BUDGET: u64 = 60_000;
/// Lateral thermal grid of `thermal-grid` (the experiments' default,
/// `thermal_herding::GRID_ROWS`).
pub const ROWS: usize = 40;
/// Sweep lanes, and the `TH_THREADS` value the process pins: one lane
/// keeps run-to-run spread low on a small shared host.
pub const LANES: usize = 1;

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// The `fig8` preset: 22 kernels x 5 design points of chip runs.
    ChipGrid,
    /// The `fig10` preset at a 40x40 grid: chip runs plus steady solves.
    ThermalGrid,
    /// The `dtm` preset: closed-loop co-simulations under three policies.
    DtmLoop,
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [Bench::ChipGrid, Bench::ThermalGrid, Bench::DtmLoop];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::ChipGrid => "chip-grid",
            Bench::ThermalGrid => "thermal-grid",
            Bench::DtmLoop => "dtm-loop",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Expands the workload's preset. The seed only permutes the shards;
    /// every shard's task, and so every simulated input, is fixed.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let mut spec = match self {
            Bench::ChipGrid => presets::fig8(BUDGET),
            Bench::ThermalGrid => presets::fig10(BUDGET, ROWS),
            Bench::DtmLoop => presets::dtm(),
        };
        shuffle(&mut spec.shards, seed);
        spec
    }

    /// A scaled-down spec for the self-test smoke pass: the first `n`
    /// shards of [`Bench::spec`] with tiny budgets, grids and traces.
    #[cfg(test)]
    pub fn smoke_spec(self, seed: u64, n: usize) -> SweepSpec {
        let mut spec = self.spec(seed);
        spec.shards.truncate(n);
        for shard in &mut spec.shards {
            use th_sweep::ShardTask;
            match &mut shard.task {
                ShardTask::ChipRun { budget, .. } => *budget = 2_000,
                ShardTask::ThermalRun { budget, rows, .. } => {
                    *budget = 2_000;
                    *rows = 6;
                }
                ShardTask::CosimRun {
                    rows,
                    slice_cycles,
                    steps,
                    ..
                } => {
                    *rows = 4;
                    *slice_cycles = 2_000;
                    *steps = 3;
                }
                ShardTask::SelfTest { .. } => {}
            }
        }
        spec
    }
}

/// Fisher-Yates shuffle driven by splitmix64, so a seed names one order
/// on every platform.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Everything a sweep needs before its first shard is dispatched.
pub struct Setup {
    /// The expanded, seed-ordered spec.
    pub spec: SweepSpec,
    /// The sweep pool.
    pub pool: th_exec::Pool,
    /// Seconds spent expanding the spec and building the pool.
    pub secs: f64,
}

/// Sets a sweep up. The run directory is left to `run_sweep`, which
/// creates it: on a shared host one `mkdir` took from 8 us to 80 us
/// within minutes, with the disk's load, not the program's work.
pub fn setup(spec: impl FnOnce() -> SweepSpec) -> Setup {
    let t0 = Instant::now();
    let spec = spec();
    let pool = th_exec::Pool::new(LANES);
    Setup {
        spec,
        pool,
        secs: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_shards_without_changing_them() {
        let ids = |seed| {
            let spec = Bench::DtmLoop.spec(seed);
            spec.shards.iter().map(|s| s.id.clone()).collect::<Vec<_>>()
        };
        let (a, b) = (ids(1), ids(2));
        assert_eq!(a, ids(1), "same seed, same order");
        assert_ne!(a, b, "seeds 1 and 2 give one order");
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "a seed changes only the order");
    }

    #[test]
    fn names_round_trip() {
        for b in Bench::ALL {
            assert_eq!(Bench::by_name(b.name()), Some(b));
        }
        assert_eq!(Bench::by_name("fig8"), None);
    }
}
