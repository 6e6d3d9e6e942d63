//! The traced replay: runs a spec's shards again, outside the sweep,
//! through each layer's public functions, and times every call from
//! here. It reproduces the sweep's shard metrics, which the caller
//! checks bit for bit against the sweep's records.

use std::hint::black_box;
use std::time::Instant;
use th_cosim::CoSimConfig;
use th_isa::Machine;
use th_power::{DieFractionTable, PowerModel};
use th_sim::Simulator;
use th_stack3d::{DieStack, Floorplan, Unit};
use th_sweep::{ShardTask, SweepSpec};
use th_thermal::{HeatSink, AMBIENT_K};
use th_workloads::workload_by_name;
use thermal_herding::experiments::dtm;
use thermal_herding::{thermal_analysis, ChipResult, Variant, SINK_RESISTANCE_K_PER_W};

/// Deterministic work of one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Committed instructions of the simulated core (after warm-up).
    pub committed: u64,
    /// Simulated cycles of that core.
    pub cycles: u64,
    /// Co-simulation intervals.
    pub intervals: u64,
}

impl Work {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Work) {
        self.committed += other.committed;
        self.cycles += other.cycles;
        self.intervals += other.intervals;
    }
}

/// One replayed shard: its id, the metrics the sweep records for it,
/// and its work.
pub struct ShardReplay {
    /// Shard id.
    pub id: String,
    /// Metrics, named as in the sweep's shard records.
    pub metrics: Vec<(String, f64)>,
    /// Work done.
    pub work: Work,
}

/// Per-layer totals over one replay. Times are host seconds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `workload_by_name` calls.
    pub builds: u64,
    /// Time in `workload_by_name`.
    pub build_s: f64,
    /// Program image bytes (text plus initialised data) built.
    pub image_bytes: u64,
    /// Time in a `Machine::new` made beside each chip run: an estimate of
    /// the image set-up inside the simulation span, not subtracted from it.
    pub image_s: f64,
    /// Time in `Simulator::run_with_warmup`.
    pub sim_s: f64,
    /// Simulator runs, one per chip run.
    pub sim_runs: u64,
    /// Time in `PowerModel::compute` and `DieFractionTable::new`.
    pub price_s: f64,
    /// Chip pricings.
    pub prices: u64,
    /// Time in `thermal_analysis` (steady solves).
    pub solve_s: f64,
    /// Steady solves.
    pub solves: u64,
    /// Grid cells solved, summed over solves.
    pub cells: u64,
    /// Time in `dtm::run_variant_scaled`.
    pub cosim_s: f64,
    /// The co-simulator's own simulation time (`CoSimReport::sim_wall_s`).
    pub cosim_sim_s: f64,
    /// The co-simulator's own solver time (`CoSimReport::solver_wall_s`).
    pub cosim_solver_s: f64,
    /// Grid cells stepped by the co-simulator, summed over intervals.
    pub cosim_cells: u64,
    /// Work over every shard.
    pub work: Work,
    /// Wall time of the whole replay.
    pub wall_s: f64,
}

impl Layers {
    /// Time inside named top-level spans (child spans are inside these).
    pub fn named_s(&self) -> f64 {
        self.build_s + self.image_s + self.sim_s + self.price_s + self.solve_s + self.cosim_s
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Grid cells the thermal model of `variant` has at `rows` lateral rows,
/// resolved as the experiments resolve it (the planar die gets twice
/// the rows, the same physical resolution as the folded stack).
fn cosim_cells(variant: Variant, rows: usize) -> u64 {
    let (floorplan, stack, rows) = if variant.is_three_d() {
        (Floorplan::stacked_dual_core(), DieStack::four_die(), rows)
    } else {
        (Floorplan::planar_dual_core(), DieStack::planar(), rows * 2)
    };
    let sink = HeatSink {
        resistance_k_per_w: SINK_RESISTANCE_K_PER_W,
        ambient_k: AMBIENT_K,
    };
    let layers = th_cosim::stack_thermal_model(&stack, &floorplan, sink)
        .layers()
        .len();
    (rows * rows * layers) as u64
}

/// A chip run through the layers `run_chip` calls, each timed.
fn chip(
    l: &mut Layers,
    variant: Variant,
    w: &th_workloads::Workload,
    max_insts: u64,
    die_table: bool,
) -> Result<(ChipResult, Option<f64>), String> {
    span(&mut l.image_s, || {
        black_box(Machine::new(black_box(&w.program)))
    });
    let cfg = variant.sim_config();
    let budget = max_insts.min(w.inst_budget);
    let result = span(&mut l.sim_s, || {
        Simulator::new(cfg).run_with_warmup(&w.program, budget / 5, budget)
    })
    .map_err(|t| format!("pipeline trap: {t:?}"))?;
    l.sim_runs += 1;
    let core_stats = result.stats;
    let mut chip_stats = core_stats.clone();
    chip_stats.merge(&core_stats);
    let pcfg = variant.power_config();
    let (power, rf_top_die) = span(&mut l.price_s, || {
        let model = PowerModel::new();
        let power = model.compute(&chip_stats, core_stats.cycles, &pcfg);
        let rf = die_table.then(|| {
            DieFractionTable::new(&chip_stats, model.energies(), &pcfg).fractions(Unit::RegFile)[0]
        });
        (power, rf)
    });
    l.prices += 1;
    let run = ChipResult {
        variant,
        workload: w.name,
        clock_ghz: cfg.clock_ghz,
        core_stats,
        chip_stats,
        power,
    };
    Ok((run, rf_top_die))
}

/// Replays one shard.
fn shard(l: &mut Layers, task: &ShardTask) -> Result<(Vec<(String, f64)>, Work), String> {
    let name = match task {
        ShardTask::ChipRun { workload, .. }
        | ShardTask::ThermalRun { workload, .. }
        | ShardTask::CosimRun { workload, .. } => workload,
        ShardTask::SelfTest { .. } => return Err("self-test shards have no layers".into()),
    };
    let w = span(&mut l.build_s, || workload_by_name(name))
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    l.builds += 1;
    l.image_bytes += w.program.text.len() as u64 * th_isa::Inst::SIZE
        + w.program
            .data
            .iter()
            .map(|d| d.bytes.len() as u64)
            .sum::<u64>();
    let chip_work = |run: &ChipResult| Work {
        committed: run.core_stats.committed,
        cycles: run.core_stats.cycles,
        intervals: 0,
    };
    match task {
        ShardTask::ChipRun {
            variant, budget, ..
        } => {
            let (run, rf) = chip(l, *variant, &w, *budget, true)?;
            let metrics = vec![
                ("ipc".into(), run.ipc()),
                ("ipns".into(), run.ipns()),
                ("total_w".into(), run.power.total_w()),
                ("cycles".into(), run.cycles() as f64),
                ("committed".into(), run.core_stats.committed as f64),
                ("rf_top_die".into(), rf.expect("die table requested")),
            ];
            Ok((metrics, chip_work(&run)))
        }
        ShardTask::ThermalRun {
            variant,
            budget,
            rows,
            ..
        } => {
            let (run, _) = chip(l, *variant, &w, *budget, false)?;
            let analysis = span(&mut l.solve_s, || thermal_analysis(&run, *rows))?;
            l.solves += 1;
            let map = &analysis.map;
            l.cells += (map.rows() * map.cols() * map.layer_count()) as u64;
            let metrics = vec![
                ("ipc".into(), run.ipc()),
                ("total_w".into(), run.power.total_w()),
                ("peak_k".into(), analysis.peak_k()),
            ];
            Ok((metrics, chip_work(&run)))
        }
        ShardTask::CosimRun {
            variant,
            policy,
            cap_k,
            rows,
            interval_s,
            slice_cycles,
            steps,
            ..
        } => {
            let cfg = CoSimConfig::sampled(*interval_s, *slice_cycles, *steps);
            let trace = span(&mut l.cosim_s, || {
                dtm::run_variant_scaled(*variant, &w, *cap_k, *rows, policy.build(*cap_k), cfg)
            });
            let report = &trace.report;
            l.cosim_sim_s += report.sim_wall_s;
            l.cosim_solver_s += report.solver_wall_s;
            l.cosim_cells += cosim_cells(*variant, *rows) * report.intervals.len() as u64;
            let work = Work {
                committed: report.intervals.iter().map(|s| s.committed).sum(),
                cycles: report.intervals.iter().map(|s| s.cycles).sum(),
                intervals: report.intervals.len() as u64,
            };
            let metrics = vec![
                ("intervals".into(), report.intervals.len() as f64),
                ("max_peak_k".into(), trace.max_peak_k()),
                ("mean_clock_ghz".into(), trace.mean_clock_ghz()),
                ("throttled_fraction".into(), trace.throttled_fraction()),
                ("delivered_ginst".into(), trace.delivered_ginst()),
                ("ipc".into(), trace.ipc()),
                ("rf_top_die".into(), trace.rf_top_die()),
            ];
            Ok((metrics, work))
        }
        ShardTask::SelfTest { .. } => unreachable!("rejected above"),
    }
}

/// Replays every shard of `spec` in spec order.
///
/// # Errors
///
/// The first shard that fails, with its id.
pub fn replay(spec: &SweepSpec) -> Result<(Layers, Vec<ShardReplay>), String> {
    let mut l = Layers::default();
    let mut shards = Vec::with_capacity(spec.shards.len());
    let t0 = Instant::now();
    for s in &spec.shards {
        let (metrics, work) = shard(&mut l, &s.task).map_err(|e| format!("{}: {e}", s.id))?;
        l.work.add(work);
        shards.push(ShardReplay {
            id: s.id.clone(),
            metrics,
            work,
        });
    }
    l.wall_s = t0.elapsed().as_secs_f64();
    Ok((l, shards))
}
