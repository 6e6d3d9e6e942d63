//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chip-grid|thermal-grid|dtm-loop> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --emit-reference
//! ```
//!
//! Run from the repository root. Each run sets the workload's sweep up
//! and runs it through `th_sweep::run_sweep` into a fresh run directory,
//! again and again until `--seconds` have passed (at least once), and
//! checks every shard's outputs against `reference.json`.
//!
//! * `--trace 0` prints the end-to-end metrics (tracing off).
//! * `--trace 1` also replays each sweep's shards through the layers'
//!   public functions, timing each call (see `replay.rs`), checks that
//!   the replay reproduces the sweep bit for bit, and prints the
//!   per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the same numbers for people, with the run's identity (host cores,
//! lanes, commit, seed, core engine). `--emit-reference` prints a fresh
//! `reference.json` instead.
//!
//! The process pins `TH_THREADS` and the sweep pool to one lane, and
//! refuses to run when a knob that changes what is measured is set. It
//! runs itself again under `taskset` on one CPU, where a probe thread
//! (see `probe.rs`) measures the speed the host gives that CPU; the
//! end-to-end times are put at the probe's reference speed.

mod probe;
mod reference;
mod replay;
mod workloads;

#[cfg(test)]
mod selftest;

use reference::{check_replay, Reference};
use replay::{Layers, Work};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command as Process, ExitCode};
use std::time::Instant;
use th_sweep::json;
use th_sweep::{run_sweep, SweepOptions, SweepSpec};
use workloads::{setup, Bench, LANES};

/// Process-global knobs that silently change what a run measures.
const REFUSED_KNOBS: [&str; 4] = [
    "TH_CORE_ENGINE",
    "TH_ACTIVITY",
    "TH_COSIM_INTERVAL",
    "TH_SWEEP_FAULT",
];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("shard_p50_s", "s"),
    ("shard_p90_s", "s"),
    ("sim_mips", "MIPS"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.image_mb", "MB"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.committed", "count"),
    ("sim.cycles", "count"),
    ("sim.ns_per_inst", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("isa.image_s", "s"),
    ("power.price_s", "s"),
    ("power.prices", "count"),
    ("power.us_per_price", "us"),
    ("thermal.solve_s", "s"),
    ("thermal.solves", "count"),
    ("thermal.cells", "count"),
    ("thermal.ns_per_cell", "ns"),
    ("cosim.run_s", "s"),
    ("cosim.intervals", "count"),
    ("cosim.sim_s", "s"),
    ("cosim.solver_s", "s"),
    ("cosim.other_s", "s"),
    ("cosim.ms_per_interval", "ms"),
    ("sweep.orchestrate_s", "s"),
    ("sweep.checkpoint_bytes", "B"),
    ("sweep.telemetry_lines", "count"),
    ("sweep.retries", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Named spans must cover at least this share of the traced wall time.
const MIN_COVERAGE: f64 = 0.95;
/// Set-ups per run: at least this many, and more while they add up to
/// less than [`SETUP_FLOOR_S`], up to [`MAX_SETUPS`]. A set-up shorter
/// than a quarter of the floor repeats after each sweep, up to a quarter
/// of the floor or a fifth of [`MAX_SETUPS`].
const MIN_SETUPS: usize = 3;
const SETUP_FLOOR_S: f64 = 0.5;
const MAX_SETUPS: usize = 10_000;

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    EmitReference,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-reference" {
            return Ok(Command::EmitReference);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Refuses the knobs in [`REFUSED_KNOBS`] and pins the lane count.
fn pin_environment() -> Result<(), String> {
    for knob in REFUSED_KNOBS {
        if let Some(v) = std::env::var_os(knob) {
            return Err(format!(
                "{knob}={v:?} is set; it changes what this benchmark measures. Unset it and rerun."
            ));
        }
    }
    if let Ok(v) = std::env::var("TH_THREADS") {
        if v.trim() != LANES.to_string() {
            eprintln!("perfbench: overriding TH_THREADS={v:?} with {LANES}");
        }
    }
    // Single-threaded here: nothing has read the environment yet.
    std::env::set_var("TH_THREADS", LANES.to_string());
    Ok(())
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(refname)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPUs this process may run on, as `/proc/self/status` lists them
/// (empty where it does not say).
fn allowed_cpus() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default()
}

/// Runs this process again under `taskset` on the first CPU it may use,
/// waits for it and returns its exit code, so that the sweep and the
/// probe share one CPU. `None` when it already runs on one CPU, or when
/// it cannot be pinned (then it runs unpinned, with a note).
fn pin_to_one_cpu(args: &[String]) -> Option<ExitCode> {
    let cpus = allowed_cpus();
    if cpus.is_empty() || cpus.chars().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let first: String = cpus.chars().take_while(char::is_ascii_digit).collect();
    let pinned = std::env::current_exe().and_then(|exe| {
        Process::new("taskset")
            .arg("-c")
            .arg(&first)
            .arg(exe)
            .args(args)
            .status()
    });
    match pinned {
        Ok(status) => Some(match status.code() {
            Some(0) => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        }),
        Err(e) => {
            eprintln!("perfbench: cannot pin to CPU {first} with taskset ({e}); running unpinned");
            None
        }
    }
}

/// Resets this process's peak resident set to its current one (where
/// the kernel allows it), so the next [`peak_rss_mb`] covers only what
/// runs from here.
fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The `q`-quantile of `values`, interpolating linearly between ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One measured sweep.
struct Sweep {
    wall_s: f64,
    shard_s: Vec<f64>,
    failed: usize,
    work: Work,
    retries: u64,
    checkpoint_bytes: u64,
    telemetry_lines: u64,
    /// The traced replay, with `--trace 1`.
    layers: Option<Layers>,
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `spec` in `dir`, checks every shard, and with `trace` replays
/// the shards through the layers.
fn measure_sweep(
    bench: Bench,
    spec: &SweepSpec,
    pool: &th_exec::Pool,
    dir: &Path,
    reference: Option<&Reference>,
    trace: bool,
    errors: &mut Vec<String>,
) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let outcome = run_sweep(spec, dir, &SweepOptions::default(), pool)
        .map_err(|e| format!("sweep {}: {e}", spec.name))?;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut failed = vec![false; outcome.records.len()];
    let mut work = Work::default();
    for (i, record) in outcome.records.iter().enumerate() {
        if let Some(reference) = reference {
            if let Err(e) = reference.check_record(bench.name(), record) {
                errors.push(e);
                failed[i] = true;
            }
            if let Some(e) = reference.expected(bench.name(), &record.id) {
                work.add(e.work);
            }
        } else if let Some(e) = record.error.as_deref() {
            errors.push(format!("{}: degraded ({e})", record.id));
            failed[i] = true;
        }
    }
    let layers = if trace {
        let (layers, shards) = replay::replay(spec)?;
        for (i, (record, shard)) in outcome.records.iter().zip(&shards).enumerate() {
            if let Err(e) = check_replay(record, shard) {
                errors.push(e);
                failed[i] = true;
            }
        }
        Some(layers)
    } else {
        None
    };
    let telemetry = fs::read_to_string(dir.join("telemetry.jsonl")).unwrap_or_default();
    Ok(Sweep {
        wall_s,
        shard_s: outcome.records.iter().map(|r| r.wall_s).collect(),
        failed: failed.iter().filter(|f| **f).count(),
        work,
        retries: outcome
            .records
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum(),
        checkpoint_bytes: dir_bytes(&dir.join("shards")),
        telemetry_lines: telemetry.lines().count() as u64,
        layers,
    })
}

/// Everything one run measured. Set-ups and sweeps carry their start
/// on the probe's clock.
struct Run {
    setups: Vec<(f64, f64)>,
    sweeps: Vec<(f64, Sweep)>,
    /// Peak resident set of each set-up plus sweep, MB.
    peaks_mb: Vec<f64>,
    errors: Vec<String>,
    probe: probe::Samples,
}

fn measure(args: &Args, reference: &Reference, root: &Path) -> Result<Run, String> {
    let io = |e: std::io::Error| format!("run directory: {e}");
    // Stopped and joined when dropped, on every path out of here.
    let probe = probe::Probe::start()?;
    let mut setups = Vec::new();
    let mut sweeps: Vec<(f64, Sweep)> = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut errors = Vec::new();
    let mut dirs = (1..).map(|n| root.join(format!("sweep-{n}")));
    let setup_only = |setups: &mut Vec<(f64, f64)>| {
        let at = probe.now();
        let secs = setup(|| args.bench.spec(args.seed)).secs;
        setups.push((at, secs));
        secs
    };
    let start = Instant::now();
    // Another set-up plus sweep runs when it would end nearer to
    // `--seconds` than stopping now, judged by the mean so far.
    let another = |done: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        done == 0 || elapsed + 0.5 * elapsed / (done as f64) < args.seconds
    };
    while another(sweeps.len()) {
        let dir = dirs.next().expect("endless");
        reset_peak_rss();
        let at = probe.now();
        let s = setup(|| args.bench.spec(args.seed));
        setups.push((at, s.secs));
        let at = probe.now();
        let sweep = measure_sweep(
            args.bench,
            &s.spec,
            &s.pool,
            &dir,
            Some(reference),
            args.trace,
            &mut errors,
        )?;
        peaks_mb.push(peak_rss_mb()?);
        sweeps.push((at, sweep));
        fs::remove_dir_all(&dir).map_err(io)?;
        // A set-up too short to time alone repeats after each sweep, so
        // that its median spans the run as the sweeps' does.
        let (mut batch, until) = (s.secs, (setups.len() + MAX_SETUPS / 5).min(MAX_SETUPS));
        while batch < SETUP_FLOOR_S / 4.0 && setups.len() < until {
            batch += setup_only(&mut setups);
        }
    }
    let total = |setups: &[(f64, f64)]| setups.iter().map(|s| s.1).sum::<f64>();
    while setups.len() < MIN_SETUPS || (total(&setups) < SETUP_FLOOR_S && setups.len() < MAX_SETUPS)
    {
        setup_only(&mut setups);
    }
    Ok(Run {
        setups,
        sweeps,
        peaks_mb,
        errors,
        probe: probe.finish(),
    })
}

/// A sweep's wall and shard times put at the probe's reference speed.
/// Shards run one after another from the sweep's start, so each shard is
/// scaled by the probe's median over its own span, and the rest of the
/// sweep (orchestration) by the median over the whole sweep.
fn scaled(probe: &probe::Samples, at: f64, sweep: &Sweep) -> (f64, Vec<f64>) {
    let mut from = at;
    let shards: Vec<f64> = sweep
        .shard_s
        .iter()
        .map(|&secs| {
            let k = probe.scale(from, from + secs);
            from += secs;
            secs * k
        })
        .collect();
    let rest = sweep.wall_s - sweep.shard_s.iter().sum::<f64>();
    let wall = shards.iter().sum::<f64>() + rest * probe.scale(at, at + sweep.wall_s);
    (wall, shards)
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order, with times
/// at the probe's reference speed (see [`scaled`]). `wall_s` is the
/// median over the run's sweeps, each shard counts once at its median
/// over the sweeps (every sweep runs the same shards in the same order),
/// and `setup_s` is the median set-up, each scaled by the probe's median
/// over it.
fn end_to_end(run: &Run) -> Vec<f64> {
    let sweeps: Vec<(f64, Vec<f64>)> = run
        .sweeps
        .iter()
        .map(|(at, s)| scaled(&run.probe, *at, s))
        .collect();
    let wall_s = median(&sweeps.iter().map(|s| s.0).collect::<Vec<_>>());
    let shards: Vec<f64> = (0..sweeps[0].1.len())
        .map(|i| median(&sweeps.iter().map(|s| s.1[i]).collect::<Vec<_>>()))
        .collect();
    let setups: Vec<f64> = run
        .setups
        .iter()
        .map(|(at, secs)| secs * run.probe.scale(*at, at + secs))
        .collect();
    let work = &run.sweeps[0].1.work;
    vec![
        wall_s,
        median(&shards),
        quantile(&shards, 0.9),
        work.committed as f64 / wall_s / 1e6,
        work.cycles as f64 / wall_s / 1e6,
        median(&setups),
        median(&run.peaks_mb),
    ]
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order: for
/// each sweep, then the median over sweeps.
fn per_layer(run: &Run) -> Vec<f64> {
    let rows: Vec<Vec<f64>> = run
        .sweeps
        .iter()
        .map(|(_, s)| {
            let l = s.layers.as_ref().expect("traced sweeps carry layers");
            let sim_s = l.sim_s + l.cosim_sim_s;
            let solve_s = l.solve_s + l.cosim_solver_s;
            let solves = l.solves + l.work.intervals;
            let cells = l.cells + l.cosim_cells;
            let shard_s: f64 = s.shard_s.iter().sum();
            vec![
                l.build_s,
                l.builds as f64,
                l.image_bytes as f64 / 1e6,
                sim_s,
                (l.sim_runs + l.work.intervals) as f64,
                l.work.committed as f64,
                l.work.cycles as f64,
                ratio(sim_s * 1e9, l.work.committed as f64),
                ratio(sim_s * 1e9, l.work.cycles as f64),
                l.image_s,
                l.price_s,
                l.prices as f64,
                ratio(l.price_s * 1e6, l.prices as f64),
                solve_s,
                solves as f64,
                cells as f64,
                ratio(solve_s * 1e9, cells as f64),
                l.cosim_s,
                l.work.intervals as f64,
                l.cosim_sim_s,
                l.cosim_solver_s,
                l.cosim_s - l.cosim_sim_s - l.cosim_solver_s,
                ratio(l.cosim_s * 1e3, l.work.intervals as f64),
                s.wall_s - shard_s,
                s.checkpoint_bytes as f64,
                s.telemetry_lines as f64,
                s.retries as f64,
                ratio(l.named_s(), l.wall_s),
                ratio(l.wall_s, shard_s),
            ]
        })
        .collect();
    (0..PER_LAYER.len())
        .map(|i| median(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let pairs: Vec<(String, String)> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            let body = json::obj(&[
                ("value".into(), json::num(*v)),
                ("unit".into(), json::quote(unit)),
            ]);
            (name.to_string(), body)
        })
        .collect();
    json::obj(&pairs)
}

fn run_benchmark(args: &Args) -> Result<(), String> {
    let reference = Reference::embedded()?;
    let root = PathBuf::from(".bench_build")
        .join("perfbench-runs")
        .join(format!("run-{}", std::process::id()));
    let measured = measure(args, &reference, &root);
    let _ = fs::remove_dir_all(&root);
    let run = measured?;

    // The host's CPUs: the process itself is pinned to one.
    let nproc = fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    let engine = format!("{:?}", th_sim::default_engine());
    println!(
        "perfbench {} seed={} seconds={} trace={} sweeps={} setups={}",
        args.bench.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.sweeps.len(),
        run.setups.len()
    );
    println!(
        "meta {}",
        json::obj(&[
            ("workload".into(), json::quote(args.bench.name())),
            ("seed".into(), args.seed.to_string()),
            ("nproc".into(), nproc.to_string()),
            ("cpus".into(), json::quote(&allowed_cpus())),
            ("lanes".into(), LANES.to_string()),
            (
                "th_threads".into(),
                json::quote(&std::env::var("TH_THREADS").unwrap_or_default())
            ),
            ("commit".into(), json::quote(&git_commit())),
            ("engine".into(), json::quote(&engine)),
        ])
    );

    let attempted: usize = run.sweeps.iter().map(|(_, s)| s.shard_s.len()).sum();
    let failed: usize = run.sweeps.iter().map(|(_, s)| s.failed).sum();
    let mut correct = failed == 0;
    for e in run.errors.iter().take(20) {
        eprintln!("perfbench: output check failed: {e}");
    }

    let (names, values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        let values = per_layer(&run);
        let at = PER_LAYER.iter().position(|(n, _)| *n == "trace.coverage");
        let coverage = values[at.expect("trace.coverage is a per-layer metric")];
        if coverage < MIN_COVERAGE {
            eprintln!("perfbench: named spans cover {coverage:.4} of the traced wall, below {MIN_COVERAGE}");
            correct = false;
        }
        (&PER_LAYER, values)
    } else {
        (&END_TO_END, end_to_end(&run))
    };
    for ((name, unit), v) in names.iter().zip(&values) {
        println!("  {name:<24} {v:>16.6} {unit}");
    }
    let failed_frac = ratio(failed as f64, attempted as f64);
    println!(
        "  {:<24} {failed_frac:>16.6} frac ({failed} of {attempted} shards)",
        "failed_frac"
    );
    if !args.trace {
        let n = run.sweeps[0].1.shard_s.len();
        let (walls, scales): (Vec<String>, Vec<String>) = run
            .sweeps
            .iter()
            .map(|(at, s)| {
                let k = run.probe.scale(*at, at + s.wall_s);
                (format!("{:.3}", s.wall_s), format!("{k:.3}"))
            })
            .unzip();
        println!(
            "  {:<24} {n} shards, each at its median of {} sweeps; {} beyond p90",
            "shard samples",
            run.sweeps.len(),
            n / 10
        );
        println!("  {:<24} {}", "sweep walls (s)", walls.join(" "));
        println!("  {:<24} {}", "speed scales", scales.join(" "));
        let peaks: Vec<String> = run.peaks_mb.iter().map(|p| format!("{p:.2}")).collect();
        println!("  {:<24} {}", "sweep peaks (MB)", peaks.join(" "));
        println!(
            "  {:<24} {} samples, median {:.4} ms, reference {:.4} ms",
            "probe",
            run.probe.len(),
            run.probe.run_median() * 1e3,
            probe::REFERENCE_S * 1e3
        );
        let intervals = run.sweeps[0].1.work.intervals;
        if intervals > 0 {
            println!(
                "  {:<24} {:>16.6} 1/s",
                "intervals_per_s",
                intervals as f64 / values[0]
            );
        }
    }
    println!(
        "{}",
        json::obj(&[
            ("correct".into(), correct.to_string()),
            ("attempted".into(), attempted.to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), metrics_json(names, &values)),
        ])
    );
    Ok(())
}

/// Runs every workload once at seed 0 with the replay, and prints the
/// reference file those runs establish.
fn emit_reference() -> Result<(), String> {
    let mut reference = Reference::default();
    let root = PathBuf::from(".bench_build")
        .join("perfbench-runs")
        .join(format!("reference-{}", std::process::id()));
    for bench in Bench::ALL {
        let dir = root.join(bench.name());
        let s = setup(|| bench.spec(0));
        let outcome = run_sweep(&s.spec, &dir, &SweepOptions::default(), &s.pool)
            .map_err(|e| e.to_string())?;
        let (_, shards) = replay::replay(&s.spec)?;
        let entries = reference.0.entry(bench.name().to_string()).or_default();
        for (record, shard) in outcome.records.iter().zip(&shards) {
            if let Some(e) = &record.error {
                return Err(format!("{}: degraded ({e})", record.id));
            }
            check_replay(record, shard)?;
            entries.insert(record.id.clone(), Reference::entry(record, shard));
        }
    }
    let _ = fs::remove_dir_all(&root);
    print!("{}", reference.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = pin_to_one_cpu(&args) {
        return code;
    }
    let result = pin_environment().and_then(|()| match parse_args(&args)? {
        Command::Run(args) => run_benchmark(&args),
        Command::EmitReference => emit_reference(),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
