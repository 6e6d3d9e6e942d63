//! The host-speed probe: a thread that runs two fixed, tiny kernels
//! every [`PERIOD`] and records how long they took. Pinned to the CPU the
//! sweep runs on, its timings follow the speed the sweep gets from a
//! shared host, so a span's times can be put at a reference speed:
//! multiplied by [`REFERENCE_S`] over the probe's median during that
//! span.
//!
//! One sample is the geometric mean of the two kernels' times: integer
//! hashing with data-dependent branches, and a stencil over two 24x24
//! grids (9 KB). Both stay in the first-level cache, so the probe evicts
//! little of the sweep's data. A pointer chase through memory was tried
//! as a third kernel and did not follow the sweep's speed.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between samples.
const PERIOD: Duration = Duration::from_millis(20);
/// A sample at reference speed: about the median on the 2-vCPU
/// development VM.
pub const REFERENCE_S: f64 = 200e-6;
/// Fewest samples a span is scaled by: a span that holds fewer takes
/// this many, the ones nearest to it in time.
const MIN_SAMPLES: usize = 5;
/// Side of the stencil grids.
const N: usize = 24;

fn hashing() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0_u64;
    for i in 0..40_000_u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = match x & 3 {
            0 => acc.wrapping_add(x >> 3),
            1 => acc ^ i,
            _ => acc.rotate_left(5),
        };
    }
    acc
}

fn stencil(grid: &mut [f64], next: &mut [f64]) -> f64 {
    for _ in 0..150 {
        for r in 1..N - 1 {
            for c in 1..N - 1 {
                let k = r * N + c;
                next[k] = 0.25 * (grid[k - 1] + grid[k + 1] + grid[k - N] + grid[k + N]) + 1e-3;
            }
        }
        grid.swap_with_slice(next);
    }
    grid[N * N / 2]
}

/// One sample: the geometric mean of the two kernels' seconds.
fn sample(grid: &mut [f64], next: &mut [f64]) -> f64 {
    let t0 = Instant::now();
    black_box(hashing());
    let t1 = Instant::now();
    black_box(stencil(black_box(grid), next));
    let t2 = Instant::now();
    ((t1 - t0).as_secs_f64() * (t2 - t1).as_secs_f64()).sqrt()
}

/// A running probe. [`Probe::finish`], or dropping it, stops its thread
/// and waits for it.
pub struct Probe {
    start: Instant,
    stop: Arc<AtomicBool>,
    /// (seconds since `start` at the end of a sample, the sample).
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    thread: Option<JoinHandle<()>>,
}

/// A finished probe's samples, in time order.
pub struct Samples(Vec<(f64, f64)>);

impl Drop for Probe {
    fn drop(&mut self) {
        self.halt();
    }
}

impl Probe {
    /// Starts the probe thread.
    pub fn start() -> Result<Probe, String> {
        let start = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::Builder::new()
                .name("perfbench-probe".into())
                .spawn(move || {
                    let (mut grid, mut next) = (vec![1.0; N * N], vec![1.0; N * N]);
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(PERIOD);
                        let secs = sample(&mut grid, &mut next);
                        let at = start.elapsed().as_secs_f64();
                        samples.lock().expect("probe samples").push((at, secs));
                    }
                })
                .map_err(|e| format!("probe thread: {e}"))?
        };
        Ok(Probe {
            start,
            stop,
            samples,
            thread: Some(thread),
        })
    }

    /// Seconds since the probe started, the clock of its samples.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Stops the probe thread, waits for it, and returns its samples.
    pub fn finish(mut self) -> Samples {
        self.halt();
        Samples(std::mem::take(
            &mut *self.samples.lock().expect("probe samples"),
        ))
    }
}

impl Samples {
    /// The probe's median over `[from, to]`, or over the
    /// [`MIN_SAMPLES`] samples nearest to it when the span holds fewer.
    fn median(&self, from: f64, to: f64) -> f64 {
        let n = self.0.len();
        let lo = self.0.partition_point(|s| s.0 < from);
        let hi = self.0.partition_point(|s| s.0 <= to);
        let k = MIN_SAMPLES.min(n);
        let (lo, hi) = if hi - lo >= k {
            (lo, hi)
        } else {
            let start = ((lo + hi) / 2).saturating_sub(k / 2).min(n - k);
            (start, start + k)
        };
        if lo == hi {
            // No samples at all.
            return REFERENCE_S;
        }
        crate::median(&self.0[lo..hi].iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The factor that puts a time measured over `[from, to]` at
    /// reference speed.
    pub fn scale(&self, from: f64, to: f64) -> f64 {
        REFERENCE_S / self.median(from, to)
    }

    /// Samples taken.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The median over the whole run.
    pub fn run_median(&self) -> f64 {
        self.median(f64::NEG_INFINITY, f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_samples_and_stops() {
        let probe = Probe::start().expect("probe starts");
        std::thread::sleep(PERIOD * 12);
        let end = probe.now();
        let samples = probe.finish();
        assert!(samples.len() >= MIN_SAMPLES, "{} samples", samples.len());
        let scale = samples.scale(0.0, end);
        assert!(scale.is_finite() && scale > 0.0);
    }

    #[test]
    fn a_short_span_takes_the_nearest_samples() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Sample i, taken at second i, read (i + 1) * 1e-4 s.
        let samples = Samples((0..20).map(|i| (i as f64, (i + 1) as f64 * 1e-4)).collect());
        // Its own samples, 3 to 7.
        assert!(close(samples.median(3.0, 7.0), 6e-4));
        // None between 9.6 and 9.9: the five nearest, 8 to 12.
        assert!(close(samples.median(9.6, 9.9), 11e-4));
        // Past the end: the last five.
        assert!(close(samples.median(30.0, 31.0), 18e-4));
        assert!(close(samples.run_median(), 10.5e-4));
        assert_eq!(
            Samples(Vec::new()).scale(0.0, 1.0),
            1.0,
            "no samples: reference speed"
        );
        let few = Samples(vec![(0.0, 1e-4), (1.0, 3e-4)]);
        assert!(
            close(few.median(5.0, 6.0), 2e-4),
            "fewer than five: all of them"
        );
    }
}
