//! Steady-state and transient solvers for the RC network.
//!
//! The governing equation per cell is Kirchhoff's current law for heat:
//!
//! ```text
//! Σ_n G_n (T_n - T) + G_amb (T_amb - T) + P = C dT/dt
//! ```
//!
//! Steady state (`dT/dt = 0`) is solved with red-black successive
//! over-relaxation: cells are colored by the parity of
//! `layer + row + col`, so each cell's six stencil neighbours all carry
//! the opposite color. A sweep relaxes all red cells, then all black
//! cells; within one color pass every update reads only frozen
//! opposite-color values, so the pass can be executed in parallel row
//! strips (via [`th_exec::pool`]) with bit-identical results at any
//! thread count. Per-cell stencil diagonals are precomputed at assembly
//! time and interior cells take a branch-free fast path; convergence is
//! measured every [`SolveOptions::check_every`] sweeps rather than every
//! sweep. The transient uses implicit (backward) Euler, which is
//! unconditionally stable even with the µm-thin d2d layers' tiny time
//! constants, re-using the same relaxation kernel per step with a `C/dt`
//! self-term.
//!
//! The original sequential lexicographic sweep is retained as
//! [`Kernel::Lexicographic`] for cross-validation and benchmarking.

use crate::map::{MapView, ThermalMap};
use crate::model::StackModel;
use crate::power::PowerGrid;
use std::fmt;

/// Relaxation kernel selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Red-black SOR. Cells are colored by `(layer + row + col) & 1`;
    /// all six neighbours of a cell have the opposite color, so each
    /// color pass is data-parallel and its result is independent of
    /// sweep order — parallel runs are bit-identical to sequential.
    #[default]
    RedBlack,
    /// The original sequential lexicographic Gauss-Seidel/SOR sweep
    /// (layer-major, then row, then column). Kept as a reference
    /// implementation for property tests and benchmarks.
    Lexicographic,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveOptions {
    /// Maximum relaxation sweeps.
    pub max_iters: usize,
    /// Convergence threshold: maximum per-cell temperature change per
    /// sweep, kelvin.
    pub tolerance_k: f64,
    /// SOR over-relaxation factor (1.0 = Gauss-Seidel).
    pub omega: f64,
    /// Relaxation kernel.
    pub kernel: Kernel,
    /// Convergence is checked every `check_every` sweeps (clamped to at
    /// least 1): the intermediate sweeps skip per-cell delta tracking.
    pub check_every: usize,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            max_iters: 20_000,
            tolerance_k: 1e-6,
            omega: 1.85,
            kernel: Kernel::RedBlack,
            check_every: 8,
        }
    }
}

/// Error returned when a solve fails.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The relaxation did not reach tolerance within `max_iters` sweeps;
    /// the payload is the final residual (kelvin).
    NotConverged(f64),
    /// A power grid's shape does not match the solver grid.
    PowerGridMismatch {
        /// Expected (rows, cols).
        expected: (usize, usize),
        /// Provided (rows, cols).
        got: (usize, usize),
    },
    /// The number of power grids does not match the model's active layers.
    PowerLayerCount {
        /// Active layers in the model.
        expected: usize,
        /// Grids provided.
        got: usize,
    },
    /// A power cell is NaN or infinite. Rejected up front: the residual
    /// would be NaN and never pass the tolerance test.
    NonFinitePower {
        /// Index of the offending grid in the power slice.
        layer: usize,
        /// Cell row.
        row: usize,
        /// Cell column.
        col: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotConverged(r) => write!(f, "solver did not converge (residual {r:.2e} K)"),
            SolveError::PowerGridMismatch { expected, got } => {
                write!(f, "power grid is {got:?}, solver grid is {expected:?}")
            }
            SolveError::PowerLayerCount { expected, got } => {
                write!(f, "model has {expected} active layers but {got} power grids were given")
            }
            SolveError::NonFinitePower { layer, row, col } => {
                write!(f, "power grid {layer} has a non-finite cell at ({row}, {col})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Shared write handle for a color pass. Lanes write disjoint cells
/// (each lane owns a contiguous strip of `(layer, row)` lines, and
/// within a pass only cells of the active color are written) and read
/// only opposite-color cells frozen by the previous pass, so
/// unsynchronised access is race-free.
#[derive(Clone, Copy)]
struct FieldPtr(*mut f64);

// SAFETY: see the struct doc — all concurrent writes are to disjoint
// indices and all reads are of cells no lane writes during the pass;
// the pool's broadcast barrier orders passes.
unsafe impl Sync for FieldPtr {}

/// The assembled conductance network for a [`StackModel`] at a fixed
/// grid resolution.
///
/// Assembly precomputes, per cell, the stencil diagonal (the sum of all
/// incident conductances, including the ambient link on the sink-side
/// layer), so relaxation sweeps multiply by a cached reciprocal instead
/// of re-deriving boundary terms cell by cell.
///
/// Solves relax with red-black SOR by default: cells are colored by the
/// parity of `layer + row + col`, each color pass runs in parallel row
/// strips on the global [`th_exec::pool`], and convergence is checked
/// every [`SolveOptions::check_every`] sweeps (intermediate sweeps skip
/// residual tracking). [`Kernel::Lexicographic`] selects the sequential
/// reference sweep instead.
#[derive(Clone, Debug)]
pub struct SteadySolver {
    model: StackModel,
    rows: usize,
    cols: usize,
    /// Lateral conductance to the east neighbour, per layer.
    gx: Vec<f64>,
    /// Lateral conductance to the south neighbour, per layer.
    gy: Vec<f64>,
    /// Vertical conductance between layer `l` and `l+1`, per cell.
    gz: Vec<f64>,
    /// Conductance from each top-layer cell to ambient.
    g_amb: f64,
    /// Heat capacity per cell, per layer (J/K).
    cap: Vec<f64>,
    /// Per-cell steady-state stencil diagonal: the sum of all incident
    /// conductances (transient solves add `C/dt` on top).
    diag0: Vec<f64>,
}

impl SteadySolver {
    /// Assembles the network at `rows × cols` lateral resolution.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(model: StackModel, rows: usize, cols: usize) -> SteadySolver {
        assert!(rows > 0 && cols > 0, "grid must have cells");
        let dx = model.width_m() / cols as f64;
        let dy = model.height_m() / rows as f64;
        let area = dx * dy;
        let layers = model.layers();
        let gx: Vec<f64> =
            layers.iter().map(|l| l.material.k_lateral * l.thickness_m * dy / dx).collect();
        let gy: Vec<f64> =
            layers.iter().map(|l| l.material.k_lateral * l.thickness_m * dx / dy).collect();
        let gz: Vec<f64> = layers
            .windows(2)
            .map(|w| {
                let r = w[0].thickness_m / (2.0 * w[0].material.k_vertical)
                    + w[1].thickness_m / (2.0 * w[1].material.k_vertical);
                area / r
            })
            .collect();
        let cap: Vec<f64> =
            layers.iter().map(|l| l.material.heat_capacity * l.thickness_m * area).collect();
        let g_amb = 1.0 / (model.sink().resistance_k_per_w * (rows * cols) as f64);

        let n_layers = layers.len();
        let mut diag0 = vec![0.0; n_layers * rows * cols];
        for layer in 0..n_layers {
            for row in 0..rows {
                for col in 0..cols {
                    let mut d = 0.0;
                    if col > 0 {
                        d += gx[layer];
                    }
                    if col + 1 < cols {
                        d += gx[layer];
                    }
                    if row > 0 {
                        d += gy[layer];
                    }
                    if row + 1 < rows {
                        d += gy[layer];
                    }
                    if layer > 0 {
                        d += gz[layer - 1];
                    }
                    if layer + 1 < n_layers {
                        d += gz[layer];
                    }
                    if layer == 0 {
                        d += g_amb;
                    }
                    diag0[(layer * rows + row) * cols + col] = d;
                }
            }
        }
        SteadySolver { model, rows, cols, gx, gy, gz, g_amb, cap, diag0 }
    }

    /// The underlying model.
    pub fn model(&self) -> &StackModel {
        &self.model
    }

    /// Grid resolution `(rows, cols)`.
    pub fn resolution(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn idx(&self, layer: usize, row: usize, col: usize) -> usize {
        (layer * self.rows + row) * self.cols + col
    }

    /// Builds the per-cell power vector from the per-die power grids.
    fn assemble_power(&self, power: &[PowerGrid]) -> Result<Vec<f64>, SolveError> {
        if power.len() != self.model.power_layer_count() {
            return Err(SolveError::PowerLayerCount {
                expected: self.model.power_layer_count(),
                got: power.len(),
            });
        }
        let n_layers = self.model.layers().len();
        let mut p = vec![0.0; n_layers * self.rows * self.cols];
        for (power_index, grid) in power.iter().enumerate() {
            if grid.rows() != self.rows || grid.cols() != self.cols {
                return Err(SolveError::PowerGridMismatch {
                    expected: (self.rows, self.cols),
                    got: (grid.rows(), grid.cols()),
                });
            }
            let layer = self
                .model
                .layer_of_power_index(power_index)
                .expect("power index validated by StackModel");
            for row in 0..self.rows {
                for col in 0..self.cols {
                    let w = grid.cell(row, col);
                    if !w.is_finite() {
                        return Err(SolveError::NonFinitePower { layer: power_index, row, col });
                    }
                    p[self.idx(layer, row, col)] = w;
                }
            }
        }
        Ok(p)
    }

    /// Folds the ambient link and (for transient steps) the implicit
    /// `C/dt` self-term into a right-hand side `b` and the per-cell
    /// reciprocal diagonal, so each red-black cell update is
    /// `T ← T + ω (b + Σ G·T_nbr) / diag − ω T`.
    fn assemble_system(
        &self,
        p: &[f64],
        transient: Option<(f64, &[f64])>,
    ) -> (Vec<f64>, Vec<f64>) {
        let ambient = self.model.sink().ambient_k;
        let cells = self.rows * self.cols;
        let n_layers = self.model.layers().len();
        let mut b = p.to_vec();
        let mut inv_diag = Vec::with_capacity(b.len());
        for layer in 0..n_layers {
            let dtc = transient.map_or(0.0, |(dt_s, _)| self.cap[layer] / dt_s);
            for cell in 0..cells {
                let i = layer * cells + cell;
                let mut d = self.diag0[i] + dtc;
                if let Some((_, t_old)) = transient {
                    b[i] += dtc * t_old[i];
                }
                if layer == 0 {
                    b[i] += self.g_amb * ambient;
                }
                debug_assert!(d > 0.0);
                if d <= 0.0 {
                    d = 1.0;
                }
                inv_diag.push(1.0 / d);
            }
        }
        (b, inv_diag)
    }

    /// One red-black SOR sweep (both colors); returns the maximum
    /// per-cell change if `track`, else 0.
    ///
    /// Each color pass is fanned out over the global [`th_exec::pool`]
    /// in contiguous `(layer, row)` strips. Because same-color cells
    /// never read each other, the result is bit-identical for any strip
    /// partitioning and thread count.
    fn sweep_red_black(
        &self,
        t: &mut [f64],
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        track: bool,
    ) -> f64 {
        let n_lr = self.model.layers().len() * self.rows;
        let pool = th_exec::pool();
        let strips = pool.threads().min(n_lr).max(1);
        let bounds = |s: usize| (s * n_lr / strips, (s + 1) * n_lr / strips);
        let field = FieldPtr(t.as_mut_ptr());
        let mut max_delta = 0.0f64;
        for color in 0..2usize {
            if track {
                let maxima = pool.map_indexed(strips, |s| {
                    let (lo, hi) = bounds(s);
                    let mut local = 0.0f64;
                    for lr in lo..hi {
                        // SAFETY: strips are disjoint `(layer, row)`
                        // ranges and a pass only writes `color` cells.
                        let d = unsafe {
                            self.relax_line(field, b, inv_diag, omega, lr, color, true)
                        };
                        local = local.max(d);
                    }
                    local
                });
                for m in maxima {
                    max_delta = max_delta.max(m);
                }
            } else {
                pool.for_each_index(strips, |s| {
                    let (lo, hi) = bounds(s);
                    for lr in lo..hi {
                        // SAFETY: as above.
                        unsafe {
                            self.relax_line(field, b, inv_diag, omega, lr, color, false);
                        }
                    }
                });
            }
        }
        max_delta
    }

    /// Relaxes the cells of one `(layer, row)` line that belong to
    /// `color`. Interior lines (away from every face of the grid) take
    /// a branch-free path using the precomputed diagonal; boundary
    /// cells fall back to [`SteadySolver::relax_cell`].
    ///
    /// # Safety
    ///
    /// `field` must point to the full temperature vector; no other
    /// thread may concurrently write cells of this line's color or read
    /// cells this call writes (guaranteed by the red-black schedule).
    // The argument list mirrors the solver's hot-loop state; bundling it
    // into a struct would just rename the registers.
    #[allow(clippy::too_many_arguments)]
    unsafe fn relax_line(
        &self,
        field: FieldPtr,
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        lr: usize,
        color: usize,
        track: bool,
    ) -> f64 {
        let t = field.0;
        let rows = self.rows;
        let cols = self.cols;
        let cells = rows * cols;
        let n_layers = self.model.layers().len();
        let layer = lr / rows;
        let row = lr % rows;
        let base = lr * cols;
        // Columns of this line whose `(layer+row+col)` parity is `color`.
        let parity = (color ^ (layer + row)) & 1;
        let mut maxd = 0.0f64;

        let interior = layer > 0 && layer + 1 < n_layers && row > 0 && row + 1 < rows;
        if interior && cols >= 3 {
            let gx = self.gx[layer];
            let gy = self.gy[layer];
            let gzm = self.gz[layer - 1];
            let gzp = self.gz[layer];
            if parity == 0 {
                maxd = maxd.max(self.relax_cell(t, b, inv_diag, omega, layer, row, 0, track));
            }
            let mut col = if parity == 1 { 1 } else { 2 };
            while col + 1 < cols {
                let i = base + col;
                let num = b[i]
                    + gx * (*t.add(i - 1) + *t.add(i + 1))
                    + gy * (*t.add(i - cols) + *t.add(i + cols))
                    + gzm * *t.add(i - cells)
                    + gzp * *t.add(i + cells);
                let old = *t.add(i);
                let updated = old + omega * (num * inv_diag[i] - old);
                if track {
                    maxd = maxd.max((updated - old).abs());
                }
                *t.add(i) = updated;
                col += 2;
            }
            if (cols - 1) & 1 == parity && cols > 1 {
                maxd = maxd
                    .max(self.relax_cell(t, b, inv_diag, omega, layer, row, cols - 1, track));
            }
        } else {
            let mut col = parity;
            while col < cols {
                maxd = maxd.max(self.relax_cell(t, b, inv_diag, omega, layer, row, col, track));
                col += 2;
            }
        }
        maxd
    }

    /// Relaxes one cell through the general (boundary-aware) stencil;
    /// returns the absolute change if `track`, else 0.
    ///
    /// # Safety
    ///
    /// Same aliasing contract as [`SteadySolver::relax_line`].
    #[allow(clippy::too_many_arguments)]
    unsafe fn relax_cell(
        &self,
        t: *mut f64,
        b: &[f64],
        inv_diag: &[f64],
        omega: f64,
        layer: usize,
        row: usize,
        col: usize,
        track: bool,
    ) -> f64 {
        let cells = self.rows * self.cols;
        let n_layers = self.model.layers().len();
        let i = (layer * self.rows + row) * self.cols + col;
        let mut num = b[i];
        if col > 0 {
            num += self.gx[layer] * *t.add(i - 1);
        }
        if col + 1 < self.cols {
            num += self.gx[layer] * *t.add(i + 1);
        }
        if row > 0 {
            num += self.gy[layer] * *t.add(i - self.cols);
        }
        if row + 1 < self.rows {
            num += self.gy[layer] * *t.add(i + self.cols);
        }
        if layer > 0 {
            num += self.gz[layer - 1] * *t.add(i - cells);
        }
        if layer + 1 < n_layers {
            num += self.gz[layer] * *t.add(i + cells);
        }
        let old = *t.add(i);
        let updated = old + omega * (num * inv_diag[i] - old);
        *t.add(i) = updated;
        if track {
            (updated - old).abs()
        } else {
            0.0
        }
    }

    /// One lexicographic SOR sweep; returns the maximum temperature
    /// change. This is the original sequential reference kernel.
    ///
    /// `dt_cap[i]` adds an implicit-Euler `C/dt` self-term anchored at
    /// `t_old[i]` (empty slices for steady state).
    fn sweep_lexicographic(
        &self,
        t: &mut [f64],
        p: &[f64],
        omega: f64,
        dt_cap: &[f64],
        t_old: &[f64],
    ) -> f64 {
        let n_layers = self.model.layers().len();
        let ambient = self.model.sink().ambient_k;
        let mut max_delta = 0.0f64;
        for layer in 0..n_layers {
            for row in 0..self.rows {
                for col in 0..self.cols {
                    let i = self.idx(layer, row, col);
                    let mut num = p[i];
                    let mut den = 0.0;
                    if col > 0 {
                        num += self.gx[layer] * t[i - 1];
                        den += self.gx[layer];
                    }
                    if col + 1 < self.cols {
                        num += self.gx[layer] * t[i + 1];
                        den += self.gx[layer];
                    }
                    if row > 0 {
                        num += self.gy[layer] * t[i - self.cols];
                        den += self.gy[layer];
                    }
                    if row + 1 < self.rows {
                        num += self.gy[layer] * t[i + self.cols];
                        den += self.gy[layer];
                    }
                    if layer > 0 {
                        let g = self.gz[layer - 1];
                        num += g * t[i - self.rows * self.cols];
                        den += g;
                    }
                    if layer + 1 < n_layers {
                        let g = self.gz[layer];
                        num += g * t[i + self.rows * self.cols];
                        den += g;
                    }
                    if layer == 0 {
                        num += self.g_amb * ambient;
                        den += self.g_amb;
                    }
                    if !dt_cap.is_empty() {
                        num += dt_cap[i] * t_old[i];
                        den += dt_cap[i];
                    }
                    let fresh = num / den;
                    let updated = t[i] + omega * (fresh - t[i]);
                    max_delta = max_delta.max((updated - t[i]).abs());
                    t[i] = updated;
                }
            }
        }
        max_delta
    }

    /// Relaxes `t` in place until the per-sweep residual drops below
    /// tolerance, checking every `options.check_every` sweeps.
    fn relax_to_convergence(
        &self,
        t: &mut [f64],
        p: &[f64],
        transient: Option<(f64, &[f64])>,
        options: &SolveOptions,
    ) -> Result<(), SolveError> {
        let check_every = options.check_every.max(1);
        let mut residual = f64::INFINITY;
        match options.kernel {
            Kernel::RedBlack => {
                let (b, inv_diag) = self.assemble_system(p, transient);
                let mut done = 0;
                while done < options.max_iters {
                    let block = check_every.min(options.max_iters - done);
                    for _ in 0..block - 1 {
                        self.sweep_red_black(t, &b, &inv_diag, options.omega, false);
                    }
                    residual = self.sweep_red_black(t, &b, &inv_diag, options.omega, true);
                    done += block;
                    if residual < options.tolerance_k {
                        return Ok(());
                    }
                }
            }
            Kernel::Lexicographic => {
                let dt_cap: Vec<f64> = match transient {
                    Some((dt_s, _)) => {
                        let cells = self.rows * self.cols;
                        let mut v = vec![0.0; p.len()];
                        for (layer, cap) in self.cap.iter().enumerate() {
                            for c in v[layer * cells..(layer + 1) * cells].iter_mut() {
                                *c = cap / dt_s;
                            }
                        }
                        v
                    }
                    None => Vec::new(),
                };
                let t_old: &[f64] = transient.map_or(&[], |(_, old)| old);
                let mut done = 0;
                while done < options.max_iters {
                    let block = check_every.min(options.max_iters - done);
                    for _ in 0..block {
                        residual =
                            self.sweep_lexicographic(t, p, options.omega, &dt_cap, t_old);
                    }
                    done += block;
                    if residual < options.tolerance_k {
                        return Ok(());
                    }
                }
            }
        }
        Err(SolveError::NotConverged(residual))
    }

    /// Solves for the steady-state temperature field.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on power-grid shape mismatch, a non-finite power
    /// cell, or non-convergence.
    pub fn solve_steady(
        &self,
        power: &[PowerGrid],
        options: &SolveOptions,
    ) -> Result<ThermalMap, SolveError> {
        let p = self.assemble_power(power)?;
        let ambient = self.model.sink().ambient_k;
        let total_power: f64 = p.iter().sum();
        // Warm start at the bulk estimate: ambient plus sink rise.
        let start = ambient + total_power * self.model.sink().resistance_k_per_w;
        let mut t = vec![start; p.len()];
        self.relax_to_convergence(&mut t, &p, None, options)?;
        Ok(self.wrap(t))
    }

    fn wrap(&self, temps: Vec<f64>) -> ThermalMap {
        ThermalMap::new(
            self.rows,
            self.cols,
            self.model.layers().len(),
            self.model.width_m(),
            self.model.height_m(),
            self.model.layers().iter().map(|l| l.power_index).collect(),
            temps,
        )
    }
}

/// Implicit-Euler transient integrator over the same network.
///
/// ```no_run
/// use th_thermal::{Material, ModelLayer, PowerGrid, SolveOptions, StackModel,
///                  SteadySolver, TransientSolver};
/// # let model = StackModel::new(0.01, 0.01,
/// #     vec![ModelLayer::active(2e-6, Material::SILICON, 0)], Default::default());
/// let solver = SteadySolver::new(model, 16, 16);
/// let mut transient = TransientSolver::from_ambient(solver);
/// let mut power = vec![PowerGrid::new(16, 16, 0.01, 0.01)];
/// power[0].paint_rect(0.0, 0.0, 0.01, 0.01, 30.0);
/// for _ in 0..100 {
///     transient.step(&power, 1e-3, &SolveOptions::default()).unwrap();
/// }
/// let map = transient.current_map();
/// ```
#[derive(Clone, Debug)]
pub struct TransientSolver {
    solver: SteadySolver,
    t: Vec<f64>,
    /// Previous-step field, double-buffered so `step` allocates nothing.
    t_old: Vec<f64>,
    /// Per-layer power index, cached so borrowing views needs no rebuild.
    power_index: Vec<Option<usize>>,
    elapsed_s: f64,
}

impl TransientSolver {
    /// Starts from a uniform ambient-temperature field.
    pub fn from_ambient(solver: SteadySolver) -> TransientSolver {
        let t0 = solver.model.sink().ambient_k;
        let n = solver.model.layers().len() * solver.rows * solver.cols;
        TransientSolver::with_field(solver, vec![t0; n])
    }

    /// Starts from a previously solved field.
    ///
    /// # Panics
    ///
    /// Panics if the map's shape does not match the solver.
    pub fn from_map(solver: SteadySolver, map: &ThermalMap) -> TransientSolver {
        assert_eq!(
            (map.rows(), map.cols(), map.layer_count()),
            (solver.rows, solver.cols, solver.model.layers().len()),
            "map shape mismatch"
        );
        TransientSolver::with_field(solver, map.temps().to_vec())
    }

    fn with_field(solver: SteadySolver, t: Vec<f64>) -> TransientSolver {
        let power_index = solver.model.layers().iter().map(|l| l.power_index).collect();
        TransientSolver { t_old: t.clone(), t, power_index, solver, elapsed_s: 0.0 }
    }

    /// Simulated time elapsed so far, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Advances one implicit-Euler step of `dt_s` seconds under the given
    /// power maps.
    ///
    /// # Errors
    ///
    /// [`SolveError`] on shape mismatch, a non-finite power cell, or if
    /// the inner relaxation fails to converge.
    pub fn step(
        &mut self,
        power: &[PowerGrid],
        dt_s: f64,
        options: &SolveOptions,
    ) -> Result<(), SolveError> {
        let p = self.solver.assemble_power(power)?;
        self.t_old.copy_from_slice(&self.t);
        self.solver.relax_to_convergence(&mut self.t, &p, Some((dt_s, &self.t_old)), options)?;
        self.elapsed_s += dt_s;
        Ok(())
    }

    /// Raw temperatures, layer-major then row-major.
    pub fn temps(&self) -> &[f64] {
        &self.t
    }

    /// Hottest temperature anywhere in the stack, kelvin.
    pub fn peak_k(&self) -> f64 {
        self.t.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// A borrowed view over the current field — the zero-copy way to
    /// query temperatures between steps.
    pub fn view(&self) -> MapView<'_> {
        MapView::new(
            self.solver.rows,
            self.solver.cols,
            self.solver.model.layers().len(),
            self.solver.model.width_m(),
            self.solver.model.height_m(),
            &self.power_index,
            &self.t,
        )
    }

    /// The current temperature field as an owning map (copies the field;
    /// prefer [`TransientSolver::view`] in hot loops).
    pub fn current_map(&self) -> ThermalMap {
        self.solver.wrap(self.t.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Material;
    use crate::model::{HeatSink, ModelLayer};

    fn slab_model(r_sink: f64) -> StackModel {
        StackModel::new(
            0.01,
            0.01,
            vec![
                ModelLayer::passive(500e-6, Material::SILICON),
                ModelLayer::active(2e-6, Material::SILICON, 0),
            ],
            HeatSink { resistance_k_per_w: r_sink, ambient_k: 300.0 },
        )
    }

    fn uniform_power(rows: usize, cols: usize, watts: f64) -> Vec<PowerGrid> {
        let mut g = PowerGrid::new(rows, cols, 0.01, 0.01);
        g.paint_rect(0.0, 0.0, 0.01, 0.01, watts);
        vec![g]
    }

    #[test]
    fn uniform_slab_matches_analytic_solution() {
        // With uniform power P and no lateral gradients, the top-layer
        // temperature is ambient + P·R_sink, and the active layer adds the
        // slab's vertical resistance t/(k·A).
        let rows = 8;
        let cols = 8;
        let watts = 50.0;
        let r_sink = 0.3;
        let solver = SteadySolver::new(slab_model(r_sink), rows, cols);
        let map = solver
            .solve_steady(&uniform_power(rows, cols, watts), &SolveOptions::default())
            .unwrap();
        let top = map.layer_mean(0);
        let active = map.layer_mean(1);
        let expected_top = 300.0 + watts * r_sink;
        assert!((top - expected_top).abs() < 0.05, "top {top} vs {expected_top}");
        // Vertical drop across half of layer0 + half of layer1 (cell centres).
        let area = 0.01 * 0.01;
        let r_slab = (500e-6 / 2.0 + 2e-6 / 2.0) / (120.0 * area);
        let expected_active = expected_top + watts * r_slab;
        assert!(
            (active - expected_active).abs() < 0.05,
            "active {active} vs {expected_active}"
        );
    }

    #[test]
    fn superposition_holds() {
        // The network is linear: temperatures for P1+P2 equal the sum of
        // the rises of P1 and P2 alone.
        let rows = 6;
        let cols = 6;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();

        let mut p1 = PowerGrid::new(rows, cols, 0.01, 0.01);
        p1.paint_rect(0.0, 0.0, 0.004, 0.004, 10.0);
        let mut p2 = PowerGrid::new(rows, cols, 0.01, 0.01);
        p2.paint_rect(0.006, 0.006, 0.01, 0.01, 20.0);
        let mut p12 = p1.clone();
        p12.add(&p2);

        let m1 = solver.solve_steady(&[p1], &opts).unwrap();
        let m2 = solver.solve_steady(&[p2], &opts).unwrap();
        let m12 = solver.solve_steady(&[p12], &opts).unwrap();

        for i in 0..m12.temps().len() {
            let sum = m1.temps()[i] + m2.temps()[i] - 300.0; // one ambient offset
            assert!(
                (m12.temps()[i] - sum).abs() < 1e-3,
                "superposition violated at cell {i}: {} vs {}",
                m12.temps()[i],
                sum
            );
        }
    }

    #[test]
    fn hotspot_is_under_the_heater() {
        let rows = 9;
        let cols = 9;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let mut p = PowerGrid::new(rows, cols, 0.01, 0.01);
        // Heat only the centre ninth.
        p.paint_rect(0.0033, 0.0033, 0.0066, 0.0066, 30.0);
        let map = solver.solve_steady(&[p], &SolveOptions::default()).unwrap();
        let (l, r, c) = map.argmax();
        assert_eq!(l, 1, "hotspot should be in the active layer");
        assert!((3..6).contains(&r) && (3..6).contains(&c), "hotspot at ({r},{c})");
    }

    #[test]
    fn grid_refinement_converges() {
        // Peak temperature should change little between 16x16 and 24x24.
        let watts = 40.0;
        let opts = SolveOptions::default();
        let peak = |n: usize| {
            let solver = SteadySolver::new(slab_model(0.25), n, n);
            let mut p = PowerGrid::new(n, n, 0.01, 0.01);
            p.paint_rect(0.002, 0.002, 0.008, 0.008, watts);
            solver.solve_steady(&[p], &opts).unwrap().max_temp()
        };
        let t16 = peak(16);
        let t24 = peak(24);
        assert!((t16 - t24).abs() < 0.5, "refinement gap {} K", (t16 - t24).abs());
    }

    #[test]
    fn red_black_matches_lexicographic_reference() {
        // Both kernels must land on the same fixed point of the same
        // linear system, well within the convergence tolerance.
        let rows = 12;
        let cols = 10;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let mut p = PowerGrid::new(rows, cols, 0.01, 0.01);
        p.paint_rect(0.001, 0.002, 0.007, 0.009, 42.0);
        let rb = SolveOptions { kernel: Kernel::RedBlack, ..SolveOptions::default() };
        let lex = SolveOptions { kernel: Kernel::Lexicographic, ..SolveOptions::default() };
        let map_rb = solver.solve_steady(std::slice::from_ref(&p), &rb).unwrap();
        let map_lex = solver.solve_steady(&[p], &lex).unwrap();
        for (a, b) in map_rb.temps().iter().zip(map_lex.temps()) {
            assert!((a - b).abs() < 1e-3, "kernels disagree: {a} vs {b}");
        }
    }

    #[test]
    fn transient_approaches_steady_state() {
        let rows = 6;
        let cols = 6;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();
        let power = uniform_power(rows, cols, 30.0);
        let steady = solver.solve_steady(&power, &opts).unwrap();

        let mut tr = TransientSolver::from_ambient(solver);
        // Thermal RC of the package is ~ms–s; integrate 5 s.
        for _ in 0..500 {
            tr.step(&power, 0.01, &opts).unwrap();
        }
        let now = tr.current_map();
        assert!(
            (now.max_temp() - steady.max_temp()).abs() < 0.2,
            "transient {} vs steady {}",
            now.max_temp(),
            steady.max_temp()
        );
        assert!((tr.elapsed_s() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn transient_heats_monotonically_under_constant_power() {
        let rows = 4;
        let cols = 4;
        let solver = SteadySolver::new(slab_model(0.25), rows, cols);
        let opts = SolveOptions::default();
        let power = uniform_power(rows, cols, 30.0);
        let mut tr = TransientSolver::from_ambient(solver);
        let mut last = tr.current_map().max_temp();
        for _ in 0..20 {
            tr.step(&power, 0.005, &opts).unwrap();
            let now = tr.current_map().max_temp();
            assert!(now >= last - 1e-9, "temperature dropped: {now} < {last}");
            last = now;
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let solver = SteadySolver::new(slab_model(0.25), 6, 6);
        let bad = vec![PowerGrid::new(4, 4, 0.01, 0.01)];
        match solver.solve_steady(&bad, &SolveOptions::default()) {
            Err(SolveError::PowerGridMismatch { .. }) => {}
            other => panic!("expected shape error, got {other:?}"),
        }
        match solver.solve_steady(&[], &SolveOptions::default()) {
            Err(SolveError::PowerLayerCount { expected: 1, got: 0 }) => {}
            other => panic!("expected count error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_power_is_rejected_before_relaxing() {
        let (rows, cols) = (4, 4);
        let (dx, dy) = (0.01 / cols as f64, 0.01 / rows as f64);
        let opts = SolveOptions::default();
        for bad in [f64::NAN, f64::INFINITY] {
            // Finite background, one bad cell at (1, 2).
            let mut power = uniform_power(rows, cols, 30.0);
            power[0].paint_rect(2.1 * dx, 1.1 * dy, 2.9 * dx, 1.9 * dy, bad);
            let expected = SolveError::NonFinitePower { layer: 0, row: 1, col: 2 };

            let solver = SteadySolver::new(slab_model(0.25), rows, cols);
            assert_eq!(solver.solve_steady(&power, &opts).unwrap_err(), expected, "{bad}");

            let mut tr = TransientSolver::from_ambient(solver);
            let before = tr.temps().to_vec();
            assert_eq!(tr.step(&power, 1e-3, &opts).unwrap_err(), expected, "{bad}");
            assert_eq!(tr.temps(), &before[..], "a rejected step must leave the field alone");
            assert_eq!(tr.elapsed_s(), 0.0);
        }
        let msg = SolveError::NonFinitePower { layer: 0, row: 1, col: 2 }.to_string();
        assert!(msg.contains("non-finite") && msg.contains("(1, 2)"), "{msg}");
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let solver = SteadySolver::new(slab_model(0.25), 4, 4);
        let p = vec![PowerGrid::new(4, 4, 0.01, 0.01)];
        let map = solver.solve_steady(&p, &SolveOptions::default()).unwrap();
        for &t in map.temps() {
            assert!((t - 300.0).abs() < 1e-6);
        }
    }
}
