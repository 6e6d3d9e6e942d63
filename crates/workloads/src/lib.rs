//! # TH64 benchmark kernels.
//!
//! The paper evaluated 106 application traces from SPECint2000, SPECfp2000,
//! MediaBench, MiBench, the Wisconsin pointer-intensive suite, and the
//! BioBench/BioPerf bioinformatics suites (§4). The binaries and their
//! SimPoints are not available, so this crate provides hand-written TH64
//! kernels grouped into the same six [`Suite`]s. Each kernel is written to
//! land at its suite's point in the behavioural space that drives the
//! paper's results:
//!
//! * **memory intensity** (DRAM accesses per kilo-instruction) — separates
//!   `mcf`-like (min speedup, 7 %) from `crafty`/`patricia`-like (max
//!   speedup, 65–77 %), and SPECfp's mid-pack 29.5 %;
//! * **operand width distribution** — media/embedded kernels process 8/16
//!   bit data (max power savings, 30 %); chess bitboards and FP are
//!   full-width; `yacr2`-like mixes widths (min savings, 15 %);
//! * **branch behaviour** — predictable loop nests vs data-dependent
//!   branches.
//!
//! Every kernel is a complete program that runs to `halt` and
//! self-validates (tests check final register checksums against the
//! functional interpreter).
//!
//! The registry is built once per process, on first use, and every
//! accessor hands out `'static` borrows into it: looking a kernel up is a
//! cheap search, never a rebuild or a copy of its data image.
//!
//! ```
//! use th_workloads::{all_workloads, workload_by_name, Suite};
//! let suite: &[_] = all_workloads();
//! assert!(suite.len() >= 18);
//! assert!(suite.iter().any(|w| w.suite == Suite::SpecInt));
//! let mcf = workload_by_name("mcf-like").unwrap();
//! assert!(std::ptr::eq(mcf, workload_by_name("mcf-like").unwrap()));
//! ```

#![deny(missing_docs)]

mod bio;
mod embedded;
mod media;
mod pointer;
mod specfp;
mod specint;

use std::fmt;
use std::sync::OnceLock;
use th_isa::Program;

/// The benchmark suite a workload belongs to (the grouping of Figure 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPECint2000-class integer applications.
    SpecInt,
    /// SPECfp2000-class floating-point applications.
    SpecFp,
    /// MediaBench-class media kernels.
    Media,
    /// MiBench-class embedded kernels.
    Embedded,
    /// Wisconsin pointer-intensive-class applications.
    Pointer,
    /// BioBench/BioPerf-class bioinformatics kernels.
    Bio,
}

impl Suite {
    /// All suites in Figure 8's presentation order.
    pub fn all() -> &'static [Suite] {
        &[Suite::SpecInt, Suite::SpecFp, Suite::Media, Suite::Embedded, Suite::Pointer, Suite::Bio]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::SpecInt => "SPECint",
            Suite::SpecFp => "SPECfp",
            Suite::Media => "MediaBench",
            Suite::Embedded => "MiBench",
            Suite::Pointer => "Pointer",
            Suite::Bio => "Bio",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A runnable benchmark kernel.
///
/// Deliberately not `Clone`: the largest data image is 16 MB, and every
/// consumer borrows the one copy in the registry.
#[derive(Debug)]
pub struct Workload {
    /// Kernel name (e.g. `"mcf-like"`).
    pub name: &'static str,
    /// Which suite it represents.
    pub suite: Suite,
    /// The assembled program.
    pub program: Program,
    /// Instruction budget for timing simulation (the kernel halts within
    /// this budget; the budget mirrors SimPoint-style fixed-length
    /// simulation windows).
    pub inst_budget: u64,
}

/// Every workload in the registry, in suite order.
///
/// The registry is built on the first call and lives for the rest of the
/// process; later calls return the same slice. Each kernel seeds its own
/// generator, so the contents do not depend on which call builds them.
pub fn all_workloads() -> &'static [Workload] {
    static REGISTRY: OnceLock<Vec<Workload>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut v = Vec::new();
        v.extend(specint::workloads());
        v.extend(specfp::workloads());
        v.extend(media::workloads());
        v.extend(embedded::workloads());
        v.extend(pointer::workloads());
        v.extend(bio::workloads());
        v
    })
}

/// The workloads of one suite, borrowed from [`all_workloads`].
pub fn suite_workloads(suite: Suite) -> Vec<&'static Workload> {
    all_workloads().iter().filter(|w| w.suite == suite).collect()
}

/// Looks up one workload by name in [`all_workloads`] (built once per
/// process, so a lookup never rebuilds or copies a kernel).
pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    all_workloads().iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use th_isa::Machine;

    #[test]
    fn registry_covers_all_suites() {
        let all = all_workloads();
        for &suite in Suite::all() {
            let n = all.iter().filter(|w| w.suite == suite).count();
            assert!(n >= 2, "suite {suite} has only {n} workloads");
        }
        assert!(all.len() >= 18, "only {} workloads", all.len());
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn every_workload_halts_within_budget() {
        for w in all_workloads() {
            let mut m = Machine::new(&w.program);
            let summary = m
                .run(w.inst_budget)
                .unwrap_or_else(|e| panic!("{} trapped: {e}", w.name));
            assert!(
                summary.halted,
                "{} did not halt within {} instructions ({} executed)",
                w.name, w.inst_budget, summary.instructions
            );
            assert!(
                summary.instructions > w.inst_budget / 20,
                "{} is trivially short: {} instructions",
                w.name,
                summary.instructions
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("mcf-like").is_some());
        assert!(workload_by_name("nonexistent").is_none());
    }

    #[test]
    fn registry_is_built_once_and_lookups_borrow_it() {
        let a = workload_by_name("mcf-like").unwrap();
        let b = workload_by_name("mcf-like").unwrap();
        assert!(std::ptr::eq(a, b), "two lookups returned different copies");
        assert_eq!(all_workloads().as_ptr(), all_workloads().as_ptr());
        let all = all_workloads();
        for w in all {
            let found = workload_by_name(w.name).unwrap();
            assert!(
                all.iter().any(|r| std::ptr::eq(r, found)),
                "{} lookup does not point into the registry",
                w.name
            );
        }
        for w in suite_workloads(Suite::Pointer) {
            assert!(all.iter().any(|r| std::ptr::eq(r, w)));
        }
    }

    #[test]
    fn suite_filter() {
        for w in suite_workloads(Suite::Media) {
            assert_eq!(w.suite, Suite::Media);
        }
    }
}
