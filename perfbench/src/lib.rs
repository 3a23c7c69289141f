//! The repository benchmark: the paper's kernel sweep plus hot- and
//! cold-cache networked serving, measured end to end from one process,
//! with a separate traced run that attributes the time to layers.
//!
//! It drives the library crates only through their public functions and
//! adds no instrumentation to the program: the traced run uses the
//! benchmark's own spans around each call it makes into a layer, plus the
//! spans, counters and report fields the program already exposes. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.

#![warn(missing_docs)]

mod env;
mod kernels;
mod layers;
pub mod report;
mod serve;
mod stats;

use std::path::PathBuf;

use tenbench_core::coo::CooTensor;

/// Factor rank of every rank-dependent kernel and request.
pub const RANK: usize = 16;
/// HiCOO block bits (the service default).
pub const BLOCK_BITS: u8 = 7;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process sweep of the paper's ten cells.
    Kernels,
    /// Networked serving with every prepared tensor cache-resident.
    ServeHot,
    /// Networked serving over a pool far larger than the cache.
    ServeCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Kernels, Workload::ServeHot, Workload::ServeCold];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kernels => "kernels",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and repetition counts. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] exists for the smoke test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Nonzeros of the `kernels` tensor. 100k rather than the paper-scale
    /// 1M: at 1M the cells' run-to-run spread on the sizing host was
    /// 14-49% (co-tenant memory-bandwidth contention doubled a streaming
    /// probe's time between phases); at 100k it was 6-13%.
    pub kernel_nnz: usize,
    /// Nonzeros of every serving pool tensor.
    pub serve_nnz: usize,
    /// Tensors in the `serve_hot` pool.
    pub hot_pool: usize,
    /// Back-to-back slice length per (cell, mode) in the kernel sweep.
    pub slice_s: f64,
    /// Set-up repetitions of `serve_hot` (whose warm-up takes seconds);
    /// `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-up repetitions of `kernels` and `serve_cold`, whose set-ups
    /// take milliseconds: a few would leave the median noisy.
    pub quick_setup_reps: usize,
    /// Repetitions of each single-layer timing in the traced run.
    pub layer_reps: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            kernel_nnz: 100_000,
            serve_nnz: 20_000,
            hot_pool: 32,
            slice_s: 0.005,
            setup_reps: 3,
            quick_setup_reps: 101,
            layer_reps: 9,
        }
    }

    /// A scale small enough for a unit-test smoke run.
    pub fn tiny() -> Self {
        Scale {
            kernel_nnz: 20_000,
            serve_nnz: 2_000,
            hot_pool: 4,
            // One call per slice keeps the traced run's event count small.
            slice_s: 0.0,
            setup_reps: 2,
            quick_setup_reps: 2,
            layer_reps: 2,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Directory the chrome trace of a traced run is written to.
    pub trace_dir: PathBuf,
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<report::Outcome, String> {
    let host = env::EnvInfo::probe();
    let env_lines = |tensor_bytes| host.lines(opts.seed, tensor_bytes);
    match opts.workload {
        Workload::Kernels => kernels::run(opts, env_lines),
        Workload::ServeHot | Workload::ServeCold => serve::run(opts, env_lines),
    }
}

/// The s4 (irrS, power-law) dataset at `nnz` nonzeros from `seed`.
pub fn s4(nnz: usize, seed: u64) -> CooTensor<f32> {
    tenbench_gen::registry::find("s4")
        .expect("s4 is in the dataset registry")
        .generate_with(nnz, seed)
}

/// A well-mixed 64-bit value from `seed` and `i` (splitmix64), so pool
/// tensors and client streams get distinct, reproducible seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
