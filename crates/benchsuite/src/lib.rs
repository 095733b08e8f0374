//! # benchsuite — the HPL paper's evaluation benchmarks
//!
//! The five benchmarks of the paper's §V, each in three forms:
//!
//! | Benchmark | Paper source | HPL form | OpenCL form | Serial form |
//! |---|---|---|---|---|
//! | EP | NAS Parallel Benchmarks | [`ep::hpl_version`] | [`ep::opencl_version`] + `kernels/ep.cl` | [`ep::serial`] |
//! | Floyd–Warshall | AMD APP SDK | [`floyd::hpl_version`] | [`floyd::opencl_version`] + `kernels/floyd.cl` | [`floyd::serial`] |
//! | Matrix transpose | AMD APP SDK | [`transpose::hpl_version`] | [`transpose::opencl_version`] + `kernels/transpose.cl` | [`transpose::serial`] |
//! | Spmv (CSR) | SHOC | [`spmv::hpl_version`] | [`spmv::opencl_version`] + `kernels/spmv.cl` | [`spmv::serial`] |
//! | Reduction | SHOC | [`reduction::hpl_version`] | [`reduction::opencl_version`] + `kernels/reduction.cl` | [`reduction::serial`] |
//!
//! Each benchmark's `run(cfg, device)` produces a
//! [`common::BenchReport`] with the serial-CPU baseline, the OpenCL and
//! the HPL timings — the raw material of the paper's Figures 6–9 — after
//! verifying that all three versions compute the same answer.
//!
//! The `*_version.rs` files are intentionally self-contained: they are the
//! units the programmability study (Table I) measures with the `sloc`
//! crate.

#![forbid(unsafe_code)]

pub mod common;
pub mod ep;
pub mod floyd;
pub mod pipeline;
pub mod reduction;
pub mod spmv;
pub mod transpose;

pub use common::{BenchReport, RunMetrics};

/// Unified error type for benchmark drivers.
#[derive(Debug)]
pub enum Error {
    /// Backend (simulated OpenCL) error.
    Ocl(oclsim::Error),
    /// HPL error.
    Hpl(hpl::Error),
    /// Result verification failed.
    Verification(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Ocl(e) => write!(f, "OpenCL error: {e}"),
            Error::Hpl(e) => write!(f, "HPL error: {e}"),
            Error::Verification(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<oclsim::Error> for Error {
    fn from(e: oclsim::Error) -> Error {
        Error::Ocl(e)
    }
}

impl From<hpl::Error> for Error {
    fn from(e: hpl::Error) -> Error {
        Error::Hpl(e)
    }
}
