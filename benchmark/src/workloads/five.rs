//! The five paper benchmarks as seeded, verified requests: inputs drawn
//! from the run's seed, results checked against the serial Rust references
//! in `benchsuite` (never against another simulator run).

use benchsuite::ep::{self, EpClass, EpConfig, EpResult};
use benchsuite::floyd::{self, FloydConfig};
use benchsuite::reduction::{self, ReductionConfig};
use benchsuite::spmv::{self, CsrProblem, SpmvConfig};
use benchsuite::transpose::{self, TransposeConfig};
use oclsim::Device;

use crate::rng::Rng;

pub const NAMES: [&str; 5] = ["ep", "transpose", "reduction", "spmv", "floyd"];

/// How a request drives HPL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `hpl_version::run_warm`: every eval waits for its launch.
    Blocking,
    /// `async_version::run_warm`: out-of-order queue, inferred wait lists.
    Async,
}

/// Problem sizes of the five.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The large end of EXPERIMENTS.md: EP class A, transpose 2K×2K,
    /// reduction 8M, spmv 8K×8K 1 %, Floyd 256 nodes.
    Paper,
    /// The benchsuite defaults: EP class S, transpose 128×64, reduction
    /// 128 Ki, spmv 256×256, Floyd 64 nodes.
    Test,
    /// Test scale with a 16 Ki reduction, so that eight of the ten requests
    /// of a soak round are short ones of about a millisecond: the median
    /// request then lies inside that cluster, not on the edge between it
    /// and a 5 ms reduction (where it jumps with the tenants' interleaving).
    Soak,
}

pub struct Five {
    ep_cfg: EpConfig,
    ep_ref: EpResult,
    tr_cfg: TransposeConfig,
    tr_in: Vec<f32>,
    tr_ref: Vec<f32>,
    rd_cfg: ReductionConfig,
    rd_in: Vec<f32>,
    rd_ref: f32,
    sp_cfg: SpmvConfig,
    sp_in: CsrProblem,
    sp_ref: Vec<f32>,
    fl_cfg: FloydConfig,
    fl_in: Vec<u32>,
    fl_ref: Vec<u32>,
}

impl Five {
    /// Seeded inputs at `scale` with their serial references. EP's input
    /// is the NAS-defined seed, so it is the one benchmark `seed` does not
    /// touch.
    pub fn new(seed: u64, scale: Scale) -> Five {
        let mut rng = Rng::new(seed);
        let (ep_cfg, tr_cfg, mut rd_cfg, sp_cfg, nodes) = if scale == Scale::Paper {
            (
                EpConfig::class(EpClass::A),
                TransposeConfig::paper_scaled(),
                ReductionConfig::paper_scaled(),
                SpmvConfig::paper_scaled(),
                256,
            )
        } else {
            (
                EpConfig::default(),
                TransposeConfig::default(),
                ReductionConfig::default(),
                SpmvConfig::default(),
                64,
            )
        };
        if scale == Scale::Soak {
            rd_cfg.n = 8 * reduction::CHUNK;
        }
        let tr_in: Vec<f32> = (0..tr_cfg.rows * tr_cfg.cols)
            .map(|_| rng.below(2048) as f32 * 0.5)
            .collect();
        // small zero-centred integers: every partial sum in any grouping is
        // exact in f32, so tree and serial order agree bit for bit
        let rd_in: Vec<f32> = (0..rd_cfg.n).map(|_| rng.below(17) as f32 - 8.0).collect();
        let sp_cfg = SpmvConfig {
            seed: rng.next_u64(),
            ..sp_cfg
        };
        let sp_in = spmv::generate(&sp_cfg);
        let fl_cfg = FloydConfig {
            nodes,
            seed: rng.next_u64(),
        };
        let fl_in = floyd::generate_graph(&fl_cfg);
        Five {
            ep_ref: ep::serial(&ep_cfg),
            ep_cfg,
            tr_ref: transpose::serial(&tr_in, tr_cfg.rows, tr_cfg.cols),
            tr_cfg,
            tr_in,
            rd_ref: reduction::serial(&rd_in),
            rd_cfg,
            rd_in,
            sp_ref: spmv::serial(&sp_in),
            sp_cfg,
            sp_in,
            fl_ref: floyd::serial(&fl_in, nodes),
            fl_cfg,
            fl_in,
        }
    }

    /// Run benchmark `which` (index into [`NAMES`]) warm on `device` and
    /// verify its result against the serial reference.
    pub fn request(&self, which: usize, mode: Mode, device: &Device) -> Result<bool, String> {
        let err = |e: hpl::Error| format!("{} ({mode:?}): {e}", NAMES[which]);
        // the blocking and the asynchronous form of a benchmark share one
        // signature: pick the function, then run and compare once
        let blocking = mode == Mode::Blocking;
        Ok(match which {
            0 => {
                let run = if blocking {
                    ep::hpl_version::run_warm
                } else {
                    ep::async_version::run_warm
                };
                self.ep_ref
                    .matches(&run(&self.ep_cfg, device).map_err(err)?.0)
            }
            1 => {
                let run = if blocking {
                    transpose::hpl_version::run_warm
                } else {
                    transpose::async_version::run_warm
                };
                run(&self.tr_cfg, &self.tr_in, device).map_err(err)?.0 == self.tr_ref
            }
            2 => {
                let run = if blocking {
                    reduction::hpl_version::run_warm
                } else {
                    reduction::async_version::run_warm
                };
                run(&self.rd_cfg, &self.rd_in, device).map_err(err)?.0 == self.rd_ref
            }
            3 => {
                let run = if blocking {
                    spmv::hpl_version::run_warm
                } else {
                    spmv::async_version::run_warm
                };
                spmv::results_match(
                    &run(&self.sp_cfg, &self.sp_in, device).map_err(err)?.0,
                    &self.sp_ref,
                )
            }
            4 => {
                let run = if blocking {
                    floyd::hpl_version::run_warm
                } else {
                    floyd::async_version::run_warm
                };
                run(&self.fl_cfg, &self.fl_in, device).map_err(err)?.0 == self.fl_ref
            }
            _ => return Err(format!("no benchmark {which}")),
        })
    }

    /// Handwritten-OpenCL modeled kernel seconds of benchmark `which`, and
    /// whether its result matches the serial reference.
    pub fn opencl(&self, which: usize, device: &Device) -> Result<(f64, bool), String> {
        let err = |e: oclsim::Error| format!("{} (opencl): {e}", NAMES[which]);
        Ok(match which {
            0 => {
                let (r, m) = ep::opencl_version::run(&self.ep_cfg, device).map_err(err)?;
                (m.kernel_modeled_seconds, self.ep_ref.matches(&r))
            }
            1 => {
                let (r, m) = transpose::opencl_version::run(&self.tr_cfg, &self.tr_in, device)
                    .map_err(err)?;
                (m.kernel_modeled_seconds, r == self.tr_ref)
            }
            2 => {
                let (r, m) = reduction::opencl_version::run(&self.rd_cfg, &self.rd_in, device)
                    .map_err(err)?;
                (m.kernel_modeled_seconds, r == self.rd_ref)
            }
            3 => {
                let (r, m) =
                    spmv::opencl_version::run(&self.sp_cfg, &self.sp_in, device).map_err(err)?;
                (
                    m.kernel_modeled_seconds,
                    spmv::results_match(&r, &self.sp_ref),
                )
            }
            4 => {
                let (r, m) =
                    floyd::opencl_version::run(&self.fl_cfg, &self.fl_in, device).map_err(err)?;
                (m.kernel_modeled_seconds, r == self.fl_ref)
            }
            _ => return Err(format!("no benchmark {which}")),
        })
    }

    /// A digest of the seeded inputs (`hplbench check` uses it to show
    /// that another seed really changes them).
    pub fn input_digest(&self) -> u64 {
        crate::common::digest(
            (self
                .tr_in
                .iter()
                .chain(&self.rd_in)
                .map(|v| v.to_bits() as u64))
            .chain(self.sp_in.cols.iter().map(|&v| v as u64))
            .chain(self.fl_in.iter().map(|&v| v as u64)),
        )
    }
}
