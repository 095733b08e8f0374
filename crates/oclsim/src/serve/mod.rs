//! # serve — a multi-tenant kernel service over the simulated platform
//!
//! The paper's runtime is single-client: one process, one kernel cache,
//! one device at a time. This module is the serving architecture on top —
//! what a production deployment of the HPL runtime would put in front of
//! heavy traffic:
//!
//! - **[`Service`]** owns the devices (each with its own context and
//!   out-of-order queue) and one **shared [`BinaryCache`]**: built kernel
//!   binaries keyed by `(source, options, device)` with capacity
//!   accounting, LRU eviction, and admission control. Identical kernels
//!   submitted by different tenants resolve to one resident binary;
//!   builds are single-flight, so hit/miss totals are deterministic under
//!   any tenant interleaving.
//! - **[`Session`]** is one tenant's handle: every submit passes
//!   admission ([`TenantQuota`] on total launches, in-flight launches,
//!   and compile bytes), is attributed to the tenant in the process
//!   metrics registry, and keeps the tenant's uploaded inputs pooled
//!   privately — the binary cache is the *only* cross-tenant shared
//!   state.
//! - **[`partition`]** splits one NDRange launch across heterogeneous
//!   devices EngineCL-style ([`PartitionStrategy::Static`] /
//!   [`PartitionStrategy::Dynamic`] / [`PartitionStrategy::HGuided`])
//!   with results bit-identical to a single-device launch, because
//!   chunks execute real subsets of the linearized group space under the
//!   full launch geometry.
//!
//! Rejections use the structured variants [`crate::Error::QuotaExceeded`]
//! and [`crate::Error::AdmissionRejected`]; the latter boxes its cause so
//! `root_cause()` walks service rejections exactly like scheduler
//! poisoning chains.

pub mod cache;
pub mod partition;
pub mod quota;
pub mod session;

pub use cache::{global_binary_cache, BinaryCache, CacheOutcome};
pub use partition::{
    run_partitioned, run_partitioned_with, run_reference, ChunkRecord, JobArg, LaunchJob,
    PartitionOptions, PartitionOutcome, PartitionStrategy, PartitionTarget,
};
pub use quota::TenantQuota;
pub use session::{JobOutcome, LaunchPermit, PendingJob, Service, ServiceConfig, Session};
