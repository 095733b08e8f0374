//! The simulated device back-end: executable IR, SIMT lock-step
//! interpreter, divergence masks, scalar operation semantics, the NDRange
//! launcher that spreads work-groups over the device's persistent worker
//! pool, and the per-device [`config::ExecConfig`] that picks the engine and
//! the claimer count.

pub mod config;
pub mod interp;
pub mod ir;
pub mod launch;
pub mod mask;
pub mod ops;
pub(crate) mod pool;
pub mod wg;
