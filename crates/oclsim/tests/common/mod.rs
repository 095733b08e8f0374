//! The one rig helper of this directory: tests that must hold on both
//! execution engines, or at several claimer counts, build their device here
//! from an explicit [`ExecConfig`] instead of relying on what the process
//! environment happens to say.
#![allow(dead_code)] // each test binary uses its own subset

use oclsim::{Backend, CommandQueue, Context, Device, DeviceProfile, ExecConfig, Program};

/// A device with a context and an in-order queue of its own.
pub struct Rig {
    pub device: Device,
    pub ctx: Context,
    pub queue: CommandQueue,
}

impl Rig {
    /// Compile `src` for this rig's device; a build failure fails the test.
    pub fn build(&self, src: &str) -> Program {
        let p = Program::from_source(&self.ctx, src);
        p.build("").unwrap_or_else(|e| panic!("build failed: {e}"));
        p
    }
}

/// A fresh device of `profile` that executes as `exec` says.
pub fn rig(profile: DeviceProfile, exec: ExecConfig) -> Rig {
    let device = Device::with_exec(profile, exec);
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let queue = CommandQueue::new(&ctx, &device).unwrap();
    Rig { device, ctx, queue }
}

/// The `wg` VM and the `ref` oracle, both at the environment's claimer count
/// (`ci.sh` runs the suite under `OCLSIM_THREADS=1` and `=4`).
pub fn engines() -> [ExecConfig; 2] {
    let env = ExecConfig::from_env();
    [Backend::Wg, Backend::Ref].map(|backend| ExecConfig { backend, ..env })
}

/// The environment's engine at `threads` claimers.
pub fn claimers(threads: usize) -> ExecConfig {
    ExecConfig {
        threads,
        ..ExecConfig::from_env()
    }
}

/// One Tesla-class rig per engine.
pub fn tesla_per_engine() -> impl Iterator<Item = Rig> {
    engines()
        .into_iter()
        .map(|exec| rig(DeviceProfile::tesla_c2050(), exec))
}
