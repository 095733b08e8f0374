//! How a device executes launches: which engine runs the work-groups and how
//! many host threads claim them. An [`ExecConfig`] is carried by each
//! [`crate::Device`] and fixed when the device is built; constructors that
//! take none use [`ExecConfig::from_env`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which execution engine a launch uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The statement-major SIMT interpreter (counter-accurate reference).
    Ref,
    /// The compiled work-group bytecode VM ([`super::wg`]).
    Wg,
}

impl Backend {
    /// The `OCLSIM_BACKEND` spelling (`"ref"` / `"wg"`), also used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ref => "ref",
            Backend::Wg => "wg",
        }
    }
}

/// Engine and claimer count of one device's launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Host threads that claim the work-groups of one launch: the launching
    /// thread plus `threads - 1` helpers from the device's worker pool.
    pub threads: usize,
    /// The engine that runs the groups. Kernels the `wg` planner declines,
    /// sanitized launches and SIMD widths outside 2..=64 run on `Ref`
    /// whatever this says.
    pub backend: Backend,
}

/// Resolve one library environment variable: `None` when it is unset, empty
/// or not something `parse` accepts — in which last case a one-line report
/// naming the variable, the value and what it accepts joins `rejected`.
pub fn env_knob<T>(
    var: &str,
    value: Option<&str>,
    accepted: &str,
    parse: impl Fn(&str) -> Option<T>,
    rejected: &mut Vec<String>,
) -> Option<T> {
    let value = value.map(str::trim).filter(|v| !v.is_empty())?;
    let parsed = parse(value);
    if parsed.is_none() {
        rejected.push(format!(
            "{var}={value:?} ignored: expected {accepted}; using the default"
        ));
    }
    parsed
}

impl ExecConfig {
    /// Interpret the values of `OCLSIM_THREADS` and `OCLSIM_BACKEND` (`None`:
    /// unset). The defaults are as many claimers as the host has cores and
    /// the `wg` engine.
    pub fn parse(
        threads: Option<&str>,
        backend: Option<&str>,
        rejected: &mut Vec<String>,
    ) -> ExecConfig {
        let threads = env_knob(
            "OCLSIM_THREADS",
            threads,
            "a thread count (0 means 1)",
            |v| v.parse::<usize>().ok(),
            rejected,
        );
        let backend = env_knob(
            "OCLSIM_BACKEND",
            backend,
            "`ref` or `wg`",
            |v| {
                [Backend::Ref, Backend::Wg]
                    .into_iter()
                    .find(|b| b.name() == v)
            },
            rejected,
        );
        ExecConfig {
            threads: threads.map_or_else(
                || std::thread::available_parallelism().map_or(1, |n| n.get()),
                |n| n.max(1),
            ),
            backend: backend.unwrap_or(Backend::Wg),
        }
    }

    /// The process's environment default, resolved on the first call — never
    /// at load time — and fixed from then on; rejected values are reported
    /// on stderr, once.
    pub fn from_env() -> ExecConfig {
        static ENV: OnceLock<ExecConfig> = OnceLock::new();
        *ENV.get_or_init(|| {
            let var = |name| std::env::var(name).ok();
            let mut rejected = Vec::new();
            let config = ExecConfig::parse(
                var("OCLSIM_THREADS").as_deref(),
                var("OCLSIM_BACKEND").as_deref(),
                &mut rejected,
            );
            for report in rejected {
                eprintln!("oclsim: {report}");
            }
            config
        })
    }

    /// The engine a launch under this config uses right now.
    pub(crate) fn effective_backend(&self) -> Backend {
        match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
            0 => self.backend,
            1 => Backend::Ref,
            _ => Backend::Wg,
        }
    }
}

/// [`set_backend`]'s value: 0 = none, else `Backend as u8 + 1`.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Run every later launch of the process on engine `b`, whatever its
/// device's [`ExecConfig`] says.
///
/// hplbench's hook: its `exec.interp.ns_per_instr` probe flips the engine
/// around launches on the default runtime's devices. It goes away when that
/// probe builds a device of its own (ROADMAP item 2); nothing in this
/// workspace calls it — build the device, platform or service with the
/// `ExecConfig` you want instead.
pub fn set_backend(b: Backend) {
    BACKEND_OVERRIDE.store(b as u8 + 1, Ordering::Relaxed);
}

/// Name of the engine that devices built without an explicit config launch
/// on (`"ref"` / `"wg"`), for reports.
pub fn backend_name() -> &'static str {
    ExecConfig::from_env().effective_backend().name()
}
