//! The HPL runtime: the one value that owns what the paper's library hides
//! — "the manual setup of the environment, management of the buffers … and
//! the transfers between them": platform, per-device contexts and queues,
//! kernel cache, transfer accounting, and a [`Service`] over its devices
//! whose binary cache holds its device binaries (the default runtime's is
//! [`oclsim::serve::global_binary_cache`]). Every eval is a request of the
//! tenant the calling thread [entered](crate::enter_tenant), else of the
//! runtime's [own session](Runtime::session) (DESIGN.md "One lifecycle").
//!
//! The paper-style free functions ([`crate::eval()`], [`crate::profile()`],
//! [`crate::cache_stats`], …) reach it through [`runtime`]: the runtime the
//! calling thread [entered](Runtime::enter), else one process-wide default
//! built from the environment on first use. Whatever must not share cache,
//! statistics or device timelines with the rest of the process (a test, one
//! cell of a configuration matrix) builds a runtime of its own and enters it.

use std::cell::RefCell;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, OnceLock};

use oclsim::exec::config::env_knob;
use oclsim::serve::{global_binary_cache, BinaryCache, Service, Session, TenantQuota};
use oclsim::{Backend, CommandQueue, Context, Device, DeviceType, ExecConfig, OptLevel, Platform};

use crate::error::{Error, Result};
use crate::eval::KernelCache;
use crate::lock;

/// What a [`Runtime`] is built with; fixed for its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Host threads that claim one launch's work-groups (`OCLSIM_THREADS`).
    pub threads: usize,
    /// The engine that executes launches (`OCLSIM_BACKEND`).
    pub backend: Backend,
    /// The mid-end level HPL-generated kernels are compiled at
    /// (`HPL_OPT_LEVEL`).
    pub opt_level: OptLevel,
}

impl Config {
    /// `exec` extended with the value of `HPL_OPT_LEVEL` (`None`: unset; a
    /// value that is not accepted joins `rejected` and means the default).
    pub fn extend(exec: ExecConfig, opt_level: Option<&str>, rejected: &mut Vec<String>) -> Config {
        let level = env_knob(
            "HPL_OPT_LEVEL",
            opt_level,
            "`0`, `1`, `2`, `-O0`, `-O1` or `-O2`",
            |v| OptLevel::from_flag(v).or_else(|| OptLevel::from_flag(&format!("-O{v}"))),
            rejected,
        );
        Config {
            threads: exec.threads,
            backend: exec.backend,
            opt_level: level.unwrap_or_default(),
        }
    }

    /// The process's environment default: [`ExecConfig::from_env`] extended
    /// with `HPL_OPT_LEVEL`. Resolved on the first call and fixed from then
    /// on; a rejected value is reported on stderr, once.
    pub fn from_env() -> Config {
        static ENV: OnceLock<Config> = OnceLock::new();
        *ENV.get_or_init(|| {
            let level = std::env::var("HPL_OPT_LEVEL").ok();
            let mut rejected = Vec::new();
            let config = Config::extend(ExecConfig::from_env(), level.as_deref(), &mut rejected);
            for report in rejected {
                eprintln!("hpl: {report}");
            }
            config
        })
    }
}

/// One usable device with its context and queues. Handed out as an owned
/// `Arc`: an [`crate::Array`]'s device copy keeps the entry that uploaded it.
pub struct DeviceEntry {
    /// The simulated device.
    pub device: Device,
    /// A context private to this device (so each device's memory capacity
    /// is enforced independently).
    pub context: Context,
    /// The in-order queue of blocking evals (`eval(..).run(..)`) and of
    /// host reads: each command is ordered after the previous one.
    pub queue: CommandQueue,
    /// The out-of-order queue of `eval(..).run_async(..)`: commands are
    /// ordered only by their inferred wait lists, so independent transfers
    /// and kernels overlap on the modeled device timeline.
    pub async_queue: CommandQueue,
    /// The owning runtime's transfer statistics.
    stats: Arc<Mutex<TransferStats>>,
}

impl DeviceEntry {
    /// Record a host→device transfer.
    pub(crate) fn note_h2d(&self, bytes: usize, modeled_seconds: f64) {
        let mut s = lock(&self.stats);
        s.h2d_count += 1;
        s.h2d_bytes += bytes as u64;
        s.modeled_seconds += modeled_seconds;
    }

    /// Record a device→host transfer.
    pub(crate) fn note_d2h(&self, bytes: usize, modeled_seconds: f64) {
        let mut s = lock(&self.stats);
        s.d2h_count += 1;
        s.d2h_bytes += bytes as u64;
        s.modeled_seconds += modeled_seconds;
    }
}

/// Cumulative host↔device transfer statistics, used by tests and by the
/// transfer-minimisation ablation bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Host→device transfer count.
    pub h2d_count: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host transfer count.
    pub d2h_count: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Modeled seconds spent on all transfers.
    pub modeled_seconds: f64,
}

/// An HPL runtime (see the module docs).
pub struct Runtime {
    config: Config,
    platform: Platform,
    entries: Vec<Arc<DeviceEntry>>,
    default_device: usize,
    stats: Arc<Mutex<TransferStats>>,
    pub(crate) kernels: KernelCache,
    /// The session of every eval outside a tenant scope.
    session: Arc<Session>,
    /// Open [`crate::profile()`] scopes; the queues profile while non-zero.
    pub(crate) profile_depth: AtomicUsize,
}

/// The tenant of every runtime's own session: the owner of each eval
/// made outside a tenant scope, in traces, postmortems and metrics.
pub const DEFAULT_TENANT: &str = "default";

static DEFAULT: OnceLock<Arc<Runtime>> = OnceLock::new();

/// What the calling thread's evals run under: the runtime it entered last
/// and the tenant session it entered last (`None`: the default runtime,
/// the runtime's own session). Both guards restore their half on drop.
struct Scope {
    runtime: Option<Arc<Runtime>>,
    tenant: Option<Arc<Session>>,
}

thread_local! {
    static CURRENT: RefCell<Scope> = const {
        RefCell::new(Scope {
            runtime: None,
            tenant: None,
        })
    };
}

/// The runtime of the calling thread: the one it [entered](Runtime::enter)
/// last, else the process-wide default (built from [`Config::from_env`] on
/// first use).
pub fn runtime() -> Arc<Runtime> {
    CURRENT
        .with(|c| c.borrow().runtime.clone())
        .unwrap_or_else(|| {
            let build = || Runtime::build(Config::from_env(), global_binary_cache().clone());
            Arc::clone(DEFAULT.get_or_init(build))
        })
}

/// The calling thread's runtime and the session its evals are requests
/// of: the tenant it entered, else the runtime's own.
pub(crate) fn scope() -> (Arc<Runtime>, Arc<Session>) {
    let rt = runtime();
    let session = current_tenant().unwrap_or_else(|| Arc::clone(&rt.session));
    (rt, session)
}

/// The tenant session the calling thread entered, if any.
pub fn current_tenant() -> Option<Arc<Session>> {
    CURRENT.with(|c| c.borrow().tenant.clone())
}

/// Make `tenant` the calling thread's tenant session; returns the one it
/// replaces (see [`crate::enter_tenant`]).
pub(crate) fn swap_tenant(tenant: Option<Arc<Session>>) -> Option<Arc<Session>> {
    CURRENT.with(|c| std::mem::replace(&mut c.borrow_mut().tenant, tenant))
}

/// RAII guard of [`Runtime::enter`]; dropping it restores the runtime that
/// was current before.
pub struct RuntimeScope {
    previous: Option<Arc<Runtime>>,
    /// A scope belongs to the thread that entered it.
    not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RuntimeScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().runtime = self.previous.take());
    }
}

impl Runtime {
    /// A runtime of its own over a fresh default platform (Tesla-class GPU,
    /// Quadro-class GPU, CPU, two cached Tesla variants): own devices and
    /// timelines, own caches and statistics, kernel names counted from `_0`.
    pub fn new(config: Config) -> Arc<Runtime> {
        Runtime::build(config, BinaryCache::new(1 << 32))
    }

    fn build(config: Config, binaries: BinaryCache) -> Arc<Runtime> {
        let platform = Platform::default_with(ExecConfig {
            threads: config.threads,
            backend: config.backend,
        });
        let mut span = oclsim::telemetry::span("runtime", "init");
        span.note("devices", platform.devices().len());
        let stats = Arc::new(Mutex::new(TransferStats::default()));
        let entries: Vec<Arc<DeviceEntry>> = platform
            .devices()
            .iter()
            .map(|d| {
                let context = Context::new(std::slice::from_ref(d))
                    .expect("single-device context creation cannot fail");
                let queue = CommandQueue::new(&context, d)
                    .expect("queue creation on own context cannot fail");
                let async_queue = CommandQueue::new_out_of_order(&context, d)
                    .expect("queue creation on own context cannot fail");
                Arc::new(DeviceEntry {
                    device: d.clone(),
                    context,
                    queue,
                    async_queue,
                    stats: Arc::clone(&stats),
                })
            })
            .collect();
        let default_device = entries
            .iter()
            .position(|e| e.device.device_type() != DeviceType::Cpu)
            .unwrap_or(0);
        let devices = entries
            .iter()
            .map(|e| (e.device.clone(), e.context.clone(), e.async_queue.clone()))
            .collect();
        let service = Service::over(devices, binaries).expect("the platform has devices");
        Arc::new(Runtime {
            config,
            platform,
            entries,
            default_device,
            stats,
            kernels: KernelCache::default(),
            session: Arc::new(service.session(DEFAULT_TENANT, TenantQuota::unlimited())),
            profile_depth: AtomicUsize::new(0),
        })
    }

    /// Make this the calling thread's [`runtime`] until the returned guard
    /// drops. Scopes nest. Arrays are not bound to a scope: each device copy
    /// remembers the [`DeviceEntry`] that made it.
    pub fn enter(self: &Arc<Self>) -> RuntimeScope {
        RuntimeScope {
            previous: CURRENT.with(|c| c.borrow_mut().runtime.replace(Arc::clone(self))),
            not_send: std::marker::PhantomData,
        }
    }

    /// What this runtime was built with.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The underlying platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// All devices, in discovery order.
    pub fn devices(&self) -> Vec<Device> {
        self.entries.iter().map(|e| e.device.clone()).collect()
    }

    /// The default execution device: "the first device found in the system
    /// that is not a standard general-purpose CPU" (§III-C).
    pub fn default_device(&self) -> Device {
        self.entries[self.default_device].device.clone()
    }

    /// The entry (context + queues) for one of this runtime's devices.
    /// Panics on a device of another runtime (which `eval` reports as
    /// [`Error::InvalidEval`]).
    pub fn entry(&self, device: &Device) -> Arc<DeviceEntry> {
        self.try_entry(device).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Runtime::entry`], with a device this runtime does not manage (it
    /// belongs to another runtime, or was built by hand) reported as
    /// [`Error::InvalidEval`] naming it.
    pub(crate) fn try_entry(&self, device: &Device) -> Result<Arc<DeviceEntry>> {
        let found = self.entries.iter().find(|e| &e.device == device);
        found.cloned().ok_or_else(|| {
            Error::InvalidEval(format!(
                "device `{}` (id {}) is not managed by the HPL runtime this eval runs \
                 under; take devices from `hpl::runtime()` inside the same scope",
                device.name(),
                device.id()
            ))
        })
    }

    /// Find a device by a case-insensitive name fragment (convenience for
    /// examples and benches: `device_named("quadro")`).
    pub fn device_named(&self, fragment: &str) -> Option<Device> {
        let frag = fragment.to_lowercase();
        self.entries
            .iter()
            .map(|e| &e.device)
            .find(|d| d.name().to_lowercase().contains(&frag))
            .cloned()
    }

    /// Turn profiling on or off on every queue (see [`crate::profile()`]).
    pub(crate) fn set_queue_profiling(&self, enabled: bool) {
        for entry in &self.entries {
            entry.queue.set_profiling(enabled);
            entry.async_queue.set_profiling(enabled);
        }
    }

    /// The runtime's own session: an unlimited tenant named
    /// [`DEFAULT_TENANT`] of the service over this runtime's devices, whose
    /// binary cache holds the device binaries of its evals.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Snapshot the cumulative transfer statistics.
    pub fn transfer_stats(&self) -> TransferStats {
        *lock(&self.stats)
    }

    /// Reset the transfer statistics (benchmark harness bookkeeping).
    pub fn reset_transfer_stats(&self) {
        *lock(&self.stats) = TransferStats::default();
    }
}

/// Enter a runtime of the calling test's own (environment configuration).
#[cfg(test)]
pub(crate) fn fresh_scope() -> RuntimeScope {
    Runtime::new(Config::from_env()).enter()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Arc<Runtime> {
        Runtime::new(Config::from_env())
    }

    #[test]
    fn runtime_discovers_paper_devices() {
        let rt = fresh();
        assert_eq!(rt.devices().len(), 5);
        assert_eq!(rt.default_device().device_type(), DeviceType::Gpu);
        assert!(rt.default_device().name().contains("Tesla"));
        // the default device stays the plain (roofline-only) Tesla
        assert!(rt.default_device().profile().cache.is_none());
    }

    #[test]
    fn device_lookup_by_name() {
        let rt = fresh();
        assert!(rt.device_named("quadro").is_some());
        assert!(rt.device_named("TESLA").is_some());
        assert!(rt.device_named("does-not-exist").is_none());
        // "tesla" keeps resolving to the paper's cache-less device; the
        // cached variants are reachable by their L1-size fragments
        assert!(rt.device_named("tesla").unwrap().profile().cache.is_none());
        let d48 = rt.device_named("48k").unwrap();
        assert!(d48.profile().cache.is_some());
        let d16 = rt.device_named("16k").unwrap();
        assert!(d16.profile().cache.is_some());
        assert_ne!(d48, d16);
    }

    #[test]
    fn entries_pair_queue_and_device() {
        let config = Config {
            threads: 3,
            backend: Backend::Ref,
            opt_level: OptLevel::O2,
        };
        let rt = Runtime::new(config);
        assert_eq!(rt.config(), config);
        for d in rt.devices() {
            let e = rt.entry(&d);
            assert_eq!(e.queue.device(), &d);
            assert!(e.context.contains(&d));
            assert!(!e.queue.is_out_of_order());
            assert!(e.async_queue.is_out_of_order());
            assert_eq!(e.async_queue.device(), &d);
            assert_eq!(
                (d.exec().threads, d.exec().backend),
                (config.threads, config.backend),
                "devices execute as configured"
            );
        }
    }

    #[test]
    fn transfer_stats_accumulate_and_reset() {
        let rt = fresh();
        let entry = rt.entry(&rt.default_device());
        entry.note_h2d(100, 1e-6);
        entry.note_d2h(50, 2e-6);
        let s = rt.transfer_stats();
        assert_eq!(s.h2d_count, 1);
        assert_eq!(s.h2d_bytes, 100);
        assert_eq!(s.d2h_count, 1);
        assert_eq!(s.d2h_bytes, 50);
        assert!(s.modeled_seconds > 2.9e-6);
        rt.reset_transfer_stats();
        assert_eq!(rt.transfer_stats(), TransferStats::default());
    }

    #[test]
    fn scopes_nest_and_fall_back_to_the_default_runtime() {
        let default = runtime();
        assert!(Arc::ptr_eq(&default, &runtime()), "one default per process");
        let (a, b) = (fresh(), fresh());
        {
            let _a = a.enter();
            assert!(Arc::ptr_eq(&runtime(), &a));
            {
                let _b = b.enter();
                assert!(Arc::ptr_eq(&runtime(), &b));
            }
            assert!(Arc::ptr_eq(&runtime(), &a));
            // a scope is per thread: another thread still sees the default
            let seen = std::thread::spawn(runtime).join().unwrap();
            assert!(Arc::ptr_eq(&seen, &default));
        }
        assert!(Arc::ptr_eq(&runtime(), &default));
    }

    /// Every spelling the three library environment variables accept or
    /// reject, one row each: `(variable, value, what the config becomes)`,
    /// with `Err(())` for a value that is reported and replaced by the
    /// default.
    #[test]
    fn environment_spellings() {
        let unset = Config {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: Backend::Wg,
            opt_level: OptLevel::O1,
        };
        let threads = |threads| Ok(Config { threads, ..unset });
        let engine = |backend| Ok(Config { backend, ..unset });
        let level = |opt_level| Ok(Config { opt_level, ..unset });
        let table: &[(&str, Option<&str>, std::result::Result<Config, ()>)] = &[
            ("OCLSIM_THREADS", None, Ok(unset)),
            ("OCLSIM_THREADS", Some(""), Ok(unset)),
            ("OCLSIM_THREADS", Some("  "), Ok(unset)),
            ("OCLSIM_THREADS", Some("6"), threads(6)),
            ("OCLSIM_THREADS", Some(" 4 "), threads(4)),
            ("OCLSIM_THREADS", Some("1"), threads(1)),
            // a launch always has one claimer, its caller; zero means that one
            ("OCLSIM_THREADS", Some("0"), threads(1)),
            ("OCLSIM_THREADS", Some("lots"), Err(())),
            ("OCLSIM_THREADS", Some("-2"), Err(())),
            ("OCLSIM_THREADS", Some("3.5"), Err(())),
            ("OCLSIM_BACKEND", None, Ok(unset)),
            ("OCLSIM_BACKEND", Some(""), Ok(unset)),
            ("OCLSIM_BACKEND", Some("wg"), engine(Backend::Wg)),
            ("OCLSIM_BACKEND", Some("ref"), engine(Backend::Ref)),
            ("OCLSIM_BACKEND", Some(" ref\n"), engine(Backend::Ref)),
            ("OCLSIM_BACKEND", Some("REF"), Err(())),
            ("OCLSIM_BACKEND", Some("interp"), Err(())),
            ("HPL_OPT_LEVEL", None, Ok(unset)),
            ("HPL_OPT_LEVEL", Some(""), Ok(unset)),
            ("HPL_OPT_LEVEL", Some("0"), level(OptLevel::O0)),
            ("HPL_OPT_LEVEL", Some("1"), level(OptLevel::O1)),
            ("HPL_OPT_LEVEL", Some("2"), level(OptLevel::O2)),
            ("HPL_OPT_LEVEL", Some("-O0"), level(OptLevel::O0)),
            ("HPL_OPT_LEVEL", Some("-O1"), level(OptLevel::O1)),
            ("HPL_OPT_LEVEL", Some(" -O2 "), level(OptLevel::O2)),
            ("HPL_OPT_LEVEL", Some("-O3"), Err(())),
            ("HPL_OPT_LEVEL", Some("3"), Err(())),
            ("HPL_OPT_LEVEL", Some("O2"), Err(())),
            ("HPL_OPT_LEVEL", Some("-o2"), Err(())),
        ];
        for (var, value, want) in table {
            let only = |name: &str| value.filter(|_| name == *var);
            let mut reports = Vec::new();
            let exec =
                ExecConfig::parse(only("OCLSIM_THREADS"), only("OCLSIM_BACKEND"), &mut reports);
            let got = Config::extend(exec, only("HPL_OPT_LEVEL"), &mut reports);
            let row = format!("{var}={value:?}");
            assert_eq!(got, want.unwrap_or(unset), "{row}");
            if want.is_ok() {
                assert!(reports.is_empty(), "{row}: {reports:?}");
            } else {
                // one report: the variable, the value, what it accepts
                assert_eq!(reports.len(), 1, "{row}: {reports:?}");
                let report = &reports[0];
                assert!(report.starts_with(&format!("{var}=")), "{row}: {report}");
                assert!(report.contains(value.unwrap().trim()), "{row}: {report}");
                assert!(report.contains("expected"), "{row}: {report}");
            }
        }
    }
}
