//! Kernel invocation: `eval(f).global(..).local(..).device(..).run(args)`.
//!
//! The first `run` for a kernel function captures it (records the IR),
//! generates OpenCL C, and builds it for the target device; the results are
//! cached per kernel function and per device, so "second and later
//! invocations of an HPL kernel do not incur in overheads of analysis,
//! backend code generation and compilation" (§V-B) — the behaviour the
//! paper credits for diluting HPL's overhead.

use std::any::TypeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use oclsim::serve::LaunchPermit;
use oclsim::{CommandQueue, Device, Event, EventStatus};

use crate::array::Array;
use crate::codegen::{generate, generate_with_map, LineMap};
use crate::error::{Error, Result};
use crate::ir::{ParamKind, ParamRecord, RecordedKernel};
use crate::kernel::{capture, with_recorder};
use crate::runtime::{runtime, DeviceEntry, Runtime};
use crate::scalar::{HplScalar, Scalar};

/// Profiling record returned by [`Eval::run`].
///
/// `*_seconds` fields measured on the host (capture/codegen/build) are real
/// wall time; `kernel_modeled_seconds` and `transfer_modeled_seconds` come
/// from the backend's analytic device model. The paper's Figures 6–9 time
/// "the generation of the backend code, the compilation and the execution
/// of the kernel" — that is [`EvalProfile::paper_seconds`].
#[derive(Debug, Clone)]
pub struct EvalProfile {
    /// Whether the kernel came from HPL's kernel cache.
    pub cache_hit: bool,
    /// Wall seconds spent running the kernel function in capture mode
    /// (zero on cache hits).
    pub capture_seconds: f64,
    /// Wall seconds spent generating OpenCL C (zero on cache hits).
    pub codegen_seconds: f64,
    /// Wall seconds the backend compiler took (zero when the device binary
    /// was cached).
    pub build_seconds: f64,
    /// Modeled seconds of the host→device transfers this eval had to
    /// perform: the transfer model's duration of each upload
    /// ([`oclsim::timing::model_transfer`]), blocking or not.
    pub transfer_modeled_seconds: f64,
    /// Modeled device seconds of the kernel execution itself.
    pub kernel_modeled_seconds: f64,
    /// Measured host wall seconds from the eval call to the end of its
    /// wait (for `run`, the whole call).
    pub host_seconds: f64,
    /// The generated OpenCL C source (shared with the cache).
    pub source: Arc<String>,
}

impl EvalProfile {
    /// The quantity the paper's speedup figures report: backend code
    /// generation + compilation + kernel execution, *excluding* transfers
    /// (§V-B explains why transfers are excluded).
    pub fn paper_seconds(&self) -> f64 {
        self.capture_seconds
            + self.codegen_seconds
            + self.build_seconds
            + self.kernel_modeled_seconds
    }

    /// Like [`EvalProfile::paper_seconds`] but including modeled transfer
    /// time (the paper's variant used for the matrix-transpose discussion).
    pub fn paper_seconds_with_transfers(&self) -> f64 {
        self.paper_seconds() + self.transfer_modeled_seconds
    }
}

// ---- kernel cache -----------------------------------------------------------------

struct CacheEntry {
    recorded: RecordedKernel,
    source: Arc<String>,
    /// Generated-line → DSL-recording-site provenance for `source`.
    line_map: Arc<LineMap>,
    capture_seconds: f64,
    codegen_seconds: f64,
}

/// Cache key for a captured kernel: the kernel function's type plus the
/// aliasing pattern of its arguments. The pattern matters because capture
/// resolves array references through handle identity — if the same
/// [`Array`] is passed for two parameters, every access in the recorded IR
/// collapses onto the last parameter, and that recording is only valid for
/// launches with the same aliasing. Keying on the pattern keeps an aliased
/// first invocation from poisoning later distinct-argument calls (and vice
/// versa).
type CacheKey = (TypeId, u64);

/// One runtime's captured kernels and what is counted about them.
#[derive(Default)]
pub(crate) struct KernelCache {
    entries: Mutex<HashMap<CacheKey, Arc<CacheEntry>>>,
    /// The `<n>` of the next generated kernel name (`hpl_<fn>_<n>`): per
    /// runtime, so a fresh runtime generates the same sources whatever the
    /// process captured before.
    next_name: AtomicU64,
    lints: Mutex<Vec<oclsim::Diagnostic>>,
    // Lifetime statistics (never reset — unlike the telemetry metrics
    // registry, which tests and report subcommands zero between workloads).
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The mid-end optimization level the calling thread's [`runtime`] applies
/// to HPL backend builds (its [`crate::Config::opt_level`]).
pub fn opt_level() -> oclsim::OptLevel {
    runtime().config().opt_level
}

/// [`Runtime::clear_kernel_cache`] of the calling thread's [`runtime`].
pub fn clear_kernel_cache() {
    runtime().clear_kernel_cache()
}

/// [`Runtime::cache_stats`] of the calling thread's [`runtime`].
pub fn cache_stats() -> CacheStats {
    runtime().cache_stats()
}

/// Per-entry view of the kernel cache (one entry per kernel function ×
/// argument aliasing pattern — see `CacheKey`).
#[derive(Debug, Clone)]
pub struct CacheEntryInfo {
    /// The generated kernel's name (`hpl_<fn>_<counter>`).
    pub kernel: String,
    /// The alias pattern half of the cache key (4 bits per argument;
    /// `0x01` in the low byte means argument 1 aliased argument 0).
    pub alias_pattern: u64,
    /// How many devices hold a compiled binary of this entry.
    pub devices_built: usize,
}

/// Lifetime kernel-cache statistics of one runtime (see
/// [`Runtime::cache_stats`]).
#[derive(Debug, Clone)]
pub struct CacheStats {
    /// `eval` front-ends served from the cache.
    pub hits: u64,
    /// `eval` front-ends that captured + generated code.
    pub misses: u64,
    /// Entries dropped by [`Runtime::clear_kernel_cache`].
    pub evictions: u64,
    /// Current entries, sorted by kernel name then alias pattern.
    pub entries: Vec<CacheEntryInfo>,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Generated source plus generated-line → DSL-recording-site provenance
/// for a cached kernel (see [`Runtime::kernel_provenance`]).
#[derive(Debug, Clone)]
pub struct KernelProvenance {
    /// The generated kernel's name (`hpl_<fn>_<counter>`).
    pub kernel: String,
    /// The generated OpenCL C source.
    pub source: Arc<String>,
    /// Generated-line → recording-site map for `source`.
    pub line_map: Arc<LineMap>,
}

impl Runtime {
    /// Drain the kernel-sanitizer findings accumulated while building HPL
    /// kernels (each [`eval`] run lints its generated OpenCL C as part of the
    /// backend build). HPL-generated code is expected to lint clean; anything
    /// returned here points at a codegen bug or a genuinely racy kernel
    /// function.
    pub fn take_kernel_lints(&self) -> Vec<oclsim::Diagnostic> {
        std::mem::take(&mut *self.kernels.lints.lock())
    }

    /// Drop every cached kernel (test/bench hook: lets harnesses measure
    /// first-invocation behaviour repeatedly). Dropped entries count as
    /// evictions in [`Runtime::cache_stats`].
    pub fn clear_kernel_cache(&self) {
        let mut map = self.kernels.entries.lock();
        let dropped = map.len() as u64;
        map.clear();
        drop(map);
        self.kernels.evictions.fetch_add(dropped, Ordering::Relaxed);
        oclsim::telemetry::metrics()
            .kernel_cache_evictions
            .add(dropped);
    }

    /// Number of kernels currently cached.
    pub fn kernel_cache_len(&self) -> usize {
        self.kernels.entries.lock().len()
    }

    /// Snapshot the kernel cache: lifetime hit/miss/eviction counts plus the
    /// per-key alias info of every live entry.
    pub fn cache_stats(&self) -> CacheStats {
        // device binaries live in the serve layer's shared binary cache: the
        // active tenant's service cache, or this runtime's own
        let tenant = crate::session::current_tenant();
        let binaries = |source: &str| match &tenant {
            Some(s) => s.binary_cache().devices_built(source),
            None => self.binary_cache().devices_built(source),
        };
        let mut entries: Vec<CacheEntryInfo> = self
            .kernels
            .entries
            .lock()
            .iter()
            .map(|((_, alias_pattern), e)| CacheEntryInfo {
                kernel: e.recorded.name.clone(),
                alias_pattern: *alias_pattern,
                devices_built: binaries(e.source.as_str()),
            })
            .collect();
        entries.sort_by(|a, b| {
            a.kernel
                .cmp(&b.kernel)
                .then(a.alias_pattern.cmp(&b.alias_pattern))
        });
        CacheStats {
            hits: self.kernels.hits.load(Ordering::Relaxed),
            misses: self.kernels.misses.load(Ordering::Relaxed),
            evictions: self.kernels.evictions.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Look up the generated source and line map for a cached kernel by its
    /// generated name (`hpl_<fn>_<counter>`). Returns `None` when no cache
    /// entry of this runtime produced a kernel with that name — e.g. before
    /// the kernel's first launch or after [`Runtime::clear_kernel_cache`].
    pub fn kernel_provenance(&self, kernel: &str) -> Option<KernelProvenance> {
        self.kernels
            .entries
            .lock()
            .values()
            .find(|e| e.recorded.name == kernel)
            .map(|e| KernelProvenance {
                kernel: e.recorded.name.clone(),
                source: Arc::clone(&e.source),
                line_map: Arc::clone(&e.line_map),
            })
    }
}

fn kernel_name_for<F: 'static>(counter: &AtomicU64) -> String {
    let full = std::any::type_name::<F>();
    let last = full.rsplit("::").next().unwrap_or(full);
    let base: String = last
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let base = if base.is_empty() || base.starts_with(|c: char| c.is_ascii_digit()) {
        format!("k{base}")
    } else {
        base
    };
    // the counter makes names unique even for same-named fns in different
    // modules (the cache itself is keyed by TypeId, not by name)
    format!("hpl_{base}_{}", counter.fetch_add(1, Ordering::Relaxed))
}

// ---- argument plumbing ---------------------------------------------------------------

/// A value passable to an HPL kernel: [`Array`] or [`Scalar`].
pub trait KernelArg {
    /// Record this argument as the next kernel parameter (capture time).
    fn register(&self);
    /// Bind the argument to the backend kernel at `index` for a launch on
    /// `queue`, a queue of the runtime entry `on`: any host→device
    /// transfer it needs is enqueued on `queue` *without waiting*, and
    /// every event the launch must wait on — the array's pending
    /// writer/readers and that transfer — is appended to `deps`. This is
    /// how every eval infers its wait list. Returns the modeled seconds of
    /// the transfer.
    fn bind_async(
        &self,
        kernel: &oclsim::Kernel,
        index: usize,
        on: &Arc<DeviceEntry>,
        queue: &CommandQueue,
        deps: &mut Vec<Event>,
    ) -> Result<f64>;
    /// Bind this argument's trailing dimension arguments starting at
    /// `*next`, advancing it.
    fn bind_dims(&self, kernel: &oclsim::Kernel, next: &mut usize) -> Result<()>;
    /// Record an enqueued launch's event in the argument's coherence state
    /// (writer or reader, depending on how the kernel uses it).
    fn post_async(&self, kernel: &oclsim::Kernel, index: usize, device: &Device, event: &Event);
    /// Forget a failure a blocking `run` has already returned (see
    /// `Array::settle_reported`).
    fn settle_reported(&self);
    /// The dimensions, for arrays (used for the default global domain).
    fn dims_vec(&self) -> Option<Vec<usize>>;
    /// Identity of the underlying handle, for alias detection across the
    /// argument tuple (see [`ArgTuple::alias_pattern`]).
    fn handle(&self) -> u64;
}

impl<T: HplScalar, const N: usize> KernelArg for Array<T, N> {
    fn register(&self) {
        with_recorder(|r| {
            let p = r.params.len();
            r.params.push(ParamRecord {
                kind: ParamKind::Array {
                    cty: T::CTYPE,
                    ndim: N,
                    mem: self.mem_flag(),
                },
            });
            r.array_params.insert(self.handle_id(), p);
        });
    }

    fn bind_async(
        &self,
        kernel: &oclsim::Kernel,
        index: usize,
        on: &Arc<DeviceEntry>,
        queue: &CommandQueue,
        deps: &mut Vec<Event>,
    ) -> Result<f64> {
        let reads = kernel.arg_is_read(index);
        let writes = kernel.arg_is_written(index);
        let (buffer, transfer_s) = self.prepare_async(on, queue, reads, writes, deps)?;
        kernel.set_arg_buffer(index, &buffer)?;
        Ok(transfer_s)
    }

    fn bind_dims(&self, kernel: &oclsim::Kernel, next: &mut usize) -> Result<()> {
        for d in self.dims() {
            kernel.set_arg_scalar(*next, d as i32)?;
            *next += 1;
        }
        Ok(())
    }

    fn post_async(&self, kernel: &oclsim::Kernel, index: usize, device: &Device, event: &Event) {
        self.record_async_use(device, event, kernel.arg_is_written(index));
    }

    fn settle_reported(&self) {
        Array::settle_reported(self);
    }

    fn dims_vec(&self) -> Option<Vec<usize>> {
        Some(self.dims().to_vec())
    }

    fn handle(&self) -> u64 {
        self.handle_id()
    }
}

impl<T: HplScalar> KernelArg for Scalar<T> {
    fn register(&self) {
        with_recorder(|r| {
            let p = r.params.len();
            r.params.push(ParamRecord {
                kind: ParamKind::Scalar { cty: T::CTYPE },
            });
            r.scalar_params.insert(self.handle_id(), p);
        });
    }

    fn bind_async(
        &self,
        kernel: &oclsim::Kernel,
        index: usize,
        _on: &Arc<DeviceEntry>,
        _queue: &CommandQueue,
        _deps: &mut Vec<Event>,
    ) -> Result<f64> {
        // scalars are captured by value at enqueue time: no buffer, no deps
        kernel.set_arg_scalar(index, self.get().to_value())?;
        Ok(0.0)
    }

    fn bind_dims(&self, _kernel: &oclsim::Kernel, _next: &mut usize) -> Result<()> {
        Ok(())
    }

    fn post_async(
        &self,
        _kernel: &oclsim::Kernel,
        _index: usize,
        _device: &Device,
        _event: &Event,
    ) {
    }

    fn settle_reported(&self) {}

    fn dims_vec(&self) -> Option<Vec<usize>> {
        None
    }

    fn handle(&self) -> u64 {
        self.handle_id()
    }
}

/// A tuple of references to kernel arguments.
pub trait ArgTuple {
    /// Register all arguments in order (capture time).
    fn register_all(&self);
    /// Bind all arguments for a launch on `queue`, appending the inferred
    /// wait-list events to `deps`; returns total modeled transfer seconds.
    fn bind_all_async(
        &self,
        kernel: &oclsim::Kernel,
        on: &Arc<DeviceEntry>,
        queue: &CommandQueue,
        deps: &mut Vec<Event>,
    ) -> Result<f64>;
    /// Record an enqueued launch's event in every argument's coherence
    /// state.
    fn post_all_async(&self, kernel: &oclsim::Kernel, device: &Device, event: &Event);
    /// [`KernelArg::settle_reported`] for every argument.
    fn settle_all_reported(&self);
    /// Dimensions of the first array argument (default global domain).
    fn first_dims(&self) -> Option<Vec<usize>>;
    /// Number of primary (non-dimension) arguments.
    fn arity(&self) -> usize;
    /// Canonical encoding of which arguments alias each other: for each
    /// argument, the index of the first argument sharing its handle,
    /// packed 4 bits per argument. Distinct tuples `(x, y)` and `(p, q)`
    /// produce the same pattern; `(x, x)` produces a different one.
    fn alias_pattern(&self) -> u64;
}

/// A kernel function callable with argument tuple `A`.
pub trait KernelFun<A>: Copy + 'static {
    /// Invoke the kernel function for capture.
    fn invoke(&self, args: &A);
}

macro_rules! impl_arg_tuples {
    ($(($($T:ident . $i:tt),+))*) => {$(
        impl<'a, $($T: KernelArg),+> ArgTuple for ($(&'a $T,)+) {
            fn register_all(&self) {
                $(self.$i.register();)+
            }
            fn bind_all_async(
                &self,
                kernel: &oclsim::Kernel,
                on: &Arc<DeviceEntry>,
                queue: &CommandQueue,
                deps: &mut Vec<Event>,
            ) -> Result<f64> {
                let mut transfer = 0.0;
                let mut _index = 0usize;
                $(
                    transfer += self.$i.bind_async(kernel, _index, on, queue, deps)?;
                    _index += 1;
                )+
                let mut next = _index;
                $(self.$i.bind_dims(kernel, &mut next)?;)+
                Ok(transfer)
            }
            fn post_all_async(&self, kernel: &oclsim::Kernel, device: &Device, event: &Event) {
                let mut _index = 0usize;
                $(
                    self.$i.post_async(kernel, _index, device, event);
                    _index += 1;
                )+
            }
            fn settle_all_reported(&self) {
                $(self.$i.settle_reported();)+
            }
            fn first_dims(&self) -> Option<Vec<usize>> {
                $(
                    if let Some(d) = self.$i.dims_vec() {
                        return Some(d);
                    }
                )+
                None
            }
            fn arity(&self) -> usize {
                let mut n = 0usize;
                $( n += 1; let _ = self.$i; )+
                n
            }
            fn alias_pattern(&self) -> u64 {
                let handles = [ $(self.$i.handle()),+ ];
                let mut pattern = 0u64;
                for (i, h) in handles.iter().enumerate() {
                    let first = handles[..i].iter().position(|p| p == h).unwrap_or(i);
                    pattern = (pattern << 4) | first as u64;
                }
                pattern
            }
        }

        impl<'a, F, $($T: KernelArg),+> KernelFun<($(&'a $T,)+)> for F
        where
            F: Fn($(&$T),+) + Copy + 'static,
        {
            fn invoke(&self, args: &($(&'a $T,)+)) {
                (self)($(args.$i),+)
            }
        }
    )*};
}

impl_arg_tuples! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, G.5)
    (A.0, B.1, C.2, D.3, E.4, G.5, H.6)
    (A.0, B.1, C.2, D.3, E.4, G.5, H.6, I.7)
}

/// Measure the front-end cost (kernel capture + code generation) of a
/// kernel function without executing it, as the minimum over `repeats`
/// runs. One-shot wall measurements of sub-millisecond work are noisy on a
/// loaded host; benchmark harnesses use this to report a stable figure for
/// what a first invocation's analysis costs.
pub fn measure_front<F, A>(f: F, args: &A, repeats: usize) -> (f64, f64)
where
    F: KernelFun<A>,
    A: ArgTuple,
{
    let mut best_capture = f64::INFINITY;
    let mut best_codegen = f64::INFINITY;
    for i in 0..repeats.max(1) {
        let t0 = Instant::now();
        let recorded = capture(format!("hpl_probe_{i}"), || {
            args.register_all();
            f.invoke(args);
        });
        let capture_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let source = generate(&recorded);
        let codegen_s = t1.elapsed().as_secs_f64();
        std::hint::black_box(&source);
        best_capture = best_capture.min(capture_s);
        best_codegen = best_codegen.min(codegen_s);
    }
    (best_capture, best_codegen)
}

/// When a tenant scope is active on this thread, admit the launch against
/// the tenant's quotas (counting it in the per-tenant metrics); the permit
/// holds one of the tenant's in-flight slots until the launch is waited
/// on. `None` outside any scope.
fn admit_tenant_launch(kernel: &str) -> Result<Option<LaunchPermit>> {
    crate::session::current_tenant()
        .map(|session| session.admit_launch(&format!("eval of `{kernel}`")))
        .transpose()
        .map_err(Error::Backend)
}

/// What tells `run` from `run_async`: the queue the launch goes to and the
/// labels of its request trace. Both take the same path through coherence,
/// the scheduler and the trace; `run` then waits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// On the entry's in-order queue, so that an all-blocking program keeps
    /// its serial modeled timeline: each command after the previous one.
    Blocking,
    /// On the entry's out-of-order queue, ordered only by the inferred
    /// wait lists.
    Async,
}

impl Call {
    fn queue(self, entry: &DeviceEntry) -> &CommandQueue {
        match self {
            Call::Blocking => &entry.queue,
            Call::Async => &entry.async_queue,
        }
    }

    /// The word the request-trace labels of this call carry.
    fn tag(self) -> &'static str {
        match self {
            Call::Blocking => "",
            Call::Async => "async ",
        }
    }
}

// ---- per-request tracing -----------------------------------------------------------

/// One eval's observability context when a tenant scope is active: the
/// request trace under construction plus the session that emits the
/// postmortem dump if the request fails. Outside a tenant scope evals
/// stay untraced (there is no tenant to attribute the flight-recorder
/// events and quota/cache snapshots to).
struct TenantRequest {
    session: Arc<oclsim::serve::Session>,
    req: oclsim::obs::Request,
}

impl TenantRequest {
    fn begin(what: String) -> Option<TenantRequest> {
        crate::session::current_tenant().map(|session| {
            let req = session.begin_request(what);
            TenantRequest { session, req }
        })
    }

    /// Close the trace as failed, attributing `err` to the root node, and
    /// emit the postmortem dump ([`oclsim::take_postmortems`]).
    fn fail(mut self, err: &Error) {
        let root = self.req.root();
        set_obs_error(&mut self.req, root, err);
        let backend_owned;
        let backend = match err {
            Error::Backend(e) => e,
            other => {
                backend_owned = oclsim::Error::InvalidOperation(other.to_string());
                &backend_owned
            }
        };
        self.session.emit_postmortem(self.req.finish(true), backend);
    }
}

/// Attribute a front-end [`Error`] to a trace node; non-backend errors
/// (bad eval geometry, internal invariants) are wrapped so the span tree
/// still carries their message.
fn set_obs_error(req: &mut oclsim::obs::Request, node: oclsim::obs::NodeId, err: &Error) {
    match err {
        Error::Backend(e) => req.set_error(node, e),
        other => req.set_error(node, &oclsim::Error::InvalidOperation(other.to_string())),
    }
}

// ---- the eval builder ---------------------------------------------------------------------

/// Request the parallel evaluation of an HPL kernel function (§III-C).
///
/// `eval(f)` returns a builder; `.global()`, `.local()` and `.device()`
/// refine the launch; `.run((args...))` executes. By default the kernel
/// runs on the first non-CPU device, with the global domain given by the
/// dimensions of the first array argument and a library-chosen local
/// domain.
///
/// The eval belongs to the calling thread's [`runtime`] — looked up here,
/// once: its kernel cache, its devices, its configuration.
pub fn eval<F: Copy + 'static>(f: F) -> Eval<F> {
    Eval {
        f,
        global: None,
        local: None,
        device: None,
        rt: runtime(),
    }
}

/// Builder returned by [`eval`].
pub struct Eval<F> {
    f: F,
    global: Option<Vec<usize>>,
    local: Option<Vec<usize>>,
    device: Option<Device>,
    rt: Arc<Runtime>,
}

impl<F: Copy + 'static> Eval<F> {
    /// Set the global domain (1-3 dimensions).
    pub fn global(mut self, dims: &[usize]) -> Self {
        self.global = Some(dims.to_vec());
        self
    }

    /// Set the local domain; must divide the global domain dimension-wise.
    pub fn local(mut self, dims: &[usize]) -> Self {
        self.local = Some(dims.to_vec());
        self
    }

    /// Select the execution device: one of the eval's runtime's. A device of
    /// another runtime makes `run`/`run_async` fail with
    /// [`Error::InvalidEval`] before anything is captured or transferred.
    pub fn device(mut self, device: &Device) -> Self {
        self.device = Some(device.clone());
        self
    }

    /// Execute the kernel with `args` (a tuple of `&Array`/`&Scalar`
    /// references, e.g. `(&y, &x, &a)`) and wait for it: the launch of
    /// [`Eval::run_async`], made on the device's in-order queue, followed
    /// by [`AsyncEval::wait`]. Inside a tenant scope the whole request is
    /// traced (admission, cache lookups, transfers, launch) and a failure
    /// emits a postmortem dump.
    pub fn run<A: ArgTuple>(self, args: A) -> Result<EvalProfile>
    where
        F: KernelFun<A>,
    {
        // the failure is returned here, so the arrays need not carry it
        // on to their next access
        self.launch(&args, Call::Blocking)?
            .wait()
            .inspect_err(|_| args.settle_all_reported())
    }

    /// Enqueue the kernel **asynchronously** and return immediately with a
    /// joinable [`AsyncEval`] handle.
    ///
    /// The launch goes to the device's out-of-order queue with a wait list
    /// inferred from each array argument's pending operations (its last
    /// writer for reads, plus its readers for writes), so independent
    /// evals — and the transfers they trigger — overlap on the modeled
    /// device timeline while data dependences are preserved exactly. Any
    /// synchronous access to an involved array (`get`, `to_vec`, ...)
    /// waits for the pending commands first, and a failed dependency —
    /// also of a later blocking `run` — poisons the launch with the causal
    /// error chain.
    pub fn run_async<A: ArgTuple>(self, args: A) -> Result<AsyncEval>
    where
        F: KernelFun<A>,
    {
        self.launch(&args, Call::Async)
    }

    fn launch<A: ArgTuple>(self, args: &A, call: Call) -> Result<AsyncEval>
    where
        F: KernelFun<A>,
    {
        let device = match &self.device {
            Some(d) => d.clone(),
            None => self.rt.default_device(),
        };
        let mut tr = TenantRequest::begin(format!("hpl {}eval on `{}`", call.tag(), device.name()));
        let _guard = tr.as_ref().map(|t| t.req.thread_guard());
        match self.enqueue(args, &device, call, tr.as_mut().map(|t| &mut t.req)) {
            Ok((mut launched, sched)) => {
                launched.obs = tr.map(|t| AsyncObs {
                    session: t.session,
                    req: t.req,
                    sched: sched.unwrap_or_default(),
                });
                Ok(launched)
            }
            Err(e) => {
                if let Some(t) = tr {
                    t.fail(&e);
                }
                Err(e)
            }
        }
    }

    /// Everything `launch` does but the request trace's ends: returns the
    /// launch and its `sched.enqueue` node, when traced.
    fn enqueue<A: ArgTuple>(
        self,
        args: &A,
        device: &Device,
        call: Call,
        mut req: Option<&mut oclsim::obs::Request>,
    ) -> Result<(AsyncEval, Option<oclsim::obs::NodeId>)>
    where
        F: KernelFun<A>,
    {
        let started = Instant::now();
        let (entry, front, permit) = self.prepare(args, device, req.as_deref_mut())?;
        let queue = call.queue(&entry);
        let mut deps: Vec<Event> = Vec::new();
        let transfer_modeled_seconds =
            args.bind_all_async(&front.kernel, &entry, queue, &mut deps)?;
        if transfer_modeled_seconds > 0.0 {
            if let Some(r) = req.as_mut() {
                let root = r.root();
                let detail = match call {
                    Call::Blocking => "host -> device transfers",
                    Call::Async => "host -> device transfers (async)",
                };
                let dma = r.child(root, "sched.dma", detail);
                r.set_modeled(dma, transfer_modeled_seconds);
            }
        }
        let global = self.resolved_global(args)?;
        let sched = req.as_deref_mut().map(|r| {
            let root = r.root();
            let inferred = if call == Call::Async && !deps.is_empty() {
                format!(", {} inferred dep(s)", deps.len())
            } else {
                String::new()
            };
            r.child(
                root,
                "sched.enqueue",
                format!("ndrange global {global:?}{inferred}"),
            )
        });
        let event =
            match queue.enqueue_ndrange_async(&front.kernel, &global, self.local.as_deref(), &deps)
            {
                Ok(ev) => ev,
                Err(e) => {
                    if let (Some(r), Some(node)) = (req.as_mut(), sched) {
                        r.set_error(node, &e);
                    }
                    return Err(Error::Backend(e));
                }
            };
        crate::profile::note_launch(front.kernel.name(), device, &event);
        args.post_all_async(&front.kernel, device, &event);

        let launched = AsyncEval {
            event,
            profile: EvalProfile {
                cache_hit: front.cache_hit,
                capture_seconds: front.capture_seconds,
                codegen_seconds: front.codegen_seconds,
                build_seconds: front.build_seconds,
                transfer_modeled_seconds,
                // filled in by AsyncEval::wait once the event resolves
                kernel_modeled_seconds: 0.0,
                host_seconds: 0.0,
                source: Arc::clone(&front.source),
            },
            started,
            _permit: permit,
            obs: None,
        };
        Ok((launched, sched))
    }

    /// What every launch does first: resolve `device` to this eval's
    /// runtime's entry for it (refusing a device of another runtime before
    /// anything is captured or moved), get the bindable kernel, and admit
    /// the launch against the tenant scope's quotas.
    fn prepare<A: ArgTuple>(
        &self,
        args: &A,
        device: &Device,
        mut req: Option<&mut oclsim::obs::Request>,
    ) -> Result<(Arc<DeviceEntry>, Front, Option<LaunchPermit>)>
    where
        F: KernelFun<A>,
    {
        let entry = self.rt.try_entry(device)?;
        let front = self.front(args, &entry, req.as_deref_mut())?;
        let admitted = admit_tenant_launch(front.kernel.name());
        if let Some(r) = req {
            let root = r.root();
            let what = format!("eval of `{}`", front.kernel.name());
            let detail = match &admitted {
                Ok(_) => format!("ok ({what})"),
                Err(_) => what,
            };
            let node = r.child(root, "admission", detail);
            if let Err(e) = &admitted {
                set_obs_error(r, node, e);
            }
        }
        admitted.map(|permit| (entry, front, permit))
    }

    /// The launch geometry: explicit `.global(..)` or the first array
    /// argument's dimensions.
    fn resolved_global<A: ArgTuple>(&self, args: &A) -> Result<Vec<usize>> {
        match &self.global {
            Some(g) => Ok(g.clone()),
            None => args.first_dims().ok_or_else(|| {
                Error::InvalidEval(
                    "no global domain given and the kernel has no array argument to take it from"
                        .into(),
                )
            }),
        }
    }

    /// The shared front half of `run`/`run_async`: capture + codegen
    /// (cached per kernel function) and backend compilation (cached per
    /// device), yielding a bindable kernel. When a request trace is open,
    /// both lookups become `cache.lookup` nodes in its span tree.
    fn front<A: ArgTuple>(
        &self,
        args: &A,
        on: &DeviceEntry,
        mut req: Option<&mut oclsim::obs::Request>,
    ) -> Result<Front>
    where
        F: KernelFun<A>,
    {
        let device = &on.device;
        let cache = &self.rt.kernels;
        // 1. kernel capture + codegen (cached per kernel function and
        //    argument aliasing pattern — see `CacheKey`)
        let key = (TypeId::of::<F>(), args.alias_pattern());
        let mut lookup_span = oclsim::telemetry::span("hpl", "cache_lookup");
        let cached = cache.entries.lock().get(&key).cloned();
        let (entry, cache_hit) = match cached {
            Some(e) => {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                oclsim::telemetry::metrics().kernel_cache_hits.inc();
                if oclsim::telemetry::enabled() {
                    lookup_span.note("outcome", "hit");
                    lookup_span.note("kernel", &e.recorded.name);
                    lookup_span.note("alias_pattern", format!("{:#x}", key.1));
                }
                drop(lookup_span);
                (e, true)
            }
            None => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
                oclsim::telemetry::metrics().kernel_cache_misses.inc();
                lookup_span.note("outcome", "miss");
                if oclsim::telemetry::enabled() {
                    lookup_span.note("alias_pattern", format!("{:#x}", key.1));
                }
                drop(lookup_span);
                let t0 = Instant::now();
                let name = kernel_name_for::<F>(&cache.next_name);
                let f = self.f;
                let recorded = {
                    let mut record_span = oclsim::telemetry::span("hpl", "record");
                    record_span.note("kernel", &name);
                    capture(name, || {
                        args.register_all();
                        f.invoke(args);
                    })
                };
                let capture_seconds = t0.elapsed().as_secs_f64();
                if recorded.params.len() != args.arity() {
                    return Err(Error::Internal(
                        "argument registration mismatch during capture".into(),
                    ));
                }
                let t1 = Instant::now();
                let (source, line_map) = generate_with_map(&recorded);
                let codegen_seconds = t1.elapsed().as_secs_f64();
                let entry = Arc::new(CacheEntry {
                    recorded,
                    source: Arc::new(source),
                    line_map: Arc::new(line_map),
                    capture_seconds,
                    codegen_seconds,
                });
                cache.entries.lock().insert(key, Arc::clone(&entry));
                (entry, false)
            }
        };
        if let Some(r) = req.as_mut() {
            let root = r.root();
            r.child(
                root,
                "cache.lookup",
                format!(
                    "hpl kernel cache: {} (`{}`)",
                    if cache_hit {
                        "hit"
                    } else {
                        "miss (capture + codegen)"
                    },
                    entry.recorded.name
                ),
            );
        }

        // 2. per-device backend compilation, routed through the serve
        //    layer's shared kernel-binary cache: the active tenant's
        //    service cache when a tenant scope is entered (charging that
        //    tenant's compile quota on misses), the runtime's own otherwise
        let mut build_span = oclsim::telemetry::span("hpl", "backend_build");
        if oclsim::telemetry::enabled() {
            build_span.note("kernel", &entry.recorded.name);
            build_span.note("device", device.name());
        }
        let ctx = &on.context;
        let build_options = self.rt.config().opt_level.flag();
        let built = match crate::session::current_tenant() {
            Some(session) => {
                session.build_program(ctx, device, entry.source.as_str(), build_options)
            }
            None => self.rt.binary_cache().get_or_build(
                ctx,
                device,
                entry.source.as_str(),
                build_options,
                None,
            ),
        }
        .map_err(|e| match e {
            oclsim::Error::BuildFailure(_) => Error::Internal(format!(
                "HPL-generated source failed to compile (this is an HPL codegen bug): \
                 {e}\nsource:\n{}",
                entry.source
            )),
            other => Error::Backend(other),
        })?;
        build_span.note("outcome", if built.hit { "hit" } else { "miss" });
        drop(build_span);
        if let Some(r) = req.as_mut() {
            let root = r.root();
            r.child(
                root,
                "cache.lookup",
                format!(
                    "binary cache, device `{}`: {}",
                    device.name(),
                    if built.hit { "hit" } else { "miss (build)" }
                ),
            );
        }
        let build_seconds = built.build_seconds;
        if !built.hit {
            let lints = built.program.diagnostics();
            if !lints.is_empty() {
                cache.lints.lock().extend(lints);
            }
        }

        let kernel = built.program.kernel(&entry.recorded.name)?;
        Ok(Front {
            kernel,
            cache_hit,
            capture_seconds: if cache_hit {
                0.0
            } else {
                entry.capture_seconds
            },
            codegen_seconds: if cache_hit {
                0.0
            } else {
                entry.codegen_seconds
            },
            build_seconds,
            source: Arc::clone(&entry.source),
        })
    }
}

/// Output of the cached eval front-end (capture/codegen/build).
struct Front {
    kernel: oclsim::Kernel,
    cache_hit: bool,
    capture_seconds: f64,
    codegen_seconds: f64,
    build_seconds: f64,
    source: Arc<String>,
}

/// Joinable handle returned by [`Eval::run_async`]: the launch's backend
/// [`Event`] plus the front-end half of its [`EvalProfile`]. Inside a
/// tenant scope it holds one of the tenant's in-flight launch slots until
/// it is waited on or dropped.
pub struct AsyncEval {
    event: Event,
    profile: EvalProfile,
    /// When the eval was issued; `host_seconds` runs to the end of the wait.
    started: Instant,
    _permit: Option<LaunchPermit>,
    /// Open request trace when the eval ran inside a tenant scope; closed
    /// (and, on failure, dumped as a postmortem) by [`AsyncEval::wait`].
    obs: Option<AsyncObs>,
}

struct AsyncObs {
    session: Arc<oclsim::serve::Session>,
    req: oclsim::obs::Request,
    /// The request's `sched.enqueue` node, completed at wait time.
    sched: oclsim::obs::NodeId,
}

impl std::fmt::Debug for AsyncEval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncEval")
            .field("status", &self.event.status())
            .field("profile", &self.profile)
            .finish_non_exhaustive()
    }
}

impl AsyncEval {
    /// The backend event of the enqueued kernel launch. Useful for
    /// building explicit dependency graphs (`oclsim::wait_for_events`,
    /// markers, user-event gating) or for inspecting the modeled
    /// profiling stamps after completion.
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Current lifecycle state of the launch (non-blocking).
    pub fn status(&self) -> EventStatus {
        self.event.status()
    }

    /// Block until the launch resolves and return the completed
    /// [`EvalProfile`]. If the launch failed — including when a command it
    /// depended on failed and poisoned it — the error carries the causal
    /// chain (`oclsim::Error::root_cause`), and inside a tenant scope the
    /// request trace is closed as failed and dumped as a postmortem
    /// ([`oclsim::take_postmortems`]).
    pub fn wait(self) -> Result<EvalProfile> {
        let obs = self.obs;
        let _guard = obs.as_ref().map(|o| o.req.thread_guard());
        let waited = self.event.wait();
        let mut profile = self.profile;
        profile.host_seconds = self.started.elapsed().as_secs_f64();
        match waited {
            Ok(()) => {
                profile.kernel_modeled_seconds = self.event.modeled_seconds();
                if let Some(mut obs) = obs {
                    obs.req.complete_launch(obs.sched, &self.event);
                    obs.req.finish(false);
                }
                Ok(profile)
            }
            Err(e) => {
                if let Some(mut obs) = obs {
                    obs.req.set_error(obs.sched, &e);
                    let root = obs.req.root();
                    obs.req.set_error(root, &e);
                    obs.session.emit_postmortem(obs.req.finish(true), &e);
                }
                Err(Error::Backend(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::predef::idx;
    use crate::scalar::Double;

    fn saxpy(y: &Array<f64, 1>, x: &Array<f64, 1>, a: &Double) {
        y.at(idx()).assign(a.v() * x.at(idx()) + y.at(idx()));
    }

    // tests that assert on hits, misses, evictions or the modeled timeline
    // must not share the default runtime's cache and devices with siblings
    use crate::runtime::fresh_scope as fresh;

    #[test]
    fn saxpy_end_to_end() {
        let _rt = fresh();
        let n = 1000;
        let y = Array::<f64, 1>::from_vec([n], (0..n).map(|i| i as f64).collect());
        let x = Array::<f64, 1>::from_vec([n], (0..n).map(|i| 2.0 * i as f64).collect());
        let a = Double::new(3.0);
        let profile = eval(saxpy).run((&y, &x, &a)).unwrap();
        assert!(!profile.cache_hit);
        assert!(profile.capture_seconds > 0.0);
        assert!(profile.kernel_modeled_seconds > 0.0);
        for i in (0..n).step_by(97) {
            assert_eq!(y.get(i), 3.0 * 2.0 * i as f64 + i as f64);
        }
        // second invocation hits the cache
        let p2 = eval(saxpy).run((&y, &x, &a)).unwrap();
        assert!(p2.cache_hit);
        assert_eq!(p2.capture_seconds, 0.0);
        assert_eq!(p2.build_seconds, 0.0);
        assert!(p2.paper_seconds() < profile.paper_seconds());
    }

    #[test]
    fn a_device_of_another_runtime_is_an_invalid_eval() {
        let config = crate::Config::from_env();
        let (a, b) = (Runtime::new(config), Runtime::new(config));
        let foreign = a.default_device();
        let _scope = b.enter();
        let y = Array::<f64, 1>::from_vec([64], vec![1.0; 64]);
        let x = Array::<f64, 1>::from_vec([64], vec![2.0; 64]);
        let alpha = Double::new(3.0);
        let sync = eval(saxpy).device(&foreign).run((&y, &x, &alpha));
        let queued = eval(saxpy).device(&foreign).run_async((&y, &x, &alpha));
        for err in [sync.unwrap_err(), queued.unwrap_err()] {
            let Error::InvalidEval(msg) = &err else {
                panic!("expected InvalidEval, got: {err}");
            };
            assert!(msg.contains(foreign.name()), "{msg}");
            assert!(msg.contains(&format!("id {}", foreign.id())), "{msg}");
        }
        // refused before anything was captured, allocated or moved
        assert_eq!(b.kernel_cache_len(), 0);
        for rt in [&a, &b] {
            assert_eq!(rt.transfer_stats(), crate::TransferStats::default());
        }
        assert_eq!(y.transfer_stats(), crate::ArrayTransferStats::default());
        assert!(y.host_copy_valid());
        assert_eq!(y.to_vec(), vec![1.0; 64]);
        // the device of the same name that `b` does manage is fine
        eval(saxpy)
            .device(&b.default_device())
            .run((&y, &x, &alpha))
            .unwrap();
        assert_eq!(y.get(7), 3.0 * 2.0 + 1.0);
    }

    #[test]
    fn alias_pattern_never_pairs_distinct_argument_kinds() {
        // arrays and scalars share one handle allocator; with separate
        // counters a fresh scalar's id could equal a fresh array's id and
        // the pattern would fake an aliasing pair (seen as a duplicate
        // cache entry on the first process-wide run of a benchmark)
        let y = Array::<f64, 1>::new([8]);
        let x = Array::<f64, 1>::new([8]);
        let a = Double::new(1.0);
        assert_ne!(y.handle_id(), a.handle_id());
        assert_eq!(
            (&y, &x, &a).alias_pattern(),
            0x012,
            "three distinct arguments: every nibble names its own position"
        );
        assert_eq!(
            (&y, &y, &a).alias_pattern(),
            0x002,
            "a genuinely repeated array folds onto its first position"
        );
    }

    #[test]
    fn scalar_value_read_at_eval_time() {
        fn fill(out: &Array<f64, 1>, v: &Double) {
            out.at(idx()).assign(v.v());
        }
        let out = Array::<f64, 1>::new([16]);
        let v = Double::new(1.0);
        eval(fill).run((&out, &v)).unwrap();
        assert_eq!(out.get(0), 1.0);
        v.set(9.0);
        eval(fill).run((&out, &v)).unwrap();
        assert_eq!(
            out.get(0),
            9.0,
            "cached kernel must still see fresh scalar values"
        );
    }

    #[test]
    fn explicit_global_and_local() {
        fn touch(out: &Array<f64, 1>) {
            out.at(idx()).assign(crate::predef::lidx().cast::<f64>());
        }
        let out = Array::<f64, 1>::new([64]);
        eval(touch).global(&[64]).local(&[16]).run((&out,)).unwrap();
        assert_eq!(out.get(0), 0.0);
        assert_eq!(out.get(15), 15.0);
        assert_eq!(out.get(16), 0.0, "local id restarts per group");
    }

    #[test]
    fn eval_without_arrays_needs_explicit_global() {
        fn nothing(v: &Double) {
            let x = Double::new(0.0);
            x.assign(v.v());
        }
        let v = Double::new(1.0);
        let err = eval(nothing).run((&v,)).unwrap_err();
        assert!(matches!(err, Error::InvalidEval(_)));
        eval(nothing).global(&[4]).run((&v,)).unwrap();
    }

    #[test]
    fn transfer_minimisation_second_eval_no_h2d() {
        fn scale(y: &Array<f64, 1>, a: &Double) {
            y.at(idx()).assign(y.at(idx()) * a.v());
        }
        let y = Array::<f64, 1>::from_vec([256], vec![1.0; 256]);
        let a = Double::new(2.0);
        let p1 = eval(scale).run((&y, &a)).unwrap();
        assert!(
            p1.transfer_modeled_seconds > 0.0,
            "first eval must upload y"
        );
        let p2 = eval(scale).run((&y, &a)).unwrap();
        assert_eq!(
            p2.transfer_modeled_seconds, 0.0,
            "y is already valid on the device: HPL's analysis avoids the transfer"
        );
        assert_eq!(y.get(0), 4.0, "both scalings applied");
    }

    #[test]
    fn kernel_cache_management() {
        let _rt = fresh();
        clear_kernel_cache();
        assert_eq!(runtime().kernel_cache_len(), 0);
        fn k1(out: &Array<f64, 1>) {
            out.at(idx()).assign(1.0f64);
        }
        let out = Array::<f64, 1>::new([8]);
        eval(k1).run((&out,)).unwrap();
        assert_eq!(runtime().kernel_cache_len(), 1);
        eval(k1).run((&out,)).unwrap();
        assert_eq!(runtime().kernel_cache_len(), 1, "same fn reuses the entry");
        clear_kernel_cache();
        assert_eq!(runtime().kernel_cache_len(), 0);
    }

    #[test]
    fn cache_stats_reports_double_eval_as_hit() {
        fn stats_probe(out: &Array<f64, 1>) {
            out.at(idx()).assign(2.0f64);
        }
        let _rt = fresh();
        let out = Array::<f64, 1>::new([16]);
        let p1 = eval(stats_probe).run((&out,)).unwrap();
        assert!(!p1.cache_hit);
        let mid = cache_stats();
        assert_eq!((mid.hits, mid.misses), (0, 1), "first eval is a miss");
        let p2 = eval(stats_probe).run((&out,)).unwrap();
        assert!(p2.cache_hit, "second eval of the same kernel is a hit");
        let after = cache_stats();
        assert_eq!((after.hits, after.misses), (1, 1), "the hit is counted");
        assert_eq!(after.hit_ratio(), 0.5);
        let [entry] = &after.entries[..] else {
            panic!("one kernel, one entry: {:?}", after.entries);
        };
        assert_eq!(entry.kernel, "hpl_stats_probe_0", "names count per runtime");
        assert_eq!(entry.alias_pattern, 0, "single distinct argument");
        assert_eq!(entry.devices_built, 1, "binary built for the run device");
    }

    #[test]
    fn cache_eviction_counts_cleared_entries() {
        fn evict_probe(out: &Array<f64, 1>) {
            out.at(idx()).assign(5.0f64);
        }
        let _rt = fresh();
        let out = Array::<f64, 1>::new([8]);
        eval(evict_probe).run((&out,)).unwrap();
        assert_eq!(cache_stats().evictions, 0);
        clear_kernel_cache();
        assert_eq!(cache_stats().evictions, 1, "clear counts evictions");
    }

    #[test]
    fn generated_source_is_inspectable() {
        fn twice(out: &Array<f32, 1>, input: &Array<f32, 1>) {
            out.at(idx()).assign(input.at(idx()) * 2.0f32);
        }
        let out = Array::<f32, 1>::new([8]);
        let input = Array::<f32, 1>::new([8]);
        let p = eval(twice).run((&out, &input)).unwrap();
        assert!(p.source.contains("__kernel void hpl_twice"), "{}", p.source);
        assert!(p.source.contains("2.0f"), "{}", p.source);
    }

    #[test]
    fn run_async_chains_through_inferred_dependencies() {
        let _rt = fresh();
        fn scale2(y: &Array<f64, 1>, x: &Array<f64, 1>) {
            y.at(idx()).assign(x.at(idx()) * 2.0f64);
        }
        fn plus_one(z: &Array<f64, 1>, y: &Array<f64, 1>) {
            z.at(idx()).assign(y.at(idx()) + 1.0f64);
        }
        let n = 256;
        let x = Array::<f64, 1>::from_vec([n], (0..n).map(|i| i as f64).collect());
        let y = Array::<f64, 1>::new([n]);
        let z = Array::<f64, 1>::new([n]);
        let h1 = eval(scale2).run_async((&y, &x)).unwrap();
        let ev1 = h1.event().clone();
        // the second launch must be inferred to depend on the first
        // through y (read-after-write), despite the out-of-order queue
        let h2 = eval(plus_one).run_async((&z, &y)).unwrap();
        let ev2 = h2.event().clone();
        let p2 = h2.wait().unwrap();
        let p1 = h1.wait().unwrap();
        assert!(p1.kernel_modeled_seconds > 0.0);
        assert!(p2.kernel_modeled_seconds > 0.0);
        for i in (0..n).step_by(41) {
            assert_eq!(z.get(i), 2.0 * i as f64 + 1.0);
        }
        assert!(
            ev2.profile().started >= ev1.profile().ended,
            "dependent kernel cannot start on the modeled timeline before its producer ends"
        );
    }

    #[test]
    fn run_async_status_and_sync_settling() {
        fn triple(y: &Array<f64, 1>, x: &Array<f64, 1>) {
            y.at(idx()).assign(x.at(idx()) * 3.0f64);
        }
        let x = Array::<f64, 1>::from_vec([128], vec![2.0; 128]);
        let y = Array::<f64, 1>::new([128]);
        let h = eval(triple).run_async((&y, &x)).unwrap();
        assert!(h.status() != oclsim::EventStatus::Error);
        // a plain host read must wait out the pending async writer
        assert_eq!(y.get(7), 6.0);
        assert_eq!(h.status(), oclsim::EventStatus::Complete);
        h.wait().unwrap();
    }

    #[test]
    fn written_params_reflect_capture_aliasing() {
        fn add_into(dst: &Array<f64, 1>, src: &Array<f64, 1>) {
            dst.at(idx()).assign(dst.at(idx()) + src.at(idx()));
        }
        // aliased: handle → param is last-insert-wins, so every access
        // lands on param 1 and param 0 is recorded as untouched
        let a = Array::<f64, 1>::new([8]);
        let args = (&a, &a);
        let recorded = capture("alias_probe".into(), || {
            args.register_all();
            add_into(args.0, args.1);
        });
        assert_eq!(recorded.written_params(), vec![false, true]);
        // distinct arrays: the write is attributed where it belongs
        let b = Array::<f64, 1>::new([8]);
        let args = (&a, &b);
        let recorded = capture("noalias_probe".into(), || {
            args.register_all();
            add_into(args.0, args.1);
        });
        assert_eq!(recorded.written_params(), vec![true, false]);
    }

    #[test]
    fn aliased_arguments_do_not_poison_the_kernel_cache() {
        let _rt = fresh();
        fn add_into(dst: &Array<f64, 1>, src: &Array<f64, 1>) {
            dst.at(idx()).assign(dst.at(idx()) + src.at(idx()));
        }
        // first invocation aliases both parameters onto one array; the
        // recording collapses onto the last parameter but both argument
        // slots bind the same buffer, so the result is still right
        let a = Array::<f64, 1>::from_vec([64], vec![3.0; 64]);
        eval(add_into).run((&a, &a)).unwrap();
        assert_eq!(a.get(5), 6.0, "aliased call doubles in place");
        // the same function with distinct arrays must NOT reuse that
        // recording (it only references one of the two parameters)
        let p = Array::<f64, 1>::from_vec([64], vec![10.0; 64]);
        let q = Array::<f64, 1>::from_vec([64], vec![4.0; 64]);
        let prof = eval(add_into).run((&p, &q)).unwrap();
        assert!(
            !prof.cache_hit,
            "aliasing pattern must be part of the cache key"
        );
        assert_eq!(p.get(9), 14.0, "dst += src with distinct arrays");
        assert_eq!(q.get(9), 4.0, "source operand must be untouched");
        // and re-running either pattern now hits its own entry
        assert!(eval(add_into).run((&p, &q)).unwrap().cache_hit);
        assert!(eval(add_into).run((&a, &a)).unwrap().cache_hit);
    }

    #[test]
    fn failed_async_eval_poisons_dependents() {
        use crate::predef::szx;
        fn oob(y: &Array<f64, 1>) {
            // every work item writes y[szx], one past the end: trapped
            y.at(szx()).assign(1.0f64);
        }
        fn consume(z: &Array<f64, 1>, y: &Array<f64, 1>) {
            z.at(idx()).assign(y.at(idx()));
        }
        let y = Array::<f64, 1>::new([32]);
        let z = Array::<f64, 1>::new([32]);
        let h1 = eval(oob).run_async((&y,)).unwrap();
        let h2 = eval(consume).run_async((&z, &y)).unwrap();
        let ev2 = h2.event().clone();
        let err2 = h2.wait().unwrap_err();
        assert_eq!(ev2.status(), oclsim::EventStatus::Error);
        match err2 {
            Error::Backend(e) => {
                assert!(
                    matches!(e, oclsim::Error::DependencyFailed { .. }),
                    "dependent must carry the causal chain, got: {e}"
                );
                assert!(
                    matches!(e.root_cause(), oclsim::Error::MemoryFault { .. }),
                    "root cause must be the out-of-bounds trap, got: {}",
                    e.root_cause()
                );
            }
            other => panic!("expected a backend error, got: {other}"),
        }
        assert!(
            h1.wait().is_err(),
            "the faulting launch itself reports the trap"
        );
    }
}
