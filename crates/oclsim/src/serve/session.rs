//! Sessions: the multi-tenant front door of the service.
//!
//! A [`Service`] owns a set of simulated devices (each with its own
//! context and out-of-order queue), one shared [`BinaryCache`], and a
//! tenant registry. Clients open a [`Session`] per tenant and submit
//! [`LaunchJob`]s; the session enforces the tenant's [`TenantQuota`] at
//! admission, attributes cache traffic and launch counts to the tenant in
//! the process metrics registry, and keeps **per-tenant state sharded**:
//! input buffers a tenant has uploaded are pooled per `(tenant, device,
//! content)` and reused across that tenant's launches, but never shared
//! with other tenants — the only cross-tenant shared resource is the
//! immutable binary cache. That split is what makes the service's metric
//! totals a pure function of the workload: upload counts depend only on
//! each tenant's distinct inputs, never on how tenants interleave.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::{Buffer, MemAccess};
use crate::context::Context;
use crate::device::{Device, DeviceProfile};
use crate::error::{Error, Result};
use crate::exec::config::ExecConfig;
use crate::obs::{self, CacheState, Postmortem, QuotaState, Request, RequestTrace, TenantObs};
use crate::queue::CommandQueue;
use crate::sched::Event;
use crate::telemetry::metrics;

use super::cache::{BinaryCache, CacheOutcome};
use super::partition::{
    run_partitioned_with, JobArg, LaunchJob, PartitionOptions, PartitionOutcome, PartitionStrategy,
    PartitionTarget,
};
use super::quota::TenantQuota;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the shared binary cache in estimated bytes.
    pub cache_capacity_bytes: u64,
    /// One simulated device per profile, in order.
    pub profiles: Vec<DeviceProfile>,
    /// How the service's devices execute launches (engine, claimer count).
    pub exec: ExecConfig,
}

impl Default for ServiceConfig {
    /// A two-GPU heterogeneous box mirroring the paper's testbed: a Tesla
    /// C2050-class device and a Quadro FX380-class device, with a 16 MiB
    /// binary cache, executing as the environment says.
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_capacity_bytes: 16 << 20,
            profiles: vec![DeviceProfile::tesla_c2050(), DeviceProfile::quadro_fx380()],
            exec: ExecConfig::from_env(),
        }
    }
}

/// One device of the service with its context and queue.
struct ServeDevice {
    device: Device,
    context: Context,
    queue: CommandQueue,
}

struct ServiceInner {
    devices: Vec<ServeDevice>,
    cache: BinaryCache,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
}

/// Admission bookkeeping and observability state for one tenant.
struct TenantState {
    name: String,
    quota: TenantQuota,
    launches: AtomicU64,
    inflight: AtomicU64,
    compile_bytes: AtomicU64,
    /// The tenant's trace-id mint and flight ring, owned by this service.
    obs: Arc<TenantObs>,
}

/// A multi-tenant kernel service over simulated devices (see the module
/// docs).
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Build a service from `config`.
    pub fn new(config: ServiceConfig) -> Result<Service> {
        let mut devices = Vec::with_capacity(config.profiles.len());
        for profile in config.profiles {
            let device = Device::with_exec(profile, config.exec);
            let context = Context::new(std::slice::from_ref(&device))?;
            let queue = CommandQueue::new_out_of_order(&context, &device)?;
            devices.push(ServeDevice {
                device,
                context,
                queue,
            });
        }
        if devices.is_empty() {
            return Err(Error::InvalidOperation(
                "a service needs at least one device".into(),
            ));
        }
        let cache = BinaryCache::new(config.cache_capacity_bytes);
        metrics()
            .serve_cache_capacity_bytes
            .set(config.cache_capacity_bytes as i64);
        Ok(Service {
            inner: Arc::new(ServiceInner {
                devices,
                cache,
                tenants: Mutex::new(BTreeMap::new()),
            }),
        })
    }

    /// The shared binary cache.
    pub fn cache(&self) -> &BinaryCache {
        &self.inner.cache
    }

    /// The service's devices, in configuration order.
    pub fn devices(&self) -> Vec<Device> {
        self.inner
            .devices
            .iter()
            .map(|d| d.device.clone())
            .collect()
    }

    /// Open (or re-join) the session of `tenant`. The quota is fixed at
    /// first join; re-joining with a different quota keeps the original.
    pub fn session(&self, tenant: &str, quota: TenantQuota) -> Session {
        let state = {
            let mut tenants = self.inner.tenants.lock();
            Arc::clone(tenants.entry(tenant.to_string()).or_insert_with(|| {
                Arc::new(TenantState {
                    name: tenant.to_string(),
                    quota,
                    launches: AtomicU64::new(0),
                    inflight: AtomicU64::new(0),
                    compile_bytes: AtomicU64::new(0),
                    obs: Arc::new(TenantObs::new(tenant)),
                })
            }))
        };
        Session {
            svc: Arc::clone(&self.inner),
            tenant: state,
            input_pool: Mutex::new(HashMap::new()),
        }
    }

    /// Prepare one [`PartitionTarget`] per service device for `job`,
    /// building through the shared cache (no tenant attribution).
    pub fn partition_targets(&self, job: &LaunchJob) -> Result<Vec<PartitionTarget>> {
        self.inner
            .devices
            .iter()
            .map(|d| {
                PartitionTarget::new(
                    &d.device,
                    &d.context,
                    &d.queue,
                    &self.inner.cache,
                    job,
                    None,
                )
            })
            .collect()
    }
}

/// Outcome of one admitted and executed launch.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Final bytes of each writable (`Out`/`InOut`) argument, in argument
    /// order.
    pub outputs: Vec<Vec<u8>>,
    /// Modeled seconds the kernel occupied the device.
    pub modeled_seconds: f64,
    /// Whether the binary came out of the shared cache without a build.
    pub cache_hit: bool,
    /// Host wall seconds from admission to results (recorded in the
    /// non-canonical latency histogram too).
    pub wall_seconds: f64,
}

/// One in-flight launch slot of a tenant, held until dropped (see
/// [`Session::admit_launch`]).
#[must_use = "the in-flight slot is released when the permit drops"]
pub struct LaunchPermit {
    tenant: Arc<TenantState>,
}

impl Drop for LaunchPermit {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One tenant's handle on a [`Service`].
pub struct Session {
    svc: Arc<ServiceInner>,
    tenant: Arc<TenantState>,
    /// Per-tenant pool of uploaded read-only inputs:
    /// `(device index, content hash, len)` → resident buffer.
    input_pool: Mutex<HashMap<(usize, u64, usize), Buffer>>,
}

impl Session {
    /// The tenant this session belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant.name
    }

    /// Launches this tenant has had admitted so far.
    pub fn launches(&self) -> u64 {
        self.tenant.launches.load(Ordering::Relaxed)
    }

    /// The service's shared binary cache (the one this session's builds
    /// go through).
    pub fn binary_cache(&self) -> &BinaryCache {
        &self.svc.cache
    }

    /// Open a request span tree for an externally-driven submission (the
    /// HPL facade builds its own tree through this).
    pub fn begin_request(&self, what: impl Into<String>) -> Request {
        Request::begin(&self.tenant.obs, what)
    }

    /// Snapshot of the shared cache for a postmortem dump.
    pub fn cache_state(&self) -> CacheState {
        let c = &self.svc.cache;
        CacheState {
            resident: c.len(),
            resident_bytes: c.resident_bytes(),
            capacity_bytes: c.capacity_bytes(),
            evictions: c.evictions(),
        }
    }

    /// Snapshot of this tenant's quota usage for a postmortem dump.
    pub fn quota_state(&self) -> QuotaState {
        let t = &self.tenant;
        QuotaState {
            launches: t.launches.load(Ordering::Relaxed),
            max_launches: t.quota.max_launches,
            inflight: t.inflight.load(Ordering::Relaxed),
            max_inflight: t.quota.max_inflight,
            compile_bytes: t.compile_bytes.load(Ordering::Relaxed),
            max_compile_bytes: t.quota.max_compile_bytes,
        }
    }

    /// Assemble and publish the postmortem dump of a failed request:
    /// its span tree, the causal error chain, the tenant's flight-recorder
    /// tail, and the cache/quota state at failure time.
    pub fn emit_postmortem(&self, request: RequestTrace, err: &Error) {
        obs::push_postmortem(Postmortem {
            trace: request.trace,
            tenant: request.tenant.clone(),
            error_chain: obs::error_chain(err),
            recorder_tail: self.tenant.obs.tail(),
            request,
            cache: self.cache_state(),
            quota: self.quota_state(),
        });
    }

    /// Admit one launch against the tenant's quotas and count it; the
    /// permit holds an in-flight slot until dropped, so a caller that
    /// launches on its own (the `hpl` tenant-scope facade) keeps it until
    /// it has waited on the launch. Rejections surface as
    /// [`Error::AdmissionRejected`] wrapping the [`Error::QuotaExceeded`].
    pub fn admit_launch(&self, what: &str) -> Result<LaunchPermit> {
        let t = &self.tenant;
        let reject = |cause: Error| {
            let m = metrics();
            m.serve_rejections.inc();
            m.note_tenant(&t.name, |s| s.rejections += 1);
            Err(Error::AdmissionRejected {
                what: what.to_string(),
                cause: Box::new(cause),
            })
        };
        let launched = t.launches.load(Ordering::Relaxed) + 1;
        if let Err(e) = TenantQuota::check(&t.name, "launches", t.quota.max_launches, launched) {
            return reject(e);
        }
        let inflight = t.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        if let Err(e) =
            TenantQuota::check(&t.name, "inflight launches", t.quota.max_inflight, inflight)
        {
            t.inflight.fetch_sub(1, Ordering::Relaxed);
            return reject(e);
        }
        t.launches.fetch_add(1, Ordering::Relaxed);
        let m = metrics();
        m.serve_launches.inc();
        m.note_tenant(&t.name, |s| s.launches += 1);
        Ok(LaunchPermit {
            tenant: Arc::clone(t),
        })
    }

    /// [`Session::admit_launch`], recorded as the request's `admission`
    /// node.
    fn admit_traced(&self, what: String, req: &mut Request) -> Result<LaunchPermit> {
        let root = req.root();
        match self.admit_launch(&what) {
            Ok(permit) => {
                req.child(
                    root,
                    "admission",
                    format!("ok (launch {})", self.launches()),
                );
                Ok(permit)
            }
            Err(e) => {
                let node = req.child(root, "admission", what);
                req.set_error(node, &e);
                Err(e)
            }
        }
    }

    /// Build (or fetch) a program through the shared cache on this
    /// tenant's behalf, charging compile bytes on misses. Usable with any
    /// context/device pair — the HPL runtime facade passes its own.
    pub fn build_program(
        &self,
        context: &Context,
        device: &Device,
        source: &str,
        options: &str,
    ) -> Result<CacheOutcome> {
        let t = &self.tenant;
        // the quota only applies to actual builds: resident binaries are
        // free for every tenant, so the check runs inside the miss path
        let admit = || {
            let charged = t.compile_bytes.load(Ordering::Relaxed) + source.len() as u64;
            TenantQuota::check(&t.name, "compile bytes", t.quota.max_compile_bytes, charged)
                .map_err(|e| {
                    let m = metrics();
                    m.serve_rejections.inc();
                    m.note_tenant(&t.name, |s| s.rejections += 1);
                    Error::AdmissionRejected {
                        what: format!("compilation of {} source bytes", source.len()),
                        cause: Box::new(e),
                    }
                })
        };
        let outcome = self.svc.cache.get_or_build_admitted(
            context,
            device,
            source,
            options,
            Some(&t.name),
            admit,
        )?;
        if !outcome.hit {
            t.compile_bytes
                .fetch_add(source.len() as u64, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Submit one launch on service device `device_index`, blocking until
    /// the results are read back: [`Session::submit_async`] without
    /// dependencies, then [`PendingJob::wait`]. The request is traced end
    /// to end; a failure emits a postmortem dump
    /// ([`crate::obs::take_postmortems`]).
    pub fn submit(&self, device_index: usize, job: &LaunchJob) -> Result<JobOutcome> {
        self.launch(device_index, job, &[], "launch")?.wait()
    }

    /// Submit one launch on service device `device_index` without blocking:
    /// the launch is admitted, its inputs staged and the kernel enqueued
    /// after `deps`, and a [`PendingJob`] is returned whose
    /// [`PendingJob::wait`] reads the results back. A poisoned dependency
    /// or launch fault surfaces at `wait()`, which emits the postmortem
    /// dump there.
    pub fn submit_async(
        &self,
        device_index: usize,
        job: &LaunchJob,
        deps: &[Event],
    ) -> Result<PendingJob<'_>> {
        self.launch(device_index, job, deps, "async launch")
    }

    /// The one submission path; `call` names the request in its trace
    /// (`"launch"` for a blocking submit, `"async launch"` otherwise).
    fn launch(
        &self,
        device_index: usize,
        job: &LaunchJob,
        deps: &[Event],
        call: &str,
    ) -> Result<PendingJob<'_>> {
        let mut req = self.begin_request(format!(
            "{call} of kernel `{}` on device {device_index}",
            job.kernel
        ));
        let _trace = req.thread_guard();
        match self.enqueue(device_index, job, deps, call, &mut req) {
            Ok(mut pending) => {
                pending.req = Some(req);
                Ok(pending)
            }
            Err(e) => {
                let root = req.root();
                req.set_error(root, &e);
                self.emit_postmortem(req.finish(true), &e);
                Err(e)
            }
        }
    }

    /// Admit, build, stage and enqueue; the caller attaches the request.
    fn enqueue(
        &self,
        device_index: usize,
        job: &LaunchJob,
        deps: &[Event],
        call: &str,
        req: &mut Request,
    ) -> Result<PendingJob<'_>> {
        let started = std::time::Instant::now();
        let root = req.root();
        let dev = self.svc.devices.get(device_index).ok_or_else(|| {
            Error::InvalidOperation(format!(
                "device index {device_index} out of range ({} devices)",
                self.svc.devices.len()
            ))
        })?;
        let permit = self.admit_traced(format!("{call} of kernel `{}`", job.kernel), req)?;
        let built =
            match self.build_program(&dev.context, &dev.device, &job.source, &job.build_options) {
                Ok(built) => {
                    req.child(
                        root,
                        "cache.lookup",
                        format!(
                            "device {device_index}: {}",
                            if built.hit { "hit" } else { "miss (build)" }
                        ),
                    );
                    built
                }
                Err(e) => {
                    let node = req.child(root, "cache.lookup", format!("device {device_index}"));
                    req.set_error(node, &e);
                    return Err(e);
                }
            };
        let kernel = built.program.kernel(&job.kernel)?;
        let mut wait: Vec<Event> = deps.to_vec();
        let mut writable: Vec<(usize, Buffer, usize)> = Vec::new();
        for (i, arg) in job.args.iter().enumerate() {
            match arg {
                JobArg::In(data) => {
                    let (buf, uploaded) = self.pooled_input(device_index, dev, data)?;
                    req.child(
                        root,
                        "sched.dma",
                        format!(
                            "arg {i}: {} bytes -> device {device_index} ({})",
                            data.len(),
                            if uploaded { "upload" } else { "pooled" }
                        ),
                    );
                    kernel.set_arg_buffer(i, &buf)?;
                }
                JobArg::InOut(data) => {
                    let buf = dev
                        .context
                        .create_buffer(data.len(), MemAccess::ReadWrite)?;
                    wait.push(dev.queue.enqueue_write_async(&buf, 0, data, &[])?);
                    req.child(
                        root,
                        "sched.dma",
                        format!("arg {i}: {} bytes -> device {device_index}", data.len()),
                    );
                    kernel.set_arg_buffer(i, &buf)?;
                    writable.push((i, buf, data.len()));
                }
                JobArg::Out(len) => {
                    let buf = dev.context.create_buffer(*len, MemAccess::ReadWrite)?;
                    kernel.set_arg_buffer(i, &buf)?;
                    writable.push((i, buf, *len));
                }
                JobArg::Scalar(v) => kernel.set_arg_scalar(i, *v)?,
            }
        }
        let sched = req.child(
            root,
            "sched.enqueue",
            format!(
                "ndrange global {:?}{}",
                job.global,
                if deps.is_empty() {
                    String::new()
                } else {
                    format!(", {} external dep(s)", deps.len())
                }
            ),
        );
        let event =
            dev.queue
                .enqueue_ndrange_async(&kernel, &job.global, job.local.as_deref(), &wait)?;
        Ok(PendingJob {
            session: self,
            req: None,
            _permit: permit,
            event,
            device_index,
            writable,
            cache_hit: built.hit,
            sched,
            started,
        })
    }

    /// Submit one launch split across **all** service devices with
    /// `strategy`, blocking until the merged results are ready. Counts as
    /// a single admitted launch for the tenant.
    pub fn submit_partitioned(
        &self,
        job: &LaunchJob,
        strategy: PartitionStrategy,
    ) -> Result<PartitionOutcome> {
        self.submit_partitioned_with(job, strategy, None)
    }

    /// [`Session::submit_partitioned`] with an optional chunk gate: every
    /// chunk whose issue index is `>= gate.0` waits on event `gate.1`
    /// before running. Failing the gate from the host poisons those chunks
    /// with a deterministic [`Error::DependencyFailed`] chain — the
    /// fault-injection hook the postmortem tests and demo use.
    pub fn submit_partitioned_with(
        &self,
        job: &LaunchJob,
        strategy: PartitionStrategy,
        gate: Option<(usize, Event)>,
    ) -> Result<PartitionOutcome> {
        let mut req = self.begin_request(format!(
            "partitioned launch of kernel `{}` across {} devices",
            job.kernel,
            self.svc.devices.len()
        ));
        let _trace = req.thread_guard();
        match self.submit_partitioned_traced(job, strategy, gate, &mut req) {
            Ok(outcome) => {
                req.finish(false);
                Ok(outcome)
            }
            Err(e) => {
                let root = req.root();
                req.set_error(root, &e);
                self.emit_postmortem(req.finish(true), &e);
                Err(e)
            }
        }
    }

    fn submit_partitioned_traced(
        &self,
        job: &LaunchJob,
        strategy: PartitionStrategy,
        gate: Option<(usize, Event)>,
        req: &mut Request,
    ) -> Result<PartitionOutcome> {
        let started = std::time::Instant::now();
        let root = req.root();
        let _permit = self.admit_traced(
            format!("partitioned launch of kernel `{}`", job.kernel),
            req,
        )?;
        let mut targets: Vec<PartitionTarget> = Vec::with_capacity(self.svc.devices.len());
        for (d, dev) in self.svc.devices.iter().enumerate() {
            match PartitionTarget::new(
                &dev.device,
                &dev.context,
                &dev.queue,
                &self.svc.cache,
                job,
                Some(&self.tenant.name),
            ) {
                Ok(target) => {
                    req.child(
                        root,
                        "cache.lookup",
                        format!(
                            "device {d}: {}",
                            if target.cache_hit() {
                                "hit"
                            } else {
                                "miss (build)"
                            }
                        ),
                    );
                    targets.push(target);
                }
                Err(e) => {
                    let node = req.child(root, "cache.lookup", format!("device {d}"));
                    req.set_error(node, &e);
                    return Err(e);
                }
            }
        }
        let sched = req.child(root, "sched.enqueue", format!("strategy {strategy:?}"));
        let outcome = run_partitioned_with(
            &targets,
            job,
            strategy,
            PartitionOptions {
                obs: Some((req, sched)),
                gate_from_chunk: gate,
            },
        )?;
        req.set_modeled(sched, outcome.makespan_seconds);
        metrics()
            .serve_launch_wall_us
            .observe((started.elapsed().as_secs_f64() * 1.0e6) as u64);
        Ok(outcome)
    }

    /// Fetch (or upload) the tenant's pooled read-only copy of `data` on
    /// device `device_index`; the boolean reports whether an upload
    /// happened. Repeated launches over the same input do not re-upload —
    /// the serve-layer analogue of HPL's coherence validity.
    fn pooled_input(
        &self,
        device_index: usize,
        dev: &ServeDevice,
        data: &[u8],
    ) -> Result<(Buffer, bool)> {
        let key = (device_index, super::cache::fnv1a(data), data.len());
        let mut pool = self.input_pool.lock();
        if let Some(buf) = pool.get(&key) {
            return Ok((buf.clone(), false));
        }
        let buf = dev.context.create_buffer(data.len(), MemAccess::ReadOnly)?;
        let ev = dev.queue.enqueue_write_async(&buf, 0, data, &[])?;
        // the upload completes before the buffer enters the pool, so later
        // launches may reuse it without re-waiting
        ev.wait()?;
        pool.insert(key, buf.clone());
        Ok((buf, true))
    }
}

/// One asynchronously-submitted launch (see [`Session::submit_async`]).
/// Dropping it without waiting abandons the request's trace unfinished;
/// call [`PendingJob::wait`] to collect outputs and close the trace.
pub struct PendingJob<'a> {
    session: &'a Session,
    req: Option<Request>,
    _permit: LaunchPermit,
    event: Event,
    device_index: usize,
    writable: Vec<(usize, Buffer, usize)>,
    cache_hit: bool,
    /// The request's `sched.enqueue` node, completed at wait time.
    sched: obs::NodeId,
    started: std::time::Instant,
}

impl PendingJob<'_> {
    /// The launch's event (e.g. to gate later submissions on it).
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// The request's trace id.
    pub fn trace(&self) -> obs::TraceId {
        self.req.as_ref().expect("trace open until wait").trace()
    }

    /// Block until the launch resolves and read the outputs back. A
    /// poisoned dependency chain or launch fault closes the trace as
    /// failed and emits the postmortem dump before returning the error.
    pub fn wait(mut self) -> Result<JobOutcome> {
        let mut req = self.req.take().expect("wait consumes the request");
        let _trace = req.thread_guard();
        match self.wait_traced(&mut req) {
            Ok(outcome) => {
                req.finish(false);
                Ok(outcome)
            }
            Err(e) => {
                let root = req.root();
                req.set_error(root, &e);
                self.session.emit_postmortem(req.finish(true), &e);
                Err(e)
            }
        }
    }

    fn wait_traced(&self, req: &mut Request) -> Result<JobOutcome> {
        let root = req.root();
        if let Err(e) = self.event.wait() {
            req.set_error(self.sched, &e);
            return Err(e);
        }
        let modeled_seconds = req.complete_launch(self.sched, &self.event);
        let dev = &self.session.svc.devices[self.device_index];
        let mut outputs = Vec::with_capacity(self.writable.len());
        for (i, buf, len) in &self.writable {
            let handle = dev.queue.enqueue_read_async::<u8>(
                buf,
                0,
                *len,
                std::slice::from_ref(&self.event),
            )?;
            req.child(
                root,
                "sched.dma",
                format!("arg {i}: {len} bytes <- device {}", self.device_index),
            );
            outputs.push(handle.wait()?);
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        metrics()
            .serve_launch_wall_us
            .observe((wall_seconds * 1.0e6) as u64);
        Ok(JobOutcome {
            outputs,
            modeled_seconds,
            cache_hit: self.cache_hit,
            wall_seconds,
        })
    }
}
