//! Command queues over the asynchronous event-graph scheduler.
//!
//! A [`CommandQueue`] hands commands to its device's dispatcher (see
//! [`crate::sched`]) and returns immediately; each `enqueue_*_async`
//! variant yields an [`Event`] that can be waited on, passed in other
//! commands' wait lists, or inspected for its modeled profiling stamps.
//! Queues come in two flavours, mirroring
//! `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE`:
//!
//! - **in-order** ([`CommandQueue::new`]): every command implicitly waits
//!   on the previously enqueued one, so the queue behaves like a serial
//!   stream even with empty wait lists;
//! - **out-of-order** ([`CommandQueue::new_out_of_order`]): commands are
//!   ordered *only* by their wait lists, so independent commands may
//!   overlap on the modeled timeline (transfers on the DMA engine
//!   alongside kernels on the compute units).
//!
//! The blocking `enqueue_*` methods are convenience wrappers that enqueue
//! with an empty wait list and wait for the event, surfacing its error —
//! they keep the classic synchronous call sites working unchanged. Real
//! synchronization lives in [`CommandQueue::flush`],
//! [`CommandQueue::finish`] and [`crate::sched::wait_for_events`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::buffer::Buffer;
use crate::context::Context;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::launch::{run_ndrange_profiled, validate_launch, Geometry};
use crate::prof::counters::{TransferDir, TransferInfo};
use crate::program::Kernel;
use crate::sched::dispatcher::{Command, Work};
use crate::sched::event::{reaches, CommandOutput};
use crate::sched::timeline::Resource;
use crate::sched::{CommandKind, Event};
use crate::timing::{model_copy, model_transfer};
use crate::types::DeviceScalar;

pub use crate::sched::wait_for_events;

/// A command queue bound to one device of a context (see module docs).
#[derive(Clone)]
pub struct CommandQueue {
    inner: Arc<QueueInner>,
}

struct QueueInner {
    context: Context,
    device: Device,
    out_of_order: bool,
    /// `CL_QUEUE_PROFILING_ENABLE` analogue: when set, kernel launches
    /// collect hardware counters and events expose
    /// [`Event::profiling_info`]. Sampled per command at enqueue time.
    profiling: AtomicBool,
    state: Mutex<QueueState>,
}

#[derive(Default)]
struct QueueState {
    /// The most recently enqueued event — the implicit dependency of the
    /// next command on an in-order queue.
    last: Option<Event>,
    /// Every event not yet known to be resolved; what `finish()` waits on.
    live: Vec<Event>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CommandQueue {
    /// Create an **in-order** queue for `device`, which must belong to
    /// `context`.
    pub fn new(context: &Context, device: &Device) -> Result<CommandQueue> {
        CommandQueue::with_mode(context, device, false)
    }

    /// Create an **out-of-order** queue: commands are ordered only by
    /// their explicit wait lists.
    pub fn new_out_of_order(context: &Context, device: &Device) -> Result<CommandQueue> {
        CommandQueue::with_mode(context, device, true)
    }

    fn with_mode(context: &Context, device: &Device, out_of_order: bool) -> Result<CommandQueue> {
        if !context.contains(device) {
            return Err(Error::InvalidOperation(
                "device does not belong to the queue's context".into(),
            ));
        }
        Ok(CommandQueue {
            inner: Arc::new(QueueInner {
                context: context.clone(),
                device: device.clone(),
                out_of_order,
                profiling: AtomicBool::new(false),
                state: Mutex::new(QueueState::default()),
            }),
        })
    }

    /// The queue's device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The queue's context.
    pub fn context(&self) -> &Context {
        &self.inner.context
    }

    /// Whether the queue was created with out-of-order execution.
    pub fn is_out_of_order(&self) -> bool {
        self.inner.out_of_order
    }

    /// Turn profiling on or off (`CL_QUEUE_PROFILING_ENABLE`). Affects
    /// commands enqueued *after* the call: their kernel launches collect
    /// simulated hardware counters ([`Event::counters`]) and their events
    /// answer [`Event::profiling_info`]. Off by default — a non-profiled
    /// launch skips every counter hook.
    pub fn set_profiling(&self, enabled: bool) {
        self.inner.profiling.store(enabled, Ordering::Relaxed);
    }

    /// Whether profiling is currently enabled on this queue.
    pub fn profiling_enabled(&self) -> bool {
        self.inner.profiling.load(Ordering::Relaxed)
    }

    /// Build the full dependency list for a new command (wait list plus
    /// the in-order predecessor), register the event as live, and reject
    /// wait lists that already contain a cycle of chained user events
    /// (which could never resolve — a guaranteed deadlock).
    fn admit(&self, kind: CommandKind, wait: &[Event]) -> Result<Event> {
        let mut span = crate::telemetry::span("sched", "enqueue");
        // a cycle among existing events can only arise from user-event
        // chaining; enqueueing on top of one would block forever
        for (i, ev) in wait.iter().enumerate() {
            if !ev.is_resolved() && reaches(&ev.deps_snapshot(), ev) {
                return Err(Error::DependencyCycle(format!(
                    "wait-list event {} (position {i}) depends on itself",
                    ev.id()
                )));
            }
        }
        let mut st = lock(&self.inner.state);
        let deps: Vec<Event> = wait.to_vec();
        let mut order_deps: Vec<Event> = Vec::new();
        if !self.inner.out_of_order {
            if let Some(prev) = &st.last {
                if !deps.iter().any(|d| d.id() == prev.id()) {
                    order_deps.push(prev.clone());
                }
            }
        }
        let event = Event::new_command(kind, deps, order_deps, self.profiling_enabled());
        st.last = Some(event.clone());
        st.live.retain(|e| !e.is_resolved());
        st.live.push(event.clone());
        let m = crate::telemetry::metrics();
        match kind {
            CommandKind::WriteBuffer => m.enqueued_writes.inc(),
            CommandKind::ReadBuffer => m.enqueued_reads.inc(),
            CommandKind::CopyBuffer => m.enqueued_copies.inc(),
            CommandKind::NdRangeKernel => m.enqueued_kernels.inc(),
            CommandKind::Marker | CommandKind::User => m.enqueued_markers.inc(),
        }
        let depth = st.live.len() as i64;
        m.queue_depth.set(depth);
        m.queue_depth_peak.raise_to(depth);
        if crate::telemetry::enabled() {
            span.note("kind", format!("{kind:?}"));
            span.note("event", event.id());
            span.note("wait", wait.len());
            span.note("out_of_order", self.inner.out_of_order);
            span.note("depth", depth);
        }
        Ok(event)
    }

    fn submit(&self, event: &Event, work: Box<dyn FnOnce() -> Result<Work> + Send>) {
        self.inner.device.sched().submit(Command {
            event: event.clone(),
            work,
        });
    }

    // ---- asynchronous enqueues ----

    /// Enqueue a host→device write of a typed slice into `buffer` at
    /// element `offset_elems`, gated on `wait`. Returns immediately; the
    /// data is snapshotted at enqueue time (like a blocking OpenCL write).
    pub fn enqueue_write_async<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        data: &[T],
        wait: &[Event],
    ) -> Result<Event> {
        self.enqueue_write_shared_async(buffer, offset_elems, Arc::new(data.to_vec()), wait)
    }

    /// [`CommandQueue::enqueue_write_async`] for data the caller already
    /// holds behind an `Arc`: the command keeps a reference until it has
    /// run instead of a copy, so the snapshot costs a reference count. A
    /// caller that wants to change the data meanwhile goes through
    /// [`Arc::make_mut`], which leaves the command's view untouched.
    pub fn enqueue_write_shared_async<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        data: Arc<Vec<T>>,
        wait: &[Event],
    ) -> Result<Event> {
        let (_, len_bytes) = buffer.elem_range::<T>(offset_elems, data.len())?;
        let event = self.admit(CommandKind::WriteBuffer, wait)?;
        let buffer = buffer.clone();
        let modeled = model_transfer(self.inner.device.profile(), len_bytes);
        self.submit(
            &event,
            Box::new(move || {
                buffer.write_slice(offset_elems, &data)?;
                Ok(transfer_work(modeled, len_bytes, TransferDir::HostToDevice))
            }),
        );
        Ok(event)
    }

    /// Enqueue a device→host read of `len` elements from `buffer`, gated
    /// on `wait`. The returned [`ReadHandle`] yields the data once the
    /// command completes.
    pub fn enqueue_read_async<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        len: usize,
        wait: &[Event],
    ) -> Result<ReadHandle<T>> {
        // checked before `len` sizes an allocation
        buffer.elem_range::<T>(offset_elems, len)?;
        self.enqueue_read_into_async(buffer, offset_elems, vec![T::from_bits64(0); len], wait)
    }

    /// [`CommandQueue::enqueue_read_async`] into storage the caller hands
    /// over: the command fills all of `out` and the [`ReadHandle`] gives it
    /// back, so a caller that re-reads into the same `Vec` allocates
    /// nothing.
    pub fn enqueue_read_into_async<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        mut out: Vec<T>,
        wait: &[Event],
    ) -> Result<ReadHandle<T>> {
        let (_, len_bytes) = buffer.elem_range::<T>(offset_elems, out.len())?;
        let event = self.admit(CommandKind::ReadBuffer, wait)?;
        let buffer = buffer.clone();
        let slot: Arc<Mutex<Option<Vec<T>>>> = Arc::new(Mutex::new(None));
        let filled = Arc::clone(&slot);
        let modeled = model_transfer(self.inner.device.profile(), len_bytes);
        self.submit(
            &event,
            Box::new(move || {
                buffer.read_slice(offset_elems, &mut out)?;
                *lock(&filled) = Some(out);
                Ok(transfer_work(modeled, len_bytes, TransferDir::DeviceToHost))
            }),
        );
        Ok(ReadHandle { event, slot })
    }

    /// Enqueue a device-internal copy of `len_bytes` from `src` (at byte
    /// `src_offset`) into `dst` (at byte `dst_offset`), gated on `wait`.
    /// Overlapping ranges of the same buffer are rejected
    /// (`CL_MEM_COPY_OVERLAP` in real OpenCL).
    pub fn enqueue_copy_async(
        &self,
        src: &Buffer,
        dst: &Buffer,
        src_offset: usize,
        dst_offset: usize,
        len_bytes: usize,
        wait: &[Event],
    ) -> Result<Event> {
        check_bounds(src, src_offset, len_bytes, "copy source")?;
        check_bounds(dst, dst_offset, len_bytes, "copy destination")?;
        if src.id() == dst.id() {
            let overlap =
                src_offset < dst_offset + len_bytes && dst_offset < src_offset + len_bytes;
            if overlap && len_bytes > 0 {
                return Err(Error::InvalidBufferAccess(format!(
                    "copy ranges overlap within one buffer \
                     (src {src_offset}..{}, dst {dst_offset}..{})",
                    src_offset + len_bytes,
                    dst_offset + len_bytes
                )));
            }
        }
        let event = self.admit(CommandKind::CopyBuffer, wait)?;
        let src = src.clone();
        let dst = dst.clone();
        let modeled = model_copy(self.inner.device.profile(), len_bytes);
        self.submit(
            &event,
            Box::new(move || {
                // the two ranges may sit differently within their words, so
                // the bytes go through a block that stays in the host's L1
                const BLOCK: usize = 4096;
                let mut block = [0u8; BLOCK];
                for at in (0..len_bytes).step_by(BLOCK) {
                    let part = &mut block[..(len_bytes - at).min(BLOCK)];
                    src.read_bytes(src_offset + at, part)?;
                    dst.write_bytes(dst_offset + at, part)?;
                }
                Ok(transfer_work(
                    modeled,
                    len_bytes,
                    TransferDir::DeviceToDevice,
                ))
            }),
        );
        Ok(event)
    }

    /// Enqueue a kernel launch over `global` (with optional explicit
    /// `local`) work-items, gated on `wait`. Arguments are snapshotted and
    /// the launch validated **at enqueue time** (geometry, capabilities),
    /// so those errors surface synchronously; execution-time faults
    /// (memory faults, divergence) resolve the event as `Error`.
    pub fn enqueue_ndrange_async(
        &self,
        kernel: &Kernel,
        global: &[usize],
        local: Option<&[usize]>,
        wait: &[Event],
    ) -> Result<Event> {
        self.enqueue_ndrange_span_async(kernel, global, local, None, wait)
    }

    /// Enqueue a **partial** kernel launch: only the linearized work-groups
    /// in `group_span = [start, end)` execute, while the geometry (and thus
    /// every builtin the kernel can observe) stays that of the full launch.
    /// Chunks of one NDRange launched this way across several devices
    /// compose to exactly the single-device result; see [`crate::serve`]
    /// for the partitioner built on top.
    pub fn enqueue_ndrange_groups_async(
        &self,
        kernel: &Kernel,
        global: &[usize],
        local: Option<&[usize]>,
        group_span: (usize, usize),
        wait: &[Event],
    ) -> Result<Event> {
        self.enqueue_ndrange_span_async(kernel, global, local, Some(group_span), wait)
    }

    fn enqueue_ndrange_span_async(
        &self,
        kernel: &Kernel,
        global: &[usize],
        local: Option<&[usize]>,
        group_span: Option<(usize, usize)>,
        wait: &[Event],
    ) -> Result<Event> {
        let geom = Geometry::new(global, local, &self.inner.device)?;
        if let Some((s, e)) = group_span {
            if s >= e || e > geom.total_groups() {
                return Err(Error::InvalidLaunch(format!(
                    "group span {s}..{e} is not a non-empty subrange of 0..{}",
                    geom.total_groups()
                )));
            }
        }
        let args = kernel.bound_args()?;
        validate_launch(kernel.func_ir(), &args, &geom, &self.inner.device)?;
        kernel.lint_launch(&args, &geom)?;
        let sanitize = kernel.sanitize();
        let collect = self.profiling_enabled();
        let event = self.admit(CommandKind::NdRangeKernel, wait)?;
        let kernel = kernel.clone();
        let device = self.inner.device.clone();
        let groups = group_span
            .map(|(s, e)| e - s)
            .unwrap_or_else(|| geom.total_groups());
        self.submit(
            &event,
            Box::new(move || {
                let label = kernel.name().to_string();
                let (timing, counters) = run_ndrange_profiled(
                    kernel, args, geom, device, sanitize, collect, group_span,
                )?;
                Ok(Work {
                    resource: Resource::Compute { groups },
                    duration: timing.device_seconds,
                    output: CommandOutput {
                        kernel_timing: Some(timing),
                        counters,
                        transfer: None,
                        label: Some(label),
                    },
                })
            }),
        );
        Ok(event)
    }

    /// Enqueue a marker: a zero-duration command that completes when the
    /// events in `wait` complete — or, with an empty `wait`, when
    /// everything previously enqueued on this queue completes
    /// (`clEnqueueMarkerWithWaitList` semantics).
    pub fn enqueue_marker(&self, wait: &[Event]) -> Result<Event> {
        let all_live;
        let wait = if wait.is_empty() {
            all_live = lock(&self.inner.state).live.clone();
            &all_live[..]
        } else {
            wait
        };
        let event = self.admit(CommandKind::Marker, wait)?;
        self.submit(
            &event,
            Box::new(|| {
                Ok(Work {
                    resource: Resource::Instant,
                    duration: 0.0,
                    output: CommandOutput::default(),
                })
            }),
        );
        Ok(event)
    }

    // ---- blocking wrappers (the classic synchronous API) ----

    /// Copy a typed host slice into `buffer` starting at element `offset`,
    /// blocking until done.
    pub fn enqueue_write<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        data: &[T],
    ) -> Result<Event> {
        let ev = self.enqueue_write_async(buffer, offset_elems, data, &[])?;
        ev.wait()?;
        Ok(ev)
    }

    /// Copy `len` elements from `buffer` into a fresh Vec, blocking until
    /// done.
    pub fn enqueue_read<T: DeviceScalar>(
        &self,
        buffer: &Buffer,
        offset_elems: usize,
        len: usize,
    ) -> Result<(Vec<T>, Event)> {
        let handle = self.enqueue_read_async::<T>(buffer, offset_elems, len, &[])?;
        let event = handle.event().clone();
        let data = handle.wait()?;
        Ok((data, event))
    }

    /// Device-internal buffer→buffer copy, blocking until done.
    pub fn enqueue_copy(
        &self,
        src: &Buffer,
        dst: &Buffer,
        src_offset: usize,
        dst_offset: usize,
        len_bytes: usize,
    ) -> Result<Event> {
        let ev = self.enqueue_copy_async(src, dst, src_offset, dst_offset, len_bytes, &[])?;
        ev.wait()?;
        Ok(ev)
    }

    /// Launch a kernel and block until it completes, surfacing any
    /// execution fault as this call's error.
    pub fn enqueue_ndrange(
        &self,
        kernel: &Kernel,
        global: &[usize],
        local: Option<&[usize]>,
    ) -> Result<Event> {
        let ev = self.enqueue_ndrange_async(kernel, global, local, &[])?;
        ev.wait()?;
        Ok(ev)
    }

    // ---- synchronization ----

    /// Make sure the device is working on everything enqueued so far.
    /// Commands are handed to the dispatcher at enqueue time already, so
    /// this only wakes it; it never blocks.
    pub fn flush(&self) {
        self.inner.device.sched().nudge();
    }

    /// Block until every command enqueued on this queue has resolved.
    /// Individual command failures do not surface here (they are on the
    /// events); use [`wait_for_events`] to propagate them.
    pub fn finish(&self) {
        let live = {
            let mut st = lock(&self.inner.state);
            std::mem::take(&mut st.live)
        };
        for ev in &live {
            let _ = ev.wait();
        }
    }
}

/// Pending result of [`CommandQueue::enqueue_read_async`].
pub struct ReadHandle<T> {
    event: Event,
    slot: Arc<Mutex<Option<Vec<T>>>>,
}

impl<T> ReadHandle<T> {
    /// The event of the read command (for wait lists and profiling).
    pub fn event(&self) -> &Event {
        &self.event
    }

    /// Block until the read completes and take the data.
    pub fn wait(self) -> Result<Vec<T>> {
        self.event.wait()?;
        lock(&self.slot)
            .take()
            .ok_or_else(|| Error::InvalidOperation("read completed without data".into()))
    }
}

/// What a finished transfer command hands the dispatcher.
fn transfer_work(modeled: f64, len_bytes: usize, direction: TransferDir) -> Work {
    Work {
        resource: Resource::Dma,
        duration: modeled,
        output: CommandOutput {
            transfer: Some(TransferInfo {
                bytes: len_bytes as u64,
                direction,
            }),
            ..Default::default()
        },
    }
}

/// Enqueue-time byte-range validation shared by transfers and copies.
fn check_bounds(buffer: &Buffer, byte_offset: usize, len_bytes: usize, what: &str) -> Result<()> {
    let end = byte_offset
        .checked_add(len_bytes)
        .ok_or_else(|| Error::InvalidBufferAccess(format!("{what} range overflows")))?;
    if end > buffer.len_bytes() {
        return Err(Error::InvalidBufferAccess(format!(
            "{what} range {byte_offset}..{end} exceeds buffer of {} bytes",
            buffer.len_bytes()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemAccess;
    use crate::device::DeviceProfile;
    use crate::program::Program;
    use crate::sched::EventStatus;

    fn setup() -> (Context, CommandQueue) {
        let d = Device::new(DeviceProfile::tesla_c2050());
        let ctx = Context::new(std::slice::from_ref(&d)).unwrap();
        let q = CommandQueue::new(&ctx, &d).unwrap();
        (ctx, q)
    }

    #[test]
    fn queue_requires_context_membership() {
        let d1 = Device::new(DeviceProfile::tesla_c2050());
        let d2 = Device::new(DeviceProfile::quadro_fx380());
        let ctx = Context::new(&[d1]).unwrap();
        assert!(CommandQueue::new(&ctx, &d2).is_err());
        assert!(CommandQueue::new_out_of_order(&ctx, &d2).is_err());
    }

    #[test]
    fn write_read_round_trip_with_events() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(64, MemAccess::ReadWrite).unwrap();
        let ev = q.enqueue_write(&buf, 0, &[1.0f32, 2.0, 3.0]).unwrap();
        assert_eq!(ev.kind(), CommandKind::WriteBuffer);
        assert_eq!(ev.status(), EventStatus::Complete);
        assert!(ev.modeled_seconds() > 0.0);
        let (data, ev) = q.enqueue_read::<f32>(&buf, 0, 3).unwrap();
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
        assert_eq!(ev.kind(), CommandKind::ReadBuffer);
    }

    #[test]
    fn end_to_end_fill_kernel() {
        let (ctx, q) = setup();
        let src = "__kernel void fill(__global float* out, float v) {
            out[get_global_id(0)] = v;
        }";
        let p = Program::from_source(&ctx, src);
        p.build("").unwrap();
        let k = p.kernel("fill").unwrap();
        let buf = ctx.create_buffer(4 * 100, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        k.set_arg_scalar(1, 2.5f32).unwrap();
        let ev = q.enqueue_ndrange(&k, &[100], None).unwrap();
        assert_eq!(ev.kind(), CommandKind::NdRangeKernel);
        let t = ev.kernel_timing().unwrap();
        assert!(t.device_seconds > 0.0);
        assert!(t.totals.instructions > 0);
        let (data, _) = q.enqueue_read::<f32>(&buf, 0, 100).unwrap();
        assert!(data.iter().all(|&x| x == 2.5));
    }

    #[test]
    fn fp64_kernel_rejected_on_quadro() {
        let d = Device::new(DeviceProfile::quadro_fx380());
        let ctx = Context::new(std::slice::from_ref(&d)).unwrap();
        let q = CommandQueue::new(&ctx, &d).unwrap();
        let src = "__kernel void f(__global double* out) { out[get_global_id(0)] = 1.0; }";
        let p = Program::from_source(&ctx, src);
        p.build("").unwrap();
        let k = p.kernel("f").unwrap();
        let buf = ctx.create_buffer(8 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = q.enqueue_ndrange(&k, &[4], None).unwrap_err();
        assert!(matches!(err, Error::UnsupportedCapability(_)), "{err}");
    }

    #[test]
    fn out_of_bounds_access_trapped() {
        let (ctx, q) = setup();
        let src = "__kernel void oob(__global float* out) { out[get_global_id(0) + 1000] = 1.0f; }";
        let p = Program::from_source(&ctx, src);
        p.build("").unwrap();
        let k = p.kernel("oob").unwrap();
        let buf = ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = q.enqueue_ndrange(&k, &[4], None).unwrap_err();
        assert!(matches!(err, Error::MemoryFault { .. }), "{err}");
    }

    #[test]
    fn async_write_gated_on_user_event() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        let gate = Event::user();
        let ev = q
            .enqueue_write_async(&buf, 0, &[9i32, 9, 9, 9], std::slice::from_ref(&gate))
            .unwrap();
        // the command must not run while the gate is open
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !matches!(ev.status(), EventStatus::Complete | EventStatus::Error),
            "command ran before its user-event dependency"
        );
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![0, 0, 0, 0]);
        gate.set_complete().unwrap();
        ev.wait().unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn failed_dependency_poisons_dependents_with_cause_chain() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        let gate = Event::user();
        let first = q
            .enqueue_write_async(&buf, 0, &[1i32], std::slice::from_ref(&gate))
            .unwrap();
        let second = q
            .enqueue_write_async(&buf, 1, &[2i32], std::slice::from_ref(&first))
            .unwrap();
        gate.set_error(Error::InvalidOperation("host aborted".into()))
            .unwrap();
        assert!(second.wait().is_err());
        assert_eq!(first.status(), EventStatus::Error);
        assert_eq!(second.status(), EventStatus::Error);
        // the causal chain reaches the original host error through two
        // levels of DependencyFailed
        let err = second.error().unwrap();
        assert!(matches!(err, Error::DependencyFailed { .. }), "{err}");
        assert_eq!(
            *err.root_cause(),
            Error::InvalidOperation("host aborted".into())
        );
        // the buffer was never touched
        assert_eq!(buf.read_vec::<i32>(0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn copy_buffer_round_trip_and_validation() {
        let (ctx, q) = setup();
        let src = ctx
            .create_buffer_from(&[1i32, 2, 3, 4], MemAccess::ReadWrite)
            .unwrap();
        let dst = ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        let ev = q.enqueue_copy(&src, &dst, 0, 0, 16).unwrap();
        assert_eq!(ev.kind(), CommandKind::CopyBuffer);
        assert!(ev.modeled_seconds() > 0.0);
        assert_eq!(dst.read_vec::<i32>(0, 4).unwrap(), vec![1, 2, 3, 4]);

        // out-of-range destinations are rejected at enqueue
        let err = q.enqueue_copy(&src, &dst, 0, 8, 16).unwrap_err();
        assert!(matches!(err, Error::InvalidBufferAccess(_)), "{err}");
        // overlapping self-copy is rejected; disjoint self-copy is fine
        let err = q.enqueue_copy(&src, &src, 0, 4, 8).unwrap_err();
        assert!(matches!(err, Error::InvalidBufferAccess(_)), "{err}");
        q.enqueue_copy(&src, &src, 0, 8, 8).unwrap();
        assert_eq!(src.read_vec::<i32>(0, 4).unwrap(), vec![1, 2, 1, 2]);
    }

    #[test]
    fn copy_at_every_byte_alignment() {
        let (ctx, q) = setup();
        let bytes: Vec<u8> = (0..=255u8).cycle().take(9000).collect();
        let src = ctx
            .create_buffer_from(&bytes, MemAccess::ReadWrite)
            .unwrap();
        // lengths on both sides of the 4096-byte copy block, every
        // combination of source and destination position within a word
        for len in [0usize, 1, 6, 4095, 4101, 8200] {
            for src_off in [1usize, 2, 3] {
                for dst_off in [1usize, 2, 3] {
                    let dst = ctx
                        .create_buffer_from(&vec![0xEEu8; 9000], MemAccess::ReadWrite)
                        .unwrap();
                    q.enqueue_copy(&src, &dst, src_off, dst_off, len).unwrap();
                    let mut expect = vec![0xEEu8; 9000];
                    expect[dst_off..dst_off + len].copy_from_slice(&bytes[src_off..src_off + len]);
                    assert_eq!(
                        dst.read_vec::<u8>(0, 9000).unwrap(),
                        expect,
                        "len {len} src {src_off} dst {dst_off}"
                    );
                }
            }
        }
    }

    /// Element offsets and lengths whose byte products wrap are errors, as
    /// `geometry_validation_errors`' hostile sizes are: a release build
    /// used to overwrite element 0 / read element 1 / size a result from
    /// the wrapped product, a debug build to panic.
    #[test]
    fn hostile_element_offsets_are_errors() {
        let (ctx, q) = setup();
        let buf = ctx
            .create_buffer_from(&[10i32, 11, 12, 13], MemAccess::ReadWrite)
            .unwrap();
        let r = q.enqueue_write(&buf, 1 << 62, &[99i32]);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        let r = q.enqueue_read::<i32>(&buf, (1 << 62) + 1, 1);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        let r = q.enqueue_read::<i64>(&buf, 0, (1 << 61) + 1);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))), "{r:?}");
        let r = q.enqueue_read_into_async(&buf, 1 << 62, vec![0i32; 1], &[]);
        assert!(matches!(r, Err(Error::InvalidBufferAccess(_))));
        assert_eq!(buf.read_vec::<i32>(0, 4).unwrap(), vec![10, 11, 12, 13]);
    }

    #[test]
    fn shared_write_and_read_into_move_no_copies() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(16, MemAccess::ReadWrite).unwrap();
        let mut host = Arc::new(vec![1i32, 2, 3, 4]);
        let gate = Event::user();
        let ev = q
            .enqueue_write_shared_async(&buf, 0, Arc::clone(&host), std::slice::from_ref(&gate))
            .unwrap();
        // the pending command holds a reference, so a host write copies
        // and the command still uploads what it was given
        Arc::make_mut(&mut host)[0] = 99;
        gate.set_complete().unwrap();
        ev.wait().unwrap();
        assert_eq!(
            Arc::strong_count(&host),
            1,
            "the command dropped its reference"
        );
        let out = vec![0i32; 4];
        let storage = out.as_ptr();
        let got = q
            .enqueue_read_into_async(&buf, 0, out, &[])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got, vec![1, 2, 3, 4]);
        assert_eq!(got.as_ptr(), storage, "the caller's Vec came back filled");
    }

    #[test]
    fn in_order_queue_chains_implicitly() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(8, MemAccess::ReadWrite).unwrap();
        let gate = Event::user();
        // gated first command; the second has an EMPTY wait list but must
        // still run after the first because the queue is in-order
        let _first = q
            .enqueue_write_async(&buf, 0, &[7i32], std::slice::from_ref(&gate))
            .unwrap();
        let second = q.enqueue_write_async(&buf, 1, &[8i32], &[]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !second.is_resolved(),
            "in-order command overtook its predecessor"
        );
        gate.set_complete().unwrap();
        second.wait().unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 2).unwrap(), vec![7, 8]);
    }

    #[test]
    fn out_of_order_queue_lets_independent_commands_pass() {
        let d = Device::new(DeviceProfile::tesla_c2050());
        let ctx = Context::new(std::slice::from_ref(&d)).unwrap();
        let q = CommandQueue::new_out_of_order(&ctx, &d).unwrap();
        let buf = ctx.create_buffer(8, MemAccess::ReadWrite).unwrap();
        let gate = Event::user();
        let blocked = q
            .enqueue_write_async(&buf, 0, &[1i32], std::slice::from_ref(&gate))
            .unwrap();
        let free = q.enqueue_write_async(&buf, 1, &[2i32], &[]).unwrap();
        // the independent command completes while the first stays gated
        free.wait().unwrap();
        assert!(!blocked.is_resolved());
        gate.set_complete().unwrap();
        blocked.wait().unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 2).unwrap(), vec![1, 2]);
    }

    #[test]
    fn marker_with_empty_list_waits_for_queue() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(8, MemAccess::ReadWrite).unwrap();
        let gate = Event::user();
        let _w = q
            .enqueue_write_async(&buf, 0, &[5i32], std::slice::from_ref(&gate))
            .unwrap();
        let marker = q.enqueue_marker(&[]).unwrap();
        assert_eq!(marker.kind(), CommandKind::Marker);
        assert!(!marker.is_resolved());
        gate.set_complete().unwrap();
        marker.wait().unwrap();
        assert_eq!(buf.read_vec::<i32>(0, 1).unwrap(), vec![5]);
    }

    #[test]
    fn user_event_chain_cycles_are_rejected() {
        let a = Event::user();
        let b = Event::user();
        a.set_complete_on(std::slice::from_ref(&b)).unwrap();
        let err = b.set_complete_on(std::slice::from_ref(&a)).unwrap_err();
        assert!(matches!(err, Error::DependencyCycle(_)), "{err}");
        // the non-cyclic chain still works
        b.set_complete().unwrap();
        a.wait().unwrap();
    }

    #[test]
    fn finish_drains_the_queue() {
        let (ctx, q) = setup();
        let buf = ctx.create_buffer(4096, MemAccess::ReadWrite).unwrap();
        for i in 0..32 {
            q.enqueue_write_async(&buf, i, &[i as i32], &[]).unwrap();
        }
        q.flush();
        q.finish();
        let data = buf.read_vec::<i32>(0, 32).unwrap();
        assert_eq!(data, (0..32).collect::<Vec<i32>>());
    }

    #[test]
    fn profiling_stamps_are_ordered_and_overlap_capable() {
        let d = Device::new(DeviceProfile::tesla_c2050());
        let ctx = Context::new(std::slice::from_ref(&d)).unwrap();
        let q = CommandQueue::new_out_of_order(&ctx, &d).unwrap();
        d.reset_timeline();
        let a = ctx.create_buffer(1 << 20, MemAccess::ReadWrite).unwrap();
        let b = ctx.create_buffer(1 << 20, MemAccess::ReadWrite).unwrap();
        let payload = vec![1.0f32; 1 << 18];
        let e1 = q.enqueue_write_async(&a, 0, &payload, &[]).unwrap();
        let e2 = q.enqueue_write_async(&b, 0, &payload, &[]).unwrap();
        wait_for_events(&[e1.clone(), e2.clone()]).unwrap();
        let p1 = e1.profile();
        let p2 = e2.profile();
        for p in [p1, p2] {
            assert!(p.queued <= p.submitted && p.submitted <= p.started && p.started < p.ended);
        }
        // both transfers use the single DMA engine: they serialize on the
        // modeled timeline even though both were eligible at 0.0
        let (first, second) = if p1.started <= p2.started {
            (p1, p2)
        } else {
            (p2, p1)
        };
        assert!(second.started >= first.ended, "DMA engine double-booked");
    }
}
