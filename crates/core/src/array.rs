//! HPL arrays: `Array<type, ndim [, memoryFlag]>` of §III-A.
//!
//! One type serves three roles, as in the paper:
//!
//! - created in **host code**, it owns host storage plus lazily-created
//!   device buffers with validity tracking (the transfer minimiser);
//! - passed as a **kernel argument**, `at()` records element accesses;
//! - created **inside a kernel**, it declares a private (default) or
//!   `__local` array.
//!
//! Host code indexes with `get`/`set` (the paper's parentheses — a visible
//! reminder that host accesses carry overhead), kernels with `at` (the
//! paper's brackets).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{MappedMutexGuard, Mutex, MutexGuard};

use oclsim::{Buffer, CommandQueue, Device, Event, EventStatus, MemAccess};

use crate::error::{Error, Result};
use crate::expr::{Expr, IntoExpr};
use crate::ir::{MemFlag, Node};
use crate::kernel::{is_recording, record_array_decl, try_with_recorder};
use crate::runtime::DeviceEntry;
use crate::scalar::HplScalar;

/// Process-wide handle allocator shared by arrays *and* scalars
/// ([`crate::scalar`] draws from it too). `eval`'s alias-pattern cache key
/// compares the handles of a mixed argument tuple pairwise, so a handle
/// must be unique across argument kinds: with separate per-kind counters
/// a fresh scalar could numerically collide with a fresh array and fake
/// an aliasing pair, splitting the kernel cache (and, worse, letting a
/// genuinely aliased tuple hit the entry recorded for the distinct one).
static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh kernel-argument handle (unique process-wide).
pub(crate) fn next_handle_id() -> u64 {
    NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed)
}

struct DeviceCopy {
    /// The runtime entry (device, context, queues) the buffer was created
    /// on. Kept with the copy so that reading it back and releasing it need
    /// no runtime lookup: they work on any thread, in any scope.
    on: Arc<DeviceEntry>,
    buffer: Buffer,
    valid: bool,
}

/// Per-array host↔device transfer accounting, updated at every transfer
/// the coherence machinery performs. The profiling surface for "did HPL
/// move this array more often than it had to?" — a runtime's
/// [`crate::runtime::TransferStats`] aggregates across all arrays and
/// threads that use it; this is scoped to one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayTransferStats {
    /// Host→device uploads of this array.
    pub h2d_count: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host downloads of this array.
    pub d2h_count: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
}

struct HostState<T> {
    /// The host copy. Behind an `Arc` so that an upload command holds a
    /// reference, not a snapshot; host writes go through [`Arc::make_mut`],
    /// which copies only while such a command is still pending.
    data: Arc<Vec<T>>,
    host_valid: bool,
    copies: Vec<DeviceCopy>,
    /// Lifetime transfer counts for this array (see [`ArrayTransferStats`]).
    xfer: ArrayTransferStats,
    /// Event of the last asynchronously enqueued command that writes this
    /// array (kernel or host→device transfer). Future users of the data
    /// must wait on it — and are poisoned by it if it failed.
    last_write: Option<Event>,
    /// Events of asynchronously enqueued commands that read this array
    /// since its last write. A later writer must wait for them
    /// (write-after-read), but their failures do not poison it.
    readers: Vec<Event>,
}

impl<T> Drop for HostState<T> {
    fn drop(&mut self) {
        // return the device allocations to their contexts' accounting
        for c in self.copies.drain(..) {
            c.on.context.release_buffer(c.buffer);
        }
    }
}

enum Repr<T> {
    Host(Mutex<HostState<T>>),
    /// Declared inside a kernel while recording; no storage.
    KernelDecl,
}

/// An HPL array of `T` with `N` dimensions. Cheap to clone (shared handle).
pub struct Array<T: HplScalar, const N: usize> {
    id: u64,
    dims: [usize; N],
    mem: MemFlag,
    repr: Arc<Repr<T>>,
}

impl<T: HplScalar, const N: usize> Clone for Array<T, N> {
    fn clone(&self) -> Self {
        Array {
            id: self.id,
            dims: self.dims,
            mem: self.mem,
            repr: Arc::clone(&self.repr),
        }
    }
}

impl<T: HplScalar, const N: usize> Array<T, N> {
    fn check_dims(dims: [usize; N]) {
        assert!(N >= 1 && N <= 3, "HPL arrays have 1 to 3 dimensions");
        assert!(
            dims.iter().all(|&d| d > 0),
            "array dimensions must be positive: {dims:?}"
        );
    }

    #[track_caller]
    fn new_with(dims: [usize; N], mem: MemFlag, data: Option<Vec<T>>) -> Array<T, N> {
        Self::check_dims(dims);
        let id = next_handle_id();
        if is_recording() {
            assert!(
                data.is_none(),
                "arrays declared inside kernels cannot take initial host data"
            );
            assert!(
                mem != MemFlag::Constant && mem != MemFlag::Global,
                "arrays declared inside kernels are private (default) or Local"
            );
            record_array_decl(id, T::CTYPE, mem, &dims);
            return Array {
                id,
                dims,
                mem,
                repr: Arc::new(Repr::KernelDecl),
            };
        }
        assert!(
            mem != MemFlag::Local && mem != MemFlag::Private,
            "Local/Private arrays only exist inside kernels; host arrays are Global or Constant"
        );
        let len = dims.iter().product::<usize>();
        let data = match data {
            Some(d) => {
                assert_eq!(
                    d.len(),
                    len,
                    "initial data length does not match the dimensions"
                );
                d
            }
            None => vec![T::default(); len],
        };
        Array {
            id,
            dims,
            mem,
            repr: Arc::new(Repr::Host(Mutex::new(HostState {
                data: Arc::new(data),
                host_valid: true,
                copies: Vec::new(),
                xfer: ArrayTransferStats::default(),
                last_write: None,
                readers: Vec::new(),
            }))),
        }
    }

    /// Create an array. On the host this allocates zero-initialised global
    /// storage; inside a kernel it declares a **private** per-work-item
    /// array (the paper's rule for unflagged in-kernel declarations).
    #[track_caller]
    pub fn new(dims: [usize; N]) -> Array<T, N> {
        let mem = if is_recording() {
            MemFlag::Private
        } else {
            MemFlag::Global
        };
        Self::new_with(dims, mem, None)
    }

    /// Declare a `__local` (scratchpad) array. Only valid inside a kernel.
    #[track_caller]
    pub fn local(dims: [usize; N]) -> Array<T, N> {
        assert!(
            is_recording(),
            "Array::local declares work-group scratchpad and is only valid inside a kernel"
        );
        Self::new_with(dims, MemFlag::Local, None)
    }

    /// Create a host array placed in **constant** memory when used by
    /// kernels (host-writable, kernel-read-only).
    pub fn constant(dims: [usize; N]) -> Array<T, N> {
        Self::new_with(dims, MemFlag::Constant, None)
    }

    /// Create a host array initialised from `data` (the paper's
    /// constructor taking a pointer to existing storage).
    pub fn from_vec(dims: [usize; N], data: Vec<T>) -> Array<T, N> {
        Self::new_with(dims, MemFlag::Global, Some(data))
    }

    /// The dimensions.
    pub fn dims(&self) -> [usize; N] {
        self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Always false (dimensions are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The memory flag.
    pub fn mem_flag(&self) -> MemFlag {
        self.mem
    }

    pub(crate) fn handle_id(&self) -> u64 {
        self.id
    }

    fn host_state(&self) -> &Mutex<HostState<T>> {
        match &*self.repr {
            Repr::Host(s) => s,
            Repr::KernelDecl => panic!(
                "host access to an array declared inside a kernel; kernel-local arrays \
                 have no host storage"
            ),
        }
    }

    // ---- kernel-side access -------------------------------------------------

    /// Index the array inside a kernel (the paper's bracket indexing).
    /// 1-D arrays take one index, 2-D a pair, 3-D a triple.
    pub fn at(&self, index: impl KernelIndex<N>) -> Expr<T> {
        let idxs = index.index_nodes();
        let resolved = try_with_recorder(|r| {
            if let Some(&param) = r.array_params.get(&self.id) {
                Some(Node::ParamElem {
                    param,
                    idxs: idxs.clone(),
                })
            } else {
                r.local_arrays.get(&self.id).map(|&decl| Node::LocalElem {
                    decl,
                    idxs: idxs.clone(),
                })
            }
        });
        match resolved {
            Some(Some(node)) => Expr::from_node(Arc::new(node)),
            Some(None) => panic!(
                "array is used inside the kernel but is neither a kernel argument nor \
                 declared inside the kernel: HPL kernels only communicate with the host \
                 through their arguments (§III-C)"
            ),
            None => panic!("Array::at records a kernel access and is only valid inside a kernel"),
        }
    }

    // ---- host-side access -----------------------------------------------------

    /// Read one element in host code (the paper's parenthesis indexing).
    /// Synchronises from the device if the host copy is stale.
    pub fn get(&self, index: impl HostIndex<N>) -> T {
        assert!(
            !is_recording(),
            "host indexing (get) inside a kernel; use at()"
        );
        let i = self.linear(index.host_index());
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        st.data[i]
    }

    /// Write one element in host code; invalidates device copies.
    pub fn set(&self, index: impl HostIndex<N>, v: T) {
        assert!(
            !is_recording(),
            "host indexing (set) inside a kernel; use at().assign()"
        );
        let i = self.linear(index.host_index());
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        Arc::make_mut(&mut st.data)[i] = v;
        st.host_valid = true;
        for c in &mut st.copies {
            c.valid = false;
        }
    }

    /// Copy the whole array into a Vec (synchronising if needed). The
    /// paper's `data()` raw-pointer access, adapted to safe Rust.
    pub fn to_vec(&self) -> Vec<T> {
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        st.data.to_vec()
    }

    /// Run `f` over the host data (synchronising first). Cheaper than
    /// [`Array::to_vec`] for read-only scans.
    pub fn with_data<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        f(&st.data)
    }

    /// Borrow the host data read-only (the paper's `data()` accessor,
    /// adapted to safe Rust: a guard instead of a raw pointer).
    /// Synchronises from the device first if the host copy is stale; the
    /// array is locked while the guard lives.
    pub fn data(&self) -> MappedMutexGuard<'_, [T]> {
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        MutexGuard::map(st, |st| Arc::make_mut(&mut st.data).as_mut_slice())
    }

    /// Borrow the host data mutably. Synchronises first; when the guard is
    /// dropped, every device copy is invalidated (the runtime cannot know
    /// which elements were written).
    pub fn data_mut(&self) -> HostDataMut<'_, T> {
        let mut st = self.host_state().lock();
        self.sync_host(&mut st)
            .expect("device-to-host synchronisation failed");
        HostDataMut { guard: st }
    }

    /// Overwrite the entire contents from a slice; device copies are
    /// invalidated without being synchronised first.
    pub fn write_from(&self, data: &[T]) {
        let mut st = self.host_state().lock();
        // wait out pending async work; its outcome (even failure) is
        // irrelevant because every element is about to be replaced
        let _ = Self::settle(&mut st);
        assert_eq!(data.len(), st.data.len(), "write_from length mismatch");
        // every element is replaced: a copy still held by a pending upload
        // is left to it rather than cloned first
        match Arc::get_mut(&mut st.data) {
            Some(host) => host.copy_from_slice(data),
            None => st.data = Arc::new(data.to_vec()),
        }
        st.host_valid = true;
        for c in &mut st.copies {
            c.valid = false;
        }
    }

    /// Fill every element with `v` (host side).
    pub fn fill(&self, v: T) {
        let mut st = self.host_state().lock();
        let _ = Self::settle(&mut st);
        match Arc::get_mut(&mut st.data) {
            Some(host) => host.fill(v),
            None => st.data = Arc::new(vec![v; st.data.len()]),
        }
        st.host_valid = true;
        for c in &mut st.copies {
            c.valid = false;
        }
    }

    fn linear(&self, idx: [usize; N]) -> usize {
        let mut lin = 0usize;
        for d in 0..N {
            assert!(
                idx[d] < self.dims[d],
                "index {:?} out of bounds for dims {:?}",
                idx,
                self.dims
            );
            lin = lin * self.dims[d] + idx[d];
        }
        lin
    }

    // ---- coherence machinery (the transfer minimiser) ---------------------------

    /// Wait out every pending command touching this array.
    ///
    /// Host accesses call this before reading or replacing host data, so
    /// that data an enqueued command is still producing or consuming is
    /// never read or overwritten early. A failed writer surfaces here: the
    /// data it was supposed to produce never materialised, so the caller
    /// gets its error (the paper-level analogue of oclsim's dependency
    /// poisoning). Failed *readers* are ignored — they consumed data, they
    /// did not corrupt it.
    fn settle(st: &mut HostState<T>) -> Result<()> {
        for ev in st.readers.drain(..) {
            let _ = ev.wait();
        }
        if let Some(ev) = st.last_write.take() {
            ev.wait().map_err(Error::Backend)?;
        }
        Ok(())
    }

    /// [`Array::settle`] after a failed blocking `run`: its caller already
    /// holds the launch's error, so the array stops carrying it into later
    /// host accesses and launches.
    pub(crate) fn settle_reported(&self) {
        let _ = Self::settle(&mut self.host_state().lock());
    }

    /// Bring the host copy up to date from whichever device copy is valid.
    fn sync_host(&self, st: &mut HostState<T>) -> Result<()> {
        Self::settle(st)?;
        if st.host_valid {
            return Ok(());
        }
        let mut span = oclsim::telemetry::span("coherence", "sync_host");
        let copy = st
            .copies
            .iter()
            .find(|c| c.valid)
            .ok_or_else(|| Error::Internal("array has no valid copy anywhere".into()))?;
        let queue = &copy.on.queue;
        // the stale host copy is the read's destination; only a copy a
        // pending upload still holds has to be left behind
        let len = st.data.len();
        let stale = Arc::try_unwrap(std::mem::take(&mut st.data))
            .unwrap_or_else(|_| vec![T::default(); len]);
        let read = queue
            .enqueue_read_into_async(&copy.buffer, 0, stale, &[])
            .and_then(|handle| {
                let ev = handle.event().clone();
                Ok((handle.wait()?, ev))
            });
        let (data, ev) = match read {
            Ok(done) => done,
            Err(e) => {
                // keep the length invariant; the contents stay invalid
                st.data = Arc::new(vec![T::default(); len]);
                return Err(e.into());
            }
        };
        let bytes = len * std::mem::size_of::<T>();
        copy.on.note_d2h(bytes, ev.modeled_seconds());
        st.xfer.d2h_count += 1;
        st.xfer.d2h_bytes += bytes as u64;
        let m = oclsim::telemetry::metrics();
        m.d2h_transfers.inc();
        m.d2h_bytes.add(bytes as u64);
        m.transfer_bytes.observe(bytes as u64);
        if oclsim::telemetry::enabled() {
            span.note("action", "download");
            span.note("reason", "host copy stale, data lives on device");
            span.note("from", copy.on.device.name());
            span.note("bytes", bytes);
        }
        crate::profile::note_transfer(oclsim::TransferDir::DeviceToHost, bytes as u64, Some(&ev));
        st.data = Arc::new(data);
        st.host_valid = true;
        Ok(())
    }

    /// Index of the copy on `on`'s device, allocating its buffer (invalid)
    /// on first use.
    fn copy_on(st: &mut HostState<T>, on: &Arc<DeviceEntry>) -> Result<usize> {
        if let Some(p) = st.copies.iter().position(|c| c.on.device == on.device) {
            return Ok(p);
        }
        let bytes = st.data.len() * std::mem::size_of::<T>();
        let buffer = on.context.create_buffer(bytes, MemAccess::ReadWrite)?;
        st.copies.push(DeviceCopy {
            on: Arc::clone(on),
            buffer,
            valid: false,
        });
        Ok(st.copies.len() - 1)
    }

    /// Prepare this array for a launch on `queue`, a queue of the runtime
    /// entry `on` — the one coherence step of every eval, blocking or not.
    ///
    /// Makes sure a buffer exists on `on`'s device, enqueues any needed
    /// host→device transfer on `queue` without waiting for it, and appends
    /// to `deps` the inferred wait list the consuming command must pass to
    /// the scheduler: the array's last pending writer (read-after-write),
    /// plus — when `writes` — its pending readers (write-after-read), plus
    /// the transfer just enqueued, if any. Returns the buffer and the
    /// modeled seconds of that transfer (0.0 on a coherence hit — the case
    /// HPL's analysis exists to maximise). The only synchronous wait on this path
    /// is migration from another device, which goes through the host copy.
    pub(crate) fn prepare_async(
        &self,
        on: &Arc<DeviceEntry>,
        queue: &CommandQueue,
        reads: bool,
        writes: bool,
        deps: &mut Vec<Event>,
    ) -> Result<(Buffer, f64)> {
        let device = &on.device;
        let mut span = oclsim::telemetry::span("coherence", "prepare_async");
        let mut st = self.host_state().lock();
        if oclsim::telemetry::enabled() {
            span.note("device", device.name());
            span.note("reads", reads);
            span.note("writes", writes);
            span.note("host_valid_before", st.host_valid);
        }
        // drop resolved readers: completed ones impose no ordering, and a
        // failed reader never poisons anything. The last writer stays even
        // after it completes: a consumer's *execution* no longer needs the
        // ordering, but its modeled start must still come after the
        // producer's modeled end, and the dispatcher derives that from the
        // wait list — dropping the event here would let the timeline
        // overlap them whenever the writer happens to finish (in wall
        // time) before the consumer enqueues.
        st.readers
            .retain(|ev| !matches!(ev.status(), EventStatus::Complete | EventStatus::Error));
        if reads && !st.host_valid && !st.copies.iter().any(|c| c.valid && &c.on.device == device) {
            self.sync_host(&mut st)?;
        }
        let pos = Self::copy_on(&mut st, on)?;
        let buffer = st.copies[pos].buffer.clone();
        let ours = deps.len();
        if let Some(ev) = &st.last_write {
            deps.push(ev.clone());
        }
        if writes {
            deps.extend(st.readers.iter().cloned());
        }
        let m = oclsim::telemetry::metrics();
        let valid = st.copies[pos].valid;
        if oclsim::telemetry::enabled() {
            span.note("device_valid_before", valid);
        }
        if valid || !reads {
            // a copy the kernel merely writes is NOT marked valid here:
            // another argument slot may alias the same array and still
            // need the host data uploaded. Validity is established by
            // `record_async_use` once the launch is enqueued.
            if reads {
                m.coherence_hits.inc();
            }
            if oclsim::telemetry::enabled() {
                span.note(
                    "action",
                    if reads {
                        "none (device copy valid)"
                    } else {
                        "none (write-only, upload skipped)"
                    },
                );
            }
            return Ok((buffer, 0.0));
        }
        // host is valid here (ensured above)
        if st.copies[pos].valid {
            // tripwire: an upload past the early return above would be
            // redundant by definition; the bench gate fails on any count
            m.redundant_uploads.inc();
        }
        // the transfer overwrites the buffer, so it must itself wait for
        // the pending readers even when the kernel does not
        let mut wait = deps[ours..].to_vec();
        if !writes {
            wait.extend(st.readers.iter().cloned());
        }
        let bytes = st.data.len() * std::mem::size_of::<T>();
        let ev = queue.enqueue_write_shared_async(&buffer, 0, Arc::clone(&st.data), &wait)?;
        // the transfer's modeled cost is deterministic, so it can be
        // accounted without waiting for the event to resolve
        let transfer_seconds = oclsim::timing::model_transfer(device.profile(), bytes);
        on.note_h2d(bytes, transfer_seconds);
        st.xfer.h2d_count += 1;
        st.xfer.h2d_bytes += bytes as u64;
        m.h2d_transfers.inc();
        m.h2d_bytes.add(bytes as u64);
        m.transfer_bytes.observe(bytes as u64);
        if oclsim::telemetry::enabled() {
            span.note("action", "upload");
            span.note("reason", "device copy stale and kernel reads it");
            span.note("bytes", bytes);
        }
        crate::profile::note_transfer(oclsim::TransferDir::HostToDevice, bytes as u64, Some(&ev));
        st.copies[pos].valid = true;
        deps.push(ev);
        Ok((buffer, transfer_seconds))
    }

    /// Record an enqueued launch that uses this array (called right after
    /// the enqueue whose wait list came from [`Array::prepare_async`]). A
    /// writer becomes the array's `last_write` — device validity flips to
    /// `device` at *enqueue* time, matching enqueue-order semantics — and
    /// clears the reader set its wait list already ordered it after; a
    /// reader just joins the set.
    pub(crate) fn record_async_use(&self, device: &Device, event: &Event, wrote: bool) {
        let mut st = self.host_state().lock();
        if wrote {
            st.host_valid = false;
            for c in &mut st.copies {
                c.valid = &c.on.device == device;
            }
            st.last_write = Some(event.clone());
            st.readers.clear();
        } else {
            st.readers.push(event.clone());
        }
    }

    /// True if the copy on `device` is present and valid (test hook for the
    /// transfer minimiser).
    pub fn device_copy_valid(&self, device: &Device) -> bool {
        let st = self.host_state().lock();
        st.copies.iter().any(|c| c.valid && &c.on.device == device)
    }

    /// True if the host copy is current (test hook).
    pub fn host_copy_valid(&self) -> bool {
        self.host_state().lock().host_valid
    }

    /// Lifetime host↔device transfer counts for this array. The assertion
    /// surface for HPL's transfer minimiser: an array read by `k` evals on
    /// one device should show `h2d_count == 1`.
    pub fn transfer_stats(&self) -> ArrayTransferStats {
        self.host_state().lock().xfer
    }
}

impl<T: HplScalar, const N: usize> std::fmt::Debug for Array<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Array<{}, {}>({:?}, {:?})",
            T::CTYPE.cl_name(),
            N,
            self.dims,
            self.mem
        )
    }
}

/// Write guard returned by [`Array::data_mut`]: dereferences to the host
/// slice and invalidates all device copies when dropped.
pub struct HostDataMut<'a, T> {
    guard: MutexGuard<'a, HostState<T>>,
}

impl<T> std::ops::Deref for HostDataMut<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.guard.data
    }
}

impl<T: Clone> std::ops::DerefMut for HostDataMut<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.guard.data).as_mut_slice()
    }
}

impl<T> Drop for HostDataMut<'_, T> {
    fn drop(&mut self) {
        self.guard.host_valid = true;
        for c in &mut self.guard.copies {
            c.valid = false;
        }
    }
}

/// Kernel index argument(s) for an `N`-dimensional array.
pub trait KernelIndex<const N: usize> {
    /// The recorded index expressions, outermost dimension first.
    fn index_nodes(self) -> Vec<Arc<Node>>;
}

impl<I: IntoExpr<i32>> KernelIndex<1> for I {
    fn index_nodes(self) -> Vec<Arc<Node>> {
        vec![self.into_expr().node()]
    }
}

impl<I: IntoExpr<i32>, J: IntoExpr<i32>> KernelIndex<2> for (I, J) {
    fn index_nodes(self) -> Vec<Arc<Node>> {
        vec![self.0.into_expr().node(), self.1.into_expr().node()]
    }
}

impl<I: IntoExpr<i32>, J: IntoExpr<i32>, K: IntoExpr<i32>> KernelIndex<3> for (I, J, K) {
    fn index_nodes(self) -> Vec<Arc<Node>> {
        vec![
            self.0.into_expr().node(),
            self.1.into_expr().node(),
            self.2.into_expr().node(),
        ]
    }
}

/// Host index argument(s) for an `N`-dimensional array.
pub trait HostIndex<const N: usize> {
    /// The concrete index, outermost dimension first.
    fn host_index(self) -> [usize; N];
}

impl HostIndex<1> for usize {
    fn host_index(self) -> [usize; 1] {
        [self]
    }
}

impl HostIndex<2> for (usize, usize) {
    fn host_index(self) -> [usize; 2] {
        [self.0, self.1]
    }
}

impl HostIndex<3> for (usize, usize, usize) {
    fn host_index(self) -> [usize; 3] {
        [self.0, self.1, self.2]
    }
}

impl<const N: usize> HostIndex<N> for [usize; N] {
    fn host_index(self) -> [usize; N] {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::capture;
    use crate::predef::idx;

    #[test]
    fn host_array_get_set() {
        let a = Array::<f32, 1>::new([10]);
        assert_eq!(a.len(), 10);
        assert_eq!(a.get(3), 0.0);
        a.set(3, 1.5);
        assert_eq!(a.get(3), 1.5);
        assert_eq!(a.to_vec()[3], 1.5);
    }

    #[test]
    fn two_dimensional_row_major() {
        let a = Array::<i32, 2>::from_vec([2, 3], vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.get((0, 0)), 1);
        assert_eq!(a.get((0, 2)), 3);
        assert_eq!(a.get((1, 0)), 4);
        assert_eq!(a.get([1, 2]), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn host_bounds_checked() {
        let a = Array::<i32, 1>::new([4]);
        let _ = a.get(4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Array::<i32, 1>::new([0]);
    }

    #[test]
    fn from_vec_checks_length() {
        let r = std::panic::catch_unwind(|| Array::<i32, 1>::from_vec([3], vec![1, 2]));
        assert!(r.is_err());
    }

    #[test]
    fn clones_share_storage() {
        let a = Array::<i32, 1>::new([4]);
        let b = a.clone();
        b.set(0, 9);
        assert_eq!(a.get(0), 9);
    }

    #[test]
    fn fill_and_write_from() {
        let a = Array::<f64, 1>::new([4]);
        a.fill(2.0);
        assert_eq!(a.to_vec(), vec![2.0; 4]);
        a.write_from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn kernel_local_array_records_decl() {
        let k = capture("t".into(), || {
            let s = Array::<f32, 1>::local([32]);
            s.at(idx()).assign(1.0f32);
            let p = Array::<f32, 1>::new([8]); // private inside kernel
            p.at(0).assign(2.0f32);
        });
        use crate::ir::HStmtKind;
        assert!(
            matches!(
                k.body[0].kind,
                HStmtKind::DeclArray {
                    mem: MemFlag::Local,
                    ..
                }
            ),
            "{:?}",
            k.body[0]
        );
        assert!(matches!(
            k.body[2].kind,
            HStmtKind::DeclArray {
                mem: MemFlag::Private,
                ..
            }
        ));
        assert!(
            k.body[0].site.is_some_and(|s| s.file.ends_with("array.rs")),
            "Array::local records the declaration site: {:?}",
            k.body[0].site
        );
    }

    #[test]
    #[should_panic(expected = "only valid inside a kernel")]
    fn local_on_host_panics() {
        let _ = Array::<f32, 1>::local([8]);
    }

    #[test]
    #[should_panic(expected = "only valid inside a kernel")]
    fn at_on_host_panics() {
        let a = Array::<f32, 1>::new([8]);
        let _ = a.at(0);
    }

    #[test]
    #[should_panic(expected = "neither a kernel argument nor declared")]
    fn unregistered_array_in_kernel_panics() {
        let a = Array::<f32, 1>::new([8]);
        capture("t".into(), || {
            let _ = a.at(0);
        });
    }

    #[test]
    fn dropping_an_array_releases_device_memory_accounting() {
        let rt = crate::Runtime::new(crate::Config::from_env());
        let on = rt.entry(&rt.default_device());
        assert_eq!(on.context.allocated_bytes(), 0);
        {
            let a = Array::<f64, 1>::from_vec([1024], vec![1.0; 1024]);
            a.prepare_async(&on, &on.queue, true, false, &mut Vec::new())
                .unwrap();
            assert_eq!(on.context.allocated_bytes(), 8 * 1024);
        }
        assert_eq!(
            on.context.allocated_bytes(),
            0,
            "allocation must be returned on drop"
        );
    }

    #[test]
    fn data_guard_reads_and_locks() {
        let a = Array::<i32, 1>::from_vec([4], vec![1, 2, 3, 4]);
        {
            let d = a.data();
            assert_eq!(&*d, &[1, 2, 3, 4]);
        }
        // lock released: normal access works again
        assert_eq!(a.get(0), 1);
    }

    #[test]
    fn data_mut_invalidates_device_copies_on_drop() {
        let a = Array::<i32, 1>::from_vec([4], vec![1, 2, 3, 4]);
        {
            let mut d = a.data_mut();
            d[2] = 99;
        }
        assert_eq!(a.get(2), 99);
        assert!(a.host_copy_valid());
    }

    #[test]
    fn with_data_scans_without_copy() {
        let a = Array::<i32, 1>::from_vec([5], vec![1, 2, 3, 4, 5]);
        let sum = a.with_data(|d| d.iter().sum::<i32>());
        assert_eq!(sum, 15);
    }
}
