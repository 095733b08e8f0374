//! EngineCL-style NDRange partitioning across heterogeneous devices.
//!
//! One logical kernel launch is split into chunks of contiguous
//! *linearized work-groups* and distributed over several simulated
//! devices. The exec layer runs each chunk with the **full launch
//! geometry** (see `run_ndrange_profiled`'s `group_span`), so every
//! builtin a kernel can observe — `get_global_id`, `get_num_groups`,
//! `get_global_size`, group ids — reports the same values it would in a
//! single-device launch. Any kernel therefore partitions *bit-identically*;
//! no kernel-side offset parameter is needed.
//!
//! Three schedulers, following EngineCL:
//!
//! - [`PartitionStrategy::Static`]: one contiguous span per device,
//!   proportional to the device's modeled peak throughput;
//! - [`PartitionStrategy::Dynamic`]: fixed-size chunks handed to whichever
//!   device's *modeled* clock is least loaded — work-stealing without the
//!   wall-clock nondeterminism (ties break toward the lowest device index);
//! - [`PartitionStrategy::HGuided`]: like dynamic, but the chunk size
//!   decays with the remaining work, scaled by the device's share of total
//!   peak throughput, with a floor — big chunks early for low overhead,
//!   small chunks late for load balance.
//!
//! Because every device holds its own full-size copy of each buffer, the
//! final result is assembled by *snapshot diffing*: bytes a device changed
//! relative to the initial contents overlay the merged output; two devices
//! changing the same byte to different values is reported as
//! [`Error::InvalidOperation`] (the kernel's write sets overlap across
//! groups, so it is not safely partitionable).

use crate::buffer::MemAccess;
use crate::context::Context;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::launch::Geometry;
use crate::program::{Kernel, Program};
use crate::queue::CommandQueue;
use crate::sched::Event;
use crate::types::Value;

use super::cache::{BinaryCache, CacheOutcome};

/// One argument of a partitionable launch, as raw device bytes.
#[derive(Debug, Clone)]
pub enum JobArg {
    /// Read-only input: uploaded once per device.
    In(Vec<u8>),
    /// Write-only output of the given byte size (zero-initialized).
    Out(usize),
    /// Read-write buffer with initial contents.
    InOut(Vec<u8>),
    /// A scalar passed by value.
    Scalar(Value),
}

/// A device-agnostic description of one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchJob {
    /// OpenCL C source containing the kernel.
    pub source: String,
    /// Kernel name within the source.
    pub kernel: String,
    /// Build options (`-D` defines etc.).
    pub build_options: String,
    /// Arguments in kernel-parameter order.
    pub args: Vec<JobArg>,
    /// Global NDRange sizes (1-3 dims).
    pub global: Vec<usize>,
    /// Explicit local sizes; `None` lets the runtime choose.
    pub local: Option<Vec<usize>>,
}

/// How to split the NDRange (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// One contiguous span per device, proportional to modeled peak.
    Static,
    /// Fixed-size chunks to the least-loaded modeled clock.
    Dynamic {
        /// Work-groups per chunk.
        chunk_groups: usize,
    },
    /// Decaying chunk size proportional to the device's peak share.
    HGuided {
        /// Smallest chunk ever issued.
        min_chunk_groups: usize,
    },
}

/// One device prepared to take chunks of a partitioned launch.
pub struct PartitionTarget {
    /// The simulated device.
    pub device: Device,
    context: Context,
    queue: CommandQueue,
    program: Program,
    cache_hit: bool,
}

impl PartitionTarget {
    /// A target on an existing device/context/queue trio, running the
    /// job's program `built` for `device`.
    pub fn new(
        device: &Device,
        context: &Context,
        queue: &CommandQueue,
        built: CacheOutcome,
    ) -> PartitionTarget {
        PartitionTarget {
            device: device.clone(),
            context: context.clone(),
            queue: queue.clone(),
            program: built.program,
            cache_hit: built.hit,
        }
    }

    /// Prepare a standalone target: a fresh device of `profile` with its
    /// own context and out-of-order queue (test and experiment helper).
    pub fn standalone(
        profile: crate::device::DeviceProfile,
        cache: &BinaryCache,
        job: &LaunchJob,
        tenant: Option<&str>,
    ) -> Result<PartitionTarget> {
        let device = Device::new(profile);
        let context = Context::new(std::slice::from_ref(&device))?;
        let queue = CommandQueue::new_out_of_order(&context, &device)?;
        let built =
            cache.get_or_build(&context, &device, &job.source, &job.build_options, tenant)?;
        Ok(PartitionTarget::new(&device, &context, &queue, built))
    }

    /// Whether this target's program came out of the cache without a build.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }
}

/// Where one chunk ran and what it cost on the modeled timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRecord {
    /// Index into the target list.
    pub device: usize,
    /// First linearized work-group (inclusive).
    pub start: usize,
    /// Last linearized work-group (exclusive).
    pub end: usize,
    /// Modeled seconds the chunk occupied the device.
    pub modeled_seconds: f64,
}

/// Result of a partitioned (or reference) launch.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Final bytes of each writable (`Out`/`InOut`) argument, in argument
    /// order.
    pub outputs: Vec<Vec<u8>>,
    /// Modeled busy seconds per target.
    pub per_device_seconds: Vec<f64>,
    /// Modeled completion time: the maximum per-device busy time.
    pub makespan_seconds: f64,
    /// Every chunk in issue order.
    pub chunks: Vec<ChunkRecord>,
    /// Total work-groups in the launch.
    pub total_groups: usize,
}

/// Run `job` on a single device, unsplit — the reference every partitioned
/// run must match bit-for-bit.
pub fn run_reference(target: &PartitionTarget, job: &LaunchJob) -> Result<PartitionOutcome> {
    run_partitioned(std::slice::from_ref(target), job, PartitionStrategy::Static)
}

/// Observability and sequencing options for [`run_partitioned_with`].
#[derive(Default)]
pub struct PartitionOptions<'a> {
    /// Record the run into a request span tree: every upload becomes a
    /// `sched.dma` node and every chunk a `partition.chunk` node with an
    /// `exec.launch` child, all under the given parent node.
    pub obs: Option<(&'a mut crate::obs::Request, crate::obs::NodeId)>,
    /// Gate every chunk whose issue index is `>= .0` on event `.1` by
    /// appending it to the chunk's wait list. A host-failed gate poisons
    /// those chunks with a deterministic [`Error::DependencyFailed`]
    /// chain — the fault-injection hook the postmortem tests and demo use.
    pub gate_from_chunk: Option<(usize, Event)>,
}

/// Split `job` across `targets` according to `strategy` and merge the
/// per-device results (see the module docs for the exactness argument).
pub fn run_partitioned(
    targets: &[PartitionTarget],
    job: &LaunchJob,
    strategy: PartitionStrategy,
) -> Result<PartitionOutcome> {
    run_partitioned_with(targets, job, strategy, PartitionOptions::default())
}

/// [`run_partitioned`] with explicit [`PartitionOptions`].
pub fn run_partitioned_with(
    targets: &[PartitionTarget],
    job: &LaunchJob,
    strategy: PartitionStrategy,
    mut opts: PartitionOptions<'_>,
) -> Result<PartitionOutcome> {
    if targets.is_empty() {
        return Err(Error::InvalidOperation(
            "partitioned launch needs at least one target device".into(),
        ));
    }
    // Resolve the geometry once, against the most constrained device, so
    // every device runs the same local size and the linearized group space
    // is identical everywhere.
    let tightest = targets
        .iter()
        .min_by_key(|t| t.device.profile().max_work_group_size)
        .expect("targets is non-empty");
    let geom = Geometry::new(&job.global, job.local.as_deref(), &tightest.device)?;
    let local: Vec<usize> = geom.local[..geom.work_dim as usize].to_vec();
    let total_groups = geom.total_groups();

    // Per-target kernel instances with their own full-size buffers, all
    // initialized to identical contents.
    let mut kernels: Vec<Kernel> = Vec::with_capacity(targets.len());
    let mut buffers: Vec<Vec<Option<crate::buffer::Buffer>>> = Vec::with_capacity(targets.len());
    let mut upload_events: Vec<Vec<Event>> = Vec::with_capacity(targets.len());
    for (d, target) in targets.iter().enumerate() {
        let kernel = target.program.kernel(&job.kernel)?;
        let mut bufs: Vec<Option<crate::buffer::Buffer>> = Vec::with_capacity(job.args.len());
        let mut events: Vec<Event> = Vec::new();
        for (i, arg) in job.args.iter().enumerate() {
            match arg {
                JobArg::In(data) | JobArg::InOut(data) => {
                    let access = match arg {
                        JobArg::In(_) => MemAccess::ReadOnly,
                        _ => MemAccess::ReadWrite,
                    };
                    let buf = target.context.create_buffer(data.len(), access)?;
                    events.push(target.queue.enqueue_write_async(&buf, 0, data, &[])?);
                    if let Some((req, parent)) = opts.obs.as_mut() {
                        req.child(
                            *parent,
                            "sched.dma",
                            format!("upload arg {i} ({} bytes) -> device {d}", data.len()),
                        );
                    }
                    kernel.set_arg_buffer(i, &buf)?;
                    bufs.push(Some(buf));
                }
                JobArg::Out(len) => {
                    // fresh buffers are zero-initialized on every device
                    let buf = target.context.create_buffer(*len, MemAccess::ReadWrite)?;
                    kernel.set_arg_buffer(i, &buf)?;
                    bufs.push(Some(buf));
                }
                JobArg::Scalar(v) => {
                    kernel.set_arg_scalar(i, *v)?;
                    bufs.push(None);
                }
            }
        }
        kernels.push(kernel);
        buffers.push(bufs);
        upload_events.push(events);
    }

    // Plan and run chunks. Chunks run blocking, driven by per-device
    // *modeled* clocks, so the schedule (and thus the metrics) is a pure
    // function of the workload — never of host timing.
    let weights: Vec<f64> = targets
        .iter()
        .map(|t| t.device.profile().peak_ops_per_sec().max(1.0))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut clocks = vec![0.0f64; targets.len()];
    let mut chunks: Vec<ChunkRecord> = Vec::new();

    let mut issued = 0usize;
    let mut run_chunk = |d: usize, start: usize, end: usize, clocks: &mut Vec<f64>| -> Result<()> {
        let mut wait: Vec<Event> = upload_events[d].clone();
        let gated = match &opts.gate_from_chunk {
            Some((from, gate)) if issued >= *from => {
                wait.push(gate.clone());
                true
            }
            _ => false,
        };
        let chunk_node = opts.obs.as_mut().map(|(req, parent)| {
            req.child(
                *parent,
                "partition.chunk",
                format!(
                    "chunk {issued}: groups {start}..{end} -> device {d}{}",
                    if gated { " (gated)" } else { "" }
                ),
            )
        });
        issued += 1;
        let result = targets[d]
            .queue
            .enqueue_ndrange_groups_async(
                &kernels[d],
                &job.global,
                Some(&local),
                (start, end),
                &wait,
            )
            .and_then(|ev| ev.wait().map(|()| ev));
        let ev = match result {
            Ok(ev) => ev,
            Err(e) => {
                if let (Some((req, _)), Some(node)) = (opts.obs.as_mut(), chunk_node) {
                    req.set_error(node, &e);
                }
                return Err(e);
            }
        };
        let (seconds, instrs) = crate::obs::launch_cost(&ev);
        if let (Some((req, _)), Some(node)) = (opts.obs.as_mut(), chunk_node) {
            req.set_modeled(node, seconds);
            // the launch node is built from the event's modeled data on
            // the request thread — identical for both exec backends
            let groups = end - start;
            let detail = match instrs {
                Some(n) => format!("kernel `{}`: {groups} groups, {n} instrs", job.kernel),
                None => format!("kernel `{}`: {groups} groups", job.kernel),
            };
            let launch = req.child(node, "exec.launch", detail);
            req.set_modeled(launch, seconds);
        }
        clocks[d] += seconds;
        chunks.push(ChunkRecord {
            device: d,
            start,
            end,
            modeled_seconds: seconds,
        });
        Ok(())
    };

    match strategy {
        PartitionStrategy::Static => {
            let mut cum = 0.0f64;
            let mut prev = 0usize;
            for (d, w) in weights.iter().enumerate() {
                cum += w;
                let mut bound = ((total_groups as f64) * cum / weight_sum).round() as usize;
                if d + 1 == targets.len() {
                    bound = total_groups;
                }
                let bound = bound.clamp(prev, total_groups);
                if bound > prev {
                    run_chunk(d, prev, bound, &mut clocks)?;
                }
                prev = bound;
            }
        }
        PartitionStrategy::Dynamic { chunk_groups } => {
            let chunk = chunk_groups.max(1);
            let mut next = 0usize;
            while next < total_groups {
                let d = least_loaded(&clocks);
                let end = (next + chunk).min(total_groups);
                run_chunk(d, next, end, &mut clocks)?;
                next = end;
            }
        }
        PartitionStrategy::HGuided { min_chunk_groups } => {
            let floor = min_chunk_groups.max(1);
            let mut next = 0usize;
            while next < total_groups {
                let d = least_loaded(&clocks);
                let remaining = total_groups - next;
                let guided = ((remaining as f64) * weights[d] / (2.0 * weight_sum)).ceil() as usize;
                let end = (next + guided.max(floor)).min(total_groups);
                run_chunk(d, next, end, &mut clocks)?;
                next = end;
            }
        }
    }

    // Snapshot-diff merge of every writable argument.
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for (i, arg) in job.args.iter().enumerate() {
        let initial: Vec<u8> = match arg {
            JobArg::InOut(data) => data.clone(),
            JobArg::Out(len) => vec![0u8; *len],
            JobArg::In(_) | JobArg::Scalar(_) => continue,
        };
        let mut merged = initial.clone();
        for (d, bufs) in buffers.iter().enumerate() {
            let buf = bufs[i].as_ref().expect("writable arg has a buffer");
            let mut dev_bytes = vec![0u8; initial.len()];
            buf.read_bytes(0, &mut dev_bytes)?;
            for (pos, (&dev, &init)) in dev_bytes.iter().zip(&initial).enumerate() {
                if dev == init {
                    continue;
                }
                if merged[pos] != init && merged[pos] != dev {
                    return Err(Error::InvalidOperation(format!(
                        "partitioned launch of `{}` is not exact: devices disagree at \
                         byte {pos} of argument {i} (device {d} wrote {dev:#04x} over \
                         an earlier {:#04x})",
                        job.kernel, merged[pos]
                    )));
                }
                merged[pos] = dev;
            }
        }
        outputs.push(merged);
    }

    let makespan = clocks.iter().cloned().fold(0.0f64, f64::max);
    Ok(PartitionOutcome {
        outputs,
        per_device_seconds: clocks,
        makespan_seconds: makespan,
        chunks,
        total_groups,
    })
}

/// Index of the target with the smallest modeled clock (ties: lowest
/// index), so the chunk schedule is deterministic.
fn least_loaded(clocks: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &c) in clocks.iter().enumerate().skip(1) {
        if c < clocks[best] {
            best = i;
        }
    }
    best
}
