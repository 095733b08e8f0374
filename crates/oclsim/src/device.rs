//! Device profiles: the simulated counterparts of physical accelerators.
//!
//! A [`DeviceProfile`] captures everything the timing model and the
//! capability checks need to know about a device: parallel width, clock,
//! memory sizes and bandwidths, and feature flags. The three presets mirror
//! the hardware of the paper's evaluation (§V): a Tesla C2050/C2070-class
//! GPU, a Quadro FX 380-class GPU (no fp64 — which is why the paper excludes
//! EP from the portability experiment), and the Xeon host CPU.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::exec::config::ExecConfig;
use crate::exec::pool::WorkerPool;
use crate::prof::cache::CacheConfig;
use crate::sched::DeviceSched;

/// Broad device classification, mirroring `CL_DEVICE_TYPE_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// A general-purpose CPU device.
    Cpu,
    /// A GPU-style wide-SIMT accelerator.
    Gpu,
    /// Any other accelerator (Cell SPE-like etc.).
    Accelerator,
}

/// Static description of a simulated device.
///
/// All figures feed the analytic timing model in [`crate::timing`]; none of
/// them affect functional results.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name reported by `Device::name()`.
    pub name: String,
    /// Vendor string.
    pub vendor: String,
    /// Device classification.
    pub device_type: DeviceType,
    /// Number of compute units (SMs on a GPU, cores on a CPU).
    pub compute_units: u32,
    /// SIMT width of one compute unit: lanes that execute one instruction
    /// together and whose memory accesses coalesce as a unit.
    pub simd_width: u32,
    /// Core clock in MHz.
    pub clock_mhz: u32,
    /// Global memory capacity in bytes.
    pub global_mem_bytes: u64,
    /// Per-group scratchpad ("local") memory in bytes.
    pub local_mem_bytes: u64,
    /// Constant memory capacity in bytes.
    pub constant_mem_bytes: u64,
    /// Maximum work-items in one work-group.
    pub max_work_group_size: usize,
    /// Whether the device supports double-precision arithmetic
    /// (`cl_khr_fp64`). The Quadro FX 380 of the paper does not.
    pub fp64: bool,
    /// Peak global-memory bandwidth in GB/s.
    pub global_bandwidth_gbps: f64,
    /// Host-device interconnect bandwidth in GB/s (PCIe for the GPUs).
    pub transfer_bandwidth_gbps: f64,
    /// Coalescing segment size in bytes: accesses by one SIMD batch that
    /// fall in the same segment cost one memory transaction.
    pub mem_segment_bytes: u32,
    /// Fraction of peak instruction issue actually achieved (models
    /// scheduling/dependency stalls without simulating them).
    pub issue_efficiency: f64,
    /// Throughput cost multiplier for double precision relative to single
    /// (2 on Fermi Tesla, effectively infinite when `fp64` is false).
    pub fp64_cost_factor: f64,
    /// Optional cache-hierarchy capability: profiles that declare one get
    /// simulated L1/L2 hit/miss counters and cache-aware modeled memory
    /// time; profiles without it keep the roofline-only numbers
    /// bit-for-bit (see [`crate::prof::cache`]).
    pub cache: Option<CacheConfig>,
}

impl DeviceProfile {
    /// A Tesla C2050/C2070-class GPU: the paper's primary platform.
    /// 448 thread processors = 14 compute units x 32-wide SIMT at 1.15 GHz,
    /// 6 GB of DRAM (C2070), ~144 GB/s of memory bandwidth.
    pub fn tesla_c2050() -> Self {
        DeviceProfile {
            name: "SimGPU Tesla C2050/C2070".into(),
            vendor: "oclsim".into(),
            device_type: DeviceType::Gpu,
            compute_units: 14,
            simd_width: 32,
            clock_mhz: 1150,
            global_mem_bytes: 6 << 30,
            local_mem_bytes: 48 << 10,
            constant_mem_bytes: 64 << 10,
            max_work_group_size: 1024,
            fp64: true,
            global_bandwidth_gbps: 144.0,
            transfer_bandwidth_gbps: 6.0,
            mem_segment_bytes: 128,
            issue_efficiency: 0.85,
            fp64_cost_factor: 2.0,
            cache: None,
        }
    }

    /// A Quadro FX 380-class GPU: the paper's portability platform (§V-C).
    /// 16 thread processors = 2 compute units x 8-wide SIMT at 700 MHz,
    /// 256 MB of DRAM, no double-precision support.
    pub fn quadro_fx380() -> Self {
        DeviceProfile {
            name: "SimGPU Quadro FX 380".into(),
            vendor: "oclsim".into(),
            device_type: DeviceType::Gpu,
            compute_units: 2,
            simd_width: 8,
            clock_mhz: 700,
            global_mem_bytes: 256 << 20,
            local_mem_bytes: 16 << 10,
            constant_mem_bytes: 64 << 10,
            max_work_group_size: 512,
            fp64: false,
            global_bandwidth_gbps: 22.4,
            transfer_bandwidth_gbps: 4.0,
            mem_segment_bytes: 128,
            issue_efficiency: 0.8,
            fp64_cost_factor: f64::INFINITY,
            cache: None,
        }
    }

    /// The host CPU of the paper's testbed: 4 x dual-core Intel Xeon at
    /// 2.13 GHz. Used as an OpenCL CPU device (8 cores).
    pub fn xeon_host() -> Self {
        DeviceProfile {
            name: "SimCPU Xeon E5606-class".into(),
            vendor: "oclsim".into(),
            device_type: DeviceType::Cpu,
            compute_units: 8,
            simd_width: 1,
            clock_mhz: 2130,
            global_mem_bytes: 16 << 30,
            local_mem_bytes: 32 << 10,
            constant_mem_bytes: 128 << 10,
            max_work_group_size: 1024,
            fp64: true,
            global_bandwidth_gbps: 10.0,
            transfer_bandwidth_gbps: 10.0,
            // CPUs have caches, not coalescing hardware; a 64-byte cache
            // line plays the role of the transaction segment.
            mem_segment_bytes: 64,
            issue_efficiency: 0.9,
            fp64_cost_factor: 1.0,
            cache: None,
        }
    }

    /// A single core of [`DeviceProfile::xeon_host`]: the "serial execution
    /// in a regular CPU" baseline of Figures 6 and 7.
    pub fn serial_cpu() -> Self {
        let mut p = Self::xeon_host();
        p.name = "SimCPU Xeon (1 core, serial baseline)".into();
        p.compute_units = 1;
        p
    }

    /// [`DeviceProfile::tesla_c2050`] with its Fermi cache hierarchy
    /// declared: 48 KB 6-way L1 (the 48/16 shared-memory split), 768 KB
    /// 8-way L2, 128-byte lines. Otherwise identical to the plain Tesla,
    /// so kernel behaviour and compute timing match it exactly.
    pub fn tesla_c2050_cached() -> Self {
        let mut p = Self::tesla_c2050();
        p.name = "SimGPU Tesla C2050 (48K L1/768K L2)".into();
        p.cache = Some(CacheConfig {
            line_bytes: 128,
            l1_bytes: 48 << 10,
            l1_ways: 6,
            l2_bytes: 768 << 10,
            l2_ways: 8,
            l1_gbps: 1030.0,
            l2_gbps: 330.0,
        });
        p
    }

    /// The cache-differing sibling of [`DeviceProfile::tesla_c2050_cached`]
    /// for the Fig. 9 portability axis: same device, configured for the
    /// 16/48 split (16 KB 4-way L1). Locality-sensitive kernels model
    /// slower here; everything else is identical.
    pub fn tesla_c2050_small_l1() -> Self {
        let mut p = Self::tesla_c2050_cached();
        p.name = "SimGPU Tesla C2050 (16K L1/768K L2)".into();
        let cc = p.cache.as_mut().expect("cached preset");
        cc.l1_bytes = 16 << 10;
        cc.l1_ways = 4;
        p
    }

    /// Peak scalar operation throughput in operations per second.
    pub fn peak_ops_per_sec(&self) -> f64 {
        self.compute_units as f64
            * self.simd_width as f64
            * self.clock_mhz as f64
            * 1.0e6
            * self.issue_efficiency
    }
}

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// A handle to a simulated device. Cheap to clone; identity-comparable.
#[derive(Debug, Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

struct DeviceInner {
    id: u64,
    profile: DeviceProfile,
    /// Engine and claimer count of this device's launches.
    exec: ExecConfig,
    /// Lazily created command scheduler + modeled resource timeline,
    /// shared by every queue bound to this device.
    sched: OnceLock<Arc<DeviceSched>>,
    /// Lazily created worker threads that help this device's launches
    /// claim work-groups; they exit when the device is dropped.
    pool: OnceLock<WorkerPool>,
}

impl std::fmt::Debug for DeviceInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceInner")
            .field("id", &self.id)
            .field("profile", &self.profile)
            .field("exec", &self.exec)
            .finish()
    }
}

impl Device {
    /// Create a device from a profile, executing as the environment says
    /// ([`ExecConfig::from_env`]). Usually obtained from
    /// [`crate::platform::Platform`] instead.
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_exec(profile, ExecConfig::from_env())
    }

    /// Create a device whose launches run on `exec`'s engine with `exec`'s
    /// claimer count.
    pub fn with_exec(profile: DeviceProfile, exec: ExecConfig) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
                profile,
                exec,
                sched: OnceLock::new(),
                pool: OnceLock::new(),
            }),
        }
    }

    /// The device's command scheduler (created on first use).
    pub(crate) fn sched(&self) -> &Arc<DeviceSched> {
        self.inner
            .sched
            .get_or_init(|| DeviceSched::new(self.inner.profile.compute_units as usize))
    }

    /// The device's worker pool (created on first use; threads on demand).
    pub(crate) fn pool(&self) -> &WorkerPool {
        self.inner
            .pool
            .get_or_init(|| WorkerPool::new(format!("oclsim-dev{}-w", self.inner.id)))
    }

    /// How this device executes launches.
    pub fn exec(&self) -> ExecConfig {
        self.inner.exec
    }

    /// Reset the modeled resource timeline: every compute unit and the DMA
    /// engine become free at instant 0.0 again. Benchmarks call this
    /// before a pipeline so the makespan of its events can be read off the
    /// profiling stamps in isolation. Only affects *modeled* stamps of
    /// commands enqueued afterwards; never functional results.
    pub fn reset_timeline(&self) {
        self.sched().reset_timeline();
    }

    /// The latest modeled instant any engine of this device is reserved
    /// until — the makespan of everything scheduled since the last
    /// [`Device::reset_timeline`].
    pub fn timeline_horizon(&self) -> f64 {
        self.sched().timeline_horizon()
    }

    /// Unique id of this device instance.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The static profile of the device.
    pub fn profile(&self) -> &DeviceProfile {
        &self.inner.profile
    }

    /// Marketing name.
    pub fn name(&self) -> &str {
        &self.inner.profile.name
    }

    /// Device classification.
    pub fn device_type(&self) -> DeviceType {
        self.inner.profile.device_type
    }

    /// Whether the device supports double precision.
    pub fn supports_fp64(&self) -> bool {
        self.inner.profile.fp64
    }
}

impl PartialEq for Device {
    fn eq(&self, other: &Self) -> bool {
        self.inner.id == other.inner.id
    }
}
impl Eq for Device {}

impl std::hash::Hash for Device {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.id.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_matches_paper_description() {
        let p = DeviceProfile::tesla_c2050();
        // "448 thread processors with a clock rate of 1.15 GHz and 6GB of DRAM"
        assert_eq!(p.compute_units * p.simd_width, 448);
        assert_eq!(p.clock_mhz, 1150);
        assert_eq!(p.global_mem_bytes, 6 << 30);
        assert!(p.fp64);
    }

    #[test]
    fn quadro_matches_paper_description() {
        let p = DeviceProfile::quadro_fx380();
        // "16 thread processors with a clock rate of 700 MHZ and 256 MB of DRAM"
        assert_eq!(p.compute_units * p.simd_width, 16);
        assert_eq!(p.clock_mhz, 700);
        assert_eq!(p.global_mem_bytes, 256 << 20);
        assert!(!p.fp64, "paper: EP excluded because no double support");
    }

    #[test]
    fn serial_cpu_is_one_core() {
        let p = DeviceProfile::serial_cpu();
        assert_eq!(p.compute_units, 1);
        assert_eq!(p.simd_width, 1);
    }

    #[test]
    fn peak_throughput_ordering() {
        let tesla = DeviceProfile::tesla_c2050().peak_ops_per_sec();
        let quadro = DeviceProfile::quadro_fx380().peak_ops_per_sec();
        let serial = DeviceProfile::serial_cpu().peak_ops_per_sec();
        assert!(tesla > quadro && quadro > serial);
        // Tesla vs one Xeon core is a few-hundred-fold gap: the raw material
        // of the paper's 257x EP speedup.
        assert!(tesla / serial > 100.0);
    }

    #[test]
    fn cached_presets_differ_only_in_the_cache_capability() {
        let plain = DeviceProfile::tesla_c2050();
        assert!(plain.cache.is_none(), "legacy profiles stay cache-less");
        let mut cached = DeviceProfile::tesla_c2050_cached();
        let cc = cached.cache.take().unwrap();
        assert_eq!(cc.l1_sets(), 64); // 48K / (6 ways x 128B)
        assert_eq!(cc.l2_sets(), 768); // 768K / (8 ways x 128B)
        cached.name = plain.name.clone();
        assert_eq!(cached, plain, "everything but name+cache matches");
        let small = DeviceProfile::tesla_c2050_small_l1();
        let scc = small.cache.unwrap();
        assert_eq!(scc.l1_sets(), 32); // 16K / (4 ways x 128B)
        assert_eq!(scc.l2_bytes, cc.l2_bytes);
    }

    #[test]
    fn device_identity() {
        let a = Device::new(DeviceProfile::tesla_c2050());
        let b = Device::new(DeviceProfile::tesla_c2050());
        assert_ne!(a, b, "distinct instances even with equal profiles");
        let c = a.clone();
        assert_eq!(a, c);
        assert_eq!(a.id(), c.id());
    }
}
