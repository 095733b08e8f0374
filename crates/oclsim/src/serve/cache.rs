//! The shared kernel-binary cache: one pool of built [`Program`]s that
//! every tenant of a service draws from, with capacity accounting, LRU
//! eviction, and admission control.
//!
//! The cache is keyed by `(source hash, build options, device)` — the
//! same kernel text submitted by two different tenants for the same
//! device resolves to **one** resident binary, which is what makes a
//! multi-tenant soak cheap: the first tenant pays the compile, everyone
//! else hits. Builds are *single-flight*: a miss compiles while holding
//! the cache lock, so concurrent identical requests can never race into
//! duplicate builds, and the hit/miss totals for a given workload are
//! identical regardless of tenant interleaving or `OCLSIM_THREADS`.
//!
//! Capacity is accounted in estimated binary bytes
//! ([`Program::binary_size_estimate`], a deterministic figure derived
//! from the typed IR). When an insert would overflow the configured
//! capacity, least-recently-used binaries are evicted until it fits; a
//! binary that could never fit is rejected at admission with
//! [`Error::AdmissionRejected`] wrapping the underlying
//! [`Error::OutOfResources`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::context::Context;
use crate::device::Device;
use crate::error::{Error, Result};
use crate::lock;
use crate::program::Program;
use crate::telemetry::metrics;

/// FNV-1a over the source text: cheap, stable, and good enough to key a
/// cache whose entries also pin the full source via the [`Program`].
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    source_hash: u64,
    options: String,
    device: u64,
}

struct Entry {
    program: Program,
    bytes: u64,
    /// LRU stamp: the cache tick at the entry's last hit or insert.
    stamp: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    resident_bytes: u64,
    tick: u64,
    evictions: u64,
}

/// Result of a [`BinaryCache::get_or_build`] lookup.
pub struct CacheOutcome {
    /// The resident (possibly freshly built) program.
    pub program: Program,
    /// Whether the lookup was served without compiling.
    pub hit: bool,
    /// Wall-clock seconds spent compiling (0.0 on a hit).
    pub build_seconds: f64,
}

impl std::fmt::Debug for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheOutcome")
            .field("hit", &self.hit)
            .field("build_seconds", &self.build_seconds)
            .finish_non_exhaustive()
    }
}

/// A shared, capacity-bounded pool of built kernel binaries (see the
/// module docs). Clones share one pool: a service built over a clone of
/// [`global_binary_cache`] builds into and clears the global cache.
#[derive(Clone)]
pub struct BinaryCache {
    capacity_bytes: u64,
    inner: Arc<Mutex<Inner>>,
}

impl BinaryCache {
    /// Create a cache that holds at most `capacity_bytes` of estimated
    /// binary bytes.
    pub fn new(capacity_bytes: u64) -> BinaryCache {
        BinaryCache {
            capacity_bytes,
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
                evictions: 0,
            })),
        }
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Estimated bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        lock(&self.inner).resident_bytes
    }

    /// Number of resident binaries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache holds no binaries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Binaries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        lock(&self.inner).evictions
    }

    /// How many distinct devices hold a resident binary for `source`
    /// (any build options).
    pub fn devices_built(&self, source: &str) -> usize {
        let hash = fnv1a(source.as_bytes());
        let inner = lock(&self.inner);
        let mut devices: Vec<u64> = inner
            .map
            .keys()
            .filter(|k| k.source_hash == hash)
            .map(|k| k.device)
            .collect();
        devices.sort_unstable();
        devices.dedup();
        devices.len()
    }

    /// Drop every resident binary (counted as evictions).
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        let dropped = inner.map.len() as u64;
        inner.map.clear();
        inner.resident_bytes = 0;
        inner.evictions += dropped;
        let m = metrics();
        m.serve_cache_evictions.add(dropped);
        m.serve_cache_bytes.set(0);
    }

    /// Look up (or build) the binary for `source` compiled with `options`
    /// for `device`, attributing the hit/miss to `tenant` when given.
    ///
    /// `context` is only consulted on a miss, to host the fresh build —
    /// callers on different contexts share binaries as long as they name
    /// the same device.
    pub fn get_or_build(
        &self,
        context: &Context,
        device: &Device,
        source: &str,
        options: &str,
        tenant: Option<&str>,
    ) -> Result<CacheOutcome> {
        self.get_or_build_admitted(context, device, source, options, tenant, || Ok(()))
    }

    /// Like [`BinaryCache::get_or_build`], but runs `admit_build` before
    /// compiling on a miss — the hook where session layers charge
    /// per-tenant compile quotas. Hits never invoke the hook: a kernel
    /// already resident in the shared cache is free for every tenant.
    pub fn get_or_build_admitted(
        &self,
        context: &Context,
        device: &Device,
        source: &str,
        options: &str,
        tenant: Option<&str>,
        admit_build: impl FnOnce() -> Result<()>,
    ) -> Result<CacheOutcome> {
        let key = Key {
            source_hash: fnv1a(source.as_bytes()),
            options: options.to_string(),
            device: device.id(),
        };
        let m = metrics();
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.stamp = tick;
            let program = entry.program.clone();
            m.serve_cache_hits.inc();
            if let Some(t) = tenant {
                m.note_tenant(t, |s| s.cache_hits += 1);
            }
            return Ok(CacheOutcome {
                program,
                hit: true,
                build_seconds: 0.0,
            });
        }

        // Miss: single-flight build under the cache lock.
        admit_build()?;
        m.serve_cache_misses.inc();
        if let Some(t) = tenant {
            m.note_tenant(t, |s| s.cache_misses += 1);
        }
        let started = std::time::Instant::now();
        let program = Program::from_source(context, source);
        program.build(options)?;
        let build_seconds = started.elapsed().as_secs_f64();
        let bytes = program.binary_size_estimate()?;
        if bytes > self.capacity_bytes {
            m.serve_rejections.inc();
            if let Some(t) = tenant {
                m.note_tenant(t, |s| s.rejections += 1);
            }
            return Err(Error::AdmissionRejected {
                what: format!("kernel binary of {bytes} bytes"),
                cause: Box::new(Error::OutOfResources(format!(
                    "binary needs {bytes} bytes but the shared cache capacity is {} bytes",
                    self.capacity_bytes
                ))),
            });
        }
        while inner.resident_bytes + bytes > self.capacity_bytes {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("resident_bytes > 0 implies a resident entry");
            let evicted = inner.map.remove(&victim).expect("victim is resident");
            inner.resident_bytes -= evicted.bytes;
            inner.evictions += 1;
            m.serve_cache_evictions.inc();
        }
        inner.resident_bytes += bytes;
        inner.map.insert(
            key,
            Entry {
                program: program.clone(),
                bytes,
                stamp: tick,
            },
        );
        m.serve_cache_bytes.set(inner.resident_bytes as i64);
        Ok(CacheOutcome {
            program,
            hit: false,
            build_seconds,
        })
    }
}

/// The process-wide binary cache: the cache of the service the default
/// HPL runtime owns (`hpl::runtime()`), so clearing it makes that
/// runtime's next eval compile again. Generously sized: single-client
/// workloads should never see capacity eviction, only explicit clears.
pub fn global_binary_cache() -> &'static BinaryCache {
    static GLOBAL: OnceLock<BinaryCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cache = BinaryCache::new(1 << 32);
        metrics().serve_cache_capacity_bytes.set(1 << 32);
        cache
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemAccess;
    use crate::device::DeviceProfile;
    use crate::queue::CommandQueue;

    fn rig() -> (Device, Context) {
        let d = Device::new(DeviceProfile::tesla_c2050());
        let ctx = Context::new(std::slice::from_ref(&d)).unwrap();
        (d, ctx)
    }

    fn fill_src(tag: u32) -> String {
        format!(
            "__kernel void fill{tag}(__global float* out) {{ out[get_global_id(0)] = {tag}.0f; }}"
        )
    }

    #[test]
    fn identical_sources_share_one_entry_across_tenants() {
        let (d, ctx) = rig();
        let cache = BinaryCache::new(1 << 20);
        let src = fill_src(1);
        let first = cache
            .get_or_build(&ctx, &d, &src, "", Some("alice"))
            .unwrap();
        let second = cache.get_or_build(&ctx, &d, &src, "", Some("bob")).unwrap();
        assert!(!first.hit);
        assert!(second.hit);
        assert_eq!(second.build_seconds, 0.0);
        assert_eq!(cache.len(), 1);
        // the shared program is usable by the second tenant
        let q = CommandQueue::new(&ctx, &d).unwrap();
        let k = second.program.kernel("fill1").unwrap();
        let buf = ctx.create_buffer(4 * 8, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        q.enqueue_ndrange(&k, &[8], None).unwrap();
        assert_eq!(buf.read_vec::<f32>(0, 8).unwrap(), vec![1.0; 8]);
    }

    #[test]
    fn distinct_build_options_are_distinct_entries() {
        let (d, ctx) = rig();
        let cache = BinaryCache::new(1 << 20);
        let src = "__kernel void f(__global float* out) { out[get_global_id(0)] = (float)V; }";
        let a = cache.get_or_build(&ctx, &d, src, "-DV=1", None).unwrap();
        let b = cache.get_or_build(&ctx, &d, src, "-DV=2", None).unwrap();
        assert!(!a.hit && !b.hit);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_under_capacity_pressure() {
        let (d, ctx) = rig();
        // size the capacity for roughly two of these kernels
        let one = {
            let probe = BinaryCache::new(u64::MAX);
            let out = probe.get_or_build(&ctx, &ctx.devices()[0], &fill_src(0), "", None);
            out.unwrap().program.binary_size_estimate().unwrap()
        };
        let cache = BinaryCache::new(2 * one + one / 2);
        cache
            .get_or_build(&ctx, &d, &fill_src(1), "", None)
            .unwrap();
        cache
            .get_or_build(&ctx, &d, &fill_src(2), "", None)
            .unwrap();
        assert_eq!(cache.len(), 2);
        // touch kernel 1 so kernel 2 becomes the LRU victim
        assert!(
            cache
                .get_or_build(&ctx, &d, &fill_src(1), "", None)
                .unwrap()
                .hit
        );
        cache
            .get_or_build(&ctx, &d, &fill_src(3), "", None)
            .unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(
            cache
                .get_or_build(&ctx, &d, &fill_src(1), "", None)
                .unwrap()
                .hit
        );
        assert!(
            !cache
                .get_or_build(&ctx, &d, &fill_src(2), "", None)
                .unwrap()
                .hit,
            "kernel 2 should have been evicted"
        );
    }

    #[test]
    fn oversized_binary_is_rejected_at_admission() {
        let (d, ctx) = rig();
        let cache = BinaryCache::new(16);
        let err = cache
            .get_or_build(&ctx, &d, &fill_src(9), "", Some("carol"))
            .unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
        assert!(
            matches!(err.root_cause(), Error::OutOfResources(_)),
            "{err}"
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn build_failures_propagate() {
        let (d, ctx) = rig();
        let cache = BinaryCache::new(1 << 20);
        let err = cache
            .get_or_build(&ctx, &d, "__kernel void broken(", "", None)
            .unwrap_err();
        assert!(matches!(err, Error::BuildFailure(_)), "{err}");
        assert!(cache.is_empty());
    }

    #[test]
    fn devices_built_counts_distinct_devices() {
        let d1 = Device::new(DeviceProfile::tesla_c2050());
        let d2 = Device::new(DeviceProfile::xeon_host());
        let ctx = Context::new(&[d1.clone(), d2.clone()]).unwrap();
        let cache = BinaryCache::new(1 << 20);
        let src = fill_src(7);
        cache.get_or_build(&ctx, &d1, &src, "", None).unwrap();
        assert_eq!(cache.devices_built(&src), 1);
        cache.get_or_build(&ctx, &d2, &src, "", None).unwrap();
        assert_eq!(cache.devices_built(&src), 2);
        assert_eq!(cache.devices_built("other"), 0);
    }
}
