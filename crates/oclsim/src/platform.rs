//! Platform discovery: the entry point of the simulated OpenCL stack.
//!
//! A [`Platform`] owns a set of [`Device`]s. The default platform exposes
//! the paper's testbed: a Tesla-class GPU, a Quadro-class GPU, and the Xeon
//! host CPU, so code written against `oclsim` sees the same device zoo the
//! paper's machines provided.

use crate::device::{Device, DeviceProfile, DeviceType};
use crate::exec::config::ExecConfig;

/// A simulated OpenCL platform: a named collection of devices.
#[derive(Debug, Clone)]
pub struct Platform {
    name: String,
    devices: Vec<Device>,
}

impl Platform {
    /// The default platform, mirroring the paper's testbed (§V-B/§V-C):
    /// one Tesla C2050/C2070-class GPU, one Quadro FX 380-class GPU and the
    /// Xeon host as a CPU device, in that order, followed by the two
    /// cache-capable Tesla variants used by the cache observability stack
    /// and the extended Fig. 9 portability experiment. The paper devices
    /// come first so default selection (`default_accelerator`) and
    /// name-fragment lookups like `"tesla"` keep resolving to the plain
    /// roofline-modeled Tesla. The devices execute as the environment says
    /// ([`ExecConfig::from_env`]).
    pub fn default_platform() -> Self {
        Self::default_with(ExecConfig::from_env())
    }

    /// [`Platform::default_platform`] with every device executing as `exec`
    /// says.
    pub fn default_with(exec: ExecConfig) -> Self {
        Self::with_devices(
            "oclsim (paper testbed)",
            vec![
                DeviceProfile::tesla_c2050(),
                DeviceProfile::quadro_fx380(),
                DeviceProfile::xeon_host(),
                DeviceProfile::tesla_c2050_cached(),
                DeviceProfile::tesla_c2050_small_l1(),
            ],
            exec,
        )
    }

    /// Build a platform with a custom device list (for tests and ablations),
    /// every device executing as `exec` says.
    pub fn with_devices(
        name: impl Into<String>,
        profiles: Vec<DeviceProfile>,
        exec: ExecConfig,
    ) -> Self {
        Platform {
            name: name.into(),
            devices: profiles
                .into_iter()
                .map(|p| Device::with_exec(p, exec))
                .collect(),
        }
    }

    /// Platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All devices of the platform in discovery order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Devices of a given type.
    pub fn devices_of_type(&self, ty: DeviceType) -> Vec<Device> {
        self.devices
            .iter()
            .filter(|d| d.device_type() == ty)
            .cloned()
            .collect()
    }

    /// The device HPL selects by default: "the first device found in the
    /// system that is not a standard general-purpose CPU" (§III-C). Falls
    /// back to the first device if only CPUs exist.
    pub fn default_accelerator(&self) -> Option<Device> {
        self.devices
            .iter()
            .find(|d| d.device_type() != DeviceType::Cpu)
            .or_else(|| self.devices.first())
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_has_paper_devices() {
        let p = Platform::default_platform();
        assert_eq!(p.devices().len(), 5);
        assert_eq!(p.devices_of_type(DeviceType::Gpu).len(), 4);
        assert_eq!(p.devices_of_type(DeviceType::Cpu).len(), 1);
        // the paper's three devices first, cache-capable variants appended
        assert!(p.devices()[0].profile().cache.is_none());
        assert!(p.devices()[1].profile().cache.is_none());
        assert!(p.devices()[2].profile().cache.is_none());
        assert!(p.devices()[3].profile().cache.is_some());
        assert!(p.devices()[4].profile().cache.is_some());
    }

    #[test]
    fn default_accelerator_is_first_non_cpu() {
        let p = Platform::default_platform();
        let d = p.default_accelerator().unwrap();
        assert_eq!(d.device_type(), DeviceType::Gpu);
        assert!(d.name().contains("Tesla"));
    }

    #[test]
    fn cpu_only_platform_falls_back_to_cpu() {
        let p = Platform::with_devices(
            "cpu-only",
            vec![DeviceProfile::xeon_host()],
            ExecConfig::from_env(),
        );
        let d = p.default_accelerator().unwrap();
        assert_eq!(d.device_type(), DeviceType::Cpu);
    }

    #[test]
    fn custom_platform_preserves_order() {
        let p = Platform::with_devices(
            "two-gpus",
            vec![DeviceProfile::quadro_fx380(), DeviceProfile::tesla_c2050()],
            ExecConfig::from_env(),
        );
        let pinned = ExecConfig {
            threads: 3,
            backend: crate::Backend::Ref,
        };
        for d in Platform::default_with(pinned).devices() {
            assert_eq!(
                d.exec(),
                pinned,
                "every device carries the platform's config"
            );
        }
        assert!(p.devices()[0].name().contains("Quadro"));
        assert!(p.default_accelerator().unwrap().name().contains("Quadro"));
    }
}
