//! Integration tests for the multi-tenant kernel service: shared binary
//! cache behaviour across sessions, quota rejection paths, and the
//! EngineCL-style partitioner's exactness and load-balance properties.

use oclsim::serve::{
    run_reference, JobArg, LaunchJob, PartitionStrategy, Service, ServiceConfig, TenantQuota,
};
use oclsim::{DeviceProfile, Error};

const SAXPY: &str = r#"
__kernel void saxpy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"#;

fn saxpy_job(n: usize) -> LaunchJob {
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    LaunchJob {
        source: SAXPY.to_string(),
        kernel: "saxpy".to_string(),
        build_options: String::new(),
        args: vec![
            JobArg::InOut(bytemuck_cast(&y)),
            JobArg::In(bytemuck_cast(&x)),
            JobArg::Scalar(2.0f32.into()),
        ],
        global: vec![n],
        local: None,
    }
}

fn bytemuck_cast(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|f| f.to_le_bytes()).collect()
}

fn floats(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[test]
fn tenants_share_one_cache_entry_and_get_correct_results() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let alice = svc.session("alice", TenantQuota::unlimited());
    let bob = svc.session("bob", TenantQuota::unlimited());
    let job = saxpy_job(64);

    let first = alice.submit(0, &job).unwrap();
    let second = bob.submit(0, &job).unwrap();
    assert!(!first.cache_hit, "first submit must compile");
    assert!(
        second.cache_hit,
        "identical kernel from another tenant must hit"
    );
    assert_eq!(svc.cache().len(), 1, "one resident binary for both tenants");

    let expect: Vec<f32> = (0..64).map(|i| 2.0 * i as f32 + (i % 7) as f32).collect();
    assert_eq!(floats(&first.outputs[0]), expect);
    assert_eq!(first.outputs, second.outputs);
    assert!(first.modeled_seconds > 0.0);
}

#[test]
fn repeated_inputs_are_uploaded_once_per_tenant() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session("carol", TenantQuota::unlimited());
    let job = saxpy_job(32);
    let a = s.submit(0, &job).unwrap();
    let b = s.submit(0, &job).unwrap();
    // the pooled read-only input keeps results correct across reuse
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(s.launches(), 2);
}

#[test]
fn launch_quota_rejection_path() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session(
        "limited",
        TenantQuota {
            max_launches: Some(1),
            ..TenantQuota::default()
        },
    );
    let job = saxpy_job(16);
    s.submit(0, &job).unwrap();
    let err = s.submit(0, &job).unwrap_err();
    assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
    match err.root_cause() {
        Error::QuotaExceeded {
            tenant,
            resource,
            limit,
            used,
        } => {
            assert_eq!(tenant, "limited");
            assert_eq!(*resource, "launches");
            assert_eq!((*limit, *used), (1, 2));
        }
        other => panic!("unexpected root cause {other}"),
    }
}

#[test]
fn inflight_quota_rejection_path() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session(
        "parked",
        TenantQuota {
            max_inflight: Some(0),
            ..TenantQuota::default()
        },
    );
    let err = s.submit(0, &saxpy_job(16)).unwrap_err();
    assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
    assert!(
        matches!(
            err.root_cause(),
            Error::QuotaExceeded {
                resource: "inflight launches",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn compile_bytes_quota_rejection_path() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session(
        "cheap",
        TenantQuota {
            max_compile_bytes: Some(8),
            ..TenantQuota::default()
        },
    );
    let err = s.submit(0, &saxpy_job(16)).unwrap_err();
    assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
    assert!(
        matches!(
            err.root_cause(),
            Error::QuotaExceeded {
                resource: "compile bytes",
                ..
            }
        ),
        "{err}"
    );
    // cache hits are free: another tenant builds, then the limited tenant
    // rides the shared entry
    let rich = svc.session("rich", TenantQuota::unlimited());
    rich.submit(0, &saxpy_job(16)).unwrap();
    let outcome = s.submit(0, &saxpy_job(16)).unwrap();
    assert!(outcome.cache_hit);
}

#[test]
fn partitioned_submits_charge_the_compile_bytes_quota() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session(
        "cheap",
        TenantQuota {
            max_compile_bytes: Some(8),
            ..TenantQuota::default()
        },
    );
    let err = s
        .submit_partitioned(&saxpy_job(64), PartitionStrategy::Static)
        .unwrap_err();
    assert!(matches!(err, Error::AdmissionRejected { .. }), "{err}");
    assert!(
        matches!(
            err.root_cause(),
            Error::QuotaExceeded {
                resource: "compile bytes",
                ..
            }
        ),
        "{err}"
    );
    assert_eq!(s.quota_state().compile_bytes, 0);
    // once another tenant has built the source on every device, the
    // limited tenant's partitioned submit only hits the shared cache
    let rich = svc.session("rich", TenantQuota::unlimited());
    rich.submit_partitioned(&saxpy_job(64), PartitionStrategy::Static)
        .unwrap();
    s.submit_partitioned(&saxpy_job(64), PartitionStrategy::Static)
        .unwrap();
    assert_eq!(s.quota_state().compile_bytes, 0);
    assert_eq!(rich.quota_state().compile_bytes, 2 * SAXPY.len() as u64);
}

#[test]
fn fp64_job_on_non_fp64_device_is_a_plain_capability_error() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session("sci", TenantQuota::unlimited());
    let job = LaunchJob {
        source: "__kernel void d(__global double* out) { out[get_global_id(0)] = 1.0; }".into(),
        kernel: "d".into(),
        build_options: String::new(),
        args: vec![JobArg::Out(8 * 16)],
        global: vec![16],
        local: None,
    };
    // device 1 is the Quadro FX380 profile: no fp64
    let err = s.submit(1, &job).unwrap_err();
    assert!(matches!(err, Error::UnsupportedCapability(_)), "{err}");
}

fn two_tesla_service() -> Service {
    Service::new(ServiceConfig {
        cache_capacity_bytes: 16 << 20,
        profiles: vec![DeviceProfile::tesla_c2050(), DeviceProfile::tesla_c2050()],
        ..ServiceConfig::default()
    })
    .unwrap()
}

const SAXPY_HEAVY: &str = r#"
__kernel void saxpy_heavy(__global float* y, __global const float* x, float a) {
    size_t i = get_global_id(0);
    float acc = y[i];
    for (int k = 0; k < 64; k++) {
        acc = acc * 0.5f + a * x[i] * 0.25f;
    }
    y[i] = acc;
}
"#;

fn saxpy_heavy_job(n: usize) -> LaunchJob {
    let mut job = saxpy_job(n);
    job.source = SAXPY_HEAVY.to_string();
    job.kernel = "saxpy_heavy".to_string();
    job
}

#[test]
fn partitioned_launch_is_bit_identical_and_faster_on_two_devices() {
    let svc = two_tesla_service();
    let s = svc.session("bulk", TenantQuota::unlimited());
    // 1024 groups of 16 items, 64 flops each: the modeled work dwarfs the
    // fixed per-launch overhead, so halving the group space nearly halves
    // the modeled makespan
    let mut job = saxpy_heavy_job(16384);
    job.local = Some(vec![16]);

    let targets = svc.partition_targets(&job).unwrap();
    let reference = run_reference(&targets[0], &job).unwrap();

    for strategy in [
        PartitionStrategy::Static,
        PartitionStrategy::Dynamic { chunk_groups: 256 },
        PartitionStrategy::HGuided {
            min_chunk_groups: 128,
        },
    ] {
        let split = s.submit_partitioned(&job, strategy).unwrap();
        assert_eq!(
            split.outputs, reference.outputs,
            "{strategy:?} must be bit-identical to the single-device run"
        );
        assert!(
            split.chunks.iter().any(|c| c.device == 1),
            "{strategy:?} never used the second device"
        );
        assert!(
            split.makespan_seconds < 0.85 * reference.makespan_seconds,
            "{strategy:?}: two equal devices must beat one ({} vs reference {})",
            split.makespan_seconds,
            reference.makespan_seconds
        );
        if matches!(strategy, PartitionStrategy::Static) {
            assert!(
                split.makespan_seconds < 0.6 * reference.makespan_seconds,
                "Static: two equal devices should nearly halve the modeled \
                 makespan ({} vs reference {})",
                split.makespan_seconds,
                reference.makespan_seconds
            );
        }
    }
}

#[test]
fn conflicting_cross_group_writes_are_detected_not_merged() {
    let svc = two_tesla_service();
    let s = svc.session("clash", TenantQuota::unlimited());
    let job = LaunchJob {
        source: "__kernel void clash(__global uint* out) {
            out[0] = get_group_id(0) < 4u ? 0x11111111u : 0x22222222u;
        }"
        .into(),
        kernel: "clash".into(),
        build_options: String::new(),
        args: vec![JobArg::Out(4)],
        global: vec![8],
        local: Some(vec![1]),
    };
    let err = s
        .submit_partitioned(&job, PartitionStrategy::Static)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidOperation(_)), "{err}");
    assert!(err.to_string().contains("not exact"), "{err}");
}

#[test]
fn partition_chunk_schedule_is_deterministic() {
    let svc = Service::new(ServiceConfig::default()).unwrap();
    let s = svc.session("sched", TenantQuota::unlimited());
    let mut job = saxpy_job(2048);
    job.local = Some(vec![64]);
    let first = s
        .submit_partitioned(
            &job,
            PartitionStrategy::HGuided {
                min_chunk_groups: 1,
            },
        )
        .unwrap();
    let second = s
        .submit_partitioned(
            &job,
            PartitionStrategy::HGuided {
                min_chunk_groups: 1,
            },
        )
        .unwrap();
    // chunk boundaries and device assignment are driven by modeled clocks
    // only, so reruns agree exactly
    assert_eq!(first.chunks, second.chunks);
    assert_eq!(first.outputs, second.outputs);
    // the faster device takes the bigger share
    let tesla_groups: usize = first
        .chunks
        .iter()
        .filter(|c| c.device == 0)
        .map(|c| c.end - c.start)
        .sum();
    assert!(
        tesla_groups > first.total_groups / 2,
        "tesla took {tesla_groups} of {} groups",
        first.total_groups
    );
}
