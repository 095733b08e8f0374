//! Diagnostics quality tests: every stage of the OpenCL C compiler must
//! reject malformed input with an error that names the stage and, where
//! applicable, the offending line — what a developer debugging a kernel
//! actually needs from a build log.

use oclsim::{Context, Device, DeviceProfile, Program};

fn build_err(src: &str) -> String {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let p = Program::from_source(&ctx, src);
    let err = p.build("").expect_err("source must fail to build");
    let log = p.build_log();
    assert!(err.to_string().contains("build failure"));
    assert!(!log.is_empty(), "the build log must carry the diagnostic");
    log
}

#[test]
fn preprocessor_errors_name_the_stage_and_line() {
    let log = build_err("int a;\n#include \"x.h\"\n");
    assert!(log.contains("preprocessor"), "{log}");
    assert!(log.contains("line 2"), "{log}");

    let log = build_err("#define F(x) (x)\n");
    assert!(log.contains("function-like"), "{log}");

    let log = build_err("#ifdef A\nint x;\n");
    assert!(log.contains("unterminated"), "{log}");
}

#[test]
fn lexer_errors_name_the_character() {
    let log = build_err("__kernel void f() { int a = 1 @ 2; }");
    assert!(log.contains("lexer"), "{log}");
    assert!(log.contains('@'), "{log}");
}

#[test]
fn parser_errors_carry_line_numbers() {
    let log = build_err("__kernel void f() {\n    int a = ;\n}");
    assert!(log.contains("parser"), "{log}");
    assert!(log.contains("line 2"), "{log}");

    let log = build_err("__kernel void f(__global float* a) {\n    a[0] = 1.0f\n}");
    assert!(log.contains("parser"), "{log}");

    let log = build_err("__kernel void f() { switch (1) {} }");
    assert!(log.contains("not supported"), "{log}");
}

#[test]
fn sema_errors_explain_the_violation() {
    let log = build_err("__kernel void f() { undeclared = 1; }");
    assert!(log.contains("sema"), "{log}");
    assert!(log.contains("undeclared"), "{log}");

    let log = build_err("__kernel void f(__constant float* c) { c[0] = 1.0f; }");
    assert!(log.contains("__constant"), "{log}");

    let log = build_err("__kernel void f() { barrier(CLK_LOCAL_MEM_FENCE, 2, 3); }");
    assert!(log.contains("barrier"), "{log}");

    let log = build_err("__kernel void f(int n) { int a[n]; }");
    assert!(log.contains("compile-time constant"), "{log}");

    // returning a value from a void function is rejected
    let log = build_err("__kernel void k() { return 1; }");
    assert!(log.contains("void"), "{log}");
}

#[test]
fn array_lengths_must_be_positive_and_fit_the_address_space() {
    // built only, never launched: a launch would try the huge allocation
    let log = build_err("__kernel void f() { __local float s[-1]; }");
    assert!(log.contains("negative array length"), "{log}");

    let log = build_err("__kernel void f() { float p[-2]; p[0] = 1.0f; }");
    assert!(log.contains("negative array length"), "{log}");

    // the second allocation is laid out after the first: no overflow panic
    let log = build_err("__kernel void f() { __local float s[-1]; __local float t[4]; }");
    assert!(log.contains("negative array length"), "{log}");

    let log = build_err("__kernel void f() { __local float s[0x4000000000000000UL]; }");
    assert!(log.contains("too large"), "{log}");

    let log = build_err(
        "__kernel void f() { __local char s[0x7000000000000000UL]; __local char t[0x7000000000000000UL]; }",
    );
    assert!(log.contains("too large"), "{log}");
}

#[test]
fn rebuild_after_failure_succeeds() {
    // a program object is reusable: a failed build does not poison it
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let p = Program::from_source(&ctx, "__kernel void f(__global int* o) { o[0] = N; }");
    assert!(p.build("").is_err(), "N undefined");
    p.build("-D N=3").expect("defining N fixes the build");
    assert_eq!(p.kernel_names().unwrap(), vec!["f".to_string()]);
}

#[test]
fn build_log_of_successful_build_says_so() {
    let device = Device::new(DeviceProfile::tesla_c2050());
    let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
    let p = Program::from_source(&ctx, "__kernel void f(__global int* o) { o[0] = 1; }");
    p.build("").unwrap();
    assert!(p.build_log().contains("successful"));
}
