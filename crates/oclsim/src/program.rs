//! Programs and kernels: the `clCreateProgramWithSource` /
//! `clBuildProgram` / `clCreateKernel` surface of the simulated platform.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::buffer::Buffer;
use crate::clc::analysis::{self, Analysis, DiagKind, Diagnostic, Severity, Strictness};
use crate::clc::ast::AddrSpace;
use crate::clc::opt::{self, OptLevel, PassStats};
use crate::clc::{parser, pp, sema};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::exec::ir::{FuncId, FuncIr, Module, ParamKind};
use crate::exec::launch::{BoundArg, Geometry};
use crate::lock;
use crate::types::Value;

/// A program created from OpenCL C source, compiled by [`Program::build`].
#[derive(Clone)]
pub struct Program {
    inner: Arc<ProgramInner>,
}

struct ProgramInner {
    context: Context,
    source: String,
    built: Mutex<Option<Arc<Module>>>,
    build_log: Mutex<String>,
    build_time: Mutex<Duration>,
    /// Result of the kernel sanitizer pass over the last successful build.
    analysis: Mutex<Option<Arc<Analysis>>>,
    /// Accumulated findings: build-time lints plus launch-time bounds
    /// findings appended by [`Kernel::lint_launch`].
    diags: Mutex<Vec<Diagnostic>>,
    strictness: Mutex<Strictness>,
    /// Run the dynamic shadow-memory race sanitizer on launches.
    sanitize: Mutex<bool>,
    /// Mid-end optimization level applied by [`Program::build`].
    opt_level: Mutex<OptLevel>,
    /// Per-pass rewrite statistics from the last successful build.
    pass_stats: Mutex<PassStats>,
}

impl Program {
    /// Create a program from source. Compilation happens in [`Program::build`].
    pub fn from_source(context: &Context, source: impl Into<String>) -> Program {
        Program {
            inner: Arc::new(ProgramInner {
                context: context.clone(),
                source: source.into(),
                built: Mutex::new(None),
                build_log: Mutex::new(String::new()),
                build_time: Mutex::new(Duration::ZERO),
                analysis: Mutex::new(None),
                diags: Mutex::new(Vec::new()),
                strictness: Mutex::new(Strictness::default()),
                sanitize: Mutex::new(false),
                opt_level: Mutex::new(OptLevel::default()),
                pass_stats: Mutex::new(PassStats::default()),
            }),
        }
    }

    /// Compile the program. `options` supports `-D NAME[=VALUE]` (and the
    /// attached `-DNAME[=VALUE]` form); `-w` / `-Werror` set the sanitizer
    /// [`Strictness`] to [`Strictness::Off`] / [`Strictness::Deny`];
    /// `-O0`/`-O1`/`-O2` set the mid-end [`OptLevel`]; `-cl-*` flags are
    /// accepted and ignored, as a real driver would for unknown-but-valid
    /// options.
    ///
    /// After semantic analysis the kernel sanitizer runs over the AST
    /// (unless strictness is `Off`): its findings are appended to the build
    /// log and replace the previous build's in the [`Program::diagnostics`]
    /// sink, and under
    /// [`Strictness::Deny`] any error-severity finding fails the build. At
    /// `-O1` and above the sanitizer uses the IR dataflow refinement
    /// ([`analysis::analyze_tu_refined`]) and the [`opt`] pass pipeline then
    /// rewrites the module (spans preserved; see [`Program::pass_stats`]).
    pub fn build(&self, options: &str) -> Result<()> {
        let mut build_span = crate::telemetry::span("clc", "build");
        crate::telemetry::metrics().builds.inc();
        let start = std::time::Instant::now();
        let (defines, strict_opt, level_opt) = parse_build_options(options)?;
        if let Some(s) = strict_opt {
            *lock(&self.inner.strictness) = s;
        }
        if let Some(l) = level_opt {
            *lock(&self.inner.opt_level) = l;
        }
        let mut kernels = None;
        let result = self.compile(&defines, &mut kernels);
        // the clock covers every stage, the denied and failed paths too
        let elapsed = start.elapsed();
        *lock(&self.inner.build_time) = elapsed;
        let front_ok = kernels.is_some();
        let mut kernels = kernels.unwrap_or_default();
        kernels.sort();
        let label = if kernels.is_empty() {
            "<failed>".to_string()
        } else {
            kernels.join("+")
        };
        crate::telemetry::metrics().note_compile(&label, elapsed.as_secs_f64());
        if crate::telemetry::enabled() {
            build_span.note("kernels", label);
            build_span.note("source_bytes", self.inner.source.len());
            build_span.note("ok", front_ok);
        }
        result
    }

    /// The stages of [`Program::build`] after option parsing. `kernels`
    /// receives the kernel names once the front end has succeeded.
    fn compile(
        &self,
        defines: &HashMap<String, String>,
        kernels: &mut Option<Vec<String>>,
    ) -> Result<()> {
        let strictness = *lock(&self.inner.strictness);
        let opt_level = *lock(&self.inner.opt_level);
        let front = {
            let pp_span = crate::telemetry::span("clc", "preprocess");
            let preprocessed = pp::preprocess(&self.inner.source, defines);
            drop(pp_span);
            preprocessed
                .and_then(|src| parser::parse(&src))
                .and_then(|tu| sema::analyze(&tu).map(|module| (tu, module)))
        };
        let (tu, mut module) = match front {
            Ok(front) => front,
            Err(e) => {
                let log = e.to_string();
                *lock(&self.inner.build_log) = log.clone();
                return Err(Error::BuildFailure(log));
            }
        };
        *kernels = Some(module.kernels.keys().cloned().collect());
        // a rebuild replaces the previous build's findings; a failed front
        // end keeps them, since the previous binary stays launchable
        lock(&self.inner.diags).clear();
        *lock(&self.inner.analysis) = None;
        let mut log = String::from("build successful");
        let mut denied = false;
        if strictness != Strictness::Off {
            let analysis_span = crate::telemetry::span("clc", "analysis");
            // at O1+ the IR dataflow analyses sharpen the sanitizer
            // (the module here is still the unoptimized sema output)
            let analysis = if opt_level == OptLevel::O0 {
                analysis::analyze_tu(&tu)
            } else {
                analysis::analyze_tu_refined(&tu, &module)
            };
            drop(analysis_span);
            for d in &analysis.diagnostics {
                log.push('\n');
                log.push_str(&d.to_string());
                denied |= strictness == Strictness::Deny && d.severity == Severity::Error;
            }
            lock(&self.inner.diags).extend(analysis.diagnostics.iter().cloned());
            *lock(&self.inner.analysis) = Some(Arc::new(analysis));
        }
        if denied {
            let log = log.replacen(
                "build successful",
                "build failed: sanitizer findings denied (-Werror)",
                1,
            );
            *lock(&self.inner.build_log) = log.clone();
            return Err(Error::BuildFailure(log));
        }
        let mut opt_span = crate::telemetry::span("clc", "opt");
        let stats = opt::optimize(&mut module, opt_level);
        if crate::telemetry::enabled() {
            opt_span.note("level", opt_level.to_string());
            opt_span.note("rewrites", stats.total());
        }
        drop(opt_span);
        *lock(&self.inner.pass_stats) = stats;
        // plan the compiled work-group backend eagerly (memoized on
        // the module), surfacing per-kernel fallbacks as notes
        let mut plan_span = crate::telemetry::span("clc", "wg-plan-build");
        let fallbacks = crate::exec::wg::fallback_reasons(&module);
        if crate::telemetry::enabled() {
            plan_span.note("fallbacks", fallbacks.len());
        }
        drop(plan_span);
        if strictness != Strictness::Off {
            let mut diags = lock(&self.inner.diags);
            for (kernel, line, reason) in fallbacks {
                let d = Diagnostic {
                    kernel,
                    span: crate::clc::ast::Span::new(line, 1),
                    severity: Severity::Note,
                    kind: DiagKind::BackendFallback,
                    message: format!("kernel runs on the reference interpreter: {reason}"),
                };
                log.push('\n');
                log.push_str(&d.to_string());
                diags.push(d);
            }
        }
        *lock(&self.inner.built) = Some(Arc::new(module));
        *lock(&self.inner.build_log) = log;
        Ok(())
    }

    /// Set how build- and launch-time sanitizer findings are enforced.
    /// Takes effect for subsequent [`Program::build`] / launch calls.
    pub fn set_strictness(&self, strictness: Strictness) {
        *lock(&self.inner.strictness) = strictness;
    }

    /// The current sanitizer strictness.
    pub fn strictness(&self) -> Strictness {
        *lock(&self.inner.strictness)
    }

    /// The current mid-end optimization level.
    pub fn opt_level(&self) -> OptLevel {
        *lock(&self.inner.opt_level)
    }

    /// Per-pass rewrite statistics from the last successful build.
    pub fn pass_stats(&self) -> PassStats {
        *lock(&self.inner.pass_stats)
    }

    /// Enable/disable the dynamic shadow-memory race sanitizer for kernels
    /// of this program (confirms static race findings at run time; slower).
    pub fn set_sanitize(&self, on: bool) {
        *lock(&self.inner.sanitize) = on;
    }

    /// The sanitizer findings of the last build: its lints in source order
    /// plus any launch-time bounds findings recorded since.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        lock(&self.inner.diags).clone()
    }

    /// The build log of the last [`Program::build`] call.
    pub fn build_log(&self) -> String {
        lock(&self.inner.build_log).clone()
    }

    /// Wall-clock time the last build took, from option parsing through
    /// the sanitizer, the optimizer and work-group planning (the paper's
    /// "compilation of the kernel" cost, which HPL's binary cache
    /// amortises).
    pub fn build_duration(&self) -> Duration {
        *lock(&self.inner.build_time)
    }

    /// The context this program belongs to.
    pub fn context(&self) -> &Context {
        &self.inner.context
    }

    /// The original source.
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// Names of the kernels in the built program.
    pub fn kernel_names(&self) -> Result<Vec<String>> {
        let built = lock(&self.inner.built);
        let module = built
            .as_ref()
            .ok_or_else(|| Error::InvalidOperation("program has not been built".into()))?;
        let mut names: Vec<String> = module.kernels.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    /// Deterministic estimate of the built binary's size in bytes, used by
    /// the shared binary cache ([`crate::serve`]) for capacity accounting.
    /// Derived purely from the typed IR (function, slot, and statement
    /// counts), never from wall clock or allocator state, so the figure is
    /// identical across runs and `OCLSIM_THREADS` settings.
    pub fn binary_size_estimate(&self) -> Result<u64> {
        let built = lock(&self.inner.built);
        let module = built
            .as_ref()
            .ok_or_else(|| Error::InvalidOperation("program has not been built".into()))?;
        let mut bytes = 128u64;
        for func in &module.funcs {
            bytes += 96;
            bytes += 16 * func.slots.len() as u64;
            bytes += 48 * func.body.len() as u64;
            bytes += 24 * (func.local_allocs.len() + func.priv_allocs.len()) as u64;
        }
        Ok(bytes)
    }

    /// Create a kernel object for `name`.
    pub fn kernel(&self, name: &str) -> Result<Kernel> {
        let built = lock(&self.inner.built);
        let module = built
            .as_ref()
            .ok_or_else(|| Error::InvalidOperation("program has not been built".into()))?;
        let &func = module
            .kernels
            .get(name)
            .ok_or_else(|| Error::NoSuchKernel(name.to_string()))?;
        let nargs = module.funcs[func].params.len();
        Ok(Kernel {
            inner: Arc::new(KernelInner {
                module: Arc::clone(module),
                func,
                name: name.to_string(),
                args: Mutex::new(vec![None; nargs]),
                program: Arc::clone(&self.inner),
            }),
        })
    }
}

type BuildOptions = (
    HashMap<String, String>,
    Option<Strictness>,
    Option<OptLevel>,
);

fn parse_build_options(options: &str) -> Result<BuildOptions> {
    let mut defines = HashMap::new();
    let mut strictness = None;
    let mut level = None;
    let mut it = options.split_whitespace().peekable();
    while let Some(tok) = it.next() {
        if tok == "-D" {
            let Some(def) = it.next() else {
                return Err(Error::BuildFailure("-D without a macro name".into()));
            };
            insert_define(&mut defines, def);
        } else if let Some(def) = tok.strip_prefix("-D") {
            insert_define(&mut defines, def);
        } else if tok == "-w" {
            strictness = Some(Strictness::Off);
        } else if tok == "-Werror" {
            strictness = Some(Strictness::Deny);
        } else if let Some(l) = OptLevel::from_flag(tok) {
            level = Some(l);
        } else if tok.starts_with("-cl-") {
            // accepted and ignored
        } else {
            return Err(Error::BuildFailure(format!("unknown build option `{tok}`")));
        }
    }
    Ok((defines, strictness, level))
}

fn insert_define(defines: &mut HashMap<String, String>, def: &str) {
    match def.split_once('=') {
        Some((name, value)) => defines.insert(name.to_string(), value.to_string()),
        None => defines.insert(def.to_string(), "1".to_string()),
    };
}

/// A kernel object with its bound arguments, mirroring `cl_kernel`.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

struct KernelInner {
    module: Arc<Module>,
    func: FuncId,
    name: String,
    args: Mutex<Vec<Option<BoundArg>>>,
    program: Arc<ProgramInner>,
}

impl Kernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The compiled module (used by the executor).
    pub(crate) fn module(&self) -> &Arc<Module> {
        &self.inner.module
    }

    /// The kernel's IR (used by the executor and by introspection).
    pub fn func_ir(&self) -> &FuncIr {
        &self.inner.module.funcs[self.inner.func]
    }

    /// Number of declared parameters.
    pub fn num_args(&self) -> usize {
        self.func_ir().params.len()
    }

    /// Whether the kernel (transitively) reads through pointer param `i`.
    pub fn arg_is_read(&self, i: usize) -> bool {
        self.func_ir().params.get(i).is_some_and(|p| p.reads)
    }

    /// Whether the kernel (transitively) writes through pointer param `i`.
    pub fn arg_is_written(&self, i: usize) -> bool {
        self.func_ir().params.get(i).is_some_and(|p| p.writes)
    }

    /// Bind a buffer to pointer parameter `index`.
    pub fn set_arg_buffer(&self, index: usize, buffer: &Buffer) -> Result<()> {
        let space = match self.param_kind(index)? {
            ParamKind::GlobalPtr { .. } => AddrSpace::Global,
            ParamKind::ConstantPtr { .. } => AddrSpace::Constant,
            other => {
                return Err(Error::InvalidArg {
                    kernel: self.inner.name.clone(),
                    index,
                    reason: format!("parameter is {other:?}, not a buffer pointer"),
                })
            }
        };
        lock(&self.inner.args)[index] = Some(BoundArg::Buffer {
            buffer: buffer.clone(),
            space,
        });
        Ok(())
    }

    /// Bind a scalar value to parameter `index`.
    pub fn set_arg_scalar(&self, index: usize, value: impl Into<Value>) -> Result<()> {
        let value = value.into();
        match self.param_kind(index)? {
            ParamKind::Scalar(want) => {
                if want != value.scalar_type() {
                    return Err(Error::InvalidArg {
                        kernel: self.inner.name.clone(),
                        index,
                        reason: format!(
                            "scalar argument has type {}, kernel expects {}",
                            value.scalar_type().cl_name(),
                            want.cl_name()
                        ),
                    });
                }
            }
            other => {
                return Err(Error::InvalidArg {
                    kernel: self.inner.name.clone(),
                    index,
                    reason: format!("parameter is {other:?}, not a scalar"),
                })
            }
        }
        lock(&self.inner.args)[index] = Some(BoundArg::Scalar {
            bits: value.to_bits(),
            ty: value.scalar_type(),
        });
        Ok(())
    }

    fn param_kind(&self, index: usize) -> Result<ParamKind> {
        self.func_ir()
            .params
            .get(index)
            .map(|p| p.kind)
            .ok_or_else(|| Error::InvalidArg {
                kernel: self.inner.name.clone(),
                index,
                reason: format!("kernel has only {} parameters", self.num_args()),
            })
    }

    /// Whether launches of this kernel should run the dynamic race sanitizer.
    pub(crate) fn sanitize(&self) -> bool {
        *lock(&self.inner.program.sanitize)
    }

    /// Enqueue-time bounds check: evaluate the sanitizer's recorded
    /// unconditional global accesses against the actual launch geometry,
    /// bound buffers, and integer scalar arguments. Under
    /// [`Strictness::Warn`] findings are recorded and the launch proceeds
    /// (the interpreter still traps the fault); under [`Strictness::Deny`]
    /// the launch is rejected.
    pub(crate) fn lint_launch(&self, args: &[BoundArg], geom: &Geometry) -> Result<()> {
        let strictness = *lock(&self.inner.program.strictness);
        if strictness == Strictness::Off {
            return Ok(());
        }
        let analysis = lock(&self.inner.program.analysis).clone();
        let Some(analysis) = analysis else {
            return Ok(());
        };
        let Some(summary) = analysis.kernels.get(&self.inner.name) else {
            return Ok(());
        };
        let mut scalars = HashMap::new();
        for (i, a) in args.iter().enumerate() {
            if let BoundArg::Scalar { bits, ty } = a {
                if ty.is_integer() {
                    let v = if ty.is_signed() {
                        let sh = 64 - ty.size() * 8;
                        (((bits << sh) as i64) >> sh) as i128
                    } else {
                        *bits as i128
                    };
                    scalars.insert(i, v);
                }
            }
        }
        let mut findings = Vec::new();
        for acc in &summary.launch_accesses {
            let Some(BoundArg::Buffer { buffer, .. }) = args.get(acc.param) else {
                continue;
            };
            let Some((lo, hi)) = acc.element_bounds(&geom.global, &geom.local, &scalars) else {
                continue;
            };
            let len = buffer.len_bytes() as i128;
            let elem = acc.elem_size as i128;
            if lo < 0 || (hi + 1) * elem > len {
                findings.push(Diagnostic {
                    kernel: self.inner.name.clone(),
                    span: acc.span,
                    severity: Severity::Error,
                    kind: DiagKind::OutOfBounds,
                    message: format!(
                        "launch would {} elements {lo}..={hi} of `{}` \
                         ({elem} bytes each), but the bound buffer holds only {len} bytes",
                        if acc.is_write { "write" } else { "read" },
                        acc.param_name,
                    ),
                });
            }
        }
        if findings.is_empty() {
            return Ok(());
        }
        let msg = findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        lock(&self.inner.program.diags).extend(findings);
        if strictness == Strictness::Deny {
            return Err(Error::InvalidLaunch(format!(
                "rejected by the kernel sanitizer: {msg}"
            )));
        }
        Ok(())
    }

    /// Snapshot the bound arguments, failing if any is unset.
    pub(crate) fn bound_args(&self) -> Result<Vec<BoundArg>> {
        let args = lock(&self.inner.args);
        args.iter()
            .enumerate()
            .map(|(i, a)| {
                a.clone().ok_or_else(|| Error::InvalidArg {
                    kernel: self.inner.name.clone(),
                    index: i,
                    reason: "argument was never set".into(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemAccess;
    use crate::device::{Device, DeviceProfile};

    fn ctx() -> Context {
        Context::new(&[Device::new(DeviceProfile::tesla_c2050())]).unwrap()
    }

    const SRC: &str = "__kernel void fill(__global float* out, float v) {
        out[get_global_id(0)] = v;
    }";

    #[test]
    fn build_and_introspect() {
        let p = Program::from_source(&ctx(), SRC);
        p.build("").unwrap();
        assert_eq!(p.kernel_names().unwrap(), vec!["fill".to_string()]);
        let k = p.kernel("fill").unwrap();
        assert_eq!(k.num_args(), 2);
        assert!(k.arg_is_written(0) && !k.arg_is_read(0));
        assert!(p.build_duration() > Duration::ZERO);
        assert!(p.build_log().contains("successful"));
    }

    #[test]
    fn build_failure_reported_in_log() {
        let p = Program::from_source(&ctx(), "__kernel void broken( {}");
        let e = p.build("").unwrap_err();
        assert!(matches!(e, Error::BuildFailure(_)));
        assert!(!p.build_log().is_empty());
        assert!(p.kernel("broken").is_err(), "no kernels on failed build");
    }

    #[test]
    fn wg_fallback_surfaces_as_note() {
        let src = r#"
            __kernel void counted(__global int* c) { atomic_add(&c[0], 1); }
        "#;
        let p = Program::from_source(&ctx(), src);
        p.build("").unwrap();
        let diags = p.diagnostics();
        assert!(
            diags.iter().any(|d| d.kind == DiagKind::BackendFallback
                && d.severity == Severity::Note
                && d.kernel == "counted"),
            "{diags:?}"
        );
        assert!(
            p.build_log().contains("backend-fallback"),
            "{}",
            p.build_log()
        );

        // `-w` silences the note like any other diagnostic
        let p = Program::from_source(&ctx(), src);
        p.build("-w").unwrap();
        assert!(p.diagnostics().is_empty());

        // a kernel the wg backend accepts produces no note
        let p = Program::from_source(&ctx(), SRC);
        p.build("").unwrap();
        assert!(
            !p.diagnostics()
                .iter()
                .any(|d| d.kind == DiagKind::BackendFallback),
            "{:?}",
            p.diagnostics()
        );
    }

    #[test]
    fn rebuild_replaces_the_previous_builds_findings() {
        let c = ctx();
        // one build-time lint (the fallback note) and an unguarded write
        // 1000 elements past the global id; `-DBROKEN` breaks the parse
        let src = r#"
            #ifdef BROKEN
            not a kernel
            #endif
            __kernel void k(__global int* c) {
                atomic_add(&c[0], 1);
                c[(int)get_global_id(0) + 1000] = 1;
            }
        "#;
        let p = Program::from_source(&c, src);
        p.build("").unwrap();
        let lints = p.diagnostics();
        assert_eq!(lints.len(), 1, "{lints:?}");
        p.build("").unwrap();
        assert_eq!(
            p.diagnostics(),
            lints,
            "a rebuild must not repeat its lints"
        );

        // a launch-time finding recorded after the build appends to it
        let k = p.kernel("k").unwrap();
        let buf = c.create_buffer(4 * 4, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let queue = crate::queue::CommandQueue::new(&c, &c.devices()[0]).unwrap();
        assert!(queue.enqueue_ndrange(&k, &[4], Some(&[4])).is_err());
        let diags = p.diagnostics();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[1].kind, DiagKind::OutOfBounds);

        // the next build starts over; `-w` leaves no lint and no analysis
        p.build("").unwrap();
        assert_eq!(p.diagnostics(), lints);
        p.build("-w").unwrap();
        assert!(p.diagnostics().is_empty());
        assert!(lock(&p.inner.analysis).is_none(), "stale analysis kept");

        // a failed rebuild leaves the previous binary launchable, so it
        // keeps that binary's findings and launch-time bounds check
        p.build("-Werror").unwrap();
        assert!(p.build("-DBROKEN").is_err());
        assert_eq!(p.diagnostics(), lints);
        let k = p.kernel("k").unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        let err = queue.enqueue_ndrange(&k, &[4], Some(&[4])).unwrap_err();
        assert!(
            err.to_string().contains("rejected by the kernel sanitizer"),
            "{err}"
        );
    }

    /// A kernel whose sanitizer pass dwarfs its front end: the race check
    /// compares every pair of the 300 stores to one `__local` array.
    fn sanitizer_heavy(extra: &str) -> String {
        let stores: String = (0..300).map(|k| format!("t[{k}] = {k};\n")).collect();
        format!("__kernel void heavy(__global int* out) {{ __local int t[300]; {stores}{extra} }}")
    }

    /// The fastest of three runs of the sanitizer on `src`.
    fn sanitizer_time(src: &str) -> Duration {
        let tu = parser::parse(src).unwrap();
        let module = sema::analyze(&tu).unwrap();
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                analysis::analyze_tu_refined(&tu, &module);
                t.elapsed()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn build_duration_covers_the_whole_build() {
        // the clock must not stop after sema: a build takes at least as
        // long as its own sanitizer pass (half of it leaves room for noise)
        let src = sanitizer_heavy("");
        let p = Program::from_source(&ctx(), src.as_str());
        p.build("").unwrap();
        let floor = sanitizer_time(&src) / 2;
        assert!(
            p.build_duration() >= floor,
            "{:?} < {floor:?}",
            p.build_duration()
        );

        // also when -Werror denies the build after the sanitizer ran
        let src = sanitizer_heavy("t[300] = 1;");
        let p = Program::from_source(&ctx(), src.as_str());
        assert!(p.build("-Werror").is_err());
        let floor = sanitizer_time(&src) / 2;
        assert!(
            p.build_duration() >= floor,
            "{:?} < {floor:?}",
            p.build_duration()
        );
    }

    #[test]
    fn kernel_before_build_rejected() {
        let p = Program::from_source(&ctx(), SRC);
        assert!(p.kernel("fill").is_err());
    }

    #[test]
    fn missing_kernel_name() {
        let p = Program::from_source(&ctx(), SRC);
        p.build("").unwrap();
        assert!(matches!(p.kernel("nope"), Err(Error::NoSuchKernel(_))));
    }

    #[test]
    fn build_options_defines() {
        let src = "__kernel void f(__global int* out) { out[0] = N; }";
        let p = Program::from_source(&ctx(), src);
        assert!(p.build("").is_err(), "N undefined");
        let p = Program::from_source(&ctx(), src);
        p.build("-D N=7").unwrap();
        let p = Program::from_source(&ctx(), src);
        p.build("-DN=7 -cl-fast-relaxed-math").unwrap();
        let p = Program::from_source(&ctx(), src);
        assert!(p.build("--bogus").is_err());
    }

    #[test]
    fn arg_binding_type_checks() {
        let c = ctx();
        let p = Program::from_source(&c, SRC);
        p.build("").unwrap();
        let k = p.kernel("fill").unwrap();
        let buf = c.create_buffer(16, MemAccess::ReadWrite).unwrap();
        k.set_arg_buffer(0, &buf).unwrap();
        assert!(k.set_arg_buffer(1, &buf).is_err(), "param 1 is a scalar");
        assert!(k.set_arg_scalar(0, 1.0f32).is_err(), "param 0 is a buffer");
        assert!(
            k.set_arg_scalar(1, 1.0f64).is_err(),
            "double into float param"
        );
        k.set_arg_scalar(1, 1.0f32).unwrap();
        assert!(k.set_arg_scalar(2, 0i32).is_err(), "out of range");
        assert!(k.bound_args().is_ok());
    }

    #[test]
    fn unset_args_detected() {
        let c = ctx();
        let p = Program::from_source(&c, SRC);
        p.build("").unwrap();
        let k = p.kernel("fill").unwrap();
        let err = k.bound_args().unwrap_err();
        assert!(err.to_string().contains("never set"));
    }
}
