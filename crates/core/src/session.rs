//! Tenant scopes: run HPL workloads as clients of an
//! [`oclsim::serve::Service`].
//!
//! Every eval is a request of a [`Session`]: traced, admitted and built
//! through the session's one request lifecycle (see
//! [`Session::begin_request`]). Outside a tenant scope that session is the
//! runtime's own ([`crate::Runtime::session`]). Entering a **tenant scope**
//! makes another service's tenant the owner of every `eval(..).run(..)` on
//! the calling thread: its quotas admit the launches, and its service's
//! shared [`BinaryCache`](oclsim::serve::BinaryCache) holds the builds —
//! charging the tenant's compile-byte quota on misses and riding other
//! tenants' builds for free on hits.
//!
//! ```
//! use hpl::prelude::*;
//! use oclsim::serve::{Service, ServiceConfig, TenantQuota};
//!
//! fn scale(y: &Array<f64, 1>, a: &Double) {
//!     y.at(idx()).assign(y.at(idx()) * a.v());
//! }
//!
//! let service = Service::new(ServiceConfig::default()).unwrap();
//! let session = std::sync::Arc::new(service.session("demo", TenantQuota::unlimited()));
//! let y = Array::<f64, 1>::from_vec([64], vec![1.0; 64]);
//! let a = Double::new(2.0);
//! {
//!     let _scope = hpl::session::enter_tenant(session);
//!     eval(scale).run((&y, &a)).unwrap(); // admitted + built as "demo"
//! }
//! eval(scale).run((&y, &a)).unwrap(); // the runtime's own session again
//! ```

use std::sync::Arc;

use oclsim::serve::Session;

pub use crate::runtime::current_tenant;
use crate::runtime::swap_tenant;

/// RAII guard of an active tenant scope (see [`enter_tenant`]). Dropping
/// it restores the previously active scope, so scopes nest.
pub struct TenantScope {
    previous: Option<Arc<Session>>,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        swap_tenant(self.previous.take());
    }
}

/// Make `session`'s tenant the owner of every HPL eval on this thread
/// until the returned guard drops. Scopes nest; the innermost wins.
pub fn enter_tenant(session: Arc<Session>) -> TenantScope {
    TenantScope {
        previous: swap_tenant(Some(session)),
    }
}

/// Name of the tenant active on this thread, if any.
pub fn current_tenant_name() -> Option<String> {
    current_tenant().map(|s| s.tenant().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::error::Error;
    use crate::eval::eval;
    use crate::predef::idx;
    use oclsim::serve::{Service, ServiceConfig, TenantQuota};

    fn bump(y: &Array<f64, 1>) {
        y.at(idx()).assign(y.at(idx()) + 1.0f64);
    }

    #[test]
    fn scoped_evals_are_attributed_and_quota_limited() {
        let service = Service::new(ServiceConfig::default()).unwrap();
        let session = Arc::new(service.session(
            "metered",
            TenantQuota {
                max_launches: Some(2),
                ..TenantQuota::default()
            },
        ));
        let y = Array::<f64, 1>::from_vec([32], vec![0.0; 32]);
        let _scope = enter_tenant(Arc::clone(&session));
        assert_eq!(current_tenant_name().as_deref(), Some("metered"));
        eval(bump).run((&y,)).unwrap();
        eval(bump).run((&y,)).unwrap();
        assert_eq!(session.launches(), 2);
        // the tenant's builds live in the service's shared cache
        assert!(!session.binary_cache().is_empty());
        let err = eval(bump).run((&y,)).unwrap_err();
        match err {
            Error::Backend(e) => {
                assert!(matches!(e, oclsim::Error::AdmissionRejected { .. }), "{e}");
                assert!(
                    matches!(
                        e.root_cause(),
                        oclsim::Error::QuotaExceeded {
                            resource: "launches",
                            ..
                        }
                    ),
                    "{e}"
                );
            }
            other => panic!("expected a backend admission error, got {other}"),
        }
        assert_eq!(y.get(0), 2.0, "the rejected launch must not have run");
    }

    #[test]
    fn a_rejected_eval_is_refused_before_it_compiles() {
        fn never_built(y: &Array<f64, 1>) {
            y.at(idx()).assign(y.at(idx()) * 3.0f64);
        }
        let _rt = crate::runtime::fresh_scope();
        let service = Service::new(ServiceConfig::default()).unwrap();
        let y = Array::<f64, 1>::from_vec([32], vec![0.0; 32]);
        {
            // another tenant builds `bump`, so the metered tenant's one
            // launch compiles nothing
            let _warm = enter_tenant(Arc::new(service.session("warm", TenantQuota::unlimited())));
            eval(bump).run((&y,)).unwrap();
        }
        let session = Arc::new(service.session(
            "one-launch",
            TenantQuota {
                max_launches: Some(1),
                ..TenantQuota::default()
            },
        ));
        let _scope = enter_tenant(Arc::clone(&session));
        eval(bump).run((&y,)).unwrap();
        let resident = service.cache().len();
        let err = eval(never_built).run((&y,)).unwrap_err();
        assert!(
            matches!(&err, Error::Backend(oclsim::Error::AdmissionRejected { what, .. })
                if what.contains("never_built")),
            "{err}"
        );
        assert_eq!(session.quota_state().compile_bytes, 0, "nothing compiled");
        assert_eq!(
            service.cache().len(),
            resident,
            "nothing built into the cache"
        );
        assert_eq!(y.get(0), 2.0, "the rejected launch must not have run");
    }

    #[test]
    fn async_evals_hold_an_inflight_slot_until_waited() {
        let service = Service::new(ServiceConfig::default()).unwrap();
        let session = Arc::new(service.session(
            "one-at-a-time",
            TenantQuota {
                max_inflight: Some(1),
                ..TenantQuota::default()
            },
        ));
        let y = Array::<f64, 1>::from_vec([32], vec![0.0; 32]);
        let _scope = enter_tenant(Arc::clone(&session));
        let first = eval(bump).run_async((&y,)).unwrap();
        let err = eval(bump).run_async((&y,)).unwrap_err();
        match err {
            Error::Backend(e) => assert!(
                matches!(
                    e.root_cause(),
                    oclsim::Error::QuotaExceeded {
                        resource: "inflight launches",
                        ..
                    }
                ),
                "{e}"
            ),
            other => panic!("expected a backend admission error, got {other}"),
        }
        first.wait().unwrap();
        eval(bump).run_async((&y,)).unwrap().wait().unwrap();
        eval(bump).run((&y,)).unwrap();
        assert_eq!(session.launches(), 3);
        assert_eq!(y.get(0), 3.0, "the rejected launch must not have run");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let service = Service::new(ServiceConfig::default()).unwrap();
        let outer = Arc::new(service.session("outer", TenantQuota::unlimited()));
        let inner = Arc::new(service.session("inner", TenantQuota::unlimited()));
        assert_eq!(current_tenant_name(), None);
        {
            let _a = enter_tenant(outer);
            assert_eq!(current_tenant_name().as_deref(), Some("outer"));
            {
                let _b = enter_tenant(inner);
                assert_eq!(current_tenant_name().as_deref(), Some("inner"));
            }
            assert_eq!(current_tenant_name().as_deref(), Some("outer"));
        }
        assert_eq!(current_tenant_name(), None);
    }
}
