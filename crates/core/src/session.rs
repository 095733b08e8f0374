//! Tenant scopes: run HPL workloads as clients of an
//! [`oclsim::serve::Service`].
//!
//! The kernel service (see `oclsim::serve`) admits launches against
//! per-tenant quotas and shares one binary cache between tenants. HPL
//! programs join in by entering a **tenant scope**: while a scope is
//! active on the current thread, every `eval(..).run(..)` on that thread
//! is a request of the scope's tenant, traced and admitted through the
//! session's one request lifecycle (see [`Session::begin_request`]), and
//! every backend compilation goes through the service's shared
//! [`BinaryCache`](oclsim::serve::BinaryCache) —
//! charging the tenant's compile-byte quota on misses and riding other
//! tenants' builds for free on hits. Outside any scope, compilations use
//! the process-wide [`oclsim::serve::global_binary_cache`], so the
//! single-client behaviour (and its metrics) is the degenerate
//! one-tenant case of the same machinery.
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
//! eval(scale).run((&y, &a)).unwrap(); // back to the anonymous path
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use oclsim::serve::Session;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Session>>> = const { RefCell::new(None) };
}

/// RAII guard of an active tenant scope (see [`enter_tenant`]). Dropping
/// it restores the previously active scope, so scopes nest.
pub struct TenantScope {
    previous: Option<Arc<Session>>,
}

impl Drop for TenantScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// Make `session`'s tenant the owner of every HPL eval on this thread
/// until the returned guard drops. Scopes nest; the innermost wins.
pub fn enter_tenant(session: Arc<Session>) -> TenantScope {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(session));
    TenantScope { previous }
}

/// The tenant session active on this thread, if any.
pub fn current_tenant() -> Option<Arc<Session>> {
    CURRENT.with(|c| c.borrow().clone())
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
