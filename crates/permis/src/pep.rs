//! The PEP (ISO 10181-3 AEF) — the application-side enforcement point
//! of Figure 3.
//!
//! [`Pep`] is what an application embeds: it holds a shared
//! [`DecisionService`], tracks user access-control *sessions* (which
//! roles/credentials a user activated for the session — partial
//! disclosure happens here), identifies the current business-context
//! instance via the application's [`context::ContextRegistry`] ("The
//! PEP, being part of the application, is easily able to identify the
//! business context instance of each user request", §4.1), and forwards
//! complete §4.1 parameter sets to the PDP.
//!
//! Concurrency: the PEP holds no mutex around the decision path.
//! Session IDs come from an atomic counter, the context registry sits
//! behind a read/write lock (enforcement only reads it), and
//! [`DecisionService::decide`] takes `&self`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use context::{ContextInstance, ContextRegistry};
use credential::AttributeCredential;
use msod::{RetainedAdi, RoleRef, SymAdi};
use parking_lot::RwLock;

use crate::request::{Credentials, DecisionOutcome, DecisionRequest};
use crate::service::DecisionService;

/// A user access-control session held by the PEP: the subject plus the
/// credentials/roles the user chose to activate for this session.
#[derive(Debug, Clone)]
pub struct PepSession {
    /// The subject DN.
    pub subject: String,
    credentials: Credentials,
    /// Monotonic session identifier (for logs/diagnostics).
    pub id: u64,
}

/// The application-side policy enforcement point.
pub struct Pep<A: RetainedAdi = SymAdi> {
    service: Arc<DecisionService<A>>,
    registry: RwLock<ContextRegistry>,
    next_session: AtomicU64,
}

impl<A: RetainedAdi + 'static> Pep<A> {
    /// Build a PEP over a shared decision service.
    pub fn new(service: Arc<DecisionService<A>>) -> Self {
        Pep {
            service,
            registry: RwLock::new(ContextRegistry::new()),
            next_session: AtomicU64::new(0),
        }
    }

    /// The shared decision-service handle (e.g. for a second PEP over
    /// the same PDP).
    pub fn service(&self) -> Arc<DecisionService<A>> {
        Arc::clone(&self.service)
    }

    /// Open a session in which `subject` activates exactly the pushed
    /// `credentials` — the partial-disclosure surface of §2.1.
    pub fn begin_session_push(
        &self,
        subject: impl Into<String>,
        credentials: Vec<AttributeCredential>,
    ) -> PepSession {
        self.session(subject, Credentials::Push(credentials))
    }

    /// Open a session whose roles the CVS will pull from the directory.
    pub fn begin_session_pull(&self, subject: impl Into<String>) -> PepSession {
        self.session(subject, Credentials::Pull)
    }

    /// Open a session with pre-validated roles (trusted upstream CVS).
    pub fn begin_session_roles(
        &self,
        subject: impl Into<String>,
        roles: Vec<RoleRef>,
    ) -> PepSession {
        self.session(subject, Credentials::Validated(roles))
    }

    fn session(&self, subject: impl Into<String>, credentials: Credentials) -> PepSession {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        PepSession { subject: subject.into(), credentials, id }
    }

    /// Open (or re-open) a business-context instance in the
    /// application's context registry.
    pub fn open_context(&self, instance: ContextInstance) {
        self.registry.write().open(instance);
    }

    /// Mint a fresh instance of `ctx_type` under `parent` (e.g. a new
    /// `taxRefundProcess` under a `TaxOffice`).
    pub fn fresh_context(
        &self,
        parent: &ContextInstance,
        ctx_type: &str,
    ) -> Result<ContextInstance, context::ContextError> {
        self.registry.write().fresh(parent, ctx_type)
    }

    /// Close a context instance (and everything beneath it).
    pub fn close_context(&self, instance: &ContextInstance) -> Vec<ContextInstance> {
        self.registry.write().close(instance)
    }

    /// Whether the registry currently has the instance open.
    pub fn context_active(&self, instance: &ContextInstance) -> bool {
        self.registry.read().is_active(instance)
    }

    /// The guarded call: ask the PDP whether `session` may perform
    /// `operation` on `target` within `context`, and only run `action`
    /// on a grant. Returns `Ok(action result)` or the denial outcome.
    ///
    /// The context instance must be open in the registry — a PEP never
    /// forwards requests for contexts the application hasn't begun.
    #[allow(clippy::too_many_arguments)] // mirrors the §4.1 parameter set
    pub fn enforce<R>(
        &self,
        session: &PepSession,
        operation: &str,
        target: &str,
        context: &ContextInstance,
        environment: Vec<(String, String)>,
        timestamp: u64,
        action: impl FnOnce() -> R,
    ) -> Result<R, DecisionOutcome> {
        if !self.context_active(context) {
            return Err(DecisionOutcome::Deny {
                roles: vec![],
                reason: crate::request::DenyReason::InvalidRequest(format!(
                    "business context [{context}] is not open at this PEP"
                )),
            });
        }
        let req = DecisionRequest {
            subject: session.subject.clone(),
            credentials: session.credentials.clone(),
            operation: operation.to_owned(),
            target: target.to_owned(),
            context: context.clone(),
            environment,
            timestamp,
        };
        let outcome = self.service.decide(&req);
        match outcome {
            DecisionOutcome::Grant { .. } => Ok(action()),
            deny => Err(deny),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use credential::Authority;
    use std::collections::HashSet;

    const POLICY: &str = r#"<RBACPolicy id="pep" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

    fn setup() -> (Pep, Authority) {
        let service = DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap();
        let hr = Authority::new("cn=HR", b"hr".to_vec());
        service.register_authority_key(hr.dn(), hr.verification_key().to_vec());
        (Pep::new(Arc::new(service)), hr)
    }

    #[test]
    fn guarded_action_runs_only_on_grant() {
        let (pep, mut hr) = setup();
        let ctx: ContextInstance = "Proc=1".parse().unwrap();
        pep.open_context(ctx.clone());

        let cred_a = hr.issue("alice", RoleRef::new("employee", "A"), 0, 100);
        let s1 = pep.begin_session_push("alice", vec![cred_a]);
        let ran = pep.enforce(&s1, "work", "res", &ctx, vec![], 1, || "did-the-work");
        assert_eq!(ran.unwrap(), "did-the-work");

        // Second session, conflicting role: the action must NOT run.
        let cred_b = hr.issue("alice", RoleRef::new("employee", "B"), 0, 100);
        let s2 = pep.begin_session_push("alice", vec![cred_b]);
        let mut side_effect = false;
        let out = pep.enforce(&s2, "work", "res", &ctx, vec![], 2, || {
            side_effect = true;
        });
        assert!(out.is_err());
        assert!(!side_effect, "denied action must not execute");
    }

    #[test]
    fn unopened_context_rejected_at_the_pep() {
        let (pep, _) = setup();
        let ctx: ContextInstance = "Proc=9".parse().unwrap();
        let s = pep.begin_session_roles("alice", vec![RoleRef::new("employee", "A")]);
        let out = pep.enforce(&s, "work", "res", &ctx, vec![], 1, || ());
        assert!(out.is_err());
        // And the PDP was never consulted (no audit record).
        assert_eq!(pep.service().with_trail(|t| t.len()), 0);
    }

    #[test]
    fn fresh_contexts_are_open_and_distinct() {
        let (pep, _) = setup();
        let root: ContextInstance = ContextInstance::root();
        let c1 = pep.fresh_context(&root, "Proc").unwrap();
        let c2 = pep.fresh_context(&root, "Proc").unwrap();
        assert_ne!(c1, c2);
        assert!(pep.context_active(&c1));
        let s = pep.begin_session_roles("alice", vec![RoleRef::new("employee", "A")]);
        assert!(pep.enforce(&s, "work", "res", &c1, vec![], 1, || ()).is_ok());
        // Closing ends enforcement routing for that instance.
        pep.close_context(&c1);
        assert!(pep.enforce(&s, "work", "res", &c1, vec![], 2, || ()).is_err());
        assert!(pep.enforce(&s, "work", "res", &c2, vec![], 3, || ()).is_ok());
    }

    #[test]
    fn two_peps_share_one_pdp() {
        // Two resource gateways (PEPs) in different domains route to the
        // same PDP — the distributed deployment of §1.
        let (pep1, _) = setup();
        let pep2: Pep = Pep::new(pep1.service());
        let ctx: ContextInstance = "Proc=1".parse().unwrap();
        pep1.open_context(ctx.clone());
        pep2.open_context(ctx.clone());

        let s1 = pep1.begin_session_roles("alice", vec![RoleRef::new("employee", "A")]);
        assert!(pep1.enforce(&s1, "work", "res", &ctx, vec![], 1, || ()).is_ok());

        // The SAME user at the OTHER gateway with the conflicting role:
        // history is shared through the common PDP.
        let s2 = pep2.begin_session_roles("alice", vec![RoleRef::new("employee", "B")]);
        assert!(pep2.enforce(&s2, "work", "res", &ctx, vec![], 2, || ()).is_err());
    }

    #[test]
    fn session_ids_monotonic() {
        let (pep, _) = setup();
        let a = pep.begin_session_roles("x", vec![]);
        let b = pep.begin_session_roles("y", vec![]);
        assert!(b.id > a.id);
    }

    #[test]
    fn session_ids_unique_under_contention() {
        let (pep, _) = setup();
        let pep = Arc::new(pep);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let mut all_ids: Vec<u64> = Vec::with_capacity(THREADS * PER_THREAD);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let pep = Arc::clone(&pep);
                    s.spawn(move || {
                        (0..PER_THREAD)
                            .map(|i| pep.begin_session_roles(format!("u{t}-{i}"), vec![]).id)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for h in handles {
                all_ids.extend(h.join().unwrap());
            }
        });
        let unique: HashSet<u64> = all_ids.iter().copied().collect();
        assert_eq!(unique.len(), THREADS * PER_THREAD, "duplicate session IDs issued");
        assert_eq!(all_ids.iter().max(), Some(&((THREADS * PER_THREAD) as u64)));
    }
}
