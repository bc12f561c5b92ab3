//! PDP start-up recovery (§5.2): rebuild the retained ADI from the last
//! *n* audit trails starting at time *t*, filtered through the current
//! MSoD policy set.

use audit::{EventKind, Record};
use context::{BoundContext, ContextInstance, ContextName};
use msod::{MsodRequest, Replay, RetainedAdi, RoleRef};

use crate::front_end::decode_role;

/// What recovery did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sealed segments loaded and verified from the store.
    pub segments_loaded: usize,
    /// Grant records replayed through the current policy set.
    pub grants_replayed: usize,
    /// Retained-ADI records reconstructed.
    pub records_retained: usize,
    /// Purge events (context terminations / admin purges) re-applied.
    pub purges_applied: usize,
    /// Records skipped because they no longer decode (e.g. a context
    /// whose instance string fails to parse), or because the grant
    /// exceeds the decision engine's request bounds.
    pub undecodable: usize,
}

/// Re-apply one recovered audit record to an ADI being rebuilt by
/// [`crate::DecisionService::recover`](crate::DecisionService::recover).
pub(crate) fn apply_recovered_record<A: RetainedAdi>(
    replay: &mut Replay<'_, '_, A>,
    rec: &Record,
    report: &mut RecoveryReport,
) {
    match rec.event.kind {
        EventKind::Grant => {
            let Ok(context) = rec.event.context.parse::<ContextInstance>() else {
                report.undecodable += 1;
                return;
            };
            let roles: Vec<RoleRef> =
                rec.event.roles.iter().filter_map(|s| decode_role(s)).collect();
            if roles.len() != rec.event.roles.len() {
                report.undecodable += 1;
                return;
            }
            let req = MsodRequest {
                user: &rec.event.user,
                roles: &roles,
                operation: &rec.event.operation,
                target: &rec.event.target,
                context: &context,
                timestamp: rec.timestamp,
            };
            match replay.grant(&req) {
                Ok(_) => report.grants_replayed += 1,
                Err(_) => report.undecodable += 1,
            }
        }
        EventKind::ContextTerminated | EventKind::AdminPurge => {
            // Re-apply explicit purges (idempotent; a replayed last-step
            // grant already purges, but management purges have no
            // grant to carry them).
            let adi = replay.store();
            if rec.event.context.is_empty() {
                // Older-than purge convention: note = "olderThan:<t>".
                if let Some(cutoff) =
                    rec.event.note.strip_prefix("olderThan:").and_then(|s| s.parse::<u64>().ok())
                {
                    adi.purge_older_than(cutoff);
                    report.purges_applied += 1;
                } else if rec.event.note == "purgeAll" {
                    adi.clear();
                    report.purges_applied += 1;
                } else {
                    report.undecodable += 1;
                }
                return;
            }
            let Ok(name) = rec.event.context.parse::<ContextName>() else {
                report.undecodable += 1;
                return;
            };
            let Ok(bound) = BoundContext::from_name(name) else {
                report.undecodable += 1;
                return;
            };
            adi.purge(&bound);
            report.purges_applied += 1;
        }
        EventKind::Deny | EventKind::Startup | EventKind::Note => {}
    }
}

#[cfg(test)]
mod tests {
    use crate::request::DecisionRequest;
    use crate::DecisionService;
    use audit::TrailStore;
    use msod::RoleRef;

    const POLICY: &str = r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("permis-rec-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn service(policy: &str) -> DecisionService {
        DecisionService::from_xml_symbolized(policy, b"key".to_vec()).unwrap()
    }

    fn teller_req(user: &str, ts: u64) -> DecisionRequest {
        DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", "Teller")],
            "handleCash",
            "till",
            "Branch=York, Period=2006".parse().unwrap(),
            ts,
        )
    }

    fn auditor_req(user: &str, ts: u64) -> DecisionRequest {
        DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", "Auditor")],
            "audit",
            "books",
            "Branch=Leeds, Period=2006".parse().unwrap(),
            ts,
        )
    }

    #[test]
    fn recovery_restores_msod_state() {
        let dir = temp_dir("basic");
        // First PDP lifetime: alice acts as Teller, then "crashes".
        {
            let svc = service(POLICY);
            svc.attach_store(TrailStore::open(&dir).unwrap());
            assert!(svc.decide(&teller_req("alice", 10)).is_granted());
            assert!(svc.decide(&teller_req("bob", 11)).is_granted());
            svc.rotate_and_persist().unwrap();
        }
        // Second lifetime: fresh PDP recovers and still denies alice.
        let svc = service(POLICY);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        let report = svc.recover(10, 0).unwrap();
        assert_eq!(report.segments_loaded, 1);
        assert_eq!(report.grants_replayed, 2);
        assert_eq!(report.records_retained, 2);
        assert!(!svc.decide(&auditor_req("alice", 100)).is_granted());
        assert!(svc.decide(&auditor_req("carol", 101)).is_granted());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_adi_equals_precrash_adi() {
        let dir = temp_dir("equal");
        let snapshot_before;
        {
            let svc = service(POLICY);
            svc.attach_store(TrailStore::open(&dir).unwrap());
            for (i, user) in ["alice", "bob", "carol"].iter().enumerate() {
                svc.decide(&teller_req(user, 10 + i as u64));
            }
            svc.decide(&auditor_req("dave", 20));
            snapshot_before = svc.adi().snapshot();
            svc.rotate_and_persist().unwrap();
        }
        let svc = service(POLICY);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        svc.recover(10, 0).unwrap();
        assert_eq!(svc.adi().snapshot(), snapshot_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_respects_from_time_and_n() {
        let dir = temp_dir("window");
        {
            let svc = service(POLICY);
            svc.attach_store(TrailStore::open(&dir).unwrap());
            svc.decide(&teller_req("old-user", 10));
            svc.rotate_and_persist().unwrap();
            svc.decide(&teller_req("new-user", 1000));
            svc.rotate_and_persist().unwrap();
        }
        // Only the last segment.
        let svc = service(POLICY);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        let report = svc.recover(1, 0).unwrap();
        assert_eq!(report.segments_loaded, 1);
        assert_eq!(svc.adi().len(), 1);
        // All segments, but from_time excludes the old record.
        let svc2 = service(POLICY);
        svc2.attach_store(TrailStore::open(&dir).unwrap());
        let report = svc2.recover(10, 500).unwrap();
        assert_eq!(report.segments_loaded, 2);
        assert_eq!(svc2.adi().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_change_refilters_history() {
        let dir = temp_dir("policy-change");
        {
            let svc = service(POLICY);
            svc.attach_store(TrailStore::open(&dir).unwrap());
            svc.decide(&teller_req("alice", 10));
            svc.rotate_and_persist().unwrap();
        }
        // Restart with a policy whose MSoD set no longer mentions the
        // bank context: nothing is retained.
        let no_msod = POLICY.replace(r#"Branch=*, Period=!"#, r#"Completely=different, Scope=!"#);
        let svc = service(&no_msod);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        let report = svc.recover(10, 0).unwrap();
        assert_eq!(report.grants_replayed, 1);
        assert_eq!(report.records_retained, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_store_fails_recovery() {
        let dir = temp_dir("tamper");
        {
            let svc = service(POLICY);
            svc.attach_store(TrailStore::open(&dir).unwrap());
            svc.decide(&teller_req("alice", 10));
            svc.rotate_and_persist().unwrap();
        }
        // Flip a byte in the stored segment.
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&file, bytes).unwrap();

        let svc = service(POLICY);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        assert!(svc.recover(10, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trail grant beyond the engine's request bounds (written by a
    /// build without them, say) is skipped and counted, not replayed;
    /// the grants around it still are.
    #[test]
    fn over_limit_trail_grants_are_counted_undecodable() {
        use audit::{AuditEvent, AuditTrail};
        use msod::sym::{MAX_CTX_DEPTH, MAX_REQ_ROLES};

        let dir = temp_dir("over-limit");
        let mut trail = AuditTrail::new(b"key".to_vec());
        let grant = |user: &str, roles: usize, context: String| {
            let roles = (0..roles).map(|i| format!("employee:Teller{i}"));
            AuditEvent::grant(user, roles.collect(), "handleCash", "till", context, true)
        };
        let york = || "Branch=York, Period=2006".to_owned();
        let deep: Vec<String> = (0..=MAX_CTX_DEPTH).map(|d| format!("T{d}=v")).collect();
        trail.append(grant("alice", 1, york()), 1);
        trail.append(grant("mallory", MAX_REQ_ROLES + 1, york()), 2);
        trail.append(grant("mallory", 1, deep.join(", ")), 3);
        let idx = trail.rotate().unwrap();
        TrailStore::open(&dir).unwrap().save_segment(idx, &trail.segments()[idx]).unwrap();

        let svc = service(POLICY);
        svc.attach_store(TrailStore::open(&dir).unwrap());
        let report = svc.recover(10, 0).unwrap();
        assert_eq!((report.grants_replayed, report.undecodable), (1, 2));
        assert_eq!(svc.adi().len(), 1);
        assert_eq!(svc.adi().snapshot()[0].user, "alice");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
