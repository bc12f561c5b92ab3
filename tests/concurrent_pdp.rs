//! Concurrency: the split-plane PDP serves many threads *without any
//! outer lock* — `DecisionService::decide` takes `&self` — and never
//! violates the MSoD safety invariant; the audit trail stays verifiable
//! with contiguous sequence numbers.

use std::collections::HashSet;
use std::sync::Arc;

use msod::{RetainedAdi, RoleRef};
use permis::{DecisionRequest, DecisionService};

const POLICY: &str = r#"<RBACPolicy id="conc" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/>
        <Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// Same policy plus a declared last step, so decisions exercise both
/// the sharded fast path and the exclusive termination path.
const POLICY_WITH_LAST_STEP: &str = r#"<RBACPolicy id="conc2" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
    <TargetAccess operation="close" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <LastStep operation="close" targetURI="res"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/>
        <Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// Per (user, Proc instance): the retained history must never show both
/// conflicting roles.
fn assert_mmer_invariant(service: &DecisionService, users: usize, contexts: usize) {
    let name: context::ContextName = "Proc=!".parse().unwrap();
    for user_i in 0..users {
        let user = format!("user{user_i}");
        for c in 0..contexts {
            let bound = name.bind(&format!("Proc={c}").parse().unwrap()).unwrap();
            let mut roles_seen: HashSet<String> = HashSet::new();
            for rec in service.adi().with_user_shard(&user, |s| s.user_records(&user, &bound)) {
                for r in &rec.roles {
                    roles_seen.insert(r.value.clone());
                }
            }
            assert!(roles_seen.len() <= 1, "user {user} holds {roles_seen:?} in Proc={c}");
        }
    }
}

/// Every record across sealed segments and the open tail, in order,
/// must carry seq 0, 1, 2, … with no gap.
fn assert_seq_contiguous(service: &DecisionService, expected_total: usize) {
    service.with_trail(|trail| {
        trail.verify().unwrap();
        assert_eq!(trail.len(), expected_total);
        let mut expected = 0u64;
        for seg in trail.segments() {
            for rec in &seg.records {
                assert_eq!(rec.seq, expected, "gap in sealed segment");
                expected += 1;
            }
        }
        for rec in trail.open_records() {
            assert_eq!(rec.seq, expected, "gap in open tail");
            expected += 1;
        }
        assert_eq!(expected as usize, expected_total);
    });
}

#[test]
fn hammered_lock_free_decide_preserves_invariants() {
    let service = Arc::new(DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap());
    let threads = 8;
    let per_thread = 200;

    std::thread::scope(|s| {
        for t in 0..threads {
            let service = Arc::clone(&service);
            s.spawn(move || {
                for i in 0..per_thread {
                    let user = format!("user{}", (t * 7 + i) % 5);
                    let role = if usize::is_multiple_of(t + i, 2) { "A" } else { "B" };
                    let ctx = format!("Proc={}", i % 3);
                    let req = DecisionRequest::with_roles(
                        user,
                        vec![RoleRef::new("employee", role)],
                        "work",
                        "res",
                        ctx.parse().unwrap(),
                        (t * per_thread + i) as u64,
                    );
                    // No outer mutex: decide() takes &self.
                    let _ = service.decide(&req);
                }
            });
        }
    });

    assert_mmer_invariant(&service, 5, 3);
    // One audit record per decision, contiguous seq.
    assert_seq_contiguous(&service, threads * per_thread);
}

#[test]
fn fast_and_exclusive_paths_interleave_safely() {
    // Worker threads hammer the sharded fast path while two of them
    // periodically fire last-step requests (the symbol engine's
    // exclusive section) into the same contexts. Terminations purge
    // across all shards; whatever history remains must still satisfy
    // the invariant and the trail must stay verifiable (grants plus
    // context-terminated events).
    let service = Arc::new(
        DecisionService::from_xml_symbolized(POLICY_WITH_LAST_STEP, b"k".to_vec()).unwrap(),
    );
    let threads = 8;
    let per_thread = 150;

    let granted_closes: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let mut granted_closes = 0;
                    for i in 0..per_thread {
                        let user = format!("user{}", (t * 3 + i) % 6);
                        let role = if usize::is_multiple_of(t + i, 2) { "A" } else { "B" };
                        let op = if t < 2 && i % 25 == 24 { "close" } else { "work" };
                        let req = DecisionRequest::with_roles(
                            user,
                            vec![RoleRef::new("employee", role)],
                            op,
                            "res",
                            format!("Proc={}", i % 2).parse().unwrap(),
                            (t * per_thread + i) as u64,
                        );
                        let granted = service.decide(&req).is_granted();
                        granted_closes += usize::from(granted && op == "close");
                    }
                    granted_closes
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(granted_closes > 0, "the stream must terminate contexts");

    assert_mmer_invariant(&service, 6, 2);
    service.with_trail(|trail| {
        trail.verify().unwrap();
        // One grant/deny per decision; terminations append extra
        // records, so the total is at least the decision count.
        assert!(trail.len() >= threads * per_thread);
        // Each granted close terminated exactly one `Proc=!` instance.
        let terminations = trail
            .segments()
            .iter()
            .flat_map(|seg| &seg.records)
            .chain(trail.open_records())
            .filter(|r| r.event.kind == audit::EventKind::ContextTerminated)
            .count();
        assert_eq!(terminations, granted_closes);
    });
}

#[test]
fn concurrent_peps_share_history() {
    // Multiple PEP gateways (one per thread) over one decision service:
    // the MSoD invariant must hold across gateways, because history
    // lives in the shared service.
    let service = Arc::new(DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap());
    let peps: Vec<permis::Pep> = (0..4).map(|_| permis::Pep::new(Arc::clone(&service))).collect();
    for pep in &peps {
        pep.open_context("Proc=1".parse().unwrap());
    }
    std::thread::scope(|s| {
        for (t, pep) in peps.iter().enumerate() {
            s.spawn(move || {
                let ctx: context::ContextInstance = "Proc=1".parse().unwrap();
                for i in 0..100u64 {
                    let user = format!("user{}", (t as u64 + i) % 6);
                    let role = if (t as u64 + i).is_multiple_of(2) { "A" } else { "B" };
                    let session =
                        pep.begin_session_roles(user, vec![RoleRef::new("employee", role)]);
                    let _ = pep.enforce(
                        &session,
                        "work",
                        "res",
                        &ctx,
                        vec![],
                        t as u64 * 100 + i,
                        || (),
                    );
                }
            });
        }
    });

    let name: context::ContextName = "Proc=!".parse().unwrap();
    let bound = name.bind(&"Proc=1".parse().unwrap()).unwrap();
    for u in 0..6 {
        let user = format!("user{u}");
        let mut roles_seen: HashSet<String> = HashSet::new();
        for rec in service.adi().with_user_shard(&user, |s| s.user_records(&user, &bound)) {
            for r in &rec.roles {
                roles_seen.insert(r.value.clone());
            }
        }
        assert!(roles_seen.len() <= 1, "user {user}: {roles_seen:?}");
    }
    service.with_trail(|t| t.verify().unwrap());
}

#[test]
fn hammered_service_matches_oracle_replay() {
    // Oracle-checked variant of the hammer: after the multithreaded
    // run, replay the serialized audit order through the naive spec
    // oracle and require the exact same retained ADI. With no
    // first/last step in POLICY, every MSoD-matched grant adds exactly
    // one record and nothing purges, so the grants commute and the
    // audit serialization is a faithful witness of the final state no
    // matter how the threads interleaved.
    let service = Arc::new(DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap());
    let threads = 8;
    let per_thread = 200;

    std::thread::scope(|s| {
        for t in 0..threads {
            let service = Arc::clone(&service);
            s.spawn(move || {
                for i in 0..per_thread {
                    let user = format!("user{}", (t * 7 + i) % 5);
                    let role = if usize::is_multiple_of(t + i, 2) { "A" } else { "B" };
                    let req = DecisionRequest::with_roles(
                        user,
                        vec![RoleRef::new("employee", role)],
                        "work",
                        "res",
                        format!("Proc={}", i % 3).parse().unwrap(),
                        (t * per_thread + i) as u64,
                    );
                    let _ = service.decide(&req);
                }
            });
        }
    });

    // The audit trail's serialization of the run: MSoD-matched grants
    // only (denials and non-MSoD grants never enter the retained ADI).
    // The trail clamps timestamps to stay monotone under out-of-order
    // concurrent appends, so record timestamps are NOT the request
    // timestamps; the equivalence below is therefore stated over the
    // timestamp-erased record multiset (nothing here purges by age, so
    // no semantics hide in the erased field).
    let mut grants: Vec<audit::Record> = Vec::new();
    service.with_trail(|trail| {
        for seg in trail.segments() {
            grants.extend(seg.records.iter().cloned());
        }
        grants.extend(trail.open_records().iter().cloned());
    });
    grants.retain(|r| r.event.kind == audit::EventKind::Grant && r.event.msod_matched);
    assert!(!grants.is_empty(), "the hammer must produce MSoD-matched grants");

    let msod_policy = msod::MsodPolicy::new(
        "Proc=!".parse().unwrap(),
        None,
        None,
        vec![msod::Mmer::new(
            vec![RoleRef::new("employee", "A"), RoleRef::new("employee", "B")],
            2,
        )
        .unwrap()],
        vec![],
    )
    .unwrap();
    let mut oracle = modelcheck::Oracle::new(msod::MsodPolicySet::new(vec![msod_policy]));
    for rec in &grants {
        let roles = rec
            .event
            .roles
            .iter()
            .map(|s| {
                let (t, v) = s.split_once(':').expect("audit roles are type:value");
                RoleRef::new(t, v)
            })
            .collect();
        oracle.replay_grant(&modelcheck::OracleRequest {
            user: rec.event.user.clone(),
            roles,
            operation: rec.event.operation.clone(),
            target: rec.event.target.clone(),
            context: rec.event.context.parse().unwrap(),
            timestamp: 0,
        });
    }

    let mut engine_snap = service.adi().snapshot();
    for rec in &mut engine_snap {
        rec.timestamp = 0;
    }
    modelcheck::sort_snapshot(&mut engine_snap);
    assert_eq!(
        engine_snap,
        oracle.snapshot(),
        "retained ADI after the hammer must equal the oracle's replay of the audit order"
    );
}

#[test]
fn concurrent_rotation_and_decisions() {
    // Decisions racing trail rotations from another thread — both via
    // &self, no outer lock: all records survive into some segment, the
    // chain verifies, seq numbers stay contiguous across segments.
    let service = Arc::new(DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap());
    std::thread::scope(|s| {
        {
            let service = Arc::clone(&service);
            s.spawn(move || {
                for i in 0..400u64 {
                    let req = DecisionRequest::with_roles(
                        format!("u{}", i % 10),
                        vec![RoleRef::new("employee", "A")],
                        "work",
                        "res",
                        "Proc=1".parse().unwrap(),
                        i,
                    );
                    let _ = service.decide(&req);
                }
            });
        }
        {
            let service = Arc::clone(&service);
            s.spawn(move || {
                for _ in 0..40 {
                    let _ = service.rotate_and_persist();
                    std::thread::yield_now();
                }
            });
        }
    });
    assert_seq_contiguous(&service, 400);
}
