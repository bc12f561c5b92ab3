//! End-to-end equivalence of the two retained-ADI stores under the full
//! PDP: the paper's flat in-core store and the context-trie
//! `msod::IndexedAdi` must produce identical decision streams, identical
//! snapshots, and identical recovery behaviour.

use msod::{IndexedAdi, RetainedAdi};
use permis::{DecisionService, Pdp};
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

#[test]
fn indexed_pdp_matches_memory_pdp_on_workload() {
    let cfg = WorkloadConfig {
        users: 25,
        contexts: 6,
        role_pairs: 3,
        requests: 600,
        terminate_percent: 6,
    };
    let xml = workload_policy_xml(&cfg);
    let parsed = policy::parse_rbac_policy(&xml).unwrap();

    let mut mem_pdp = Pdp::from_xml(&xml, b"k".to_vec()).unwrap();
    let mut idx_pdp = Pdp::with_adi(parsed.clone(), b"k".to_vec(), IndexedAdi::new());
    // The symbolized service must compile this workload onto the symbol
    // plane and agree with both stores, denies included.
    let sym_svc = DecisionService::new_symbolized(parsed, b"k".to_vec());
    assert!(sym_svc.core().sym_engine().is_some(), "workload policy must compile");

    let mut denied = 0;
    for (i, req) in gen_requests(&cfg, 31).iter().enumerate() {
        let a = mem_pdp.decide(req);
        let b = idx_pdp.decide(req);
        let c = sym_svc.decide(req);
        assert_eq!(a.is_granted(), b.is_granted(), "divergence at request {i}: {a:?} vs {b:?}");
        assert_eq!(a.is_granted(), c.is_granted(), "divergence at request {i}: {a:?} vs {c:?}");
        denied += usize::from(!a.is_granted());
    }
    assert!(denied > 0, "the workload must exercise the deny path");
    assert_eq!(mem_pdp.adi().snapshot(), idx_pdp.adi().snapshot());
    assert_eq!(mem_pdp.adi().len(), idx_pdp.adi().len());
    assert_eq!(mem_pdp.adi().len(), sym_svc.adi().len());
}

#[test]
fn indexed_pdp_recovers_identically() {
    let cfg = WorkloadConfig {
        users: 10,
        contexts: 4,
        role_pairs: 2,
        requests: 150,
        terminate_percent: 5,
    };
    let xml = workload_policy_xml(&cfg);
    let dir = std::env::temp_dir().join(format!("msod-idx-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut pdp = Pdp::from_xml(&xml, b"k".to_vec()).unwrap();
        pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
        for req in gen_requests(&cfg, 8) {
            pdp.decide(&req);
        }
        pdp.rotate_and_persist().unwrap();
    }
    // Recover into BOTH store kinds; snapshots must agree.
    let mut mem_pdp = Pdp::from_xml(&xml, b"k".to_vec()).unwrap();
    mem_pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
    mem_pdp.recover(usize::MAX, 0).unwrap();

    let parsed = policy::parse_rbac_policy(&xml).unwrap();
    let mut idx_pdp = Pdp::with_adi(parsed, b"k".to_vec(), IndexedAdi::new());
    idx_pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
    idx_pdp.recover(usize::MAX, 0).unwrap();

    assert_eq!(mem_pdp.adi().snapshot(), idx_pdp.adi().snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn indexed_pdp_management_port() {
    use msod::RoleRef;
    use permis::{purge_scope, Credentials, ManagementOp};

    let xml = r#"<RBACPolicy id="m" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res"><AllowedRole value="A"/></TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="A"/><Role type="e" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let parsed = policy::parse_rbac_policy(xml).unwrap();
    let mut pdp = Pdp::with_adi(parsed, b"k".to_vec(), IndexedAdi::new());
    for i in 0..5 {
        let req = permis::DecisionRequest::with_roles(
            format!("u{i}"),
            vec![RoleRef::new("e", "A")],
            "work",
            "res",
            format!("P={}", i % 2).parse().unwrap(),
            i,
        );
        assert!(pdp.decide(&req).is_granted());
    }
    assert_eq!(pdp.adi().len(), 5);
    let removed = pdp
        .manage(
            "cn=admin",
            Credentials::Validated(vec![RoleRef::new("e", "RetainedADIController")]),
            ManagementOp::PurgeContext(purge_scope("P=0").unwrap()),
            100,
        )
        .unwrap();
    assert_eq!(removed, 3);
    assert_eq!(pdp.adi().len(), 2);
}
