//! End-to-end equivalence of the production store and the reference
//! store under the full PDP: the symbolized service (`SymAdi`) and the
//! string engine over the paper's flat in-core store (`MemoryAdi`)
//! must produce identical decision streams, identical snapshots, and
//! identical recovery behaviour.

use msod::MemoryAdi;
use permis::DecisionService;
use policy::PdpPolicy;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

fn reference(policy: PdpPolicy) -> DecisionService<MemoryAdi> {
    DecisionService::with_shard_count(policy, b"k".to_vec(), msod::DEFAULT_SHARDS)
}

#[test]
fn symbolized_service_matches_reference_on_workload() {
    let cfg = WorkloadConfig {
        users: 25,
        contexts: 6,
        role_pairs: 3,
        requests: 600,
        terminate_percent: 6,
    };
    let parsed = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();

    let mem_svc = reference(parsed.clone());
    // The symbolized service must compile this workload onto the symbol
    // plane and agree with the reference, denies included.
    let sym_svc = DecisionService::new_symbolized(parsed, b"k".to_vec());
    assert!(sym_svc.core().sym_engine().is_some(), "workload policy must compile");
    assert!(mem_svc.core().sym_engine().is_none(), "the reference runs the string engine");

    let mut denied = 0;
    for (i, req) in gen_requests(&cfg, 31).iter().enumerate() {
        let a = mem_svc.decide(req);
        let b = sym_svc.decide(req);
        assert_eq!(a, b, "divergence at request {i}");
        denied += usize::from(!a.is_granted());
    }
    assert!(denied > 0, "the workload must exercise the deny path");
    assert_eq!(mem_svc.adi().snapshot(), sym_svc.adi().snapshot());
}

#[test]
fn symbolized_service_recovers_like_reference() {
    let cfg = WorkloadConfig {
        users: 10,
        contexts: 4,
        role_pairs: 2,
        requests: 150,
        terminate_percent: 5,
    };
    let xml = workload_policy_xml(&cfg);
    let dir = std::env::temp_dir().join(format!("msod-ref-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live_snapshot = {
        let svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        svc.attach_store(audit::TrailStore::open(&dir).unwrap());
        for req in gen_requests(&cfg, 8) {
            svc.decide(&req);
        }
        svc.rotate_and_persist().unwrap();
        svc.adi().snapshot()
    };
    // Recover into BOTH store kinds; snapshots must agree with each
    // other and with the state the trail was written from.
    let sym_svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
    sym_svc.attach_store(audit::TrailStore::open(&dir).unwrap());
    sym_svc.recover(usize::MAX, 0).unwrap();

    let mem_svc = reference(policy::parse_rbac_policy(&xml).unwrap());
    mem_svc.attach_store(audit::TrailStore::open(&dir).unwrap());
    mem_svc.recover(usize::MAX, 0).unwrap();

    assert_eq!(sym_svc.adi().snapshot(), mem_svc.adi().snapshot());
    assert_eq!(sym_svc.adi().snapshot(), live_snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}
