//! Observability end-to-end: every MMER and MMEP violation yields a
//! distinct, *stable* reason string, and the same string surfaces in
//! the decision-trace ring; the Prometheus export covers every layer;
//! and the metrics management port is authorized like the rest of the
//! management target.

use msod_rbac::msod::symtab::UserId;
use msod_rbac::msod::RoleRef;
use msod_rbac::permis::{
    Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason,
};

/// One MMER policy (Teller vs Auditor per Branch) and one two-MMEP
/// policy (approve/collect and audit/handleCash per Case), so denies
/// can come from four distinct constraints.
const POLICY: &str = r#"<RBACPolicy id="obs" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
    <TargetAccess operation="approve" targetURI="check"><AllowedRole value="Manager"/></TargetAccess>
    <TargetAccess operation="collect" targetURI="check"><AllowedRole value="Manager"/></TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI"><AllowedRole value="RetainedADIController"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="Case=!">
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="approve" target="check"/>
        <Privilege operation="collect" target="check"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="audit" target="books"/>
        <Privilege operation="handleCash" target="till"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn service() -> DecisionService {
    DecisionService::from_xml_symbolized(POLICY, b"obs-test-key".to_vec()).unwrap()
}

fn request(user: &str, role: &str, op: &str, target: &str, ctx: &str, ts: u64) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::new("employee", role)],
        op,
        target,
        ctx.parse().unwrap(),
        ts,
    )
}

fn deny_reason(outcome: &DecisionOutcome) -> String {
    outcome.deny_reason().expect("expected a deny").to_string()
}

/// Drive one MMER deny and two distinct MMEP denies; returns the three
/// reason strings in that order.
fn provoke_all_violations<A: msod_rbac::msod::RetainedAdi + 'static>(
    svc: &DecisionService<A>,
) -> Vec<String> {
    // MMER: alice tells, then tries to audit the same branch.
    assert!(svc
        .decide(&request("alice", "Teller", "handleCash", "till", "Branch=York", 1))
        .is_granted());
    let mmer =
        deny_reason(&svc.decide(&request("alice", "Auditor", "audit", "books", "Branch=York", 2)));

    // MMEP #0: bob approves, then tries to collect the same case.
    assert!(svc.decide(&request("bob", "Manager", "approve", "check", "Case=7", 3)).is_granted());
    let mmep0 =
        deny_reason(&svc.decide(&request("bob", "Manager", "collect", "check", "Case=7", 4)));

    // MMEP #1: carol audits, then tries to handle cash in the same case.
    assert!(svc.decide(&request("carol", "Auditor", "audit", "books", "Case=7", 5)).is_granted());
    let mmep1 =
        deny_reason(&svc.decide(&request("carol", "Teller", "handleCash", "till", "Case=7", 6)));

    vec![mmer, mmep0, mmep1]
}

#[test]
fn violation_reasons_are_distinct_and_stable() {
    let reasons = provoke_all_violations(&service());
    // Stable: these exact strings are the public deny-explanation
    // contract — tooling may parse them, so a change here is breaking.
    assert_eq!(
        reasons[0],
        "MSoD violation: MMER #0 of policy #0 in context [Branch=York]: \
         1 current + 1 historic >= 2"
    );
    assert_eq!(
        reasons[1],
        "MSoD violation: MMEP #0 of policy #1 in context [Case=7]: \
         1 current + 1 historic >= 2"
    );
    assert_eq!(
        reasons[2],
        "MSoD violation: MMEP #1 of policy #1 in context [Case=7]: \
         1 current + 1 historic >= 2"
    );
    // Distinct: every constraint names itself unambiguously.
    for (i, a) in reasons.iter().enumerate() {
        for b in reasons.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
    // Deterministic across a fresh service (same inputs, same strings).
    assert_eq!(provoke_all_violations(&service()), reasons);
}

#[test]
fn denied_decisions_surface_in_trace_ring() {
    let svc = service();
    let reasons = provoke_all_violations(&svc);
    if !msod_rbac::obs::enabled() {
        assert!(svc.recent_traces().is_empty());
        return;
    }
    let traces = svc.recent_traces();
    // Denies are always traced; grants were not enabled.
    let denies: Vec<_> = traces.iter().filter(|t| !t.granted).collect();
    assert_eq!(denies.len(), 3);
    for (trace, reason) in denies.iter().zip(&reasons) {
        assert_eq!(trace.reason.as_deref(), Some(reason.as_str()));
        // The violated constraint is identified on its own, too.
        let c = trace.constraint.as_deref().unwrap();
        assert!(reason.contains(c), "constraint {c:?} not in {reason:?}");
        // Each deny consulted the one historic record that triggered it.
        assert_eq!(trace.records_consulted, 1);
    }
    assert_eq!(denies[0].user, "alice");
    assert_eq!(denies[0].context, "Branch=York");
    assert_eq!(denies[1].constraint.as_deref(), Some("MMEP #0 of policy #1"));
    assert_eq!(denies[2].constraint.as_deref(), Some("MMEP #1 of policy #1"));

    // Opting into grant tracing surfaces grants as well.
    svc.metrics().set_trace_grants(true);
    assert!(svc
        .decide(&request("dave", "Teller", "handleCash", "till", "Branch=Leeds", 9))
        .is_granted());
    let last = svc.recent_traces().pop().unwrap();
    assert!(last.granted);
    assert_eq!(last.user, "dave");
    assert_eq!(last.reason, None);
}

#[test]
fn metrics_text_covers_every_layer() {
    let svc = service();
    provoke_all_violations(&svc);
    svc.rotate_and_persist().unwrap();
    let text = svc.metrics_text();
    // Decision plane: verdict counters and all three phases.
    for needle in [
        "permis_decisions_total",
        "permis_grants_total",
        "permis_denies_total",
        "permis_decide_ns",
        "phase=\"front_end\"",
        "phase=\"msod\"",
        "phase=\"audit_append\"",
        // ADI plane: per-shard lock contention and epoch counters.
        "msod_shard_lock_acquisitions_total",
        "msod_shard_lock_hold_ns_total",
        "msod_epoch_read_acquisitions_total",
        "msod_epoch_stalls_total",
        "msod_epoch_write_wait_ns_total",
        // Provenance plane: resource-limit denies, flight recorder,
        // windowed history.
        "permis_reqbuf_overflow_total",
        "permis_flight_triggers_total",
        "permis_flight_dumps_total",
        "permis_history_frames",
        // Audit plane: appends, rotations, chain length.
        "audit_appends_total",
        "audit_rotations_total",
        "audit_chain_length",
    ] {
        assert!(text.contains(needle), "{needle} missing from:\n{text}");
    }
    if msod_rbac::obs::enabled() {
        assert!(text.contains("permis_decisions_total 6"));
        assert!(text.contains("permis_grants_total 3"));
        assert!(text.contains("permis_denies_total 3"));
        assert!(text.contains("audit_rotations_total 1"));
    }
}

/// Sum the values of every series of gauge `name` in a Prometheus text
/// document (one line per shard label).
fn gauge_sum(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// The persistent backend pins its recovery gauges into the service
/// export: `storage_recovery_frames_replayed` and
/// `storage_recovery_bytes_truncated` are stable metric names, and
/// after a torn-tail reopen their totals match the recovery reports.
#[test]
fn persistent_backend_pins_recovery_metrics() {
    let dir = std::env::temp_dir().join(format!("obs-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = || msod_rbac::policy::parse_rbac_policy(POLICY).unwrap();
    {
        let (svc, reports) =
            DecisionService::open_persistent(policy(), b"obs-test-key".to_vec(), &dir, 2).unwrap();
        assert!(reports.iter().all(|r| r.is_clean()));
        assert!(svc
            .decide(&request("alice", "Teller", "handleCash", "till", "Branch=York", 1))
            .is_granted());
        assert!(svc
            .decide(&request("bob", "Manager", "approve", "check", "Case=7", 2))
            .is_granted());
        svc.sync_adi().unwrap();
    }
    // Tear the tail off one non-empty shard journal so the reopen has a
    // non-clean recovery to report.
    let torn = (0..2)
        .map(|i| dir.join(format!("adi-shard-{i}.log")))
        .find(|p| std::fs::metadata(p).unwrap().len() > 0)
        .unwrap();
    let data = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &data[..data.len() - 1]).unwrap();

    let (svc, reports) =
        DecisionService::open_persistent(policy(), b"obs-test-key".to_vec(), &dir, 2).unwrap();
    let truncated: u64 = reports.iter().map(|r| r.bytes_truncated).sum();
    assert!(truncated > 0);
    let text = svc.metrics_text();
    // Pinned: these names are the recovery-observability contract.
    for needle in ["storage_recovery_frames_replayed", "storage_recovery_bytes_truncated"] {
        assert!(text.contains(needle), "{needle} missing from:\n{text}");
    }
    if msod_rbac::obs::enabled() {
        assert_eq!(gauge_sum(&text, "storage_recovery_bytes_truncated"), truncated);
        assert_eq!(
            gauge_sum(&text, "storage_recovery_frames_replayed"),
            reports.iter().map(|r| r.frames_replayed).sum::<u64>()
        );
        // The non-clean recovery is an anomaly trigger: the service's
        // black box auto-dumps a self-contained snapshot into the data
        // directory without any operator action.
        let snapshot = std::fs::read_dir(dir.join("flightrec"))
            .expect("flight dump dir created")
            .map(|e| e.unwrap().path())
            .find(|p| p.file_name().unwrap().to_str().unwrap().contains("recovery_nonclean"))
            .expect("recovery snapshot auto-written");
        let doc = std::fs::read_to_string(&snapshot).unwrap();
        assert!(doc.contains("recovery_nonclean"), "{doc}");
        assert!(gauge_sum(&text, "permis_flight_triggers_total") >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The symbolized plane meters its interner: per-kind size and arena
/// capacity gauges are pinned metric names, and their values reflect
/// the symbols the workload actually interned.
#[test]
fn symbolized_service_exports_interner_gauges() {
    let policy = msod_rbac::policy::parse_rbac_policy(POLICY).unwrap();
    let svc = DecisionService::new_symbolized(policy, b"obs-test-key".to_vec());
    provoke_all_violations(&svc);
    let text = svc.metrics_text();
    for kind in ["strings", "users", "roles", "privs", "ctx_pairs"] {
        for family in ["symtab_interned", "symtab_arena_capacity"] {
            let needle = format!("{family}{{kind=\"{kind}\"}}");
            assert!(text.contains(&needle), "{needle} missing from:\n{text}");
        }
    }
    // The workload interned alice/bob/carol (plus policy symbols), so
    // the user gauge is nonzero and bounded by its arena.
    assert!(gauge_sum(&text, "symtab_interned{kind=\"users\"}") >= 3);
    assert!(
        gauge_sum(&text, "symtab_interned{kind=\"users\"}")
            <= gauge_sum(&text, "symtab_arena_capacity{kind=\"users\"}")
    );
}

/// Observability parity on the durable service: `open_persistent` runs
/// the symbol plane, so it exports the interner gauges, decides a last
/// step without a resource-limit deny, records black-box entries by interned user symbol, and explains
/// decisions as the `sym` engine.
#[test]
fn durable_service_runs_and_reports_the_symbol_plane() {
    let dir = std::env::temp_dir().join(format!("obs-durable-sym-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // POLICY plus a last step on the Branch policy, so one decide takes
    // the exclusive section.
    let xml = POLICY
        .replace(
            "<TargetAccess operation=\"audit\"",
            "<TargetAccess operation=\"closeBranch\" targetURI=\"books\">\
             <AllowedRole value=\"Auditor\"/></TargetAccess>\n    \
             <TargetAccess operation=\"audit\"",
        )
        .replace(
            "<MSoDPolicy BusinessContext=\"Branch=!\">",
            "<MSoDPolicy BusinessContext=\"Branch=!\">\n      \
             <LastStep operation=\"closeBranch\" targetURI=\"books\"/>",
        );
    let policy = msod_rbac::policy::parse_rbac_policy(&xml).unwrap();
    let (svc, _) =
        DecisionService::open_persistent(policy, b"obs-test-key".to_vec(), &dir, 4).unwrap();

    let (outcome, ex) =
        svc.decide_explained(&request("erin", "Teller", "handleCash", "till", "Branch=Hull", 1));
    assert!(outcome.is_granted());
    provoke_all_violations(&svc);
    // Enough plain grants that the phase sampler records black-box
    // entries; none of them is a last step.
    for i in 0..32u64 {
        let user = format!("user{i}");
        assert!(svc
            .decide(&request(&user, "Teller", "handleCash", "till", "Branch=Leeds", 10 + i))
            .is_granted());
    }
    // The last step terminates Branch=York, decided on symbols.
    let retained = svc.adi().len();
    assert!(svc
        .decide(&request("zed", "Auditor", "closeBranch", "books", "Branch=York", 50))
        .is_granted());
    assert_eq!(svc.adi().len(), retained - 1, "alice's Branch=York record is purged");
    svc.sync_adi().unwrap();
    let text = svc.metrics_text();
    if !msod_rbac::obs::enabled() {
        assert!(ex.msod.is_none());
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    assert_eq!(ex.engine, "sym");
    assert!(ex.msod.is_some());
    for kind in ["strings", "users", "roles", "privs", "ctx_pairs"] {
        let needle = format!("symtab_interned{{kind=\"{kind}\"}}");
        assert!(text.contains(&needle), "{needle} missing from:\n{text}");
    }
    assert!(gauge_sum(&text, "symtab_interned{kind=\"users\"}") >= 36);
    assert_eq!(gauge_sum(&text, "permis_reqbuf_overflow_total"), 0);
    let entries = svc.metrics().flight().entries();
    assert!(!entries.is_empty());
    for e in &entries {
        let user = svc.symbol_table().resolve_user(UserId::from_u32(e.user_sym));
        assert!(!user.is_empty(), "flight entries carry the interned user");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Explanation capture: `decide_explained` always explains, the opt-in
/// flag routes normal `decide` calls into the retained ring, and the
/// `inspect` management port is authorized like the other ports.
#[test]
fn explanations_capture_and_inspect_port() {
    let svc = service();
    svc.metrics().set_capture_explanations(true);
    provoke_all_violations(&svc);

    let (outcome, ex) =
        svc.decide_explained(&request("erin", "Teller", "handleCash", "till", "Branch=Hull", 7));
    assert!(outcome.is_granted());
    assert!(ex.granted);
    assert_eq!(ex.user, "erin");
    if !msod_rbac::obs::enabled() {
        // obs-off: no derivation is captured and the ring stays empty —
        // the API shape survives, the cost does not.
        assert!(ex.msod.is_none());
        assert!(!svc.metrics().capture_explanations());
        assert!(svc.metrics().recent_explanations().is_empty());
        return;
    }
    assert!(ex.msod.is_some());
    assert_eq!(ex.engine, "sym");

    let controller =
        Credentials::Validated(vec![RoleRef::new("employee", "RetainedADIController")]);
    let explanations = svc.inspect_explanations("cn=admin", controller, 8).unwrap();
    // All six scripted decisions were captured via the opt-in flag —
    // plus the inspect call's own management decision, which goes
    // through the same `decide` path and is captured like any other.
    assert_eq!(explanations.len(), 7);
    let last = explanations.last().unwrap();
    assert_eq!((last.user.as_str(), last.operation.as_str()), ("cn=admin", "explain"));
    let denied: Vec<_> = explanations.iter().filter(|e| !e.granted).collect();
    assert_eq!(denied.len(), 3);
    // The first deny names the exact violated MMER entry and the
    // retained record behind it, straight from the §4.2 derivation.
    let msod = denied[0].msod.as_ref().unwrap();
    assert!(msod.is_denied());
    let text = denied[0].render_text();
    assert!(text.contains("MMER"), "{text}");
    assert!(text.contains("Teller"), "{text}");
    // A non-controller is bounced before reading anything.
    let err = svc
        .inspect_explanations(
            "cn=mallory",
            Credentials::Validated(vec![RoleRef::new("employee", "Teller")]),
            9,
        )
        .unwrap_err();
    assert_eq!(err, DenyReason::RbacDenied);
}

/// Windowed metric history: frames are cumulative snapshots with
/// per-window histogram deltas and a slowest-decide exemplar that
/// links back to a flight-recorder ticket.
#[test]
fn metric_history_windows_and_exemplars() {
    let svc = service();
    provoke_all_violations(&svc);
    let f1 = svc.capture_metric_frame();
    assert!(svc
        .decide(&request("dave", "Teller", "handleCash", "till", "Branch=Leeds", 9))
        .is_granted());
    let f2 = svc.capture_metric_frame();
    if !msod_rbac::obs::enabled() {
        assert!(svc.metrics().history().is_empty());
        return;
    }
    assert_eq!((f1.seq, f2.seq), (0, 1));
    assert_eq!(f1.decisions, 6);
    assert_eq!((f1.grants, f1.denies), (3, 3));
    // The second window only saw dave's grant; the cumulative counters
    // move while the windowed delta stays small.
    assert_eq!(f2.decisions, 7);
    assert!(f2.decide_delta.count <= f1.decide_delta.count + 1);
    let history = svc.metrics().history();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0], f1);
    assert_eq!(history[1], f2);
    // The busy window sampled at least one decide, and its exemplar
    // names the user whose decide was slowest.
    assert!(f1.decide_delta.count >= 1);
    assert!(f1.slowest_ns > 0);
    assert!(!f1.slowest_user.is_empty());
}

/// The latency trigger turns a slow sampled decide into a flight dump:
/// with the threshold at zero every sampled decide is an anomaly, so
/// the recorder latches `p999_latency` and writes one snapshot.
#[test]
fn latency_trigger_dumps_flight_snapshot() {
    let dir = std::env::temp_dir().join(format!("obs-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = service();
    svc.set_flight_dir(Some(dir.clone()));
    svc.metrics().set_latency_trigger_ns(0);
    // Enough grants that the phase sampler takes at least one of them.
    for i in 0..32u64 {
        let user = format!("user{i}");
        assert!(svc
            .decide(&request(&user, "Teller", "handleCash", "till", "Branch=York", 10 + i))
            .is_granted());
    }
    if !msod_rbac::obs::enabled() {
        assert_eq!(svc.metrics().flight().triggers_total(), 0);
        assert!(!dir.exists());
        return;
    }
    assert!(svc.metrics().flight().triggers_total() >= 1);
    assert_eq!(svc.metrics().flight().dumps_total(), 1, "latch: one dump per reason");
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().contains("p999_latency"))
        .expect("latency snapshot written");
    let doc = std::fs::read_to_string(&snapshot).unwrap();
    assert!(doc.contains("\"reason\""), "{doc}");
    assert!(doc.contains("p999_latency"), "{doc}");
    assert!(doc.contains("\"total_ns\""), "{doc}");
    // The export carries the trigger and dump counters.
    let text = svc.metrics_text();
    assert!(gauge_sum(&text, "permis_flight_dumps_total") == 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_port_is_authorized() {
    let svc = service();
    let controller =
        Credentials::Validated(vec![RoleRef::new("employee", "RetainedADIController")]);
    let text = svc.inspect_metrics("cn=admin", controller, 1).unwrap();
    assert!(text.contains("permis_decisions_total"));
    // A non-controller is bounced before any export happens.
    let err = svc
        .inspect_metrics(
            "cn=mallory",
            Credentials::Validated(vec![RoleRef::new("employee", "Teller")]),
            2,
        )
        .unwrap_err();
    assert_eq!(err, DenyReason::RbacDenied);
}
