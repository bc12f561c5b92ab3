//! Example 2 of the paper — the tax-refund process — driven through the
//! workflow engine with two interleaved process instances, showing that
//! every SoD rule is enforced by the PDP (which knows nothing about the
//! workflow) rather than by the engine.
//!
//! Run with: `cargo run --example tax_refund`

use permis::DecisionService;
use workflow::{AttemptOutcome, ProcessDefinition, ProcessRun, TAX_POLICY};

fn show(run_name: &str, task: &str, user: &str, out: &AttemptOutcome) {
    let verdict = match out {
        AttemptOutcome::Granted { process_complete: true, .. } => "GRANT (process complete)",
        AttemptOutcome::Granted { task_complete: true, .. } => "GRANT (task complete)",
        AttemptOutcome::Granted { .. } => "GRANT",
        AttemptOutcome::Denied(r) => {
            println!("  {run_name}: {task} by {user:<6} -> DENY   ({r})");
            return;
        }
        AttemptOutcome::NotAvailable(msg) => {
            println!("  {run_name}: {task} by {user:<6} -> UNAVAILABLE ({msg})");
            return;
        }
        AttemptOutcome::AlreadyPerformed => "already performed",
    };
    println!("  {run_name}: {task} by {user:<6} -> {verdict}");
}

fn main() {
    println!("== Tax refund (Example 2, after Bertino et al.) =============");
    println!("T1 prepare (clerk) -> T2 approve x2 (managers) ->");
    println!("T3 combine (different manager) -> T4 confirm (different clerk)\n");

    let pdp = DecisionService::from_xml_symbolized(TAX_POLICY, b"tax-trail-key".to_vec())
        .expect("policy");
    let def = ProcessDefinition::tax_refund();

    let mut refund_a =
        ProcessRun::new(def.clone(), "TaxOffice=Kent, taxRefundProcess=1001".parse().unwrap());
    let mut refund_b =
        ProcessRun::new(def, "TaxOffice=Kent, taxRefundProcess=1002".parse().unwrap());

    println!("Two refunds run interleaved, across many user sessions:");
    let mut ts = 0u64;
    let mut step = |run: &mut ProcessRun, name: &str, task: &str, user: &str| {
        ts += 1;
        let out = run.attempt(&pdp, task, user, ts);
        show(name, task, user, &out);
        out
    };

    step(&mut refund_a, "refund-A", "T1", "carol");
    step(&mut refund_b, "refund-B", "T1", "dora");

    println!("\nManagers approve. mike tries to approve refund-A twice:");
    step(&mut refund_a, "refund-A", "T2", "mike");
    // Direct PEP request — bypassing the engine — still denied by MSoD:
    let direct = permis::DecisionRequest::with_roles(
        "mike",
        vec![msod::RoleRef::new("employee", "Manager")],
        "approve/disapproveCheck",
        "http://www.myTaxOffice.com/Check",
        refund_a.context().clone(),
        99,
    );
    let out = pdp.decide(&direct);
    println!(
        "  refund-A: T2 by mike (bypassing the engine!) -> {}",
        if out.is_granted() { "GRANT" } else { "DENY (MSoD, not the engine, said no)" }
    );
    step(&mut refund_a, "refund-A", "T2", "mary");
    step(&mut refund_b, "refund-B", "T2", "mike"); // other instance: fine
    step(&mut refund_b, "refund-B", "T2", "mary");

    println!("\nCollecting the decisions (must be a third manager):");
    step(&mut refund_a, "refund-A", "T3", "mike");
    step(&mut refund_a, "refund-A", "T3", "max");
    step(&mut refund_b, "refund-B", "T3", "max");

    println!("\nConfirming the checks (must differ from the preparer):");
    step(&mut refund_a, "refund-A", "T4", "carol");
    step(&mut refund_a, "refund-A", "T4", "dora");
    step(&mut refund_b, "refund-B", "T4", "carol");

    assert!(refund_a.is_complete());
    assert!(refund_b.is_complete());
    println!("\nBoth refunds complete. Five+ people cooperated, as the SoD");
    println!("policy demands. Retained ADI after the last steps: {} records", pdp.adi().len());
    assert_eq!(pdp.adi().len(), 0);

    println!(
        "\nCast of refund-A: T1={:?} T2={:?} T3={:?} T4={:?}",
        refund_a.performers("T1"),
        refund_a.performers("T2"),
        refund_a.performers("T3"),
        refund_a.performers("T4")
    );
}
