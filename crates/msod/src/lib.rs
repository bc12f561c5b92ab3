#![warn(missing_docs)]
//! # msod — Multi-session Separation of Duties for RBAC
//!
//! The primary contribution of *Multi-session Separation of Duties
//! (MSoD) for RBAC* (Chadwick, Xu, Otenko, Laborde, Nasser — ICDE 2007):
//! history-based separation-of-duty constraints that hold across many
//! user access-control sessions and across administrative domains, where
//! the ANSI standard's SSD and DSD both fail.
//!
//! - [`Mmer`] — multi-session mutually exclusive roles
//!   `MMER({r1..rn}, m, BC)`;
//! - [`Mmep`] — multi-session mutually exclusive privileges
//!   `MMEP({p1..pn}, m, BC)` (listing a privilege twice caps its use at
//!   once per context instance);
//! - [`MsodPolicy`] / [`MsodPolicySet`] — constraints scoped by a
//!   hierarchical business context with optional first/last steps;
//! - [`RetainedAdi`] / [`SymAdi`] — the ISO 10181-3 retained
//!   access-control decision information store (symbolized,
//!   context-trie-indexed);
//! - [`MsodEngine`] — the §4.2 enforcement algorithm, run by the PDP
//!   after the normal RBAC check grants;
//! - [`sym`] — the symbol plane: interned requests, flat multiset
//!   matchers, and the allocation-free [`sym::SymEngine`] fast path.
//! - [`dispatch`] — the MSoD stage of a decide in one call: the
//!   compiled symbol engine when there is one, the string engine for
//!   whatever it declines.
//!
//! ```
//! use std::sync::Arc;
//!
//! use context::ContextInstance;
//! use msod::{Mmer, MsodEngine, MsodPolicy, MsodPolicySet, MsodRequest,
//!            RoleRef, SymAdi};
//!
//! // Example 1 of the paper: no one may act as both Teller and Auditor
//! // anywhere in the bank within one audit period.
//! let policy = MsodPolicy::new(
//!     "Branch=*, Period=!".parse().unwrap(),
//!     None,
//!     None,
//!     vec![Mmer::new(vec![RoleRef::new("employee", "Teller"),
//!                         RoleRef::new("employee", "Auditor")], 2).unwrap()],
//!     vec![],
//! ).unwrap();
//! let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
//! let mut adi = SymAdi::new(Arc::new(msod::symtab::SymbolTable::new()));
//!
//! let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
//! let leeds: ContextInstance = "Branch=Leeds, Period=2006".parse().unwrap();
//! let teller = [RoleRef::new("employee", "Teller")];
//! let auditor = [RoleRef::new("employee", "Auditor")];
//!
//! // Alice handles cash as a Teller in York...
//! assert!(engine.enforce(&mut adi, &MsodRequest {
//!     user: "alice", roles: &teller, operation: "handleCash",
//!     target: "till", context: &york, timestamp: 1,
//! }).is_granted());
//!
//! // ...so she may not audit months later, even in another branch and
//! // another session:
//! assert!(!engine.enforce(&mut adi, &MsodRequest {
//!     user: "alice", roles: &auditor, operation: "audit",
//!     target: "books", context: &leeds, timestamp: 999,
//! }).is_granted());
//! ```

pub mod adi;
pub mod constraint;
pub mod engine;
pub mod error;
pub mod explain;
pub mod policy;
pub mod privilege;
pub mod sharded;
pub mod sym;

#[cfg(any(test, feature = "test-oracle"))]
pub use adi::MemoryAdi;
pub use adi::{AdiRecord, RetainedAdi};
pub use constraint::{Mmep, Mmer};
pub use engine::{
    ConstraintKind, DenyDetail, EngineOptions, GrantDetail, MsodDecision, MsodEngine, MsodRequest,
};
pub use error::MsodError;
pub use explain::{
    step_title, ConstraintTrace, EntryTrace, MsodExplanation, PolicyTrace, RecordTrace,
};
pub use policy::{MsodPolicy, MsodPolicySet};
pub use privilege::{Privilege, RoleRef};
pub use sharded::{AdiMetrics, ShardMetrics, ShardedAdi, DEFAULT_SHARDS, EPOCH_STALL_NS};
pub use sym::{
    dispatch, intern_request, sharded_sym_adi, CtxPair, Dispatched, MatchedBuf, MsodScratch,
    ReqBufs, SymAdi, SymEngine, SymOutcome, SymPathStats, SymRecord, SymRequest,
};
/// The interner the symbol plane is built on, re-exported so layers
/// that already depend on `msod` (the journaled store) can share a
/// [`symtab::SymbolTable`] without a dependency edge of their own.
pub use symtab;

#[cfg(test)]
mod adi_equivalence {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Add { user: u8, role: u8, depth1: u8, depth2: Option<u8> },
        PurgeLiteral { v: u8 },
        PurgeStar { v2: u8 },
        PurgeOlder { cutoff: u64 },
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u8..4, 0u8..3, 0u8..3, proptest::option::of(0u8..3))
                .prop_map(|(user, role, depth1, depth2)| Op::Add { user, role, depth1, depth2 }),
            2 => (0u8..3).prop_map(|v| Op::PurgeLiteral { v }),
            2 => (0u8..3).prop_map(|v2| Op::PurgeStar { v2 }),
            1 => (0u64..40).prop_map(|cutoff| Op::PurgeOlder { cutoff }),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The production store answers every query and mutation
        /// exactly like the reference MemoryAdi, over two-level context
        /// hierarchies with literal and starred purges.
        #[test]
        fn sym_equivalent_to_memory(ops in proptest::collection::vec(arb_op(), 0..50)) {
            let mut mem = MemoryAdi::new();
            let mut sym = SymAdi::new(std::sync::Arc::new(symtab::SymbolTable::new()));
            for (ts, op) in ops.iter().enumerate() {
                match op {
                    Op::Add { user, role, depth1, depth2 } => {
                        let ctx = match depth2 {
                            Some(d2) => format!("A={depth1}, B={d2}"),
                            None => format!("A={depth1}"),
                        };
                        let rec = AdiRecord {
                            user: format!("u{user}"),
                            roles: vec![RoleRef::new("e", format!("r{role}"))],
                            operation: "op".into(),
                            target: "t".into(),
                            context: ctx.parse().unwrap(),
                            timestamp: ts as u64,
                        };
                        mem.add(rec.clone());
                        sym.add(rec);
                    }
                    Op::PurgeLiteral { v } => {
                        let name: context::ContextName = "A=!".parse().unwrap();
                        let b = name.bind(&format!("A={v}").parse().unwrap()).unwrap();
                        prop_assert_eq!(mem.purge(&b), sym.purge(&b));
                    }
                    Op::PurgeStar { v2 } => {
                        let name: context::ContextName = "A=*, B=!".parse().unwrap();
                        let b = name
                            .bind(&format!("A=0, B={v2}").parse().unwrap())
                            .unwrap();
                        prop_assert_eq!(mem.purge(&b), sym.purge(&b));
                    }
                    Op::PurgeOlder { cutoff } => {
                        prop_assert_eq!(
                            mem.purge_older_than(*cutoff),
                            sym.purge_older_than(*cutoff)
                        );
                    }
                    Op::Clear => {
                        mem.clear();
                        sym.clear();
                    }
                }
                prop_assert_eq!(mem.len(), sym.len());
                // Probe queries after every op.
                for probe in ["A=0", "A=1", "A=0, B=1", "A=2, B=2"] {
                    let name: context::ContextName = "A=!".parse().unwrap();
                    let b = name.bind(&probe.parse().unwrap()).unwrap();
                    prop_assert_eq!(mem.context_active(&b), sym.context_active(&b));
                    for u in 0..4u8 {
                        let user = format!("u{u}");
                        prop_assert_eq!(
                            mem.user_records(&user, &b),
                            sym.user_records(&user, &b)
                        );
                    }
                }
            }
            prop_assert_eq!(mem.snapshot(), sym.snapshot());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use context::ContextInstance;
    use proptest::prelude::*;

    fn rr(i: usize) -> RoleRef {
        RoleRef::new("e", format!("R{i}"))
    }

    /// A random single-MMER engine plus a random request stream; checks
    /// the core safety and liveness invariants of the algorithm.
    fn arb_stream() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, usize)>)> {
        // (n roles in MMER, m cardinality, requests of (user, role, ctx))
        (2usize..5).prop_flat_map(|n| (Just(n), 2..=n)).prop_flat_map(|(n, m)| {
            (Just(n), Just(m), proptest::collection::vec((0usize..3, 0usize..6, 0usize..3), 1..40))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Safety: after any request stream, no user ever has >= m
        /// distinct MMER roles recorded within one bound context; and
        /// denials never mutate the ADI.
        #[test]
        fn mmer_safety_invariant((n, m, reqs) in arb_stream()) {
            let mmer_roles: Vec<RoleRef> = (0..n).map(rr).collect();
            let policy = MsodPolicy::new(
                "Proc=!".parse().unwrap(),
                None,
                None,
                vec![Mmer::new(mmer_roles.clone(), m).unwrap()],
                vec![],
            ).unwrap();
            // Strict mode closes the first-step window so the invariant
            // is absolute.
            let engine = MsodEngine::with_options(
                MsodPolicySet::new(vec![policy]),
                EngineOptions { check_constraints_on_first_step: true },
            );
            let mut adi = MemoryAdi::new();
            let ctxs: Vec<ContextInstance> =
                (0..3).map(|i| format!("Proc={i}").parse().unwrap()).collect();

            for (ts, (u, r, c)) in reqs.iter().enumerate() {
                let user = format!("user{u}");
                let roles = [rr(*r)];
                let before = adi.snapshot();
                let d = engine.enforce(&mut adi, &MsodRequest {
                    user: &user,
                    roles: &roles,
                    operation: "op",
                    target: "t",
                    context: &ctxs[*c],
                    timestamp: ts as u64,
                });
                if !d.is_granted() {
                    prop_assert_eq!(adi.snapshot(), before, "deny must not mutate ADI");
                }
                // Invariant: per user+context, distinct MMER roles < m.
                for u in 0..3 {
                    let user = format!("user{u}");
                    for c in &ctxs {
                        let bound = engine.policies().policies()[0]
                            .business_context.bind(c).unwrap();
                        let mut distinct = std::collections::HashSet::new();
                        for rec in adi.user_records(&user, &bound) {
                            for role in &rec.roles {
                                if mmer_roles.contains(role) {
                                    distinct.insert(role.clone());
                                }
                            }
                        }
                        prop_assert!(distinct.len() < m,
                            "user {user} holds {} >= m={m} conflicting roles", distinct.len());
                    }
                }
            }
        }

        /// Liveness: a user who always uses the same single role is never
        /// denied by an MMER of cardinality >= 2.
        #[test]
        fn same_role_never_denied(reqs in proptest::collection::vec(0usize..3, 1..30)) {
            let policy = MsodPolicy::new(
                "Proc=!".parse().unwrap(),
                None,
                None,
                vec![Mmer::new(vec![rr(0), rr(1)], 2).unwrap()],
                vec![],
            ).unwrap();
            let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
            let mut adi = MemoryAdi::new();
            let ctxs: Vec<ContextInstance> =
                (0..3).map(|i| format!("Proc={i}").parse().unwrap()).collect();
            let roles = [rr(0)];
            for (ts, c) in reqs.iter().enumerate() {
                let d = engine.enforce(&mut adi, &MsodRequest {
                    user: "solo",
                    roles: &roles,
                    operation: "op",
                    target: "t",
                    context: &ctxs[*c],
                    timestamp: ts as u64,
                });
                prop_assert!(d.is_granted());
            }
        }

        /// Termination resets: after a last-step grant, the context
        /// instance's history is gone and the previously-denied user is
        /// admitted again.
        #[test]
        fn last_step_resets(seed_roles in proptest::collection::vec(0usize..2, 1..6)) {
            let policy = MsodPolicy::new(
                "Proc=!".parse().unwrap(),
                None,
                Some(Privilege::new("finish", "t")),
                vec![Mmer::new(vec![rr(0), rr(1)], 2).unwrap()],
                vec![],
            ).unwrap();
            let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
            let mut adi = MemoryAdi::new();
            let ctx: ContextInstance = "Proc=1".parse().unwrap();
            for (ts, r) in seed_roles.iter().enumerate() {
                let roles = [rr(*r)];
                let _ = engine.enforce(&mut adi, &MsodRequest {
                    user: "alice", roles: &roles, operation: "op", target: "t",
                    context: &ctx, timestamp: ts as u64,
                });
            }
            // Someone finishes the process.
            let fin = [rr(0)];
            let d = engine.enforce(&mut adi, &MsodRequest {
                user: "zoe", roles: &fin, operation: "finish", target: "t",
                context: &ctx, timestamp: 100,
            });
            if d.is_granted() {
                prop_assert_eq!(adi.len(), 0);
                // Alice is admitted again with either role.
                let roles = [rr(1)];
                let d = engine.enforce(&mut adi, &MsodRequest {
                    user: "alice", roles: &roles, operation: "op", target: "t",
                    context: &ctx, timestamp: 101,
                });
                prop_assert!(d.is_granted());
            }
        }
    }
}
