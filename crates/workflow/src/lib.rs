#![warn(missing_docs)]
//! # workflow — business processes, baselines and synthetic workloads
//!
//! Three things the MSoD paper's evaluation needs around the core
//! system:
//!
//! 1. [`ProcessDefinition`] / [`ProcessRun`] — a deliberately thin
//!    business-process engine that drives multi-task, multi-user,
//!    multi-session scenarios (Example 2's tax refund) through the
//!    PERMIS PDP. All SoD enforcement stays in the PDP: the engine
//!    proves the paper's claim that MSoD needs no workflow knowledge.
//! 2. The two §6 comparators, implemented to be measured against:
//!    [`bertino::BertinoPlanner`] (centralized precomputed assignments,
//!    \[12\]) and [`antirole::AntiRoleEnforcer`] (Crampton's anti-roles,
//!    \[18\]).
//! 3. [`scenarios`] — seedable synthetic workload + policy generators
//!    for the scaling experiments (E8–E11).
//!
//! ```
//! use msod::RetainedAdi;
//! use permis::DecisionService;
//! use workflow::{ProcessDefinition, ProcessRun};
//!
//! # let policy = workflow::scenarios::workload_policy_xml(
//! #     &workflow::scenarios::WorkloadConfig::default());
//! # let _ = DecisionService::from_xml_symbolized(&policy, b"k".to_vec()).unwrap();
//! let process = ProcessDefinition::tax_refund();
//! assert_eq!(process.tasks.len(), 4);
//! assert_eq!(process.task("T2").unwrap().completions, 2);
//! ```

pub mod antirole;
pub mod bertino;
pub mod engine;
pub mod process;
pub mod scenarios;

pub use antirole::AntiRoleEnforcer;
pub use bertino::{Assignment, BertinoPlanner, WfConstraint};
pub use engine::{AttemptOutcome, ProcessRun, TAX_POLICY};
pub use process::{ProcessDefinition, TaskDef};
pub use scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// For any attempt order by any cast of users, a completed
        /// tax-refund run satisfies all four SoD requirements of
        /// Example 2 — because the PDP enforced them.
        #[test]
        fn completed_runs_satisfy_sod(
            attempts in proptest::collection::vec((0usize..4, 0usize..8), 1..120),
        ) {
            let policy = crate::engine::TAX_POLICY;
            let pdp = permis::DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
            let mut run = ProcessRun::new(
                ProcessDefinition::tax_refund(),
                "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap(),
            );
            let users = ["u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"];
            let tasks = ["T1", "T2", "T3", "T4"];
            for (ts, (t, u)) in attempts.iter().enumerate() {
                let _ = run.attempt(&pdp, tasks[*t], users[*u], ts as u64);
            }
            if run.is_complete() {
                let t1 = run.performers("T1").to_vec();
                let t2 = run.performers("T2").to_vec();
                let t3 = run.performers("T3").to_vec();
                let t4 = run.performers("T4").to_vec();
                prop_assert_eq!(t2.len(), 2);
                prop_assert_ne!(&t2[0], &t2[1], "T2 needs two different managers");
                prop_assert!(!t2.contains(&t3[0]), "T3 manager must differ from T2");
                prop_assert_ne!(&t1[0], &t4[0], "T4 clerk must differ from T1");
            }
        }
    }
}
