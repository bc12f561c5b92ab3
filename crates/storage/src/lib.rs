#![warn(missing_docs)]
//! # storage — persistent retained-ADI backend
//!
//! The MSoD paper closes by noting its in-core retained ADI "will not be
//! scalable, due to the time taken to initialize the retained ADI from
//! the secure audit trails. Thus our next implementation will use a
//! secure relational database to store the retained ADI instead"
//! (§6). This crate is that next implementation: an embedded,
//! crash-safe, CRC-framed operation journal ([`OpLog`]) with
//! compaction, laid *under* the symbolized in-memory index
//! ([`msod::SymAdi`]) as a write-ahead layer and exposed as the same
//! [`msod::RetainedAdi`] trait the in-memory store implements —
//! including its symbol-plane seam, so the compiled `msod::SymEngine`
//! decides over journaled shards exactly as it does in memory (see
//! [`adi`]).
//!
//! Experiment E9 (the E9 table of `examples/experiments.rs` and the
//! `workflow_durable` workload of `benchmark/`) measures the start-up
//! and per-decision trade-off between:
//!
//! - the paper's shipped design: in-memory ADI + full audit-trail
//!   replay at start-up, and
//! - this crate: journal replay bounded by compaction.
//!
//! ```
//! use msod::{AdiRecord, RetainedAdi, RoleRef};
//! use storage::PersistentAdi;
//!
//! let path = std::env::temp_dir().join("adi-doc-example.log");
//! # let _ = std::fs::remove_file(&path);
//! let mut adi = PersistentAdi::open(&path).unwrap();
//! adi.add(AdiRecord {
//!     user: "alice".into(),
//!     roles: vec![RoleRef::new("employee", "Teller")],
//!     operation: "handleCash".into(),
//!     target: "till".into(),
//!     context: "Branch=York, Period=2006".parse().unwrap(),
//!     timestamp: 1,
//! });
//! adi.sync().unwrap();
//! drop(adi);
//!
//! // Records survive a restart.
//! let adi = PersistentAdi::open(&path).unwrap();
//! assert_eq!(adi.len(), 1);
//! # std::fs::remove_file(&path).unwrap();
//! ```

pub mod adi;
pub mod crc;
pub mod error;
pub mod log;
pub mod recovery;
pub mod vfs;

pub use adi::{
    encode_add_v2, tail_journal_with_vfs, truncate_to_last_marker_with_vfs, AdiOp, PersistentAdi,
    ReplayDecoder, ReplayFrame, SymDict,
};
pub use crc::crc32;
pub use error::StorageError;
pub use log::OpLog;
pub use recovery::{verify_journal, verify_journal_with_vfs, JournalVerifyReport, RecoveryReport};
pub use vfs::{FaultPlan, FaultVfs, StdVfs, Vfs, VfsFile};

#[cfg(test)]
mod proptests {
    use super::*;
    use msod::{AdiRecord, MemoryAdi, RetainedAdi, RoleRef};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Add { user: u8, role: u8, ctx: u8, ts: u64 },
        Purge { ctx: u8 },
        PurgeOlder { cutoff: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..4, 0u8..3, 0u8..3, 0u64..100)
                .prop_map(|(user, role, ctx, ts)| Op::Add { user, role, ctx, ts }),
            1 => (0u8..3).prop_map(|ctx| Op::Purge { ctx }),
            1 => (0u64..100).prop_map(|cutoff| Op::PurgeOlder { cutoff }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// PersistentAdi behaves exactly like MemoryAdi under any op
        /// sequence, both live and after a reopen.
        #[test]
        fn equivalent_to_memory(ops in proptest::collection::vec(arb_op(), 0..60)) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "padi-prop-{}-{case}.log",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let mut mem = MemoryAdi::new();
            let mut per = PersistentAdi::open(&path).unwrap();
            for op in &ops {
                match op {
                    Op::Add { user, role, ctx, ts } => {
                        let rec = AdiRecord {
                            user: format!("u{user}"),
                            roles: vec![RoleRef::new("e", format!("r{role}"))],
                            operation: "op".into(),
                            target: "t".into(),
                            context: format!("P={ctx}").parse().unwrap(),
                            timestamp: *ts,
                        };
                        mem.add(rec.clone());
                        per.add(rec);
                    }
                    Op::Purge { ctx } => {
                        let name: context::ContextName = "P=!".parse().unwrap();
                        let b = name.bind(&format!("P={ctx}").parse().unwrap()).unwrap();
                        prop_assert_eq!(mem.purge(&b), per.purge(&b));
                    }
                    Op::PurgeOlder { cutoff } => {
                        prop_assert_eq!(
                            mem.purge_older_than(*cutoff),
                            per.purge_older_than(*cutoff)
                        );
                    }
                }
                prop_assert_eq!(mem.len(), per.len());
            }
            prop_assert_eq!(mem.snapshot(), per.snapshot());
            per.sync().unwrap();
            drop(per);
            let reopened = PersistentAdi::open(&path).unwrap();
            prop_assert_eq!(mem.snapshot(), reopened.snapshot());
            std::fs::remove_file(&path).unwrap();
        }
    }
}
