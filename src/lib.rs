//! Facade crate re-exporting the full MSoD-for-RBAC workspace API.
//!
//! The README below doubles as the crate-level documentation, and its
//! quickstart snippet is compiled and run as a doctest.
#![doc = include_str!("../README.md")]

pub use audit;
pub use context;
pub use credential;
pub use msod;
pub use net;
pub use obs;
pub use permis;
pub use policy;
pub use rbac;
pub use storage;
pub use workflow;
pub use xmlkit;

/// The handful of types almost every embedding needs, re-exported flat.
pub mod prelude {
    pub use context::{ContextInstance, ContextName};
    pub use msod::{MsodDecision, RetainedAdi, RoleRef};
    pub use permis::{
        Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason, Pep,
    };
    pub use policy::{parse_msod_policy_set, parse_rbac_policy, PdpPolicy};
}
