#![warn(missing_docs)]
//! # permis — the integrated CVS/PDP
//!
//! The PERMIS-style authorization infrastructure of the MSoD paper's §5:
//! a policy-driven Policy Decision Point with a Credential Validation
//! Service in front, an MSoD stage behind the normal RBAC check, a
//! hash-chained audit trail underneath, start-up recovery of retained
//! ADI from that trail, and the §4.3 management port protecting the
//! retained ADI with the PDP's own policy.
//!
//! Pipeline per decision request (§4.1, Figures 3–4):
//!
//! ```text
//!   PEP ──request──▶ subject-domain check
//!                    └▶ CVS: validate pushed/pulled credentials → roles
//!                       └▶ RBAC: target-access policy (+ hierarchy)
//!                          └▶ MSoD: §4.2 algorithm over retained ADI
//!                             └▶ audit trail: log grant/deny
//! ```
//!
//! ```
//! use msod::RoleRef;
//! use permis::{DecisionRequest, DecisionService};
//!
//! let policy = r#"<RBACPolicy id="demo" roleType="employee">
//!   <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
//!   <TargetAccessPolicy>
//!     <TargetAccess operation="handleCash" targetURI="till">
//!       <AllowedRole value="Teller"/>
//!     </TargetAccess>
//!   </TargetAccessPolicy>
//! </RBACPolicy>"#;
//! let pdp = DecisionService::from_xml_symbolized(policy, b"trail-key".to_vec()).unwrap();
//! let out = pdp.decide(&DecisionRequest::with_roles(
//!     "cn=alice",
//!     vec![RoleRef::new("employee", "Teller")],
//!     "handleCash",
//!     "till",
//!     "Branch=York".parse().unwrap(),
//!     1,
//! ));
//! assert!(out.is_granted());
//! ```

pub mod explain;
mod front_end;
pub mod metrics;
pub mod mgmt;
pub mod pep;
pub mod recovery;
pub mod request;
pub mod service;

pub use explain::Explanation;
pub use metrics::{
    export_symtab, DecideMetrics, DecisionTrace, FlightEntry, MetricFrame, EXPLAIN_CAPACITY,
    FLIGHT_CAPACITY, HISTORY_CAPACITY, TRACE_CAPACITY,
};
pub use mgmt::{purge_scope, ManagementOp, MGMT_TARGET, RETAINED_ADI_CONTROLLER};
pub use pep::{Pep, PepSession};
pub use recovery::RecoveryReport;
pub use request::{Credentials, DecisionOutcome, DecisionRequest, DenyReason};
pub use service::{DecisionCore, DecisionService, ReplicaRole};
