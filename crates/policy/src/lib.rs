#![warn(missing_docs)]
//! # policy — XML policy language for MSoD-enabled RBAC
//!
//! Implements §3 and Appendix A of the MSoD paper: MSoD policies are
//! written in XML, validated against an XSD, and embedded as a
//! sub-policy of a PERMIS-style RBAC policy.
//!
//! - [`parse_msod_policy_set`] / [`msod_policy_set_to_xml`] — the
//!   standalone `<MSoDPolicySet>` document of Appendix A;
//! - [`parse_rbac_policy`] / [`rbac_policy_to_xml`] — the full
//!   `<RBACPolicy>` document (SOAs, subject domains, role hierarchy,
//!   target-access rules, embedded MSoD sub-policy) compiled to the
//!   [`PdpPolicy`] the PERMIS PDP evaluates;
//! - [`msod_xml::PAPER_SECTION3_POLICIES`] — the paper's two §3 policies
//!   verbatim, used by tests.
//!
//! ```
//! use policy::{parse_msod_policy_set, msod_xml::PAPER_SECTION3_POLICIES};
//!
//! let set = parse_msod_policy_set(PAPER_SECTION3_POLICIES).unwrap();
//! assert_eq!(set.len(), 2);
//! assert_eq!(set.policies()[0].business_context.to_string(),
//!            "Branch=*, Period=!");
//! ```

pub mod error;
pub mod msod_xml;
pub mod rbac_xml;

pub use error::PolicyError;
pub use msod_xml::{msod_policy_set_to_xml, msod_schema, parse_msod_policy_set, MSOD_SCHEMA_XSD};
pub use rbac_xml::{
    parse_rbac_policy, rbac_policy_to_xml, rbac_schema, Condition, PdpPolicy, TargetRule,
    RBAC_SCHEMA_XSD,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use context::{Component, ContextName, PatternValue};
    use msod::{Mmep, Mmer, MsodPolicy, MsodPolicySet, Privilege, RoleRef};
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = String> {
        "[A-Za-z][A-Za-z0-9]{0,8}"
    }

    fn arb_context() -> impl Strategy<Value = ContextName> {
        proptest::collection::btree_set(arb_name(), 0..4).prop_flat_map(|types| {
            let types: Vec<String> = types.into_iter().collect();
            proptest::collection::vec(
                prop_oneof![
                    arb_name().prop_map(PatternValue::Literal),
                    Just(PatternValue::AllInstances),
                    Just(PatternValue::PerInstance),
                ],
                types.len(),
            )
            .prop_map(move |vals| {
                ContextName::from_components(
                    types
                        .iter()
                        .zip(vals)
                        .map(|(t, v)| Component { ctx_type: t.clone(), value: v })
                        .collect(),
                )
                .unwrap()
            })
        })
    }

    fn arb_mmer() -> impl Strategy<Value = Mmer> {
        proptest::collection::vec((arb_name(), arb_name()), 2..5).prop_flat_map(|pairs| {
            let n = pairs.len();
            (Just(pairs), 2..=n).prop_map(|(pairs, m)| {
                Mmer::new(pairs.into_iter().map(|(t, v)| RoleRef::new(t, v)).collect(), m).unwrap()
            })
        })
    }

    fn arb_mmep() -> impl Strategy<Value = Mmep> {
        proptest::collection::vec((arb_name(), arb_name()), 2..5).prop_flat_map(|pairs| {
            let n = pairs.len();
            (Just(pairs), 2..=n).prop_map(|(pairs, m)| {
                Mmep::new(
                    pairs
                        .into_iter()
                        .map(|(op, t)| Privilege::new(op, format!("http://x/{t}")))
                        .collect(),
                    m,
                )
                .unwrap()
            })
        })
    }

    fn arb_policy() -> impl Strategy<Value = MsodPolicy> {
        (
            arb_context(),
            proptest::option::of(arb_name()),
            proptest::option::of(arb_name()),
            proptest::collection::vec(arb_mmer(), 0..3),
            proptest::collection::vec(arb_mmep(), 0..3),
        )
            .prop_filter_map("needs a constraint", |(bc, fs, ls, mmer, mmep)| {
                if mmer.is_empty() && mmep.is_empty() {
                    return None;
                }
                MsodPolicy::new(
                    bc,
                    fs.map(|op| Privilege::new(op, "http://first/step")),
                    ls.map(|op| Privilege::new(op, "http://last/step")),
                    mmer,
                    mmep,
                )
                .ok()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// serialize → parse is the identity on arbitrary MSoD policy sets.
        #[test]
        fn msod_xml_roundtrip(policies in proptest::collection::vec(arb_policy(), 1..5)) {
            let set = MsodPolicySet::new(policies);
            let xml = msod_policy_set_to_xml(&set);
            let reparsed = parse_msod_policy_set(&xml)
                .unwrap_or_else(|e| panic!("{e}\n{xml}"));
            prop_assert_eq!(reparsed, set);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_total(s in "\\PC{0,300}") {
            let _ = parse_msod_policy_set(&s);
            let _ = parse_rbac_policy(&s);
        }
    }
}
