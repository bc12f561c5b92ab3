//! MSoD policies and policy sets (paper §3).

use context::ContextName;

use crate::constraint::{Mmep, Mmer};
use crate::error::MsodError;
use crate::privilege::Privilege;
use crate::sym::MAX_POLICY_TALLY;

/// One MSoD policy: a business context, optional first/last steps and a
/// list of MMER / MMEP constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsodPolicy {
    /// The (possibly wildcarded) business context the policy governs.
    pub business_context: ContextName,
    /// When present, history recording starts only when this operation
    /// is granted inside the context (§3: "tells the PDP when to start
    /// enforcing MSoD").
    pub first_step: Option<Privilege>,
    /// When present, granting this operation terminates the context
    /// instance and flushes its retained ADI (§3/§4.2 step 7).
    pub last_step: Option<Privilege>,
    mmer: Vec<Mmer>,
    mmep: Vec<Mmep>,
}

impl MsodPolicy {
    /// Build a policy; it must carry at least one constraint, and its
    /// constraints at most [`MAX_POLICY_TALLY`] distinct entries in
    /// total (counted per constraint, then summed).
    pub fn new(
        business_context: ContextName,
        first_step: Option<Privilege>,
        last_step: Option<Privilege>,
        mmer: Vec<Mmer>,
        mmep: Vec<Mmep>,
    ) -> Result<Self, MsodError> {
        if mmer.is_empty() && mmep.is_empty() {
            return Err(MsodError::EmptyPolicy);
        }
        let entries: usize = mmer.iter().map(|c| distinct(c.roles())).sum::<usize>()
            + mmep.iter().map(|c| distinct(c.privileges())).sum::<usize>();
        if entries > MAX_POLICY_TALLY {
            return Err(MsodError::TooManyEntries { entries, max: MAX_POLICY_TALLY });
        }
        Ok(MsodPolicy { business_context, first_step, last_step, mmer, mmep })
    }

    /// The MMER constraints.
    pub fn mmer(&self) -> &[Mmer] {
        &self.mmer
    }

    /// The MMEP constraints.
    pub fn mmep(&self) -> &[Mmep] {
        &self.mmep
    }

    /// Whether `operation`/`target` is this policy's first step.
    pub fn is_first_step(&self, operation: &str, target: &str) -> bool {
        self.first_step.as_ref().is_some_and(|p| p.matches(operation, target))
    }

    /// Whether `operation`/`target` is this policy's last step.
    pub fn is_last_step(&self, operation: &str, target: &str) -> bool {
        self.last_step.as_ref().is_some_and(|p| p.matches(operation, target))
    }
}

/// How many distinct values `entries` lists.
fn distinct<T: Ord>(entries: &[T]) -> usize {
    let mut sorted: Vec<&T> = entries.iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// An ordered set of MSoD policies, the `<MSoDPolicySet>` document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MsodPolicySet {
    policies: Vec<MsodPolicy>,
}

impl MsodPolicySet {
    /// An empty set (MSoD enforcement becomes a no-op).
    pub fn empty() -> Self {
        MsodPolicySet::default()
    }

    /// Build from policies.
    pub fn new(policies: Vec<MsodPolicy>) -> Self {
        MsodPolicySet { policies }
    }

    /// Append a policy.
    pub fn push(&mut self, policy: MsodPolicy) {
        self.policies.push(policy);
    }

    /// All policies, in document order.
    pub fn policies(&self) -> &[MsodPolicy] {
        &self.policies
    }

    /// Number of policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the set has no policies.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// §4.2 step 1: indices of every policy whose business context
    /// matches the request's context instance ("if there are multiple
    /// matches then all policies apply").
    pub fn matching(&self, instance: &context::ContextInstance) -> Vec<usize> {
        self.policies
            .iter()
            .enumerate()
            .filter(|(_, p)| p.business_context.matches_instance(instance))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::RoleRef;

    fn bank_policy() -> MsodPolicy {
        MsodPolicy::new(
            "Branch=*, Period=!".parse().unwrap(),
            None,
            Some(Privilege::new("CommitAudit", "http://audit.location.com/audit")),
            vec![Mmer::new(
                vec![RoleRef::new("employee", "Teller"), RoleRef::new("employee", "Auditor")],
                2,
            )
            .unwrap()],
            vec![],
        )
        .unwrap()
    }

    fn tax_policy() -> MsodPolicy {
        let p1 = Privilege::new("approve/disapproveCheck", "http://www.myTaxOffice.com/Check");
        MsodPolicy::new(
            "TaxOffice=!, taxRefundProcess=!".parse().unwrap(),
            Some(Privilege::new("prepareCheck", "http://www.myTaxOffice.com/Check")),
            Some(Privilege::new("confirmCheck", "http://secret.location.com/audit")),
            vec![],
            vec![
                Mmep::new(
                    vec![
                        Privilege::new("prepareCheck", "http://www.myTaxOffice.com/Check"),
                        Privilege::new("confirmCheck", "http://secret.location.com/audit"),
                    ],
                    2,
                )
                .unwrap(),
                Mmep::new(
                    vec![
                        p1.clone(),
                        p1,
                        Privilege::new("combineResults", "http://secret.location.com/results"),
                    ],
                    2,
                )
                .unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn policy_requires_constraints() {
        assert!(matches!(
            MsodPolicy::new("A=!".parse().unwrap(), None, None, vec![], vec![]),
            Err(MsodError::EmptyPolicy)
        ));
    }

    /// The tally cap counts distinct entries per constraint: duplicates
    /// (the paper's repeat-exercise idiom) are free, and the same role
    /// in two constraints counts twice.
    #[test]
    fn policy_rejects_more_distinct_entries_than_the_tally() {
        let roles = |n: usize| (0..n).map(|i| RoleRef::new("e", format!("R{i}"))).collect();
        let policy =
            |mmer: Vec<Mmer>| MsodPolicy::new("A=!".parse().unwrap(), None, None, mmer, vec![]);
        assert!(policy(vec![Mmer::new(roles(MAX_POLICY_TALLY), 2).unwrap()]).is_ok());
        let mut doubled: Vec<RoleRef> = roles(MAX_POLICY_TALLY);
        doubled.extend(roles(MAX_POLICY_TALLY));
        assert!(policy(vec![Mmer::new(doubled, 2).unwrap()]).is_ok());
        assert_eq!(
            policy(vec![Mmer::new(roles(MAX_POLICY_TALLY + 1), 2).unwrap()]),
            Err(MsodError::TooManyEntries { entries: MAX_POLICY_TALLY + 1, max: MAX_POLICY_TALLY })
        );
        let half = MAX_POLICY_TALLY / 2 + 1;
        assert!(policy(vec![
            Mmer::new(roles(half), 2).unwrap(),
            Mmer::new(roles(half), 2).unwrap()
        ])
        .is_err());
    }

    #[test]
    fn first_last_step_detection() {
        let p = tax_policy();
        assert!(p.is_first_step("prepareCheck", "http://www.myTaxOffice.com/Check"));
        assert!(!p.is_first_step("prepareCheck", "elsewhere"));
        assert!(p.is_last_step("confirmCheck", "http://secret.location.com/audit"));
        let bank = bank_policy();
        assert!(!bank.is_first_step("anything", "anywhere")); // no first step
    }

    #[test]
    fn matching_selects_all_applicable() {
        let set = MsodPolicySet::new(vec![bank_policy(), tax_policy()]);
        let inst: context::ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        assert_eq!(set.matching(&inst), vec![0]);
        let tax: context::ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        assert_eq!(set.matching(&tax), vec![1]);
        let neither: context::ContextInstance = "Dept=IT".parse().unwrap();
        assert!(set.matching(&neither).is_empty());
    }

    #[test]
    fn overlapping_policies_all_match() {
        let broad = MsodPolicy::new(
            "Branch=*".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![RoleRef::new("e", "A"), RoleRef::new("e", "B")], 2).unwrap()],
            vec![],
        )
        .unwrap();
        let set = MsodPolicySet::new(vec![bank_policy(), broad]);
        let inst: context::ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        assert_eq!(set.matching(&inst), vec![0, 1]);
    }
}
