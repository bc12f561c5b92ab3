//! Business-context names and instances.
//!
//! The paper (§2.2) names business contexts hierarchically with ordered
//! `type=value` pairs, e.g. `Branch=*, Period=!`. The *universal context*
//! is the hierarchy root and has the empty name. Two reserved values give
//! a policy its scope:
//!
//! - `*` — the policy applies **across all instances** of that context
//!   type (SSD within the business context);
//! - `!` — the policy applies **per instance** (DSD within each business
//!   context instance).
//!
//! A concrete request always carries a [`ContextInstance`] whose values
//! are all literals, e.g. `Branch=York, Period=2006`.

use std::fmt;
use std::str::FromStr;

use crate::error::ContextError;

/// The value slot of one policy-context component.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternValue {
    /// A literal value — matches only itself (`Branch=York`).
    Literal(String),
    /// `*` — SSD scope: matches every instance value, and keeps matching
    /// every instance value after binding.
    AllInstances,
    /// `!` — DSD scope: matches every instance value, and is *bound* to
    /// the concrete value of the triggering request (paper §4.2 step 1).
    PerInstance,
}

impl PatternValue {
    fn matches(&self, value: &str) -> bool {
        match self {
            PatternValue::Literal(v) => v == value,
            PatternValue::AllInstances | PatternValue::PerInstance => true,
        }
    }
}

impl fmt::Display for PatternValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternValue::Literal(v) => f.write_str(v),
            PatternValue::AllInstances => f.write_str("*"),
            PatternValue::PerInstance => f.write_str("!"),
        }
    }
}

/// One `type=value` component of a policy context name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Component {
    /// The context type of this component.
    pub ctx_type: String,
    /// The value involved.
    pub value: PatternValue,
}

/// A policy-side business-context name: an ordered, possibly empty list
/// of components. The empty name is the universal context.
///
/// ```
/// use context::ContextName;
/// let bank: ContextName = "Branch=*, Period=!".parse().unwrap();
/// assert_eq!(bank.to_string(), "Branch=*, Period=!");
/// assert!(ContextName::universal().is_universal());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ContextName {
    components: Vec<Component>,
}

/// A concrete business-context instance carried on an access request:
/// ordered `type=value` pairs with literal values only.
///
/// ```
/// use context::ContextInstance;
/// let i: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
/// assert_eq!(i.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ContextInstance {
    pairs: Vec<(String, String)>,
}

fn split_components(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim).filter(|c| !c.is_empty())
}

fn parse_pair(comp: &str) -> Result<(String, String), ContextError> {
    let (t, v) =
        comp.split_once('=').ok_or_else(|| ContextError::MalformedComponent(comp.to_owned()))?;
    let (t, v) = (t.trim(), v.trim());
    if t.is_empty() || v.is_empty() {
        return Err(ContextError::EmptyField(comp.to_owned()));
    }
    Ok((t.to_owned(), v.to_owned()))
}

impl ContextName {
    /// The universal context (empty name, hierarchy root).
    pub fn universal() -> Self {
        ContextName::default()
    }

    /// Build from components. Rejects duplicate types.
    pub fn from_components(components: Vec<Component>) -> Result<Self, ContextError> {
        for (i, c) in components.iter().enumerate() {
            if components[..i].iter().any(|p| p.ctx_type == c.ctx_type) {
                return Err(ContextError::DuplicateType(c.ctx_type.clone()));
            }
        }
        Ok(ContextName { components })
    }

    /// Whether this is the universal (empty) context name.
    pub fn is_universal(&self) -> bool {
        self.components.is_empty()
    }

    /// Number of components (depth below the universal root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// The components, outermost context type first.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Whether this name contains any `!` (per-instance) component, i.e.
    /// whether it must be bound to the triggering instance before use
    /// (paper §4.2 step 1).
    pub fn is_per_instance(&self) -> bool {
        self.components.iter().any(|c| c.value == PatternValue::PerInstance)
    }

    /// Paper §4.2 step 1 (matching): does the concrete `instance` fall
    /// inside this policy context? True iff the instance is **equal or
    /// subordinate**: the policy components are a prefix of the instance
    /// components with matching types, and every pattern value admits the
    /// instance value. The universal context matches everything.
    pub fn matches_instance(&self, instance: &ContextInstance) -> bool {
        if instance.pairs.len() < self.components.len() {
            return false;
        }
        self.components
            .iter()
            .zip(&instance.pairs)
            .all(|(c, (t, v))| c.ctx_type == *t && c.value.matches(v))
    }

    /// Paper §4.2 step 1 (instance substitution): produce the *bound*
    /// context for a request instance — every `!` replaced with the
    /// instance's concrete value, `*` and literals kept. Errors if the
    /// instance does not match this policy context.
    pub fn bind(&self, instance: &ContextInstance) -> Result<BoundContext, ContextError> {
        if !self.matches_instance(instance) {
            return Err(ContextError::BindMismatch {
                policy: self.to_string(),
                instance: instance.to_string(),
            });
        }
        let components = self
            .components
            .iter()
            .zip(&instance.pairs)
            .map(|(c, (_, v))| Component {
                ctx_type: c.ctx_type.clone(),
                value: match &c.value {
                    PatternValue::PerInstance => PatternValue::Literal(v.clone()),
                    other => other.clone(),
                },
            })
            .collect();
        Ok(BoundContext(ContextName { components }))
    }
}

impl FromStr for ContextName {
    type Err = ContextError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut components = Vec::new();
        for comp in split_components(s) {
            let (t, v) = parse_pair(comp)?;
            let value = match v.as_str() {
                "*" => PatternValue::AllInstances,
                "!" => PatternValue::PerInstance,
                _ => PatternValue::Literal(v),
            };
            components.push(Component { ctx_type: t, value });
        }
        ContextName::from_components(components)
    }
}

impl fmt::Display for ContextName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}={}", c.ctx_type, c.value)?;
        }
        Ok(())
    }
}

impl ContextInstance {
    /// The instance at the universal root (empty).
    pub fn root() -> Self {
        ContextInstance::default()
    }

    /// Build from pairs. Rejects duplicate types and wildcard values.
    pub fn from_pairs(pairs: Vec<(String, String)>) -> Result<Self, ContextError> {
        ContextInstance::check_pairs(&pairs)?;
        Ok(ContextInstance { pairs })
    }

    /// The rule [`ContextInstance::from_pairs`] enforces, over borrowed
    /// pairs: no duplicate types, no wildcard values. For layers that
    /// hold an instance in another representation (interned symbols)
    /// and must accept exactly the instances this type accepts.
    pub fn check_pairs<S: AsRef<str>>(pairs: &[(S, S)]) -> Result<(), ContextError> {
        for (i, (t, v)) in pairs.iter().enumerate() {
            let (t, v) = (t.as_ref(), v.as_ref());
            if v == "*" || v == "!" {
                return Err(ContextError::WildcardInInstance(format!("{t}={v}")));
            }
            if pairs[..i].iter().any(|(pt, _)| pt.as_ref() == t) {
                return Err(ContextError::DuplicateType(t.to_owned()));
            }
        }
        Ok(())
    }

    /// Number of components (depth below the universal root).
    pub fn depth(&self) -> usize {
        self.pairs.len()
    }

    /// The `(type, value)` pairs, outermost first.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// The parent instance (one level up), or `None` at the root.
    pub fn parent(&self) -> Option<ContextInstance> {
        if self.pairs.is_empty() {
            None
        } else {
            Some(ContextInstance { pairs: self.pairs[..self.pairs.len() - 1].to_vec() })
        }
    }

    /// Extend with a child component, producing the subordinate instance.
    pub fn child(
        &self,
        ctx_type: impl Into<String>,
        value: impl Into<String>,
    ) -> Result<ContextInstance, ContextError> {
        let mut pairs = self.pairs.clone();
        pairs.push((ctx_type.into(), value.into()));
        ContextInstance::from_pairs(pairs)
    }

    /// Whether `self` is equal to or subordinate to `other` (i.e. `other`
    /// is a prefix of `self`).
    pub fn is_within(&self, other: &ContextInstance) -> bool {
        self.pairs.len() >= other.pairs.len()
            && self.pairs.iter().zip(&other.pairs).all(|(a, b)| a == b)
    }
}

impl FromStr for ContextInstance {
    type Err = ContextError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut pairs = Vec::new();
        for comp in split_components(s) {
            pairs.push(parse_pair(comp)?);
        }
        ContextInstance::from_pairs(pairs)
    }
}

impl fmt::Display for ContextInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (t, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}={v}")?;
        }
        Ok(())
    }
}

/// A policy context after §4.2 step-1 binding: contains no `!` components.
///
/// A bound context *covers* the set of retained-ADI records whose stored
/// instance is equal or subordinate to it, with `*` matching every value
/// (paper §4.2 steps 3 and 7).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoundContext(ContextName);

impl BoundContext {
    /// The underlying (bound) name.
    pub fn name(&self) -> &ContextName {
        &self.0
    }

    /// Treat an already-fully-bound name (no `!` components) as a bound
    /// context — used when reloading persisted bound contexts.
    pub fn from_name(name: ContextName) -> Result<BoundContext, ContextError> {
        if let Some(c) = name.components().iter().find(|c| c.value == PatternValue::PerInstance) {
            return Err(ContextError::UnboundComponent(format!("{}={}", c.ctx_type, c.value)));
        }
        Ok(BoundContext(name))
    }

    /// Whether a stored instance is covered: equal or subordinate, with
    /// `*` matching any value at its level.
    pub fn covers(&self, instance: &ContextInstance) -> bool {
        self.0.matches_instance(instance)
    }
}

impl fmt::Display for BoundContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> ContextName {
        s.parse().unwrap()
    }

    fn inst(s: &str) -> ContextInstance {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["Branch=*, Period=!", "Branch=York, Period=!", "TaxOffice=!, taxRefundProcess=!"]
        {
            assert_eq!(name(s).to_string(), s);
        }
        assert_eq!(ContextName::universal().to_string(), "");
        assert_eq!(inst("Branch=York, Period=2006").to_string(), "Branch=York, Period=2006");
    }

    #[test]
    fn parse_tolerates_whitespace() {
        assert_eq!(name("  Branch = *  ,  Period = ! "), name("Branch=*, Period=!"));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(matches!(
            "Branch".parse::<ContextName>(),
            Err(ContextError::MalformedComponent(_))
        ));
        assert!(matches!("Branch=".parse::<ContextName>(), Err(ContextError::EmptyField(_))));
        assert!(matches!("=x".parse::<ContextName>(), Err(ContextError::EmptyField(_))));
        assert!(matches!("A=1, A=2".parse::<ContextName>(), Err(ContextError::DuplicateType(_))));
    }

    #[test]
    fn instance_rejects_wildcards() {
        assert!(matches!(
            "Branch=*".parse::<ContextInstance>(),
            Err(ContextError::WildcardInInstance(_))
        ));
        assert!(matches!(
            "Period=!".parse::<ContextInstance>(),
            Err(ContextError::WildcardInInstance(_))
        ));
    }

    // The three policy scopings from the paper's Figure 2 discussion.
    #[test]
    fn figure2_star_scope_matches_all_branches() {
        let policy = name("Branch=*, Period=!");
        assert!(policy.matches_instance(&inst("Branch=York, Period=2006")));
        assert!(policy.matches_instance(&inst("Branch=Leeds, Period=2006")));
        // Subordinate instances also match.
        assert!(policy.matches_instance(&inst("Branch=York, Period=2006, Desk=3")));
        // Shallower instances do not.
        assert!(!policy.matches_instance(&inst("Branch=York")));
        // Wrong type order does not.
        assert!(!policy.matches_instance(&inst("Period=2006, Branch=York")));
    }

    #[test]
    fn figure2_literal_scope_only_york() {
        let policy = name("Branch=York, Period=!");
        assert!(policy.matches_instance(&inst("Branch=York, Period=2006")));
        assert!(!policy.matches_instance(&inst("Branch=Leeds, Period=2006")));
    }

    #[test]
    fn universal_matches_everything() {
        let policy = ContextName::universal();
        assert!(policy.matches_instance(&ContextInstance::root()));
        assert!(policy.matches_instance(&inst("Anything=x, Deeper=y")));
    }

    #[test]
    fn bind_substitutes_only_bang() {
        let policy = name("Branch=*, Period=!");
        let bound = policy.bind(&inst("Branch=York, Period=2006")).unwrap();
        assert_eq!(bound.to_string(), "Branch=*, Period=2006");
        // '*' still spans branches after binding:
        assert!(bound.covers(&inst("Branch=Leeds, Period=2006")));
        assert!(!bound.covers(&inst("Branch=Leeds, Period=2007")));
    }

    #[test]
    fn bind_per_branch_policy() {
        let policy = name("Branch=!, Period=!");
        let bound = policy.bind(&inst("Branch=York, Period=2006")).unwrap();
        assert_eq!(bound.to_string(), "Branch=York, Period=2006");
        assert!(!bound.covers(&inst("Branch=Leeds, Period=2006")));
        assert!(bound.covers(&inst("Branch=York, Period=2006, Desk=1")));
    }

    #[test]
    fn bind_truncates_to_policy_depth() {
        let policy = name("TaxOffice=!, taxRefundProcess=!");
        let bound =
            policy.bind(&inst("TaxOffice=Kent, taxRefundProcess=77, Step=approve")).unwrap();
        assert_eq!(bound.to_string(), "TaxOffice=Kent, taxRefundProcess=77");
        assert!(bound.covers(&inst("TaxOffice=Kent, taxRefundProcess=77, Step=void")));
        assert!(!bound.covers(&inst("TaxOffice=Kent, taxRefundProcess=78")));
    }

    #[test]
    fn bind_mismatch_errors() {
        let policy = name("Branch=York, Period=!");
        assert!(matches!(
            policy.bind(&inst("Branch=Leeds, Period=2006")),
            Err(ContextError::BindMismatch { .. })
        ));
    }

    #[test]
    fn instance_hierarchy_navigation() {
        let i = inst("Branch=York, Period=2006");
        assert_eq!(i.parent().unwrap().to_string(), "Branch=York");
        assert_eq!(i.parent().unwrap().parent().unwrap(), ContextInstance::root());
        assert!(ContextInstance::root().parent().is_none());
        let child = i.child("Desk", "3").unwrap();
        assert!(child.is_within(&i));
        assert!(!i.is_within(&child));
        assert!(i.is_within(&i));
    }

    #[test]
    fn per_instance_detection() {
        assert!(name("Branch=*, Period=!").is_per_instance());
        assert!(!name("Branch=*, Period=2006").is_per_instance());
        assert!(!ContextName::universal().is_per_instance());
    }
}
