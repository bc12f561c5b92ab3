//! Explainable verdicts: the service-level wrapper around the MSoD
//! derivation ([`msod::MsodExplanation`]) plus the front-end facts the
//! PDP adds (validated roles, the deny reason, which engine decided).
//!
//! [`DecisionService::decide_explained`] produces one [`Explanation`]
//! per decision; [`Explanation::render_text`] turns it into the
//! operator-facing "why" document and [`Explanation::render_json`]
//! into a machine-readable one (hand-rolled serialization — the
//! workspace builds offline). Under `obs-off` the MSoD capture is
//! skipped entirely and `msod` stays `None`; the verdict itself is
//! unaffected.
//!
//! [`DecisionService::decide_explained`]: crate::DecisionService::decide_explained

use std::fmt::Write as _;

use msod::{step_title, ConstraintKind, MsodExplanation};

use crate::request::{DecisionOutcome, DecisionRequest};

/// The full provenance of one decision: the request as evaluated, the
/// verdict, and (when captured) the §4.2 derivation behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Request timestamp (the caller's clock, as audited).
    pub timestamp: u64,
    /// Requesting subject.
    pub user: String,
    /// Requested operation.
    pub operation: String,
    /// Target URI.
    pub target: String,
    /// The business-context instance the request ran in.
    pub context: String,
    /// `true` for grants, `false` for denies.
    pub granted: bool,
    /// The roles the verdict was based on (post-validation), rendered
    /// `type:value`.
    pub roles: Vec<String>,
    /// The stable deny-reason string; `None` on grants.
    pub reason: Option<String>,
    /// Which engine decided the MSoD stage: `"sym"` for the compiled
    /// symbol engine, `"string"` for the string engine (a fallback, or a
    /// service with no compiled engine), `"front_end"` when the request
    /// never reached MSoD, `"replica_gate"` when a replica refused it.
    pub engine: &'static str,
    /// The §4.2 derivation. `None` when the front end denied before
    /// MSoD ran, or when instrumentation is compiled out (`obs-off`).
    pub msod: Option<MsodExplanation>,
}

impl Explanation {
    /// Build the wrapper from a finished decision. `msod` is whatever
    /// the MSoD stage captured (`None` off the MSoD path).
    pub fn from_outcome(
        req: &DecisionRequest,
        outcome: &DecisionOutcome,
        msod: Option<MsodExplanation>,
        engine: &'static str,
    ) -> Self {
        let (granted, roles, reason) = match outcome {
            DecisionOutcome::Grant { roles, .. } => (true, roles, None),
            DecisionOutcome::Deny { roles, reason } => (false, roles, Some(reason.to_string())),
        };
        Explanation {
            timestamp: req.timestamp,
            user: req.subject.clone(),
            operation: req.operation.clone(),
            target: req.target.clone(),
            context: req.context.to_string(),
            granted,
            roles: roles.iter().map(|r| r.to_string()).collect(),
            reason,
            engine,
            msod,
        }
    }

    /// The human-readable "why": verdict, reason, then the §4.2 walk —
    /// per-policy binding and state, per-constraint multiset
    /// arithmetic with the entries that carried it, the contributing
    /// record ids, and the consulted records themselves.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.granted { "GRANT" } else { "DENY" };
        let _ = writeln!(
            out,
            "{verdict} {} on {} by {} in [{}] at t={}",
            self.operation, self.target, self.user, self.context, self.timestamp
        );
        let _ = writeln!(out, "  roles: {}", join(&self.roles));
        if let Some(reason) = &self.reason {
            let _ = writeln!(out, "  reason: {reason}");
        }
        let Some(ex) = &self.msod else {
            let _ = writeln!(out, "  msod: derivation not captured ({})", self.engine);
            return out;
        };
        let _ = writeln!(out, "  step {}: {}", ex.step, step_title(ex.step));
        for p in &ex.policies {
            let mut state = Vec::new();
            if p.started {
                state.push("started");
            }
            if p.starts_now {
                state.push("starts now");
            }
            if p.checked {
                state.push("checked");
            }
            if p.wants_record {
                state.push("records");
            }
            if p.last_step {
                state.push("last step");
            }
            let _ = writeln!(
                out,
                "  policy #{} scope {} bound to [{}]{} ({})",
                p.policy_index,
                p.context,
                p.bound,
                if p.bindings.is_empty() {
                    String::new()
                } else {
                    format!(
                        ", bindings {}",
                        p.bindings
                            .iter()
                            .map(|(t, v)| format!("{t}={v}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                },
                if state.is_empty() { "inactive".to_owned() } else { state.join(", ") },
            );
        }
        for c in &ex.constraints {
            let kind = match c.kind {
                ConstraintKind::Mmer => "MMER",
                ConstraintKind::Mmep => "MMEP",
            };
            let _ = writeln!(
                out,
                "  {kind} #{} of policy #{}: {} current + {} historic {} {} (m={}) -> {}",
                c.constraint_index,
                c.policy_index,
                c.current,
                c.historic,
                if c.denied { ">=" } else { "<" },
                c.forbidden_cardinality,
                c.forbidden_cardinality,
                if c.denied { "DENY" } else { "pass" },
            );
            for e in &c.entries {
                let _ = writeln!(
                    out,
                    "    entry {}: listed {}, current {}, seen {}, counted {}",
                    e.label, e.listed, e.current, e.seen, e.counted
                );
            }
            if !c.contributing.is_empty() {
                let _ = writeln!(
                    out,
                    "    contributing records: {}",
                    c.contributing.iter().map(|t| format!("t={t}")).collect::<Vec<_>>().join(", ")
                );
            }
        }
        if !ex.records.is_empty() {
            let _ = writeln!(out, "  consulted {} record(s):", ex.records.len());
            for r in &ex.records {
                let _ = writeln!(
                    out,
                    "    t={} {} [{}] {} on {} in [{}]",
                    r.timestamp,
                    r.user,
                    join(&r.roles),
                    r.operation,
                    r.target,
                    r.context
                );
            }
        }
        out
    }

    /// The machine-readable "why", as one JSON object.
    pub fn render_json(&self) -> String {
        let mut o = String::from("{");
        field_str(&mut o, "verdict", if self.granted { "grant" } else { "deny" });
        field_num(&mut o, "timestamp", self.timestamp);
        field_str(&mut o, "user", &self.user);
        field_str(&mut o, "operation", &self.operation);
        field_str(&mut o, "target", &self.target);
        field_str(&mut o, "context", &self.context);
        field_str_array(&mut o, "roles", &self.roles);
        match &self.reason {
            Some(r) => field_str(&mut o, "reason", r),
            None => field_raw(&mut o, "reason", "null"),
        }
        field_str(&mut o, "engine", self.engine);
        match &self.msod {
            None => field_raw(&mut o, "msod", "null"),
            Some(ex) => {
                let mut m = String::from("{");
                field_num(&mut m, "step", u64::from(ex.step));
                field_str(&mut m, "step_title", step_title(ex.step));
                match ex.deny {
                    Some(i) => field_num(&mut m, "deny_constraint", i as u64),
                    None => field_raw(&mut m, "deny_constraint", "null"),
                }
                let policies: Vec<String> = ex
                    .policies
                    .iter()
                    .map(|p| {
                        let mut j = String::from("{");
                        field_num(&mut j, "policy_index", p.policy_index as u64);
                        field_str(&mut j, "context", &p.context);
                        field_str(&mut j, "bound", &p.bound);
                        let bindings: Vec<String> = p
                            .bindings
                            .iter()
                            .map(|(t, v)| {
                                format!(
                                    "{{\"type\":{},\"value\":{}}}",
                                    json_string(t),
                                    json_string(v)
                                )
                            })
                            .collect();
                        field_raw(&mut j, "bindings", &format!("[{}]", bindings.join(",")));
                        field_bool(&mut j, "started", p.started);
                        field_bool(&mut j, "starts_now", p.starts_now);
                        field_bool(&mut j, "checked", p.checked);
                        field_bool(&mut j, "wants_record", p.wants_record);
                        field_bool(&mut j, "last_step", p.last_step);
                        close(j)
                    })
                    .collect();
                field_raw(&mut m, "policies", &format!("[{}]", policies.join(",")));
                let constraints: Vec<String> = ex
                    .constraints
                    .iter()
                    .map(|c| {
                        let mut j = String::from("{");
                        field_str(
                            &mut j,
                            "kind",
                            match c.kind {
                                ConstraintKind::Mmer => "MMER",
                                ConstraintKind::Mmep => "MMEP",
                            },
                        );
                        field_num(&mut j, "policy_index", c.policy_index as u64);
                        field_num(&mut j, "constraint_index", c.constraint_index as u64);
                        field_num(&mut j, "forbidden_cardinality", c.forbidden_cardinality as u64);
                        field_num(&mut j, "current", c.current as u64);
                        field_num(&mut j, "historic", c.historic as u64);
                        field_bool(&mut j, "denied", c.denied);
                        let entries: Vec<String> = c
                            .entries
                            .iter()
                            .map(|e| {
                                let mut k = String::from("{");
                                field_str(&mut k, "label", &e.label);
                                field_num(&mut k, "listed", e.listed as u64);
                                field_num(&mut k, "current", e.current as u64);
                                field_num(&mut k, "seen", e.seen as u64);
                                field_num(&mut k, "counted", e.counted as u64);
                                close(k)
                            })
                            .collect();
                        field_raw(&mut j, "entries", &format!("[{}]", entries.join(",")));
                        let ids: Vec<String> =
                            c.contributing.iter().map(|t| t.to_string()).collect();
                        field_raw(&mut j, "contributing", &format!("[{}]", ids.join(",")));
                        close(j)
                    })
                    .collect();
                field_raw(&mut m, "constraints", &format!("[{}]", constraints.join(",")));
                let records: Vec<String> = ex
                    .records
                    .iter()
                    .map(|r| {
                        let mut j = String::from("{");
                        field_num(&mut j, "timestamp", r.timestamp);
                        field_str(&mut j, "user", &r.user);
                        field_str_array(&mut j, "roles", &r.roles);
                        field_str(&mut j, "operation", &r.operation);
                        field_str(&mut j, "target", &r.target);
                        field_str(&mut j, "context", &r.context);
                        close(j)
                    })
                    .collect();
                field_raw(&mut m, "records", &format!("[{}]", records.join(",")));
                field_raw(&mut o, "msod", &close(m));
            }
        }
        close(o)
    }
}

fn join(items: &[String]) -> String {
    if items.is_empty() {
        "(none)".to_owned()
    } else {
        items.join(", ")
    }
}

/// Escape `s` as a JSON string literal, quotes included.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn field_raw(obj: &mut String, key: &str, raw: &str) {
    if !obj.ends_with('{') {
        obj.push(',');
    }
    let _ = write!(obj, "{}:{raw}", json_string(key));
}

fn field_str(obj: &mut String, key: &str, val: &str) {
    let raw = json_string(val);
    field_raw(obj, key, &raw);
}

fn field_num(obj: &mut String, key: &str, val: u64) {
    field_raw(obj, key, &val.to_string());
}

fn field_bool(obj: &mut String, key: &str, val: bool) {
    field_raw(obj, key, if val { "true" } else { "false" });
}

fn field_str_array(obj: &mut String, key: &str, vals: &[String]) {
    let items: Vec<String> = vals.iter().map(|v| json_string(v)).collect();
    field_raw(obj, key, &format!("[{}]", items.join(",")));
}

fn close(mut obj: String) -> String {
    obj.push('}');
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use msod::RoleRef;

    fn deny_outcome() -> DecisionOutcome {
        DecisionOutcome::Deny {
            roles: vec![RoleRef::new("employee", "Auditor")],
            reason: crate::request::DenyReason::RbacDenied,
        }
    }

    fn req() -> DecisionRequest {
        DecisionRequest::with_roles(
            "cn=alice \"quoted\"",
            vec![RoleRef::new("employee", "Auditor")],
            "audit",
            "books",
            "Branch=Leeds".parse().unwrap(),
            42,
        )
    }

    #[test]
    fn text_render_covers_verdict_and_reason() {
        let ex = Explanation::from_outcome(&req(), &deny_outcome(), None, "string");
        let text = ex.render_text();
        assert!(text.starts_with("DENY audit on books"));
        assert!(text.contains("reason: RBAC target access policy denies"));
        assert!(text.contains("derivation not captured"));
    }

    #[test]
    fn json_escapes_and_balances() {
        let ex = Explanation::from_outcome(&req(), &deny_outcome(), None, "string");
        let json = ex.render_json();
        assert!(json.contains(r#""user":"cn=alice \"quoted\"""#), "{json}");
        assert!(json.contains(r#""msod":null"#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_renders_full_msod_derivation() {
        let ex = Explanation::from_outcome(
            &req(),
            &deny_outcome(),
            Some(msod::MsodExplanation::not_applicable()),
            "symbolized",
        );
        let json = ex.render_json();
        assert!(json.contains(r#""msod":{"step":1"#), "{json}");
        assert!(json.contains(r#""engine":"symbolized""#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_string_escapes_control_chars() {
        assert_eq!(json_string("a\nb"), r#""a\nb""#);
        assert_eq!(json_string("x\u{1}"), "\"x\\u0001\"");
        assert_eq!(json_string(r#"q"\"#), r#""q\"\\""#);
    }
}
