//! Violation forensics: structured incident reports.
//!
//! When the VM's flight recorder is armed (`Image::with_record`, the CLI's
//! `--record` flag, or `rsti explain`) and an RSTI detection trap fires, the
//! engine synthesizes one [`Incident`]: the failing check site, the
//! expected-vs-presented modifier and key, the *sign-site lineage* of the
//! authenticated value (the last sign event that produced exactly the bits
//! being authenticated), a scope-lifetime timeline, and the last-K window of
//! pointer-lifecycle events leading up to the trap.
//!
//! Everything here is plain resolved data — function names, check-site
//! labels, key letters — so the type has no dependency on the VM or IR
//! crates and both execution engines can be diffed for bit-identical
//! incidents (the same discipline the attribution profiler established:
//! `Incident` derives `PartialEq` and rides on `ExecResult`).
//!
//! Serialization goes through the crate's one JSON writer
//! ([`crate::json`]); the documents are a public contract pinned by golden
//! tests below.

use crate::json::{self, Hex, Hex64, ToJson};

/// One pointer-lifecycle event captured by the VM's flight recorder,
/// fully resolved (names instead of ids) for export.
///
/// `kind` is one of the closed event taxonomy: `sign`, `auth`, `auth_fail`,
/// `strip`, `load`, `store`, `free`, `scope_enter`, `scope_exit`,
/// `attacker_write`.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentEvent {
    /// Model-cycle timestamp (deterministic; identical across engines).
    pub cycle: u64,
    /// Event kind from the closed taxonomy.
    pub kind: String,
    /// Function the event executed in (entered/exited function for scope
    /// events).
    pub func: String,
    /// Check-site label (`func:bbN:i`) for PAC-family events; empty for
    /// events with no check site (loads, stores, scope transitions).
    pub site: String,
    /// Memory address involved (slot for load/store, block base for free,
    /// target for attacker writes; 0 when not applicable).
    pub addr: u64,
    /// The pointer value as the event saw it (signed bits for sign/auth
    /// under PAC-in-pointer; raw bits otherwise; 0 when not applicable).
    pub value: u64,
    /// PAC modifier used by sign/auth events (0 otherwise).
    pub modifier: u64,
    /// PAC key letter (`ia`, `ib`, `da`, `db`, `ga`) for sign/auth events;
    /// empty otherwise.
    pub key: String,
}

impl IncidentEvent {
    /// One human-readable line for the report's event window.
    pub fn render_line(&self) -> String {
        let mut line = format!("cycle {:>8}  {:<13} {}", self.cycle, self.kind, self.func);
        if !self.site.is_empty() {
            line.push_str(&format!("  site {}", self.site));
        }
        if self.addr != 0 {
            line.push_str(&format!("  addr {:#x}", self.addr));
        }
        if self.value != 0 {
            line.push_str(&format!("  value {:#018x}", self.value));
        }
        if self.modifier != 0 {
            line.push_str(&format!("  modifier {:#018x}", self.modifier));
        }
        if !self.key.is_empty() {
            line.push_str(&format!("  key {}", self.key));
        }
        line
    }
}

impl ToJson for IncidentEvent {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("cycle", self.cycle)
                .field("kind", &self.kind)
                .field("func", &self.func)
                .field("site", &self.site)
                .field("addr", Hex(self.addr))
                .field("value", Hex64(self.value))
                .field("modifier", Hex64(self.modifier))
                .field("key", &self.key);
        });
    }
}

/// The sign-site lineage of an authenticated value: the most recent `sign`
/// event whose produced bits are exactly the bits the failing check
/// authenticated. Present for replay/substitution attacks (the signature is
/// genuine, minted elsewhere); absent for raw overwrites (the value was
/// never signed).
#[derive(Debug, Clone, PartialEq)]
pub struct SignLineage {
    /// Check-site label of the signing instruction.
    pub site: String,
    /// Function the sign executed in.
    pub func: String,
    /// Model cycle of the sign.
    pub cycle: u64,
    /// Modifier the signer used — the *expected* modifier at the failing
    /// check when the mechanisms agree on scope-type identity.
    pub modifier: u64,
    /// Key the signer used.
    pub key: String,
}

impl ToJson for SignLineage {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("site", &self.site)
                .field("func", &self.func)
                .field("cycle", self.cycle)
                .field("modifier", Hex64(self.modifier))
                .field("key", &self.key);
        });
    }
}

/// Current incident schema version (bumped on any field change).
pub const INCIDENT_SCHEMA: u32 = 1;

/// A structured violation incident: one RSTI detection trap explained.
///
/// Synthesized by the VM (either accounting mode) at the first detection
/// trap of a recorded run; deterministic and bit-identical between
/// `interp` and `compiled` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Schema version ([`INCIDENT_SCHEMA`]).
    pub schema: u32,
    /// Mechanism in force (`RSTI-STWC`, `RSTI-STC`, `RSTI-STL`, `PARTS`).
    pub mechanism: String,
    /// Enforcement backend (`pac_in_pointer` or `mac_table`).
    pub enforcement: String,
    /// Trap class: `pac_auth_failure` or `pp_auth_failure`.
    pub trap: String,
    /// Model cycle at which the trap fired.
    pub cycle: u64,
    /// Function the failing check executed in.
    pub func: String,
    /// Source line of the failing check (0 when absent).
    pub line: u32,
    /// Label of the failing check site (`func:bbN:i`; empty when the
    /// failing operation carries no site id).
    pub check_site: String,
    /// The faulting instruction (`pac.auth`, `pp.auth`, `pp.sign`,
    /// `pp.add`).
    pub check_kind: String,
    /// Instrumentation-site kind that fired (`on_load`, `on_store`,
    /// `cast_resign`, `arg_resign`, `pp_metadata`, ...).
    pub pac_site: String,
    /// The modifier the failing check presented.
    pub presented_modifier: u64,
    /// The key the failing check used.
    pub presented_key: String,
    /// The value the failing check authenticated (as loaded).
    pub presented_value: u64,
    /// PAC bits found in the presented value (0 for MAC-table misses).
    pub found_pac: u64,
    /// PAC bits a genuine signature would carry here.
    pub expected_pac: u64,
    /// Sign-site lineage of the presented value, when the recorder's
    /// window contains a sign event that produced those exact bits.
    pub lineage: Option<SignLineage>,
    /// Scope-lifetime timeline: the `scope_enter`/`scope_exit`/`free`
    /// events from the recorded window, in order.
    pub scope_timeline: Vec<IncidentEvent>,
    /// The full last-K event window, oldest first (the trap's `auth_fail`
    /// event is last).
    pub window: Vec<IncidentEvent>,
    /// Events that fell off the bounded ring before the trap.
    pub dropped_events: u64,
    /// Free-form detail copied from the audit record.
    pub detail: String,
}

impl Incident {
    /// The one-line forensic verdict: what kind of corruption the lineage
    /// implies.
    pub fn verdict(&self) -> String {
        match &self.lineage {
            None => format!(
                "value {:#018x} was never signed in the recorded window — \
                 consistent with a raw overwrite (forged pointer)",
                self.presented_value
            ),
            Some(l) if l.modifier != self.presented_modifier => format!(
                "modifier mismatch — the signature is genuine but was minted at {} \
                 for modifier {:#018x}, not {:#018x}: a cross-scope-type replay",
                if l.site.is_empty() { l.func.as_str() } else { l.site.as_str() },
                l.modifier,
                self.presented_modifier
            ),
            Some(l) if l.key != self.presented_key => format!(
                "key mismatch — signed with key {} but authenticated with key {}",
                l.key, self.presented_key
            ),
            Some(_) => "signature and modifier match an earlier sign — the slot binding \
                        or lifetime is stale (cross-slot or temporal replay)"
                .to_string(),
        }
    }

    /// Renders the incident as a human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== RSTI incident report ==\n");
        out.push_str(&format!(
            "trap        : {} ({}, {} enforcement)\n",
            self.trap, self.mechanism, self.enforcement
        ));
        let site = if self.check_site.is_empty() {
            "<no site id>".to_string()
        } else {
            self.check_site.clone()
        };
        out.push_str(&format!(
            "where       : {} (line {}) at check site {} [{} {}]\n",
            self.func, self.line, site, self.pac_site, self.check_kind
        ));
        out.push_str(&format!("cycle       : {}\n", self.cycle));
        out.push_str(&format!(
            "presented   : value {:#018x}, modifier {:#018x} (key {}), \
             PAC found {:#x} expected {:#x}\n",
            self.presented_value,
            self.presented_modifier,
            self.presented_key,
            self.found_pac,
            self.expected_pac
        ));
        match &self.lineage {
            Some(l) => out.push_str(&format!(
                "provenance  : value was signed at {} in {} (cycle {}) \
                 with modifier {:#018x} (key {})\n",
                if l.site.is_empty() { "<no site id>" } else { l.site.as_str() },
                l.func,
                l.cycle,
                l.modifier,
                l.key
            )),
            None => out.push_str(&format!(
                "provenance  : no sign event recorded for value {:#018x}\n",
                self.presented_value
            )),
        }
        out.push_str(&format!("verdict     : {}\n", self.verdict()));
        out.push_str(&format!("detail      : {}\n", self.detail));
        if !self.scope_timeline.is_empty() {
            out.push_str("scope timeline:\n");
            for e in &self.scope_timeline {
                out.push_str(&format!("  {}\n", e.render_line()));
            }
        }
        out.push_str(&format!("last {} events:\n", self.window.len()));
        for e in &self.window {
            out.push_str(&format!("  {}\n", e.render_line()));
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "({} earlier events fell off the {}-entry ring)\n",
                self.dropped_events,
                self.window.len()
            ));
        }
        out
    }
}

/// One JSON object, pinned whole by the golden test.
impl ToJson for Incident {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("schema", self.schema)
                .field("mechanism", &self.mechanism)
                .field("enforcement", &self.enforcement)
                .field("trap", &self.trap)
                .field("cycle", self.cycle)
                .field("func", &self.func)
                .field("line", self.line)
                .field("check_site", &self.check_site)
                .field("check_kind", &self.check_kind)
                .field("pac_site", &self.pac_site)
                .field("presented_modifier", Hex64(self.presented_modifier))
                .field("presented_key", &self.presented_key)
                .field("presented_value", Hex64(self.presented_value))
                .field("found_pac", Hex(self.found_pac))
                .field("expected_pac", Hex(self.expected_pac))
                .field("lineage", &self.lineage)
                .field("scope_timeline", &self.scope_timeline)
                .field("window", &self.window)
                .field("dropped_events", self.dropped_events)
                .field("detail", &self.detail);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> IncidentEvent {
        IncidentEvent {
            cycle: 456,
            kind: "sign".into(),
            func: "handler_init".into(),
            site: "handler_init:bb0:3".into(),
            addr: 0x1000,
            value: 0x00ff_0000_0000_1234,
            modifier: 0x9f,
            key: "da".into(),
        }
    }

    fn sample_incident() -> Incident {
        Incident {
            schema: INCIDENT_SCHEMA,
            mechanism: "RSTI-STWC".into(),
            enforcement: "pac_in_pointer".into(),
            trap: "pac_auth_failure".into(),
            cycle: 1234,
            func: "dispatch".into(),
            line: 12,
            check_site: "dispatch:bb2:5".into(),
            check_kind: "pac.auth".into(),
            pac_site: "on_load".into(),
            presented_modifier: 0x1a2b,
            presented_key: "da".into(),
            presented_value: 0x00ff_0000_0000_1234,
            found_pac: 0xff,
            expected_pac: 0x7a,
            lineage: Some(SignLineage {
                site: "handler_init:bb0:3".into(),
                func: "handler_init".into(),
                cycle: 456,
                modifier: 0x9f,
                key: "da".into(),
            }),
            scope_timeline: vec![],
            window: vec![sample_event()],
            dropped_events: 2,
            detail: "found 0xff, expected 0x7a".into(),
        }
    }

    /// Golden test: the incident JSON document is a public contract —
    /// field names, field order, separators and hex widths. Any change is
    /// an incident-format break and must be deliberate (bump
    /// [`INCIDENT_SCHEMA`] and update every consumer).
    #[test]
    fn incident_json_field_names_are_stable() {
        let mut inc = sample_incident();
        inc.scope_timeline = vec![IncidentEvent {
            cycle: 300,
            kind: "scope_exit".into(),
            func: "handler_init".into(),
            site: String::new(),
            addr: 0,
            value: 0,
            modifier: 0,
            key: String::new(),
        }];
        assert_eq!(
            inc.to_json(),
            concat!(
                r#"{"schema":1,"mechanism":"RSTI-STWC","enforcement":"pac_in_pointer","#,
                r#""trap":"pac_auth_failure","cycle":1234,"func":"dispatch","line":12,"#,
                r#""check_site":"dispatch:bb2:5","check_kind":"pac.auth","pac_site":"on_load","#,
                r#""presented_modifier":"0x0000000000001a2b","presented_key":"da","#,
                r#""presented_value":"0x00ff000000001234","found_pac":"0xff","#,
                r#""expected_pac":"0x7a","lineage":{"site":"handler_init:bb0:3","#,
                r#""func":"handler_init","cycle":456,"modifier":"0x000000000000009f","key":"da"},"#,
                r#""scope_timeline":[{"cycle":300,"kind":"scope_exit","func":"handler_init","#,
                r#""site":"","addr":"0x0","value":"0x0000000000000000","#,
                r#""modifier":"0x0000000000000000","key":""}],"#,
                r#""window":[{"cycle":456,"kind":"sign","func":"handler_init","#,
                r#""site":"handler_init:bb0:3","addr":"0x1000","value":"0x00ff000000001234","#,
                r#""modifier":"0x000000000000009f","key":"da"}],"#,
                r#""dropped_events":2,"detail":"found 0xff, expected 0x7a"}"#,
            )
        );
    }

    /// The event JSON document is pinned alongside the incident's.
    #[test]
    fn event_json_field_names_are_stable() {
        assert_eq!(
            sample_event().to_json(),
            concat!(
                r#"{"cycle":456,"kind":"sign","func":"handler_init","site":"handler_init:bb0:3","#,
                r#""addr":"0x1000","value":"0x00ff000000001234","modifier":"0x000000000000009f","#,
                r#""key":"da"}"#,
            )
        );
    }

    /// The incident reads back through the one reader, escapes included.
    #[test]
    fn incident_json_round_trips() {
        use crate::json::{parse_json, Json, NASTY};
        let mut inc = sample_incident();
        inc.detail = NASTY.into();
        let v = parse_json(&inc.to_json()).unwrap();
        let s = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_owned);
        assert_eq!(s(&v, "detail").as_deref(), Some(NASTY));
        assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(1234));
        assert_eq!(s(&v, "presented_modifier").as_deref(), Some("0x0000000000001a2b"));
        let lineage = v.get("lineage").unwrap();
        assert_eq!(s(lineage, "site").as_deref(), Some("handler_init:bb0:3"));
        let Some(Json::Arr(window)) = v.get("window") else { panic!("{v:?}") };
        assert_eq!(s(&window[0], "addr").as_deref(), Some("0x1000"));
    }

    /// A missing lineage serializes as JSON `null` and renders the
    /// never-signed verdict.
    #[test]
    fn raw_overwrite_incident_has_null_lineage() {
        let mut inc = sample_incident();
        inc.lineage = None;
        assert!(inc.to_json().contains("\"lineage\":null"));
        assert!(inc.verdict().contains("never signed"), "{}", inc.verdict());
        assert!(inc.render_text().contains("no sign event recorded"));
    }

    /// A lineage with a different modifier renders the replay verdict
    /// naming both modifiers.
    #[test]
    fn replay_incident_verdict_names_both_modifiers() {
        let inc = sample_incident();
        let v = inc.verdict();
        assert!(v.contains("modifier mismatch"), "{v}");
        assert!(v.contains("0x000000000000009f"), "{v}");
        assert!(v.contains("0x0000000000001a2b"), "{v}");
        let text = inc.render_text();
        assert!(text.contains("== RSTI incident report =="));
        assert!(text.contains("provenance  : value was signed at handler_init:bb0:3"));
        assert!(text.contains("trap        : pac_auth_failure (RSTI-STWC, pac_in_pointer"));
    }
}
