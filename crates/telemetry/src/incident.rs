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
//! Serialization is hand-rolled (the workspace is dependency-free); the
//! field names are a public contract pinned by golden tests below.

use crate::json_str;

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
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"kind\":{},\"func\":{},\"site\":{},\"addr\":\"{:#x}\",\
             \"value\":\"{:#018x}\",\"modifier\":\"{:#018x}\",\"key\":{}}}",
            self.cycle,
            json_str(&self.kind),
            json_str(&self.func),
            json_str(&self.site),
            self.addr,
            self.value,
            self.modifier,
            json_str(&self.key),
        )
    }

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

impl SignLineage {
    fn to_json(&self) -> String {
        format!(
            "{{\"site\":{},\"func\":{},\"cycle\":{},\"modifier\":\"{:#018x}\",\"key\":{}}}",
            json_str(&self.site),
            json_str(&self.func),
            self.cycle,
            self.modifier,
            json_str(&self.key),
        )
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
    /// Serializes the incident as one JSON object (no trailing newline).
    /// Field names are pinned by the golden test.
    pub fn to_json(&self) -> String {
        let lineage =
            self.lineage.as_ref().map_or_else(|| "null".to_string(), SignLineage::to_json);
        let timeline: Vec<String> =
            self.scope_timeline.iter().map(IncidentEvent::to_json).collect();
        let window: Vec<String> = self.window.iter().map(IncidentEvent::to_json).collect();
        format!(
            "{{\"schema\":{},\"mechanism\":{},\"enforcement\":{},\"trap\":{},\"cycle\":{},\
             \"func\":{},\"line\":{},\"check_site\":{},\"check_kind\":{},\"pac_site\":{},\
             \"presented_modifier\":\"{:#018x}\",\"presented_key\":{},\
             \"presented_value\":\"{:#018x}\",\"found_pac\":\"{:#x}\",\
             \"expected_pac\":\"{:#x}\",\"lineage\":{},\"scope_timeline\":[{}],\
             \"window\":[{}],\"dropped_events\":{},\"detail\":{}}}",
            self.schema,
            json_str(&self.mechanism),
            json_str(&self.enforcement),
            json_str(&self.trap),
            self.cycle,
            json_str(&self.func),
            self.line,
            json_str(&self.check_site),
            json_str(&self.check_kind),
            json_str(&self.pac_site),
            self.presented_modifier,
            json_str(&self.presented_key),
            self.presented_value,
            self.found_pac,
            self.expected_pac,
            lineage,
            timeline.join(","),
            window.join(","),
            self.dropped_events,
            json_str(&self.detail),
        )
    }

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

    /// Golden test: the incident JSON field names are a public contract.
    /// Any change is an incident-format break and must be deliberate
    /// (bump [`INCIDENT_SCHEMA`] and update every consumer).
    #[test]
    fn incident_json_field_names_are_stable() {
        let j = sample_incident().to_json();
        for field in [
            "\"schema\":1",
            "\"mechanism\":\"RSTI-STWC\"",
            "\"enforcement\":\"pac_in_pointer\"",
            "\"trap\":\"pac_auth_failure\"",
            "\"cycle\":1234",
            "\"func\":\"dispatch\"",
            "\"line\":12",
            "\"check_site\":\"dispatch:bb2:5\"",
            "\"check_kind\":\"pac.auth\"",
            "\"pac_site\":\"on_load\"",
            "\"presented_modifier\":\"0x0000000000001a2b\"",
            "\"presented_key\":\"da\"",
            "\"presented_value\":\"0x00ff000000001234\"",
            "\"found_pac\":\"0xff\"",
            "\"expected_pac\":\"0x7a\"",
            "\"lineage\":{",
            "\"scope_timeline\":[",
            "\"window\":[",
            "\"dropped_events\":2",
            "\"detail\":\"found 0xff, expected 0x7a\"",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        // Lineage object fields.
        for field in [
            "\"site\":\"handler_init:bb0:3\"",
            "\"func\":\"handler_init\"",
            "\"cycle\":456",
            "\"modifier\":\"0x000000000000009f\"",
            "\"key\":\"da\"",
        ] {
            assert!(j.contains(field), "missing lineage {field} in {j}");
        }
    }

    /// Event JSON field names are pinned alongside the incident's.
    #[test]
    fn event_json_field_names_are_stable() {
        let j = sample_event().to_json();
        for field in [
            "\"cycle\":456",
            "\"kind\":\"sign\"",
            "\"func\":\"handler_init\"",
            "\"site\":\"handler_init:bb0:3\"",
            "\"addr\":\"0x1000\"",
            "\"value\":\"0x00ff000000001234\"",
            "\"modifier\":\"0x000000000000009f\"",
            "\"key\":\"da\"",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
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
