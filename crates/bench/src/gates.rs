//! The bench-trajectory gates `vm_throughput` applies to its own run.
//!
//! Each run appends one schema-versioned entry to
//! `reports/bench_history.jsonl`. [`check_trajectory`] compares that entry
//! with the last committed one, both read through
//! [`rsti_telemetry::parse_json`]:
//!
//! * **Hard floors** on the two same-run, same-machine ratios, which are
//!   robust to CI hardware variance: block pre-charge must be at least as
//!   fast as per-op accounting ([`COMPILED_SPEEDUP_FLOOR`]), and a warm
//!   `serve` request at least [`SERVE_WARM_SPEEDUP_FLOOR`] times faster
//!   than the cold one.
//! * **Warnings** for what machines vary too much to gate: a drop of 10%
//!   or more in either engine's insts/sec against the committed entry, and
//!   an attribution-profiler cost above [`ATTR_COST_WARN_PCT`].
//!
//! The regression diff is skipped when there is no prior entry, or when
//! it was written under a different `schema` and its numbers are not
//! comparable.

use rsti_telemetry::{parse_json, Json};

/// Floor on `compiled_speedup_vs_interp`. Both accounting modes run the
/// same ops through the same driver, so the ratio measures only block
/// pre-charge against per-op charging (recorded ~1.19x, five runs
/// 1.14-1.33): a fast path that loses that edge fails.
pub const COMPILED_SPEEDUP_FLOOR: f64 = 1.0;

/// Floor on `serve_warm_speedup`: a warm request skips the whole pipeline
/// (parse, lower, instrument, optimize, translate).
pub const SERVE_WARM_SPEEDUP_FLOOR: f64 = 10.0;

/// `attr_cost_pct` (attribution on, against the unobserved block
/// pre-charge) above this warns: the profiler is off by default, and
/// a blowup in its measured on-cost is a design break.
pub const ATTR_COST_WARN_PCT: f64 = 60.0;

/// What the gates found: informational lines, warnings, and failures
/// (any failure makes `vm_throughput` exit non-zero).
#[derive(Debug, Default, PartialEq)]
pub struct GateReport {
    /// Measured values and skipped checks, for the log.
    pub notes: Vec<String>,
    /// Soft findings: regressions and profiler cost.
    pub warnings: Vec<String>,
    /// Floors the run fell below.
    pub failures: Vec<String>,
}

/// Applies every gate to the `new` history entry, diffing it against
/// `prev` (the last committed entry, if any).
pub fn check_trajectory(prev: Option<&Json>, new: &Json) -> GateReport {
    let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64);
    let mut r = GateReport::default();
    match prev {
        None => r.notes.push("no committed bench-history entry — regression diff skipped".into()),
        Some(p) if num(p, "schema") != num(new, "schema") => {
            let schema = |e| num(e, "schema").map_or("?".into(), |v| format!("{v:.0}"));
            r.notes.push(format!(
                "committed entry has schema {}, this run {} — regression diff skipped",
                schema(p),
                schema(new)
            ));
        }
        Some(p) => {
            for (key, what) in
                [("insts_per_sec", "vm_throughput"), ("compiled_insts_per_sec", "compiled engine")]
            {
                let (Some(old), Some(now)) = (num(p, key), num(new, key)) else { continue };
                r.notes.push(format!("committed {key}: {old:.0}, this run: {now:.0}"));
                // Integer-valued fields: `now <= 0.9 * old`, exactly.
                if now * 10.0 <= old * 9.0 {
                    r.warnings.push(format!(
                        "{what} regressed >=10% vs committed bench history \
                         ({old:.0} -> {now:.0} insts/sec)"
                    ));
                }
            }
        }
    }
    if let Some(attr) = num(new, "attr_cost_pct") {
        r.notes.push(format!("attribution profiler on-cost: {attr:.2}%"));
        if attr > ATTR_COST_WARN_PCT {
            r.warnings.push(format!(
                "attribution profiler on-cost {attr:.2}% exceeds {ATTR_COST_WARN_PCT:.0}%"
            ));
        }
    }
    for (key, floor, what) in [
        ("compiled_speedup_vs_interp", COMPILED_SPEEDUP_FLOOR, "compiled/interp speedup"),
        ("serve_warm_speedup", SERVE_WARM_SPEEDUP_FLOOR, "serve warm/cold speedup"),
    ] {
        match num(new, key) {
            Some(v) if v >= floor => r.notes.push(format!("{what}: x{v}")),
            Some(v) => r.failures.push(format!("{what} x{v} fell below the {floor:.1}x floor")),
            None => r.failures.push(format!("{what}: `{key}` missing from the entry")),
        }
    }
    r
}

/// The last non-blank line of a trajectory log, parsed (`None` when the
/// log has no such line or it does not parse).
pub fn last_entry(log: &str) -> Option<Json> {
    let last = log.lines().rev().find(|l| !l.trim().is_empty())?;
    parse_json(last).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A passing entry: insts/sec 1000 on both engines.
    const PASSING: &str = r#"{"schema":1,"insts_per_sec":1000,"compiled_insts_per_sec":1000,
        "compiled_speedup_vs_interp":1.2,"attr_cost_pct":10.0,"serve_warm_speedup":20.0}"#;

    /// [`PASSING`] with `edits` applied; `None` drops the field.
    fn entry(edits: &[(&str, Option<f64>)]) -> Json {
        let mut e = parse_json(PASSING).unwrap();
        let Json::Obj(fields) = &mut e else { unreachable!() };
        for &(k, v) in edits {
            fields.retain(|(name, _)| name != k);
            fields.extend(v.map(|v| (k.to_string(), Json::Num(v))));
        }
        e
    }

    #[test]
    fn each_gate_trips_exactly_at_its_boundary() {
        let prev = entry(&[]);
        for (key, value, warnings, failures) in [
            ("compiled_speedup_vs_interp", Some(0.99), 0, 1),
            ("compiled_speedup_vs_interp", Some(1.0), 0, 0),
            ("serve_warm_speedup", Some(9.9), 0, 1),
            ("serve_warm_speedup", Some(10.0), 0, 0),
            ("serve_warm_speedup", None, 0, 1),
            ("insts_per_sec", Some(900.0), 1, 0),
            ("insts_per_sec", Some(901.0), 0, 0),
            ("compiled_insts_per_sec", Some(900.0), 1, 0),
            ("attr_cost_pct", Some(60.0), 0, 0),
            ("attr_cost_pct", Some(61.0), 1, 0),
        ] {
            let r = check_trajectory(Some(&prev), &entry(&[(key, value)]));
            let got = (r.warnings.len(), r.failures.len());
            assert_eq!(got, (warnings, failures), "{key} = {value:?}: {r:?}");
        }
        let r = check_trajectory(None, &entry(&[("serve_warm_speedup", Some(9.9))]));
        assert_eq!(r.failures, ["serve warm/cold speedup x9.9 fell below the 10.0x floor"]);
        let r = check_trajectory(Some(&prev), &entry(&[("insts_per_sec", Some(900.0))]));
        assert_eq!(
            r.warnings,
            ["vm_throughput regressed >=10% vs committed bench history (1000 -> 900 insts/sec)"]
        );
    }

    #[test]
    fn missing_or_other_schema_prior_entry_skips_the_diff() {
        let halved = entry(&[("insts_per_sec", Some(500.0)), ("compiled_insts_per_sec", Some(500.0))]);
        assert_eq!(check_trajectory(Some(&entry(&[])), &halved).warnings.len(), 2);
        // Older history lines were written with `": "` / `", "` separators;
        // they diff the same.
        let spaced = parse_json(&PASSING.replace(':', ": ").replace(',', ", ")).unwrap();
        assert_eq!(check_trajectory(Some(&spaced), &halved).warnings.len(), 2);
        for prev in [None, Some(entry(&[("schema", Some(0.0))]))] {
            let r = check_trajectory(prev.as_ref(), &halved);
            assert!(r.warnings.is_empty() && r.notes[0].contains("skipped"), "{r:?}");
        }
    }
}
