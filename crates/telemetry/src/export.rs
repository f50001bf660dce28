//! Profile export formats: log-bucketed histograms, inferno-compatible
//! folded stacks, and Chrome trace-event JSON.
//!
//! The attribution profiler (see `rsti-vm`) produces deterministic
//! model-cycle data; this module turns that data (and the phase spans the
//! collector already keeps) into the two interchange formats every
//! profiling UI understands:
//!
//! * **Folded stacks** — one line per unique call path,
//!   `frame0;frame1;frame2 <count>`, the input format of Brendan Gregg's
//!   `flamegraph.pl` and the `inferno` toolchain;
//! * **Chrome trace events** — the `chrome://tracing` / Perfetto JSON
//!   array of `"ph":"X"` complete events.
//!
//! Both serializers are hand-rolled (the workspace is dependency-free by
//! design) and golden-tested: the emitted field names and line syntax are
//! a public contract.

use crate::json::{self, Fixed, ToJson};
use crate::TelemetrySnapshot;

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Number of power-of-two buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) == i - 1`; bucket 0 holds `v == 0`.
pub const HIST_BUCKETS: usize = 65;

/// A log-bucketed (power-of-two) histogram of `u64` samples.
///
/// Bucket `0` counts zero-valued samples; bucket `i >= 1` counts samples in
/// `[2^(i-1), 2^i)`. 64 + 1 buckets cover the whole `u64` range, so
/// [`Histogram::record`] never saturates or drops. The shape is the classic
/// HdrHistogram-lite used for latency/cycle distributions where relative
/// error per bucket (at most 2x) beats unbounded memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i` (inclusive).
    pub fn bucket_lo(i: usize) -> u64 {
        match i {
            0 => 0,
            1 => 1,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket counts, index 0 first.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Approximate quantile with explicit rank semantics: the result is
    /// `bucket_lo` of the bucket holding the `r`-th smallest sample, where
    /// `r = clamp(ceil(q * count), 1, count)` and `q` is clamped to
    /// `[0, 1]` (NaN reads as 0). So by definition:
    ///
    /// * `quantile(0.0)` is the bucket floor of the **minimum** (rank 1 —
    ///   not "skip the first `0 * count` samples", which only coincided
    ///   with rank 1 by accident of the old `.max(1)`);
    /// * `quantile(1.0)` is the bucket floor of the **maximum** (rank
    ///   `count`), never more;
    /// * on a single-entry histogram every `q` returns that one sample's
    ///   bucket floor;
    /// * an empty histogram returns 0 for every `q`.
    ///
    /// The answer is within one power of two below the true quantile —
    /// exactly the bucket resolution.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_lo(i);
            }
        }
        // Unreachable: `rank <= count` and the buckets sum to `count`.
        Self::bucket_lo(Self::bucket_of(self.max))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

}

/// One JSON object with stable field names (`count`, `sum`, `min`, `max`,
/// `buckets` — non-empty buckets only, as `[bucket_lo, count]` pairs).
impl ToJson for Histogram {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("count", self.count)
                .field("sum", self.sum)
                .field("min", self.min())
                .field("max", self.max);
            o.array("buckets", |a| {
                for (i, &n) in self.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                    a.item([Self::bucket_lo(i), n]);
                }
            });
        });
    }
}

// ---------------------------------------------------------------------------
// Folded stacks (inferno / flamegraph.pl input)
// ---------------------------------------------------------------------------

/// Renders `(call path, sample count)` pairs as folded-stack lines:
/// `root;child;leaf <count>`, one per line, lexicographically sorted so the
/// output is deterministic regardless of map iteration order. Empty paths
/// and zero counts are skipped. Frame names have `;`, whitespace, and
/// newlines replaced by `_` — the folded format reserves those characters
/// as separators.
pub fn to_folded<S: AsRef<str>>(stacks: &[(Vec<S>, u64)]) -> String {
    let mut lines: Vec<String> = stacks
        .iter()
        .filter(|(path, count)| !path.is_empty() && *count > 0)
        .map(|(path, count)| {
            let joined: Vec<String> = path.iter().map(|f| fold_frame(f.as_ref())).collect();
            format!("{} {}", joined.join(";"), count)
        })
        .collect();
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

fn fold_frame(name: &str) -> String {
    name.chars()
        .map(|c| if c == ';' || c.is_whitespace() { '_' } else { c })
        .collect()
}

// ---------------------------------------------------------------------------
// Chrome trace events
// ---------------------------------------------------------------------------

/// One Chrome trace "complete" event (`"ph":"X"`). Timestamps and
/// durations are in microseconds per the trace-event spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the timeline slice).
    pub name: String,
    /// Category string (`rsti.phase`, `rsti.func`, ...).
    pub cat: String,
    /// Start timestamp, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Thread lane the slice renders in.
    pub tid: u64,
    /// Extra numeric `args` entries, keyed by name.
    pub args: Vec<(String, u64)>,
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("name", &self.name)
                .field("cat", &self.cat)
                .field("ph", "X")
                .field("ts", Fixed(self.ts_us, 3))
                .field("dur", Fixed(self.dur_us, 3))
                .field("pid", 1u64)
                .field("tid", self.tid);
            o.object("args", |o| {
                for (k, v) in &self.args {
                    o.field(k, *v);
                }
            });
        });
    }
}

/// Wraps trace events as the Chrome trace-event JSON object
/// (`{"traceEvents":[...],"displayTimeUnit":"ms"}`), loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    json::object(|o| {
        o.field("traceEvents", events).field("displayTimeUnit", "ms");
    })
}

/// Converts the collector's accumulated phase spans into trace events.
///
/// The collector keeps aggregate span data (total ns + call count per
/// phase), not individual timestamped spans, so each phase becomes one
/// slice laid end-to-end in [`crate::Phase::ALL`] (pipeline) order on
/// thread lane 1 — a duration-faithful, order-faithful rendering rather
/// than a wall-clock-faithful one. `args.calls` carries the span count.
/// Zero-call phases are skipped.
pub fn phase_trace_events(snap: &TelemetrySnapshot) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut ts = 0.0f64;
    for p in &snap.phases {
        if p.calls == 0 {
            continue;
        }
        let dur = p.total_ns as f64 / 1_000.0;
        events.push(TraceEvent {
            name: p.phase.to_string(),
            cat: "rsti.phase".to_string(),
            ts_us: ts,
            dur_us: dur,
            tid: 1,
            args: vec![("calls".to_string(), p.calls)],
        });
        ts += dur;
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(2), 2);
        assert_eq!(Histogram::bucket_lo(64), 1 << 63);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // p50 of 6 samples -> rank 3 -> the [2,4) bucket.
        assert_eq!(h.quantile(0.5), 2);
        // p100 lands in the [512,1024) bucket.
        assert_eq!(h.quantile(1.0), 512);
        let mut other = Histogram::new();
        other.record(5000);
        h.merge(&other);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 5000);
    }

    /// The explicit p0/p50/p100 contract: p0 is the minimum's bucket floor,
    /// p100 the maximum's, and degenerate histograms behave by definition,
    /// not by accident of rank arithmetic.
    #[test]
    fn quantile_rank_semantics_are_explicit() {
        // Empty: every quantile is 0.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }

        // Single entry: every quantile is that sample's bucket floor.
        let mut one = Histogram::new();
        one.record(900); // bucket [512, 1024)
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(one.quantile(q), 512, "single-entry at q={q}");
        }

        // Multi-bucket: p0 tracks the min, p100 the max, p50 the median.
        let mut h = Histogram::new();
        for v in [1, 16, 16, 16, 4096] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1, "p0 = floor(bucket(min))");
        assert_eq!(h.quantile(0.5), 16, "p50 = floor(bucket(rank 3))");
        assert_eq!(h.quantile(1.0), 4096, "p100 = floor(bucket(max))");
        // Out-of-range and NaN q clamp instead of over/under-ranking.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    /// Golden: histogram JSON field names are a public contract.
    #[test]
    fn histogram_json_field_names_are_stable() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        let j = h.to_json();
        assert_eq!(j, "{\"count\":2,\"sum\":6,\"min\":3,\"max\":3,\"buckets\":[[2,2]]}");
    }

    /// Golden: folded-stack line syntax (`a;b;c <count>\n`, sorted).
    #[test]
    fn folded_stack_line_syntax_is_stable() {
        let stacks = vec![
            (vec!["main", "loop", "leaf"], 7u64),
            (vec!["main"], 3),
            (vec!["main", "aux"], 0),   // dropped: zero count
            (Vec::<&str>::new(), 5),    // dropped: empty path
        ];
        let out = to_folded(&stacks);
        assert_eq!(out, "main 3\nmain;loop;leaf 7\n");
    }

    #[test]
    fn folded_frames_escape_separator_characters() {
        let stacks = vec![(vec!["a;b", "c d"], 1u64)];
        assert_eq!(to_folded(&stacks), "a_b;c_d 1\n");
    }

    /// Golden: Chrome trace-event JSON field names are a public contract
    /// (`traceEvents`, `name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`/`args`).
    #[test]
    fn chrome_trace_field_names_are_stable() {
        let ev = TraceEvent {
            name: "vm_run".into(),
            cat: "rsti.phase".into(),
            ts_us: 0.0,
            dur_us: 1.5,
            tid: 1,
            args: vec![("calls".into(), 2)],
        };
        let j = chrome_trace(&[ev]);
        assert_eq!(
            j,
            "{\"traceEvents\":[{\"name\":\"vm_run\",\"cat\":\"rsti.phase\",\"ph\":\"X\",\
             \"ts\":0.000,\"dur\":1.500,\"pid\":1,\"tid\":1,\"args\":{\"calls\":2}}],\
             \"displayTimeUnit\":\"ms\"}"
        );
    }

    /// Histograms and Chrome traces read back through the one reader.
    #[test]
    fn histogram_and_trace_round_trip() {
        use crate::json::{parse_json, Json, NASTY};
        let mut h = Histogram::new();
        h.record(900);
        let v = parse_json(&h.to_json()).unwrap();
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(900));
        let pair = Json::Arr(vec![Json::Num(512.0), Json::Num(1.0)]);
        assert_eq!(v.get("buckets"), Some(&Json::Arr(vec![pair])));
        let ev = TraceEvent {
            name: NASTY.into(),
            cat: "rsti.phase".into(),
            ts_us: 0.5,
            dur_us: 2.0,
            tid: 3,
            args: vec![("calls".into(), 4)],
        };
        let v = parse_json(&chrome_trace(&[ev])).unwrap();
        let Some(Json::Arr(evs)) = v.get("traceEvents") else { panic!("{v:?}") };
        assert_eq!(evs[0].get("name").and_then(Json::as_str), Some(NASTY));
        assert_eq!(evs[0].get("ts").and_then(Json::as_f64), Some(0.5));
        let calls = evs[0].get("args").and_then(|a| a.get("calls"));
        assert_eq!(calls.and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn phase_trace_events_lay_spans_end_to_end() {
        let c = crate::Collector::new();
        c.enable();
        {
            let _a = c.span(crate::Phase::Parse);
        }
        {
            let _b = c.span(crate::Phase::VmRun);
        }
        let events = phase_trace_events(&c.snapshot());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "parse");
        assert_eq!(events[1].name, "vm_run");
        // Second slice starts where the first ends.
        assert!((events[1].ts_us - events[0].dur_us).abs() < 1e-9);
        let j = chrome_trace(&events);
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
    }
}
