//! The `rsti serve` wire protocol: one JSON object per line in, one JSON
//! object per line out, in request order.
//!
//! The parser is hand-rolled (the workspace is dependency-free by design)
//! and deliberately small: it accepts exactly the JSON subset a request
//! needs — objects, arrays, strings with escapes, numbers, booleans,
//! `null` — and rejects trailing garbage. Responses are built with the
//! same stable-field-order discipline as the telemetry serializers, so a
//! warm cache hit is **byte-identical** to the cold response for the same
//! request, except for the single `"cache":"hit"` / `"cache":"miss"`
//! field (a documented part of the contract that `tools/` smoke scripts
//! strip before diffing).
//!
//! ## Request schema
//!
//! ```json
//! {"id":1,"cmd":"run","source":"int main(){return 0;}",
//!  "mech":"stwc","opt":"cfg","exec":"compiled","enforce":"pac"}
//! ```
//!
//! * `id` — optional request id echoed in the response (`null` if absent).
//! * `cmd` — `run` | `compile` | `profile` | `explain` | `stats` |
//!   `shutdown` (plus the hidden `__panic` isolation-test hook).
//! * `source` — inline MiniC text, or `workload` — a benchmark name from
//!   `rsti-workloads` (`NUMERIC SORT`, `NGINX-access-log`, ...).
//! * `mech` — `stwc` | `stc` | `stl` | `parts` | `none`/`baseline` |
//!   `adaptive` (default `stwc`).
//! * `opt` — `none` | `block` | `cfg` | `ipo` (default `cfg`).
//! * `exec` — `interp` | `compiled` (default `interp`).
//! * `enforce` — `pac` | `mac` (default `pac`).
//! * `record` — boolean; arm the flight recorder (implied by `explain`).

use rsti_core::{Mechanism, OptLevel};
use rsti_telemetry::json_str;
use rsti_vm::{Backend, ExecBackend, ExecResult, Status};

// ---------------------------------------------------------------------------
// Minimal JSON value parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object fields keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a field of an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; rejects trailing non-whitespace.
///
/// # Errors
/// Returns a byte-offset-bearing message for malformed input.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Nesting budget for arrays and objects. A request is one flat object,
/// so this sits far above any valid line while keeping the recursive
/// descent (and the drop of what it built) far from the stack's end.
const MAX_JSON_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Open arrays and objects around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => {
                Err(format!("nesting deeper than {MAX_JSON_DEPTH} at byte {}", self.i))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.b.get(self.i + 1) != Some(&b'\\')
                                    || self.b.get(self.i + 2) != Some(&b'u')
                                {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| "bad unicode escape".to_string())?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Fast path: consume the whole unescaped run in one
                    // slice push (the input is a &str, so UTF-8 boundaries
                    // are valid by construction). Large inline sources
                    // make per-char pushes a quadratic trap.
                    let start = self.i;
                    while !matches!(self.b.get(self.i), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let s = self
            .b
            .get(self.i + 1..self.i + 5)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let s = std::str::from_utf8(s).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.i += 4;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The instrumentation-mechanism axis of a request, mirroring the CLI's
/// `--mech` choices (serve cannot depend on `rsti-cli`, which sits above
/// it, so the choice is re-stated here with the same accepted names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechSel {
    /// Uninstrumented baseline.
    Baseline,
    /// One fixed mechanism.
    Fixed(Mechanism),
    /// ECV-threshold-driven per-module choice (paper §6.4).
    Adaptive,
}

impl MechSel {
    /// Stable label — one axis of the content-addressed cache key.
    pub fn label(self) -> &'static str {
        match self {
            MechSel::Baseline => "baseline",
            MechSel::Fixed(Mechanism::Stwc) => "stwc",
            MechSel::Fixed(Mechanism::Stc) => "stc",
            MechSel::Fixed(Mechanism::Stl) => "stl",
            MechSel::Fixed(Mechanism::Parts) => "parts",
            MechSel::Adaptive => "adaptive",
        }
    }

    /// Parses the names accepted by `rsti --mech`.
    ///
    /// # Errors
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<MechSel, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "stwc" | "rsti-stwc" => MechSel::Fixed(Mechanism::Stwc),
            "stc" | "rsti-stc" => MechSel::Fixed(Mechanism::Stc),
            "stl" | "rsti-stl" => MechSel::Fixed(Mechanism::Stl),
            "parts" => MechSel::Fixed(Mechanism::Parts),
            "none" | "baseline" => MechSel::Baseline,
            "adaptive" => MechSel::Adaptive,
            other => {
                return Err(format!(
                    "unknown mech {other:?} (expected stwc|stc|stl|parts|none|adaptive)"
                ))
            }
        })
    }
}

/// What a request asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Instrument + execute, returning the full execution result.
    Run,
    /// Instrument only (warms the cache; returns instrumentation stats).
    Compile,
    /// Execute with the attribution profiler armed.
    Profile,
    /// Execute with the flight recorder armed; returns the incident.
    Explain,
    /// Service counters + per-phase latency histograms.
    Stats,
    /// Graceful shutdown: drain in-flight requests, then stop.
    Shutdown,
    /// Hidden test hook: panic inside the request handler, to exercise
    /// per-request isolation without a real bug.
    DebugPanic,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed request id (`None` renders as JSON `null`).
    pub id: Option<u64>,
    /// The command.
    pub cmd: Cmd,
    /// Inline MiniC source (mutually exclusive with `workload`).
    pub source: Option<String>,
    /// Benchmark name resolved via `rsti-workloads`.
    pub workload: Option<String>,
    /// Mechanism axis.
    pub mech: MechSel,
    /// Optimization level axis.
    pub opt: OptLevel,
    /// Accounting-mode axis (`exec`, default `compiled`).
    pub exec: ExecBackend,
    /// Enforcement scheme axis.
    pub enforce: Backend,
    /// Arm the flight recorder (`explain` implies this).
    pub record: bool,
}

impl Request {
    /// Parses one JSONL request line.
    ///
    /// # Errors
    /// Returns a message naming the malformed field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse_json(line)?;
        if !matches!(v, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let cmd = match v.get("cmd").and_then(Json::as_str) {
            Some("run") => Cmd::Run,
            Some("compile") => Cmd::Compile,
            Some("profile") => Cmd::Profile,
            Some("explain") => Cmd::Explain,
            Some("stats") => Cmd::Stats,
            Some("shutdown") => Cmd::Shutdown,
            Some("__panic") => Cmd::DebugPanic,
            Some(other) => {
                return Err(format!(
                    "unknown cmd {other:?} (expected run|compile|profile|explain|stats|shutdown)"
                ))
            }
            None => return Err("request needs a \"cmd\" string".into()),
        };
        let id = v.get("id").and_then(Json::as_u64);
        let source = v.get("source").and_then(Json::as_str).map(str::to_owned);
        let workload = v.get("workload").and_then(Json::as_str).map(str::to_owned);
        if source.is_some() && workload.is_some() {
            return Err("\"source\" and \"workload\" are mutually exclusive".into());
        }
        let mech = match v.get("mech").and_then(Json::as_str) {
            Some(s) => MechSel::parse(s)?,
            None => MechSel::Fixed(Mechanism::Stwc),
        };
        let opt = match v.get("opt").and_then(Json::as_str) {
            Some(s) => OptLevel::parse(s)?,
            None => OptLevel::Cfg,
        };
        let exec = match v.get("exec").and_then(Json::as_str) {
            Some("interp") => ExecBackend::Interp,
            Some("compiled") => ExecBackend::Compiled,
            Some(other) => return Err(format!("unknown exec {other:?} (expected interp|compiled)")),
            None => ExecBackend::default(),
        };
        let enforce = match v.get("enforce").and_then(Json::as_str) {
            Some("pac") => Backend::PacInPointer,
            Some("mac") => Backend::MacTable,
            Some(other) => return Err(format!("unknown enforce {other:?} (expected pac|mac)")),
            None => Backend::PacInPointer,
        };
        let record = v.get("record").and_then(Json::as_bool).unwrap_or(false)
            || cmd == Cmd::Explain;
        Ok(Request { id, cmd, source, workload, mech, opt, exec, enforce, record })
    }
}

// ---------------------------------------------------------------------------
// Content-addressed cache key
// ---------------------------------------------------------------------------

/// 128-bit FNV-1a over the five axes that determine the instrumented
/// module: source text, mechanism, opt level, execution engine, and
/// enforcement scheme. Axes are separated by a `0x1f` unit separator so
/// concatenation ambiguities (`"ab" + "c"` vs `"a" + "bc"`) cannot
/// collide. The `record` flag is deliberately **not** part of the key:
/// the recorder is applied to a cheap [`rsti_vm::Image`] clone at run
/// time, and (after the `CompiledCache` poison fix in this PR) that clone
/// still shares the compiled block closures.
pub fn cache_key(
    source: &str,
    mech: MechSel,
    opt: OptLevel,
    exec: ExecBackend,
    enforce: Backend,
) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u128::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0x1f;
        h = h.wrapping_mul(PRIME);
    };
    eat(source.as_bytes());
    eat(mech.label().as_bytes());
    eat(opt.label().as_bytes());
    eat(exec.label().as_bytes());
    eat(match enforce {
        Backend::PacInPointer => b"pac",
        Backend::MacTable => b"mac",
    });
    h
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// A structured error response (the request is still answered in order;
/// the worker pool survives).
pub fn error_response(id: Option<u64>, msg: &str) -> String {
    format!("{{\"id\":{},\"ok\":false,\"error\":{}}}", id_json(id), json_str(msg))
}

/// The acknowledgement for a `shutdown` request.
pub fn shutdown_response(id: Option<u64>) -> String {
    format!("{{\"id\":{},\"ok\":true,\"cmd\":\"shutdown\"}}", id_json(id))
}

fn status_json(status: &Status) -> String {
    match status {
        Status::Exited(c) => json_str(&format!("exit {c}")),
        Status::Trapped(t) => json_str(&format!("trap: {t}")),
    }
}

fn instr_json(instr: Option<&rsti_core::InstrumentStats>) -> String {
    match instr {
        None => "null".to_string(),
        Some(s) => format!(
            "{{\"signs_on_store\":{},\"auths_on_load\":{},\"cast_resigns\":{},\
             \"arg_resigns\":{},\"strips\":{},\"pp_signs\":{},\"pp_auths\":{}}}",
            s.signs_on_store,
            s.auths_on_load,
            s.cast_resigns,
            s.arg_resigns,
            s.strips,
            s.pp_signs,
            s.pp_auths,
        ),
    }
}

/// The response for `run` / `compile` / `profile` / `explain`.
///
/// Field order is a public contract (stable across cache hits and misses;
/// only the `cache` field differs between a cold and a warm answer).
pub fn exec_response(
    req: &Request,
    cache: &str,
    key: u128,
    instr: Option<&rsti_core::InstrumentStats>,
    result: Option<&ExecResult>,
) -> String {
    let cmd = match req.cmd {
        Cmd::Run => "run",
        Cmd::Compile => "compile",
        Cmd::Profile => "profile",
        Cmd::Explain => "explain",
        _ => unreachable!("exec_response is only built for pipeline commands"),
    };
    let mut out = format!(
        "{{\"id\":{},\"ok\":true,\"cmd\":\"{}\",\"cache\":\"{}\",\"key\":\"{:032x}\",\"instr\":{}",
        id_json(req.id),
        cmd,
        cache,
        key,
        instr_json(instr),
    );
    if let Some(r) = result {
        out.push_str(&format!(",\"status\":{}", status_json(&r.status)));
        let output: Vec<String> = r.output.iter().map(|l| json_str(l)).collect();
        out.push_str(&format!(",\"output\":[{}]", output.join(",")));
        let events: Vec<String> = r
            .events
            .iter()
            .map(|e| {
                let args: Vec<String> = e.args.iter().map(|a| json_str(a)).collect();
                format!(
                    "{{\"name\":{},\"args\":[{}],\"critical\":{}}}",
                    json_str(&e.name),
                    args.join(","),
                    e.critical
                )
            })
            .collect();
        out.push_str(&format!(",\"events\":[{}]", events.join(",")));
        out.push_str(&format!(
            ",\"cycles\":{},\"insts\":{},\"pac_signs\":{},\"pac_auths\":{}",
            r.cycles, r.insts, r.pac_signs, r.pac_auths
        ));
        let audits: Vec<String> = r.audit.iter().map(|a| a.to_json()).collect();
        out.push_str(&format!(",\"audit\":[{}]", audits.join(",")));
        if req.cmd == Cmd::Profile {
            if let Some(attr) = &r.attr {
                let mut rows: Vec<&rsti_vm::FuncAttr> =
                    attr.funcs.iter().filter(|f| f.calls > 0).collect();
                rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
                let rows: Vec<String> = rows
                    .iter()
                    .take(5)
                    .map(|f| {
                        format!(
                            "{{\"func\":{},\"calls\":{},\"cycles\":{},\"insts\":{}}}",
                            json_str(&f.name),
                            f.calls,
                            f.cycles,
                            f.insts
                        )
                    })
                    .collect();
                out.push_str(&format!(",\"attr\":[{}]", rows.join(",")));
            }
        }
        if req.record {
            match &r.incident {
                Some(i) => out.push_str(&format!(",\"incident\":{}", i.to_json())),
                None => out.push_str(",\"incident\":null"),
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_run_request_with_defaults() {
        let r = Request::parse(r#"{"cmd":"run","source":"int main() { return 0; }"}"#).unwrap();
        assert_eq!(r.cmd, Cmd::Run);
        assert_eq!(r.id, None);
        assert_eq!(r.mech, MechSel::Fixed(Mechanism::Stwc));
        assert_eq!(r.opt, OptLevel::Cfg);
        // A request without "exec" runs the default block pre-charge.
        assert_eq!(r.exec, ExecBackend::Compiled);
        assert_eq!(r.enforce, Backend::PacInPointer);
        assert!(!r.record);
    }

    #[test]
    fn parses_every_axis_and_the_id() {
        let r = Request::parse(
            r#"{"id":7,"cmd":"profile","workload":"NUMERIC SORT","mech":"stl",
               "opt":"block","exec":"compiled","enforce":"mac","record":true}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.cmd, Cmd::Profile);
        assert_eq!(r.workload.as_deref(), Some("NUMERIC SORT"));
        assert_eq!(r.mech, MechSel::Fixed(Mechanism::Stl));
        assert_eq!(r.opt, OptLevel::BlockLocal);
        assert_eq!(r.exec, ExecBackend::Compiled);
        assert_eq!(r.enforce, Backend::MacTable);
        assert!(r.record);
    }

    #[test]
    fn parses_the_ipo_opt_level() {
        let r = Request::parse(
            r#"{"cmd":"run","source":"int main() { return 0; }","opt":"ipo"}"#,
        )
        .unwrap();
        assert_eq!(r.opt, OptLevel::Ipo);
    }

    #[test]
    fn explain_implies_record() {
        let r = Request::parse(r#"{"cmd":"explain","source":"int main() { return 0; }"}"#).unwrap();
        assert!(r.record);
    }

    #[test]
    fn rejects_malformed_requests_with_a_reason() {
        for (line, needle) in [
            ("not json", "bad literal"),
            ("@!?", "unexpected"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"source":"x"}"#, "needs a \"cmd\""),
            (r#"{"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"cmd":"run","mech":"quantum"}"#, "unknown mech"),
            (r#"{"cmd":"run","exec":"jit"}"#, "unknown exec"),
            (r#"{"cmd":"run","enforce":"mte"}"#, "unknown enforce"),
            (r#"{"cmd":"run","source":"x","workload":"y"}"#, "mutually exclusive"),
            (r#"{"cmd":"run"} trailing"#, "trailing garbage"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?} -> {err:?}");
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"s":"a\"b\\c\ndA😀","a":[1,-2.5,true,null,{}]}"#)
            .unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\nd\u{41}\u{1F600}"));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[1], Json::Num(-2.5));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn json_nesting_is_budgeted() {
        let ok = format!("{}{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        parse_json(&ok).unwrap();
        let over = format!("{{\"a\":{}", ok);
        assert!(parse_json(&over).unwrap_err().contains("nesting deeper"));
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn cache_key_changes_with_every_axis() {
        // Property: flipping any single axis — source text, mechanism,
        // opt level, execution engine, enforcement — yields a new key.
        let base = (
            "int main() { return 0; }",
            MechSel::Fixed(Mechanism::Stwc),
            OptLevel::Cfg,
            ExecBackend::Interp,
            Backend::PacInPointer,
        );
        let k0 = cache_key(base.0, base.1, base.2, base.3, base.4);
        let mut keys = vec![k0];
        keys.push(cache_key("int main() { return 1; }", base.1, base.2, base.3, base.4));
        for m in [
            MechSel::Baseline,
            MechSel::Fixed(Mechanism::Stc),
            MechSel::Fixed(Mechanism::Stl),
            MechSel::Fixed(Mechanism::Parts),
            MechSel::Adaptive,
        ] {
            keys.push(cache_key(base.0, m, base.2, base.3, base.4));
        }
        for o in [OptLevel::None, OptLevel::BlockLocal, OptLevel::Ipo] {
            keys.push(cache_key(base.0, base.1, o, base.3, base.4));
        }
        keys.push(cache_key(base.0, base.1, base.2, ExecBackend::Compiled, base.4));
        keys.push(cache_key(base.0, base.1, base.2, base.3, Backend::MacTable));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "cache-key collision across axes: {keys:#x?}");
    }

    #[test]
    fn cache_key_separates_axis_boundaries() {
        // The 0x1f separator keeps (source="a", mech label "stwc"...) from
        // colliding with a source that absorbs part of the next axis.
        let a = cache_key("a", MechSel::Fixed(Mechanism::Stwc), OptLevel::None,
            ExecBackend::Interp, Backend::PacInPointer);
        let b = cache_key("astwc", MechSel::Fixed(Mechanism::Stwc), OptLevel::None,
            ExecBackend::Interp, Backend::PacInPointer);
        assert_ne!(a, b);
    }

    #[test]
    fn record_flag_does_not_change_the_key() {
        // `record` is applied to an Image clone at run time — same module.
        let r1 = Request::parse(r#"{"cmd":"run","source":"int main() { return 0; }"}"#).unwrap();
        let r2 = Request::parse(
            r#"{"cmd":"run","source":"int main() { return 0; }","record":true}"#,
        )
        .unwrap();
        let k = |r: &Request| {
            cache_key(r.source.as_deref().unwrap(), r.mech, r.opt, r.exec, r.enforce)
        };
        assert_eq!(k(&r1), k(&r2));
    }
}
