//! `rsti serve` — a persistent instrumentation-and-execution service.
//!
//! Every `rsti run` pays the whole pipeline — parse, lower, instrument,
//! optimize, (translate) — before the first instruction executes, even
//! though the paper's cost model amortizes instrumentation over millions
//! of dynamic checks. This crate turns that one-shot pipeline into a
//! server: requests arrive as JSONL (stdin or a Unix socket), and the
//! instrumented [`Image`] for each distinct
//! `(source, mechanism, opt, exec, enforce)` tuple is built **once**,
//! cached in a size-bounded LRU ([`cache::ModuleCache`]), and shared
//! across a pool of VM workers. A cache hit touches none of the pipeline:
//! the per-phase latency histograms in [`ServeMetrics`] record zero new
//! frontend/instrument/optimize/translate samples for warm requests, and
//! the compiled block closures inside the image's `CompiledCache` are
//! reused as-is (this is why the poisoned-lock `Clone` fix in `rsti-vm`
//! is a satellite of this PR — a lost `CompiledCache` would silently turn
//! warm profile/explain requests into recompiles).
//!
//! Reliability contract:
//!
//! * **Ordering** — responses are emitted in request order regardless of
//!   worker interleaving (a sequence-numbered reorder buffer).
//! * **Isolation** — a malformed (bad JSON, not UTF-8, longer than
//!   [`MAX_LINE_BYTES`]), trapping, or even panicking request produces a
//!   structured `{"ok":false,...}` response; the session, the pool and the
//!   cache survive (panics are caught per-request, and every shared lock
//!   recovers from poisoning).
//! * **Determinism** — a warm response is byte-identical to the cold
//!   response for the same request except for the `"cache"` field, and
//!   both are byte-identical to what a one-shot `rsti run` of the same
//!   configuration would compute (property-tested below).

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use rsti_telemetry::{global as tel, json, CounterId, Histogram};
use rsti_vm::{ExecResult, Image, Vm};

pub mod cache;
pub mod proto;

use cache::{CacheEntry, ModuleCache};
use proto::{Cmd, Request};

// ---------------------------------------------------------------------------
// Configuration and metrics
// ---------------------------------------------------------------------------

/// Server tunables (all have CLI flags on `rsti serve`).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// VM worker threads per input stream.
    pub workers: usize,
    /// Module-cache capacity (entries).
    pub cache_cap: usize,
    /// Fuel budget per request — a runaway program traps with
    /// `FuelExhausted` instead of wedging a worker.
    pub fuel: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4, cache_cap: 128, fuel: 200_000_000 }
    }
}

/// Pipeline phases timed per request. Warm cache hits record samples
/// only in `Execute` (and `Request`) — the asserted "skips the pipeline
/// entirely" property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePhase {
    /// Parse + lower (`rsti-frontend`).
    Frontend,
    /// STI fact collection + instrumentation pass (not sampled for the
    /// baseline).
    Instrument,
    /// The optimizer at the requested level (the baseline's too).
    Optimize,
    /// Closure translation (cached on the image; both accounting modes
    /// run it).
    Translate,
    /// VM execution.
    Execute,
    /// Whole request, parse to serialized response.
    Request,
}

impl ServePhase {
    const ALL: [ServePhase; 6] = [
        ServePhase::Frontend,
        ServePhase::Instrument,
        ServePhase::Optimize,
        ServePhase::Translate,
        ServePhase::Execute,
        ServePhase::Request,
    ];

    /// Stable JSON field name (`*_ns`: values are nanoseconds).
    pub fn name(self) -> &'static str {
        match self {
            ServePhase::Frontend => "frontend_ns",
            ServePhase::Instrument => "instrument_ns",
            ServePhase::Optimize => "optimize_ns",
            ServePhase::Translate => "translate_ns",
            ServePhase::Execute => "execute_ns",
            ServePhase::Request => "request_ns",
        }
    }
}

/// Service-level counters plus per-phase latency histograms.
///
/// The counters here are authoritative (always counted); they are also
/// mirrored into the process-wide telemetry collector's
/// `serve_*` counters, which only accumulate while tracing is enabled.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    phases: Mutex<[Histogram; 6]>,
}

impl ServeMetrics {
    /// Requests received (including malformed ones).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (cold builds).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Structured error responses (parse errors, unknown workloads,
    /// compile errors, caught panics).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Caught request-handler panics (a subset of [`Self::errors`]).
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    fn phase_guard(&self) -> std::sync::MutexGuard<'_, [Histogram; 6]> {
        self.phases.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn record_phase(&self, phase: ServePhase, ns: u64) {
        self.phase_guard()[phase as usize].record(ns);
    }

    /// Samples recorded for a phase — a warm hit adds none to
    /// `Frontend` / `Instrument` / `Optimize` / `Translate`.
    pub fn phase_count(&self, phase: ServePhase) -> u64 {
        self.phase_guard()[phase as usize].count()
    }

    /// Total nanoseconds recorded for a phase.
    pub fn phase_sum(&self, phase: ServePhase) -> u64 {
        self.phase_guard()[phase as usize].sum()
    }

    /// The fields of a stats snapshot (the payload of a `stats` response).
    fn write_stats(&self, o: &mut json::ObjectWriter<'_>, cache_len: usize, cache_cap: usize) {
        o.field("requests", self.requests())
            .field("hits", self.hits())
            .field("misses", self.misses())
            .field("evictions", self.evictions())
            .field("errors", self.errors())
            .field("panics", self.panics())
            .field("cache_len", cache_len)
            .field("cache_cap", cache_cap);
        let phases = self.phase_guard();
        o.object("phases", |o| {
            for p in ServePhase::ALL {
                o.field(p.name(), &phases[p as usize]);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The shared service state: config, module cache, metrics, shutdown
/// flag. All methods take `&self`; one `Server` serves any number of
/// worker threads and input streams concurrently.
pub struct Server {
    cfg: ServeConfig,
    cache: ModuleCache,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
}

impl Server {
    /// A server with the given tunables.
    pub fn new(cfg: ServeConfig) -> Self {
        Server {
            cache: ModuleCache::new(cfg.cache_cap),
            cfg,
            metrics: ServeMetrics::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The tunables this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Service counters and latency histograms.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The shared module cache.
    pub fn cache(&self) -> &ModuleCache {
        &self.cache
    }

    /// Whether a graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests a graceful shutdown (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The stats snapshot as JSON (also served via `{"cmd":"stats"}`).
    pub fn stats_json(&self) -> String {
        json::object(|o| self.metrics.write_stats(o, self.cache.len(), self.cache.cap()))
    }

    /// Parses and answers one request line. Never panics outward: a
    /// handler panic is caught and converted into an `{"ok":false}`
    /// response, leaving the pool and the cache intact.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_parsed(Request::parse(line))
    }

    /// Answers one (pre-)parsed request.
    pub fn handle_parsed(&self, parsed: Result<Request, String>) -> String {
        let t0 = Instant::now();
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        tel().add(CounterId::ServeRequests, 1);
        let resp = match parsed {
            Err(e) => {
                self.count_error();
                proto::error_response(None, &e)
            }
            Ok(req) => {
                let id = req.id;
                match catch_unwind(AssertUnwindSafe(|| self.dispatch(&req))) {
                    Ok(Ok(resp)) => resp,
                    Ok(Err(e)) => {
                        self.count_error();
                        proto::error_response(id, &e)
                    }
                    Err(payload) => {
                        self.metrics.panics.fetch_add(1, Ordering::Relaxed);
                        self.count_error();
                        let msg = panic_message(payload.as_ref());
                        proto::error_response(id, &format!("panic in request handler: {msg}"))
                    }
                }
            }
        };
        self.metrics.record_phase(ServePhase::Request, elapsed_ns(t0));
        resp
    }

    fn count_error(&self) {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        tel().add(CounterId::ServeErrors, 1);
    }

    fn dispatch(&self, req: &Request) -> Result<String, String> {
        match req.cmd {
            Cmd::Stats => Ok(json::object(|o| {
                o.field("id", req.id).field("ok", true).field("cmd", "stats");
                o.object("stats", |o| {
                    self.metrics.write_stats(o, self.cache.len(), self.cache.cap());
                });
            })),
            Cmd::Shutdown => {
                self.request_shutdown();
                Ok(proto::shutdown_response(req.id))
            }
            Cmd::DebugPanic => panic!("injected panic (rsti serve isolation-test hook)"),
            Cmd::Run | Cmd::Compile | Cmd::Profile | Cmd::Explain => self.handle_exec(req),
        }
    }

    /// The pipeline commands: resolve source, hit or build the cache,
    /// then (except for `compile`) execute on the shared image.
    fn handle_exec(&self, req: &Request) -> Result<String, String> {
        let src: std::borrow::Cow<'_, str> = match (&req.source, &req.workload) {
            (Some(s), _) => std::borrow::Cow::Borrowed(s.as_str()),
            (None, Some(w)) => {
                let wl = rsti_workloads::all_workloads()
                    .into_iter()
                    .find(|x| x.name.eq_ignore_ascii_case(w))
                    .ok_or_else(|| format!("unknown workload {w:?}"))?;
                std::borrow::Cow::Owned(wl.source)
            }
            (None, None) => return Err("request needs \"source\" or \"workload\"".into()),
        };
        let key = proto::cache_key(&src, req.mech, req.opt, req.exec, req.enforce);
        let (entry, cache_state) = match self.cache.get(key) {
            Some(e) => {
                self.metrics.hits.fetch_add(1, Ordering::Relaxed);
                tel().add(CounterId::ServeCacheHits, 1);
                (e, "hit")
            }
            None => {
                self.metrics.misses.fetch_add(1, Ordering::Relaxed);
                tel().add(CounterId::ServeCacheMisses, 1);
                (self.build_entry(&src, req, key)?, "miss")
            }
        };
        let result = if req.cmd == Cmd::Compile {
            None
        } else {
            let t = Instant::now();
            let r = if req.cmd == Cmd::Profile {
                // Profiling and recording arm per-run state, so they run
                // on a cheap clone; the clone shares the module *and*
                // (post-fix) the CompiledCache, so this is still warm.
                self.run_image(&(*entry.img).clone().with_attr())
            } else if req.record {
                self.run_image(&(*entry.img).clone().with_record())
            } else {
                self.run_image(&entry.img)
            };
            self.metrics.record_phase(ServePhase::Execute, elapsed_ns(t));
            Some(r)
        };
        Ok(proto::exec_response(req, cache_state, key, entry.instr.as_ref(), result.as_ref()))
    }

    /// Cold path: the full pipeline, each phase timed into the service
    /// histograms, ending with a cache insert.
    fn build_entry(&self, src: &str, req: &Request, key: u128) -> Result<Arc<CacheEntry>, String> {
        let t = Instant::now();
        let module = rsti_frontend::compile(src, "<serve>").map_err(|e| format!("compile error: {e}"))?;
        self.metrics.record_phase(ServePhase::Frontend, elapsed_ns(t));
        // `Image::build` in two timed halves.
        let t = Instant::now();
        let p = req.mech.instrument(&module);
        let instr = p.as_ref().map(|p| p.stats);
        if instr.is_some() {
            self.metrics.record_phase(ServePhase::Instrument, elapsed_ns(t));
        }
        let t = Instant::now();
        let img = Image::optimized(&module, p, req.opt);
        self.metrics.record_phase(ServePhase::Optimize, elapsed_ns(t));
        let img = img.with_backend(req.enforce).with_exec(req.exec);
        let t = Instant::now();
        img.precompile();
        self.metrics.record_phase(ServePhase::Translate, elapsed_ns(t));
        let entry = Arc::new(CacheEntry { key, img: Arc::new(img), instr });
        let evicted = self.cache.insert(Arc::clone(&entry));
        if evicted > 0 {
            self.metrics.evictions.fetch_add(evicted, Ordering::Relaxed);
            tel().add(CounterId::ServeCacheEvictions, evicted);
        }
        Ok(entry)
    }

    fn run_image(&self, img: &Image) -> ExecResult {
        let mut vm = Vm::new(img);
        vm.set_fuel(self.cfg.fuel);
        vm.run()
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

// ---------------------------------------------------------------------------
// Stream serving: ordered worker pool
// ---------------------------------------------------------------------------

/// Reorder buffer: workers push `(seq, line)` in completion order; lines
/// drain to the writer in sequence order, one `write_all` per line (the
/// same no-interleaving discipline as the telemetry sink).
struct SeqWriter<W: Write> {
    out: W,
    next: u64,
    pending: BTreeMap<u64, String>,
    failed: Option<io::ErrorKind>,
}

impl<W: Write> SeqWriter<W> {
    fn push(&mut self, seq: u64, mut line: String) -> io::Result<()> {
        if self.failed.is_some() {
            return Ok(()); // already broken; drop quietly, the error is recorded
        }
        line.push('\n');
        self.pending.insert(seq, line);
        while let Some(line) = self.pending.remove(&self.next) {
            if let Err(e) = self.out.write_all(line.as_bytes()).and_then(|()| self.out.flush()) {
                self.failed = Some(e.kind());
                return Err(e);
            }
            self.next += 1;
        }
        Ok(())
    }
}

/// Longest request line [`serve_lines`] reads, newline excluded. The
/// largest generated benchmark program is about 35 KB of source; a longer
/// line is drained to its newline and answered with an error.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Reads one request line into `buf` (newline and a preceding `\r`
/// stripped) and returns it as text: `None` at EOF, an error message for
/// a line that is not UTF-8 or is longer than [`MAX_LINE_BYTES`]. An
/// over-long line is consumed through its newline without being buffered.
fn read_request_line<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let n = input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > MAX_LINE_BYTES {
        loop {
            let (used, done) = {
                let avail = input.fill_buf()?;
                match avail.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (avail.len(), avail.is_empty()),
                }
            };
            input.consume(used);
            if done {
                return Ok(Some(Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))));
            }
        }
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".to_string()),
    ))
}

/// Serves JSONL requests from `input` until EOF or a `shutdown` request,
/// writing one response line per request **in input order** to `output`.
/// Responses are computed by `cfg.workers` threads sharing the server's
/// module cache. A line that is not UTF-8 or is longer than
/// [`MAX_LINE_BYTES`] gets an `"ok":false` response, like bad JSON.
///
/// # Errors
/// Returns the first I/O error from `input` or `output`; requests
/// already read are still answered where possible.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    server: &Server,
    mut input: R,
    output: W,
) -> io::Result<()> {
    let workers = server.cfg.workers.max(1);
    let (txq, rxq) = mpsc::channel::<(u64, Result<Request, String>)>();
    let rxq = Mutex::new(rxq);
    let writer = Mutex::new(SeqWriter { out: output, next: 0, pending: BTreeMap::new(), failed: None });
    let io_err: Mutex<Option<io::Error>> = Mutex::new(None);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let item = {
                    let rx = rxq.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    rx.recv()
                };
                let Ok((seq, parsed)) = item else { break };
                let resp = server.handle_parsed(parsed);
                let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if let Err(e) = w.push(seq, resp) {
                    let mut slot = io_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(e);
                    // The output stream is gone: stop accepting input.
                    server.request_shutdown();
                }
            });
        }

        let mut seq = 0u64;
        let mut buf = Vec::new();
        loop {
            let parsed = match read_request_line(&mut input, &mut buf) {
                Ok(None) => break,
                Ok(Some(Ok(line))) if line.trim().is_empty() => continue,
                Ok(Some(line)) => line.and_then(Request::parse),
                Err(e) => {
                    let mut slot = io_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(e);
                    break;
                }
            };
            let is_shutdown = matches!(&parsed, Ok(r) if r.cmd == Cmd::Shutdown);
            if txq.send((seq, parsed)).is_err() {
                break;
            }
            seq += 1;
            if is_shutdown || server.is_shutting_down() {
                break;
            }
        }
        drop(txq); // workers drain the queue, then exit
    });

    let first_err = io_err.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// Unix-socket serving
// ---------------------------------------------------------------------------

/// Binds `path` and serves each connection with [`serve_lines`] on its
/// own thread (each connection gets the full worker pool; all share the
/// server's cache and metrics). Returns after a graceful shutdown has
/// been requested and every accepted connection has drained.
///
/// # Errors
/// Returns bind/accept errors; per-connection I/O errors only end that
/// connection.
#[cfg(unix)]
pub fn serve_socket(server: &Server, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let result = std::thread::scope(|s| -> io::Result<()> {
        loop {
            if server.is_shutting_down() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    let reader = stream.try_clone()?;
                    s.spawn(move || {
                        let _ = serve_lines(server, io::BufReader::new(reader), stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    });
    let _ = std::fs::remove_file(path);
    result
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use proto::{cache_key, exec_response};

    /// A small program with enough pointer traffic (indirect calls
    /// through a struct field, casts, heap stores) to give every
    /// mechanism real sign/auth work.
    fn sample_source() -> String {
        rsti_workloads::kernels::assemble(&[
            rsti_workloads::kernels::dispatch_kernel("sv", 6, 2),
            rsti_workloads::kernels::list_kernel("ls", 8, 2),
        ])
    }

    fn request_line(src: &str, mech: &str, opt: &str, exec: &str, enforce: &str) -> String {
        format!(
            "{{\"id\":1,\"cmd\":\"run\",\"source\":{},\"mech\":\"{}\",\"opt\":\"{}\",\
             \"exec\":\"{}\",\"enforce\":\"{}\"}}",
            rsti_telemetry::json_str(src),
            mech,
            opt,
            exec,
            enforce
        )
    }

    /// One-shot reference: the build recipe `rsti run` uses
    /// (`Image::build`), independent of the server's cache and timers.
    fn oneshot(req: &Request, src: &str) -> (Option<rsti_core::InstrumentStats>, ExecResult) {
        let module = rsti_frontend::compile(src, "<serve>").unwrap();
        let (img, instr) = Image::build(&module, req.mech, req.opt);
        let img = img.with_backend(req.enforce).with_exec(req.exec);
        let mut vm = Vm::new(&img);
        vm.set_fuel(ServeConfig::default().fuel);
        (instr, vm.run())
    }

    #[test]
    fn warm_hits_are_bit_identical_to_cold_and_to_oneshot_across_the_matrix() {
        let src = sample_source();
        let server = Server::new(ServeConfig::default());
        for mech in ["none", "parts", "stc", "stwc", "stl", "adaptive"] {
            for opt in ["none", "block", "cfg", "ipo"] {
                for (exec, enforce) in
                    [("interp", "pac"), ("compiled", "pac"), ("interp", "mac"), ("compiled", "mac")]
                {
                    let line = request_line(&src, mech, opt, exec, enforce);
                    let cold = server.handle_line(&line);
                    let warm = server.handle_line(&line);
                    assert!(cold.contains("\"cache\":\"miss\""), "{mech}/{opt}/{exec}/{enforce}: {cold}");
                    assert!(warm.contains("\"cache\":\"hit\""), "{mech}/{opt}/{exec}/{enforce}");
                    assert_eq!(
                        warm.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""),
                        cold,
                        "warm response must be byte-identical to cold ({mech}/{opt}/{exec}/{enforce})"
                    );
                    // And both must match the one-shot `rsti run` pipeline.
                    let req = Request::parse(&line).unwrap();
                    let (instr, result) = oneshot(&req, &src);
                    let key = cache_key(&src, req.mech, req.opt, req.exec, req.enforce);
                    let expected =
                        exec_response(&req, "miss", key, instr.as_ref(), Some(&result));
                    assert_eq!(cold, expected, "cold response must equal the one-shot pipeline");
                }
            }
        }
        assert_eq!(server.metrics().hits(), 6 * 4 * 4);
        assert_eq!(server.metrics().misses(), 6 * 4 * 4);
    }

    /// Golden: whole `run`, error, `stats` and `shutdown` documents.
    #[test]
    fn response_documents_are_pinned_whole() {
        let empty_hist = r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#;
        let phases: Vec<String> =
            ServePhase::ALL.iter().map(|p| format!("\"{}\":{empty_hist}", p.name())).collect();
        let server = Server::new(ServeConfig::default());
        assert_eq!(
            server.handle_line(r#"{"id":3,"cmd":"stats"}"#),
            format!(
                "{}{{{}}}}}}}",
                concat!(
                    r#"{"id":3,"ok":true,"cmd":"stats","stats":{"requests":1,"hits":0,"#,
                    r#""misses":0,"evictions":0,"errors":0,"panics":0,"cache_len":0,"#,
                    r#""cache_cap":128,"phases":"#,
                ),
                phases.join(",")
            )
        );
        let system_run = concat!(
            r#"{"id":1,"cmd":"run","source":"long system(char* c); "#,
            r#"int main() { system(\"ls\"); print_int(3); return 7; }"}"#,
        );
        let system_doc = concat!(
            r#"{"id":1,"ok":true,"cmd":"run","cache":"miss","#,
            r#""key":"b80983d2ba0459669b1dfa4862de44bd","instr":{"signs_on_store":0,"#,
            r#""auths_on_load":0,"cast_resigns":0,"arg_resigns":0,"strips":1,"pp_signs":0,"#,
            r#""pp_auths":0},"status":"exit 7","output":["3"],"#,
            r#""events":[{"name":"system","args":["0x300000000000"],"critical":true}],"#,
            r#""cycles":17,"insts":5,"pac_signs":0,"pac_auths":0,"audit":[]}"#,
        );
        assert_eq!(server.handle_line(system_run), system_doc);
        let src = "struct fnbox { long (*f)(long v); };\n\
                   struct databox { long x; };\n\
                   int main() {\n\
                   struct databox* pb = (struct databox*) malloc(sizeof(struct databox));\n\
                   pb->x = 12345;\n\
                   void* raw = (void*) pb;\n\
                   struct fnbox* pa = (struct fnbox*) raw;\n\
                   return (int) pa->f(7);\n\
                   }\n";
        let line = format!(r#"{{"id":4,"cmd":"run","source":{}}}"#, rsti_telemetry::json_str(src));
        let trap_run = concat!(
            r#"{"id":4,"ok":true,"cmd":"run","cache":"miss","#,
            r#""key":"1da2f43ee12acef51df6e7bfdddce464","instr":{"signs_on_store":3,"#,
            r#""auths_on_load":5,"cast_resigns":3,"arg_resigns":0,"strips":0,"pp_signs":0,"#,
            r#""pp_auths":0},"status":"trap: PAC authentication failure in main:8 at "#,
            r#"OnLoad (found 0x0, expected 0x3e)","output":[],"events":[],"cycles":158,"#,
            r#""insts":35,"pac_signs":6,"pac_auths":7,"audit":[{"type":"violation","#,
            r#""mechanism":"RSTI-STWC","modifier":"0x6a6c966a096cbf7d","site":"on_load","#,
            r#""func":"main","line":8,"inst":"pac_auth","#,
            r#""detail":"found PAC 0x0, expected 0x3e"}]}"#,
        );
        assert_eq!(server.handle_line(&line), trap_run);
        // `profile` and `explain` hit the cached image and append one field.
        let warm_as = |doc: &str, cmd: &str, field: &str| {
            let head = doc.strip_suffix('}').unwrap().replace(
                r#""cmd":"run","cache":"miss""#,
                &format!(r#""cmd":"{cmd}","cache":"hit""#),
            );
            format!("{head},{field}}}")
        };
        assert_eq!(
            server.handle_line(&line.replace(r#""run""#, r#""profile""#)),
            warm_as(
                trap_run,
                "profile",
                r#""attr":[{"func":"main","calls":1,"cycles":158,"insts":35}]"#
            )
        );
        // A clean `explain` answers an explicit `null` incident.
        assert_eq!(
            server.handle_line(&system_run.replace(r#""run""#, r#""explain""#)),
            warm_as(system_doc, "explain", r#""incident":null"#)
        );
        assert_eq!(
            server.handle_line(r#"{"id":2,"cmd":"run","workload":"no such bench"}"#),
            r#"{"id":2,"ok":false,"error":"unknown workload \"no such bench\""}"#
        );
        assert_eq!(
            server.handle_line("[1]"),
            r#"{"id":null,"ok":false,"error":"request must be a JSON object"}"#
        );
        assert_eq!(
            server.handle_line(r#"{"id":9,"cmd":"shutdown"}"#),
            r#"{"id":9,"ok":true,"cmd":"shutdown"}"#
        );
        assert_eq!(
            server.handle_line(r#"{"cmd":"shutdown"}"#),
            r#"{"id":null,"ok":true,"cmd":"shutdown"}"#
        );
    }

    /// Every response shape reads back through the one reader.
    #[test]
    fn responses_read_back_through_the_one_reader() {
        use rsti_telemetry::{parse_json, Json};
        let nasty = "q\"b\\s\nl\u{1}c é😀";
        let v = parse_json(&proto::error_response(Some(3), nasty)).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some(nasty));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        let server = Server::new(ServeConfig::default());
        let src = "int main() { print_int(3); return 7; }";
        let v = parse_json(&server.handle_line(&request_line(src, "stl", "cfg", "interp", "mac")))
            .unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("exit 7"));
        assert_eq!(v.get("output"), Some(&Json::Arr(vec![Json::Str("3".into())])));
        assert_eq!(v.get("key").and_then(Json::as_str).map(str::len), Some(32));
        assert_eq!(v.get("instr").and_then(|i| i.get("pp_auths")).and_then(Json::as_u64), Some(0));
        let v = parse_json(&server.handle_line(r#"{"cmd":"stats"}"#)).unwrap();
        let stats = v.get("stats").unwrap();
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        let frontend = stats.get("phases").and_then(|p| p.get("frontend_ns"));
        assert_eq!(frontend.and_then(|h| h.get("count")).and_then(Json::as_u64), Some(1));
        let v = parse_json(&server.handle_line(r#"{"id":5,"cmd":"shutdown"}"#)).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("shutdown"));
    }

    /// Golden: the stats payload with recorded histograms.
    #[test]
    fn stats_document_is_pinned_whole() {
        let m = ServeMetrics::default();
        m.requests.fetch_add(4, Ordering::Relaxed);
        m.hits.fetch_add(1, Ordering::Relaxed);
        m.misses.fetch_add(2, Ordering::Relaxed);
        m.errors.fetch_add(1, Ordering::Relaxed);
        m.record_phase(ServePhase::Frontend, 3);
        m.record_phase(ServePhase::Frontend, 1000);
        m.record_phase(ServePhase::Request, 70);
        assert_eq!(
            json::object(|o| m.write_stats(o, 2, 128)),
            concat!(
                r#"{"requests":4,"hits":1,"misses":2,"evictions":0,"errors":1,"panics":0,"#,
                r#""cache_len":2,"cache_cap":128,"phases":{"#,
                r#""frontend_ns":{"count":2,"sum":1003,"min":3,"max":1000,"buckets":[[2,1],[512,1]]},"#,
                r#""instrument_ns":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"#,
                r#""optimize_ns":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"#,
                r#""translate_ns":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"#,
                r#""execute_ns":{"count":0,"sum":0,"min":0,"max":0,"buckets":[]},"#,
                r#""request_ns":{"count":1,"sum":70,"min":70,"max":70,"buckets":[[64,1]]}}}"#,
            )
        );
    }

    #[test]
    fn warm_requests_skip_frontend_instrument_optimize_and_translate() {
        let server = Server::new(ServeConfig::default());
        let line = request_line(&sample_source(), "stwc", "cfg", "compiled", "pac");
        let cold = server.handle_line(&line);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        let m = server.metrics();
        for p in [ServePhase::Frontend, ServePhase::Instrument, ServePhase::Optimize, ServePhase::Translate]
        {
            assert_eq!(m.phase_count(p), 1, "cold request must time {}", p.name());
        }
        let warm = server.handle_line(&line);
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        for p in [ServePhase::Frontend, ServePhase::Instrument, ServePhase::Optimize, ServePhase::Translate]
        {
            assert_eq!(
                m.phase_count(p),
                1,
                "warm request must record zero new {} samples",
                p.name()
            );
        }
        assert_eq!(m.phase_count(ServePhase::Execute), 2);
        assert_eq!(m.phase_count(ServePhase::Request), 2);
    }

    #[test]
    fn profile_and_explain_reuse_the_cached_compiled_image() {
        let server = Server::new(ServeConfig::default());
        let src = sample_source();
        let warmup = request_line(&src, "stwc", "cfg", "compiled", "pac");
        server.handle_line(&warmup);
        // Same key, different run-time adornments: record + attr run on
        // clones that share the CompiledCache (the satellite-1 fix).
        for cmd in ["profile", "explain"] {
            let line = format!(
                "{{\"id\":2,\"cmd\":\"{}\",\"source\":{},\"mech\":\"stwc\",\"opt\":\"cfg\",\
                 \"exec\":\"compiled\",\"enforce\":\"pac\"}}",
                cmd,
                rsti_telemetry::json_str(&src)
            );
            let resp = server.handle_line(&line);
            assert!(resp.contains("\"cache\":\"hit\""), "{cmd} must hit: {resp}");
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
        // No new translate samples: the closures were reused.
        assert_eq!(server.metrics().phase_count(ServePhase::Translate), 1);
        assert_eq!(server.metrics().hits(), 2);
    }

    #[test]
    fn a_panicking_request_is_isolated_and_the_pool_survives() {
        let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
        let input = format!(
            "{{\"id\":1,\"cmd\":\"__panic\"}}\nthis is not json\n{}\n",
            request_line("int main() { return 0; }", "stwc", "none", "interp", "pac")
        );
        let mut out = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":false") && lines[0].contains("panic"), "{}", lines[0]);
        assert!(lines[1].contains("\"ok\":false"), "{}", lines[1]);
        assert!(
            lines[2].contains("\"ok\":true") && lines[2].contains("\"status\":\"exit 0\""),
            "{}",
            lines[2]
        );
        assert_eq!(server.metrics().panics(), 1);
        assert_eq!(server.metrics().errors(), 2);
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_and_the_next_request_is_answered() {
        let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
        let input = format!(
            "{}\n{}\n",
            "[".repeat(200_000),
            request_line("int main() { return 3; }", "stwc", "none", "interp", "pac")
        );
        let mut out = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"ok\":false") && lines[0].contains("nesting deeper"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"status\":\"exit 3\""), "{}", lines[1]);
    }

    #[test]
    fn a_non_utf8_line_is_an_error_and_the_session_goes_on() {
        let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        let input = b"{\"cmd\":\"stats\"}\n\xff\xfe{\"cmd\":\"stats\"}\r\n{\"cmd\":\"stats\"}\n";
        let mut out = Vec::new();
        serve_lines(&server, &input[..], &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"ok\":false") && lines[1].contains("not valid UTF-8"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"ok\":true"), "{}", lines[2]);
        assert_eq!(server.metrics().errors(), 1);
    }

    #[test]
    fn an_over_budget_line_is_drained_and_answered_with_an_error() {
        let server = Server::new(ServeConfig { workers: 1, ..ServeConfig::default() });
        // Limit-sized lines around the budget: exactly at it is read (and
        // fails only as JSON), one byte over is skipped whole.
        let at = " ".repeat(MAX_LINE_BYTES - 1) + "x";
        let over = "y".repeat(MAX_LINE_BYTES + 1);
        let run = request_line("int main() { return 5; }", "stwc", "none", "compiled", "pac");
        let input = format!("{at}\n{over}\n{run}\n{over}");
        let mut out = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].contains("\"ok\":false"), "{}", lines[0]);
        assert!(!lines[0].contains("exceeds"), "{}", lines[0]);
        for i in [1, 3] {
            assert!(
                lines[i].contains("\"ok\":false") && lines[i].contains("exceeds 4194304 bytes"),
                "{}",
                lines[i]
            );
        }
        assert!(lines[2].contains("\"status\":\"exit 5\""), "{}", lines[2]);
    }

    #[test]
    fn responses_come_back_in_input_order_under_a_worker_pool() {
        let server = Server::new(ServeConfig { workers: 4, ..ServeConfig::default() });
        // Mix cheap and expensive requests so completion order scrambles.
        let cheap = "int main() { return 0; }".to_string();
        let costly = sample_source();
        let mut input = String::new();
        for i in 0..16 {
            let src = if i % 2 == 0 { &costly } else { &cheap };
            input.push_str(&format!(
                "{{\"id\":{},\"cmd\":\"run\",\"source\":{},\"mech\":\"stwc\"}}\n",
                i,
                rsti_telemetry::json_str(src)
            ));
        }
        let mut out = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 16);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},")),
                "line {i} out of order: {line}"
            );
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    }

    #[test]
    fn shutdown_drains_in_flight_requests_and_stops_reading() {
        let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
        let run = request_line("int main() { return 7; }", "stwc", "none", "interp", "pac");
        let input = format!("{run}\n{{\"id\":9,\"cmd\":\"shutdown\"}}\n{run}\n");
        let mut out = Vec::new();
        serve_lines(&server, input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "the request after shutdown must not be read: {lines:?}");
        assert!(lines[0].contains("\"status\":\"exit 7\""), "{}", lines[0]);
        assert!(lines[1].contains("\"cmd\":\"shutdown\""), "{}", lines[1]);
        assert!(server.is_shutting_down());
    }

    #[test]
    fn lru_eviction_under_load_never_breaks_in_flight_or_future_requests() {
        // Capacity 1: every alternating request evicts the other entry.
        let server = Server::new(ServeConfig { cache_cap: 1, ..ServeConfig::default() });
        let a = request_line("int main() { return 1; }", "stwc", "none", "interp", "pac");
        let b = request_line("int main() { return 2; }", "stwc", "none", "interp", "pac");
        for _ in 0..4 {
            assert!(server.handle_line(&a).contains("\"status\":\"exit 1\""));
            assert!(server.handle_line(&b).contains("\"status\":\"exit 2\""));
        }
        assert!(server.metrics().evictions() >= 6);
        assert_eq!(server.cache().len(), 1);
        assert_eq!(server.metrics().errors(), 0);
    }

    #[test]
    fn stats_and_workload_requests_round_trip() {
        let server = Server::new(ServeConfig::default());
        // Compile (not run) a real workload by name — case-insensitive.
        let resp =
            server.handle_line("{\"id\":1,\"cmd\":\"compile\",\"workload\":\"NUMERIC SORT\"}");
        assert!(resp.contains("\"ok\":true") && resp.contains("\"cmd\":\"compile\""), "{resp}");
        assert!(resp.contains("\"instr\":{"), "compile must report instrumentation stats: {resp}");
        let resp = server.handle_line("{\"id\":2,\"cmd\":\"run\",\"workload\":\"no such bench\"}");
        assert!(resp.contains("\"ok\":false") && resp.contains("unknown workload"), "{resp}");
        let stats = server.handle_line("{\"id\":3,\"cmd\":\"stats\"}");
        assert!(stats.contains("\"requests\":3"), "{stats}");
        assert!(stats.contains("\"misses\":1"), "{stats}");
        assert!(stats.contains("\"frontend_ns\":{\"count\":1"), "{stats}");
    }

    #[test]
    fn trapping_programs_return_a_structured_result_not_an_error() {
        let server = Server::new(ServeConfig::default());
        // Division by zero traps deterministically under every mechanism.
        let resp = server.handle_line(
            "{\"id\":1,\"cmd\":\"run\",\"source\":\"int main() { int x; x = 0; return 1 / x; }\"}",
        );
        assert!(resp.contains("\"ok\":true"), "a trap is a result, not a service error: {resp}");
        assert!(resp.contains("\"status\":\"trap: "), "{resp}");
        assert_eq!(server.metrics().errors(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip_serves_and_shuts_down() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir();
        let path = dir.join(format!("rsti-serve-test-{}.sock", std::process::id()));
        let server = Server::new(ServeConfig { workers: 2, ..ServeConfig::default() });
        std::thread::scope(|s| {
            let handle = s.spawn(|| serve_socket(&server, &path));
            // Wait for the socket to appear.
            for _ in 0..500 {
                if path.exists() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let mut stream = UnixStream::connect(&path).expect("connect to serve socket");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream
                .write_all(
                    b"{\"id\":1,\"cmd\":\"run\",\"source\":\"int main() { return 5; }\"}\n\
                      {\"id\":2,\"cmd\":\"shutdown\"}\n",
                )
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"status\":\"exit 5\""), "{line}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"cmd\":\"shutdown\""), "{line}");
            handle.join().unwrap().unwrap();
        });
        assert!(server.is_shutting_down());
    }

    #[test]
    fn compile_then_run_hits_the_cache_built_by_compile() {
        let server = Server::new(ServeConfig::default());
        let src = "int main() { print_int(3); return 0; }";
        let compile = format!(
            "{{\"id\":1,\"cmd\":\"compile\",\"source\":{}}}",
            rsti_telemetry::json_str(src)
        );
        let run = format!(
            "{{\"id\":2,\"cmd\":\"run\",\"source\":{}}}",
            rsti_telemetry::json_str(src)
        );
        assert!(server.handle_line(&compile).contains("\"cache\":\"miss\""));
        let resp = server.handle_line(&run);
        assert!(resp.contains("\"cache\":\"hit\""), "run after compile must hit: {resp}");
        assert!(resp.contains("\"output\":[\"3\"]"), "{resp}");
    }

    #[test]
    fn mac_and_pac_enforcement_cache_separately() {
        let server = Server::new(ServeConfig::default());
        let src = sample_source();
        let pac = request_line(&src, "stwc", "cfg", "interp", "pac");
        let mac = request_line(&src, "stwc", "cfg", "interp", "mac");
        assert!(server.handle_line(&pac).contains("\"cache\":\"miss\""));
        assert!(server.handle_line(&mac).contains("\"cache\":\"miss\""), "mac must not hit pac");
        assert_eq!(server.metrics().misses(), 2);
    }

    #[test]
    fn explain_responses_are_deterministic_for_a_type_confusion_program() {
        // A struct-cast type confusion: reading a plain data slot as a
        // function pointer. Whatever the mechanism decides (trap + audit
        // + incident, or a clean exit), the warm explain response must be
        // byte-identical to the cold one — incident synthesis uses model
        // cycles, not wall-clock time.
        let src = r#"
            struct fnbox { long (*f)(long v); };
            struct databox { long x; };
            long identity(long v) { return v; }
            int main() {
                struct databox* pb = (struct databox*) malloc(sizeof(struct databox));
                pb->x = 12345;
                void* raw = (void*) pb;
                struct fnbox* pa = (struct fnbox*) raw;
                return (int) pa->f(7);
            }
        "#;
        let server = Server::new(ServeConfig::default());
        let line = format!(
            "{{\"id\":1,\"cmd\":\"explain\",\"source\":{},\"mech\":\"stwc\",\"opt\":\"cfg\"}}",
            rsti_telemetry::json_str(src)
        );
        let cold = server.handle_line(&line);
        let warm = server.handle_line(&line);
        assert_eq!(warm.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""), cold);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"incident\":"), "explain always reports the incident field: {cold}");
    }
}
