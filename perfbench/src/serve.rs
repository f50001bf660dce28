//! `serve-zipf`: seeded closed-loop traffic into one `rsti_serve::Server`.
//!
//! A client keeps two `run` requests (exec=compiled) in flight against the
//! server's own JSONL stream loop (`serve_lines`, two workers, default
//! 128-entry cache). Keys follow Zipf popularity over a population larger
//! than the cache: generated programs under {stwc, stc, stl} x {cfg, ipo},
//! interleaved at a fixed share with the nbench+NGINX proxies named by
//! `workload`. Hits skip the pipeline, misses build and evict, and the
//! proxies are long compiled runs; the interpreter is never used.
//!
//! An operation is a request.

use crate::layers::{self, mech_label, DynPac, Overheads, FUEL, LEVELS, MECHS};
use crate::security;
use crate::stats::{beyond, median, quantile, windowed};
use crate::trace::Tracer;
use crate::{timed_setup, trace_path, Args, Metrics, Report};
use rsti_serve::proto::{parse_json, Json};
use rsti_serve::{serve_lines, ServeConfig, ServePhase, Server};
use rsti_telemetry::json_str;
use rsti_vm::{ExecBackend, Image, Status, Vm};
use std::io::{self, BufReader, Read, Write};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const IN_FLIGHT: usize = 2;
const WORKERS: usize = 2;
/// Generated programs, each one key under one of the six configurations.
const GEN_PROGRAMS: u64 = 300;
/// Configurations: `LEVELS[j / 3]` x `MECHS[j % 3]`.
const CONFIGS: usize = 6;
const ZIPF_S: f64 = 1.0;
/// Requests answered before timing starts, so the cache is in its
/// steady state.
const WARMUP: usize = 600;

fn config(j: usize) -> (usize, usize) {
    (j / MECHS.len(), j % MECHS.len())
}

/// One cache key: its request line (without the id) and the oracle.
struct Key {
    /// `"cmd":"run",...}` — the request object after its id field.
    body: String,
    /// The exact `,"status":...,"output":[...]` run of a correct answer,
    /// from the uninstrumented program's run.
    expect: String,
    /// Index of the key's program in `Setup::sources`.
    program: usize,
    /// Level and mechanism indices of the key's configuration.
    cfg: (usize, usize),
}

struct Setup {
    /// Keys in popularity order (rank 0 first).
    keys: Vec<Key>,
    /// Zipf cumulative distribution over `keys`.
    cdf: Vec<f64>,
    /// Every distinct program behind the keys.
    sources: Vec<String>,
    /// Indices in `keys` of the nbench+NGINX proxy keys.
    proxy_keys: Vec<usize>,
}

/// The oracle of a program: its uninstrumented run's status and output as
/// a response renders them.
fn expectation(src: &str) -> String {
    let m = rsti_frontend::compile(src, "oracle").expect("benchmark inputs compile");
    let img = Image::baseline_owned(m).with_exec(ExecBackend::Compiled);
    let mut vm = Vm::new(&img);
    vm.set_fuel(FUEL);
    let r = vm.run();
    let status = match &r.status {
        Status::Exited(c) => format!("exit {c}"),
        Status::Trapped(t) => format!("trap: {t}"),
    };
    let out: Vec<String> = r.output.iter().map(|l| json_str(l)).collect();
    format!(
        ",\"status\":{},\"output\":[{}]",
        json_str(&status),
        out.join(",")
    )
}

fn request_body(program: &str, j: usize) -> String {
    let (li, mi) = config(j);
    format!(
        "\"cmd\":\"run\",{program},\"mech\":\"{}\",\"opt\":\"{}\",\"exec\":\"compiled\"}}",
        mech_label(MECHS[mi]),
        LEVELS[li].label()
    )
}

fn setup(seed: u64) -> Setup {
    let mut sources = Vec::new();
    let mut gen_keys = Vec::new();
    for j in 0..GEN_PROGRAMS {
        let src = rsti_workloads::generate_source(
            seed.wrapping_mul(1_000_003).wrapping_add(j),
            rsti_workloads::AstGenConfig::default(),
        );
        let c = j as usize % CONFIGS;
        gen_keys.push(Key {
            body: request_body(&format!("\"source\":{}", json_str(&src)), c),
            expect: expectation(&src),
            program: sources.len(),
            cfg: config(c),
        });
        sources.push(src);
    }
    let mut proxy_keys = Vec::new();
    for w in rsti_workloads::nbench()
        .into_iter()
        .chain(rsti_workloads::nginx())
    {
        let expect = expectation(&w.source);
        for c in 0..CONFIGS {
            proxy_keys.push(Key {
                body: request_body(&format!("\"workload\":{}", json_str(w.name)), c),
                expect: expect.clone(),
                program: sources.len(),
                cfg: config(c),
            });
        }
        sources.push(w.source);
    }
    // Seeded popularity among the generated keys; the proxies keep a fixed
    // share and fixed ranks, so every seed sees the same long-run mix.
    let mut rng = rsti_rng::Rng64::seed_from_u64(seed ^ 0x5a49_5046);
    for i in (1..gen_keys.len()).rev() {
        gen_keys.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
    }
    let n = gen_keys.len() + proxy_keys.len();
    let (mut g, mut p) = (gen_keys.into_iter(), proxy_keys.into_iter());
    let n_proxy = p.len();
    let (mut keys, mut proxy_idx) = (Vec::with_capacity(n), Vec::new());
    for i in 0..n {
        // Place a proxy whenever fewer than its even share have been placed.
        let take_proxy = (i + 1) * n_proxy / n > n_proxy - p.len();
        if take_proxy {
            proxy_idx.push(i);
        }
        keys.push(if take_proxy { p.next() } else { g.next() }.expect("n keys in total"));
    }
    let weights: Vec<f64> = (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    Setup {
        keys,
        cdf,
        sources,
        proxy_keys: proxy_idx,
    }
}

/// The seeded request stream: key indices drawn from the Zipf law.
struct Stream {
    rng: rsti_rng::Rng64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: rsti_rng::Rng64::seed_from_u64(seed ^ 0x7265_7173),
        }
    }

    fn next(&mut self, cdf: &[f64]) -> usize {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }
}

/// Request lines in, one at a time, as the server's input stream.
struct ChanReader {
    rx: mpsc::Receiver<String>,
    cur: Vec<u8>,
    pos: usize,
}

impl Read for ChanReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.cur.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.cur = line.into_bytes();
                    self.cur.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = buf.len().min(self.cur.len() - self.pos);
        buf[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The server's output stream, split back into response lines tagged with
/// the connection they answer.
struct ChanWriter {
    conn: usize,
    tx: mpsc::Sender<(usize, String)>,
    buf: Vec<u8>,
}

impl Write for ChanWriter {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(b);
        while let Some(i) = self.buf.iter().position(|&c| c == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=i).collect();
            let line = String::from_utf8_lossy(&line[..i]).into_owned();
            self.tx
                .send((self.conn, line))
                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        }
        Ok(b.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one closed-loop session measured.
struct Session {
    /// Client latency per timed request, ms; failed requests are infinite.
    lat_ms: Vec<f64>,
    /// Completion time of each timed request, seconds into the timed phase.
    done_s: Vec<f64>,
    /// Wall time of the timed phase.
    elapsed: Duration,
    failed: u64,
    /// Every correct answer as (key, response), when asked to keep them.
    kept: Vec<(usize, String)>,
    /// The correct answers to the tail requests, as (key, response).
    tail: Vec<(usize, String)>,
    /// Server counters and histograms after the warm-up.
    warm: Snapshot,
    /// The same at the end.
    end: Snapshot,
}

#[derive(Default)]
struct Snapshot {
    hits: u64,
    misses: u64,
    evictions: u64,
    phase_sum: [u64; 6],
    phase_count: [u64; 6],
    /// `request_ns` histogram buckets as (bucket floor, count).
    request_buckets: Vec<(u64, u64)>,
}

const PHASES: [ServePhase; 6] = [
    ServePhase::Frontend,
    ServePhase::Instrument,
    ServePhase::Optimize,
    ServePhase::Translate,
    ServePhase::Execute,
    ServePhase::Request,
];

fn snapshot(server: &Server) -> Snapshot {
    let m = server.metrics();
    let buckets = parse_json(&server.stats_json())
        .ok()
        .and_then(|j| {
            let arr = j.get("phases")?.get("request_ns")?.get("buckets")?.clone();
            match arr {
                Json::Arr(v) => Some(
                    v.iter()
                        .filter_map(|pair| match pair {
                            Json::Arr(p) if p.len() == 2 => Some((p[0].as_u64()?, p[1].as_u64()?)),
                            _ => None,
                        })
                        .collect(),
                ),
                _ => None,
            }
        })
        .unwrap_or_default();
    Snapshot {
        hits: m.hits(),
        misses: m.misses(),
        evictions: m.evictions(),
        phase_sum: PHASES.map(|p| m.phase_sum(p)),
        phase_count: PHASES.map(|p| m.phase_count(p)),
        request_buckets: buckets,
    }
}

/// The run counters of a correct response: cycles, insts, pac_auths and
/// pac_signs.
fn counters(resp: &str) -> Option<[u64; 4]> {
    let j = parse_json(resp).ok()?;
    let f = |k: &str| j.get(k).and_then(Json::as_u64);
    Some([f("cycles")?, f("insts")?, f("pac_auths")?, f("pac_signs")?])
}

/// Runs warm-up plus a timed closed loop on a fresh server. The timed
/// phase ends after `window`, or after `limit` timed requests if given;
/// then the keys of `tail` are requested once each, untimed.
///
/// The client holds two connections, each a `serve_lines` stream with one
/// request in flight, so two requests are always in flight and neither
/// waits behind the other's response (one stream answers in order).
fn session(
    s: &Setup,
    seed: u64,
    window: Duration,
    limit: Option<usize>,
    keep: bool,
    tail: &[usize],
    t: &mut Tracer,
) -> Session {
    let server = Server::new(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    });
    let mut stream = Stream::new(seed);
    let (resp_tx, resp_rx) = mpsc::channel::<(usize, String)>();
    std::thread::scope(|sc| {
        let srv = &server;
        let mut conns = Vec::new();
        let mut loops = Vec::new();
        for c in 0..IN_FLIGHT {
            let (req_tx, req_rx) = mpsc::channel::<String>();
            let resp_tx = resp_tx.clone();
            conns.push(req_tx);
            loops.push(sc.spawn(move || {
                serve_lines(
                    srv,
                    BufReader::new(ChanReader {
                        rx: req_rx,
                        cur: Vec::new(),
                        pos: 0,
                    }),
                    ChanWriter {
                        conn: c,
                        tx: resp_tx,
                        buf: Vec::new(),
                    },
                )
            }));
        }
        drop(resp_tx);
        let mut next_id = 0usize;
        let mut tail = tail.iter().copied();
        // Per connection: (key, sent at, span, a tail request).
        let mut inflight: Vec<Option<(usize, Instant, usize, bool)>> = vec![None; IN_FLIGHT];
        let mut send = |c: usize, k: usize, is_tail: bool, t: &mut Tracer| {
            let line = format!("{{\"id\":{next_id},{}", s.keys[k].body);
            let span = t.open_root("serve.request");
            conns[c].send(line).expect("server loop is running");
            next_id += 1;
            (k, Instant::now(), span, is_tail)
        };
        let mut sess = Session {
            lat_ms: Vec::new(),
            done_s: Vec::new(),
            elapsed: Duration::ZERO,
            failed: 0,
            kept: Vec::new(),
            tail: Vec::new(),
            warm: Snapshot::default(),
            end: Snapshot::default(),
        };
        let mut answered = 0usize;
        let mut timed_start: Option<Instant> = None;
        for (c, slot) in inflight.iter_mut().enumerate() {
            *slot = Some(send(c, stream.next(&s.cdf), false, t));
        }
        while inflight.iter().any(Option::is_some) {
            let (c, resp) = resp_rx.recv().expect("one response per request");
            let (k, sent, span, is_tail) = inflight[c]
                .take()
                .expect("a response answers the request in flight");
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            t.close_root(span);
            let ok = resp.contains("\"ok\":true") && resp.contains(&s.keys[k].expect);
            if is_tail {
                if ok {
                    sess.tail.push((k, resp));
                } else {
                    sess.failed += 1;
                }
                if let Some(k) = tail.next() {
                    inflight[c] = Some(send(c, k, true, t));
                }
                continue;
            }
            answered += 1;
            let timing = answered > WARMUP;
            if answered == WARMUP {
                sess.warm = snapshot(&server);
                timed_start = Some(Instant::now());
            }
            if let (true, Some(t0)) = (timing, timed_start) {
                sess.lat_ms.push(if ok { ms } else { f64::INFINITY });
                // The timed phase lasts until its last answer; tail
                // requests come after it.
                sess.elapsed = t0.elapsed();
                sess.done_s.push(sess.elapsed.as_secs_f64());
                sess.failed += u64::from(!ok);
            } else if !ok {
                sess.failed += 1;
            }
            if ok && keep {
                sess.kept.push((k, resp));
            }
            let in_flight = inflight.iter().filter(|f| f.is_some()).count();
            let timed_done = timed_start.is_some_and(|t0| {
                t0.elapsed() >= window || limit.is_some_and(|n| sess.lat_ms.len() + in_flight >= n)
            });
            if !timed_done {
                inflight[c] = Some(send(c, stream.next(&s.cdf), false, t));
            } else if let Some(k) = tail.next() {
                inflight[c] = Some(send(c, k, true, t));
            }
        }
        sess.end = snapshot(&server);
        drop(conns); // closes both request streams: the server loops see EOF
        for h in loops {
            h.join()
                .expect("server loop thread")
                .expect("in-memory streams do not fail");
        }
        sess
    })
}

/// Dynamic PAC counts and instructions over `resps`; the last value
/// counts responses without run counters.
fn read_counts(s: &Setup, resps: &[(usize, String)]) -> (DynPac, u64, u64) {
    let (mut dyn_pac, mut insts, mut unreadable) = (DynPac::default(), 0u64, 0u64);
    for (k, resp) in resps {
        let (li, mi) = s.keys[*k].cfg;
        match counters(resp) {
            Some([_, n, auths, signs]) => {
                insts += n;
                dyn_pac.add(li, mi, auths, signs);
            }
            None => unreadable += 1,
        }
    }
    (dyn_pac, insts, unreadable)
}

/// The model-cycle overhead of every served proxy key over its program's
/// baseline optimized at the key's level (`optimize_module`, as Fig. 9
/// does; the server's own baseline is unoptimized); the second value
/// counts responses without run counters.
fn proxy_overheads(s: &Setup, tail: &[(usize, String)]) -> (Overheads, u64) {
    let mut base = std::collections::BTreeMap::new();
    let (mut pct, mut unreadable) = (Overheads::default(), 0u64);
    for (k, resp) in tail {
        let key = &s.keys[*k];
        let (li, mi) = key.cfg;
        let base_cycles = *base.entry((key.program, li)).or_insert_with(|| {
            let mut m = rsti_frontend::compile(&s.sources[key.program], "oracle")
                .expect("benchmark inputs compile");
            rsti_core::optimize_module(&mut m, LEVELS[li]);
            layers::run_image(&Image::baseline_owned(m).with_exec(ExecBackend::Compiled)).cycles
        });
        match counters(resp) {
            Some([cycles, ..]) => pct.push(li, mi, cycles, base_cycles),
            None => unreadable += 1,
        }
    }
    (pct, unreadable)
}

pub fn run(args: &Args) -> Report {
    let (s, setup_s) = timed_setup(|| setup(args.seed));
    if args.trace {
        return traced(args, &s);
    }
    let sess = session(
        &s,
        args.seed,
        args.window,
        None,
        false,
        &s.proxy_keys,
        &mut Tracer::new(false),
    );
    let n = sess.lat_ms.len();
    let ok = n as u64 - sess.failed.min(n as u64);
    let (pct, unreadable) = proxy_overheads(&s, &sess.tail);
    let (cells, cells_attempted) = security::check();
    eprintln!(
        "serve-zipf: {n} timed requests ({} beyond p99 per sub-window), hit ratio {:.3}",
        beyond(n / SUBWINDOWS, 0.99),
        hit_ratio(&sess)
    );
    let secs = sess.elapsed.as_secs_f64();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put(
        "op_p50_ms",
        windowed(&sess.lat_ms, &sess.done_s, secs, SUBWINDOWS, |lat, _| {
            quantile(lat, 0.50)
        }),
        "ms",
    );
    m.put(
        "op_tail_ms",
        windowed(&sess.lat_ms, &sess.done_s, secs, SUBWINDOWS, |lat, _| {
            quantile(lat, 0.99)
        }),
        "ms",
    );
    m.put(
        "ops_per_s",
        windowed(&sess.lat_ms, &sess.done_s, secs, SUBWINDOWS, |lat, w| {
            lat.iter().filter(|l| l.is_finite()).count() as f64 / w
        }),
        "1/s",
    );
    pct.put(&mut m);
    cells.put_e2e(&mut m);
    eprintln!(
        "serve-zipf: whole-window p50 {:.3} ms, p99 {:.3} ms, {:.1} req/s",
        quantile(&sess.lat_ms, 0.50),
        quantile(&sess.lat_ms, 0.99),
        ok as f64 / secs
    );
    Report {
        correct: sess.failed == 0
            && n > 0
            && unreadable == 0
            && sess.tail.len() == s.proxy_keys.len(),
        attempted: (n + WARMUP + s.proxy_keys.len()) as u64 + cells_attempted,
        failed: sess.failed + unreadable,
        metrics: m,
    }
}

/// The timed phase is cut into this many equal sub-windows; each
/// client-side metric is the median of its per-sub-window values, so a
/// burst of machine noise confined to one sub-window does not move it.
const SUBWINDOWS: usize = 6;

fn hit_ratio(sess: &Session) -> f64 {
    let hits = sess.end.hits - sess.warm.hits;
    let misses = sess.end.misses - sess.warm.misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// Nearest-rank quantile over histogram buckets (the rank semantics of
/// `rsti_telemetry::Histogram::quantile`): the floor of the bucket that
/// holds the `ceil(q * count)`-th sample.
fn bucket_quantile(b: &[(u64, u64)], q: f64) -> u64 {
    let count: u64 = b.iter().map(|&(_, n)| n).sum();
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
    let mut seen = 0;
    for &(lo, n) in b {
        seen += n;
        if seen >= rank {
            return lo;
        }
    }
    0
}

fn bucket_delta(end: &[(u64, u64)], start: &[(u64, u64)]) -> Vec<(u64, u64)> {
    end.iter()
        .map(|&(lo, n)| {
            let before = start.iter().find(|&&(l, _)| l == lo).map_or(0, |&(_, c)| c);
            (lo, n - before)
        })
        .collect()
}

/// The traced run: an untraced session sets the request count, then a
/// fresh server answers the same requests with spans and telemetry on.
/// The pipeline layers are timed inside the server (its phase sums, the
/// mean per call over the timed phase); the frontend spans, the
/// attribution profile and the PA-unit micro-measurement cover the
/// distinct programs behind the keys, outside both sessions. The server's
/// own counters are printed, not reported: no other workload has them.
fn traced(args: &Args, s: &Setup) -> Report {
    let mut m = Metrics::default();
    let half = args.window / 2;
    let plain = session(
        s,
        args.seed,
        half,
        None,
        false,
        &[],
        &mut Tracer::new(false),
    );
    let tel = rsti_telemetry::global();
    tel.reset();
    tel.enable();
    let mut t = Tracer::new(true);
    let sess = session(
        s,
        args.seed,
        Duration::MAX,
        Some(plain.lat_ms.len()),
        true,
        &[],
        &mut t,
    );
    tel.disable();
    layers::put_telemetry(&mut m, sess.end.misses);
    let (dyn_pac, insts, unreadable) = read_counts(s, &sess.kept);

    let sources: Vec<&str> = s.sources.iter().map(String::as_str).collect();
    let (mods, src_bytes) = layers::frontend_pass(&mut t, &sources);
    let mods: Vec<_> = mods.into_iter().flatten().collect();
    let prof = layers::profile(&mods, false, &mut t);
    let pac_ns = t.time("pac.sign_auth", || layers::pac_pair_ns(args.seed));
    let (cells, cells_attempted) = security::check();
    if let Err(e) = t.write_jsonl(&trace_path(&args.workload, args.seed)) {
        eprintln!("serve-zipf: could not write spans: {e}");
    }
    layers::put_frontend(&mut m, &t.self_times(), src_bytes);

    let (w, e) = (&sess.warm, &sess.end);
    let mean_ms = |i: usize| {
        (e.phase_sum[i] - w.phase_sum[i]) as f64
            / (e.phase_count[i] - w.phase_count[i]).max(1) as f64
            / 1e6
    };
    m.put("core.instrument_ms", mean_ms(1), "ms");
    m.put("core.optimize_ms", mean_ms(2), "ms");
    m.put("vm.translate_ms", mean_ms(3), "ms");
    m.put("vm.run_ms", mean_ms(4), "ms");
    // Every response of the session, warm-up included, over every execute
    // phase of the session.
    m.put(
        "vm.minsts_per_s",
        insts as f64 / (e.phase_sum[4] as f64 / 1e9) / 1e6,
        "Minst/s",
    );
    dyn_pac.put(&mut m);
    prof.put(&mut m);
    m.put("pac.sign_auth_ns", pac_ns, "ns");
    cells.put_layers(&mut m);
    m.put(
        "telemetry.trace_overhead_pct",
        (sess.elapsed.as_secs_f64() / plain.elapsed.as_secs_f64() - 1.0) * 100.0,
        "%",
    );

    let handler = bucket_delta(&e.request_buckets, &w.request_buckets);
    let client_mean = sess.lat_ms.iter().sum::<f64>() / sess.lat_ms.len().max(1) as f64;
    eprintln!(
        "serve-zipf traced: {} requests, client p50 {:.3} ms (untraced {:.3} ms); \
         hit ratio {:.3}, {} evictions, handler p50/p99 {:.3}/{:.3} ms, wait {:.3} ms, \
         frontend {:.3} ms per miss",
        sess.lat_ms.len(),
        median(&sess.lat_ms),
        median(&plain.lat_ms),
        hit_ratio(&sess),
        e.evictions - w.evictions,
        bucket_quantile(&handler, 0.50) as f64 / 1e6,
        bucket_quantile(&handler, 0.99) as f64 / 1e6,
        client_mean - mean_ms(5),
        mean_ms(0),
    );
    let failed = plain.failed + sess.failed + unreadable + prof.failed;
    Report {
        correct: failed == 0 && !sess.lat_ms.is_empty(),
        attempted: (plain.lat_ms.len() + sess.lat_ms.len() + 2 * WARMUP) as u64
            + prof.attempted
            + cells_attempted,
        failed,
        metrics: m,
    }
}
