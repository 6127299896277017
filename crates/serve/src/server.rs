//! The `polymem serve` daemon.
//!
//! A persistent compile service over plain TCP + line-delimited JSON
//! (std only; the build environment has no reachable crates-io
//! mirror). `threads` acceptor/worker threads all block on one shared
//! listener; each connection is served by the thread that accepted it,
//! one request per line, one JSON response per line. All connections
//! share:
//!
//! - one warm in-memory [`PlanLru`] of symbolic plans, keyed by the
//!   same content address as the on-disk store, with LRU eviction and
//!   generation-bumping invalidation;
//! - one [`ArtifactStore`] directory (when configured), so plans
//!   survive daemon restarts;
//! - one [`LaunchGate`] bounding how many block launches run
//!   concurrently on the executor's worker pool (requests over the
//!   limit queue on the gate, batching launches instead of
//!   oversubscribing the host).
//!
//! ## Protocol
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"cmd":"run","kernel":"me","machine":"gpu","size":32}
//! {"cmd":"analyze","kernel":"jacobi2d","machine":"cell","size":32}
//! {"cmd":"ping"} | {"cmd":"stats"} | {"cmd":"invalidate"} | {"cmd":"shutdown"}
//! ```
//!
//! Optional request fields: `double_buffer`, `hierarchy`, `residency`
//! (booleans; defaults false/true/true like the CLI), `vector_width`,
//! and `tuned` (boolean): resolve the autotuned mapping for the
//! kernel from the tune artifact store (`polymem tune` writes it;
//! zero search cost when warm, a fresh pruned search otherwise) and
//! execute that instead of the preset — the response's `mapping`
//! field reports which mapping ran.
//! Responses always carry `"ok"`; failures add `"error"` and a
//! `"class"` (`usage` | `compile` | `runtime`) mirroring the CLI's
//! exit-code taxonomy. `run` responses carry the result `checksum`
//! (FNV-1a over the checked output array, bit-comparable with a direct
//! in-process `execute_blocked` of the same launch), `plan_source`
//! (`seeded` | `artifact` | `fresh` | `none`), wall-clock `elapsed_ns`
//! and the §3 `analysis_ns` actually spent compiling (zero on seed and
//! artifact hits).
//!
//! [`ArtifactStore`]: polymem_core::smem::ArtifactStore

use crate::json::Json;
use crate::lru::PlanLru;
use crate::workload;
use polymem_ir::ArrayStore;
use polymem_kernels::tunespace;
use polymem_machine::{
    config_for, execute_blocked_seeded, plan_artifact_key, tune, warm_plan, BlockedKernel,
    MachineConfig, PassProfiler, PlanSource, TuneOptions,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reject request lines longer than this (a hostile client must not
/// grow the line buffer without bound).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (the handle reports
    /// the resolved address).
    pub addr: String,
    /// Acceptor/worker threads (one connection each at a time).
    pub threads: usize,
    /// Artifact-store directory plans persist to across restarts;
    /// `None` keeps the cache in-memory only.
    pub artifact_dir: Option<String>,
    /// Warm-cache capacity in plans.
    pub lru_capacity: usize,
    /// Maximum concurrently executing launches; further `run`
    /// requests queue on the gate.
    pub launch_slots: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7311".into(),
            threads: 4,
            artifact_dir: None,
            lru_capacity: 64,
            launch_slots: 2,
        }
    }
}

/// A counting semaphore over `Mutex` + `Condvar`: bounds concurrent
/// launches without busy-waiting.
struct LaunchGate {
    slots: usize,
    busy: Mutex<usize>,
    cv: Condvar,
}

impl LaunchGate {
    fn new(slots: usize) -> LaunchGate {
        LaunchGate {
            slots: slots.max(1),
            busy: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GateGuard<'_> {
        let mut n = self.busy.lock().unwrap();
        while *n >= self.slots {
            n = self.cv.wait(n).unwrap();
        }
        *n += 1;
        GateGuard { gate: self }
    }
}

struct GateGuard<'a> {
    gate: &'a LaunchGate,
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut n = self.gate.busy.lock().unwrap();
        *n -= 1;
        self.gate.cv.notify_one();
    }
}

/// State shared by all worker threads.
struct Shared {
    lru: PlanLru,
    gate: LaunchGate,
    artifact_dir: Option<String>,
    stop: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// The daemon. [`Server::start`] binds, spawns the workers and
/// returns a handle; the process keeps serving until `shutdown` (a
/// protocol request or [`ServerHandle::shutdown`]).
pub struct Server;

/// A running daemon: resolved address plus the join/shutdown handle.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving on `cfg.threads` threads.
    pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = Arc::new(TcpListener::bind(&cfg.addr)?);
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            lru: PlanLru::new(cfg.lru_capacity),
            gate: LaunchGate::new(cfg.launch_slots),
            artifact_dir: cfg.artifact_dir.clone(),
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        let threads = cfg.threads.max(1);
        let workers = (0..threads)
            .map(|_| {
                let listener = listener.clone();
                let shared = shared.clone();
                std::thread::spawn(move || {
                    loop {
                        if shared.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if shared.stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                let _ = serve_connection(stream, &shared, addr);
                            }
                            // Transient accept errors (EMFILE, aborted
                            // handshakes) must not kill the worker.
                            Err(_) => {
                                if shared.stop.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        Ok(ServerHandle {
            addr,
            shared,
            workers,
        })
    }
}

impl ServerHandle {
    /// The resolved bind address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the workers and join them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Block until the daemon stops on its own (a protocol `shutdown`
    /// request) — the foreground `polymem serve` mode.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Each blocked accept() needs one wake-up connection.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

/// Serve one accepted connection: request per line, response per line,
/// until EOF, a shutdown request, or daemon stop. Reads use a short
/// timeout so a worker parked on an idle connection notices `stop`
/// (otherwise [`ServerHandle::shutdown`] would join it forever);
/// `read_until` keeps partially received bytes across timeouts.
/// Responses go out with `TCP_NODELAY`: a client that pipelines has not
/// acknowledged the previous response when the next one is written, and
/// Nagle's algorithm would hold that one for the client's delayed ACK.
fn serve_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr) -> io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let mut raw: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut raw) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) || raw.len() > MAX_LINE_BYTES {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        if raw.len() > MAX_LINE_BYTES {
            return Ok(());
        }
        let line = String::from_utf8_lossy(&raw).trim().to_string();
        if line.is_empty() {
            raw.clear();
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let (mut resp, shutdown) = handle_line(&line, shared);
        raw.clear();
        // One write per framed line, so each response is one segment.
        resp.push('\n');
        out.write_all(resp.as_bytes())?;
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake sibling workers parked in accept().
            for _ in 0..8 {
                let _ = TcpStream::connect(addr);
            }
            return Ok(());
        }
    }
}

fn obj(fields: Vec<(&str, Json)>) -> String {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect()).to_string()
}

fn err(class: &str, msg: &str) -> String {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("class", Json::Str(class.into())),
        ("error", Json::Str(msg.into())),
    ])
}

fn source_str(source: Option<PlanSource>) -> &'static str {
    match source {
        Some(PlanSource::Seeded) => "seeded",
        Some(PlanSource::Artifact) => "artifact",
        Some(PlanSource::Fresh) => "fresh",
        None => "none",
    }
}

/// One parsed request.
struct Request {
    kernel: String,
    machine: String,
    size: i64,
    double_buffer: bool,
    hierarchy: bool,
    residency: bool,
    vector_width: Option<u64>,
    tuned: bool,
}

impl Request {
    fn from(v: &Json) -> Request {
        let b = |k: &str, d: bool| v.get(k).and_then(Json::as_bool).unwrap_or(d);
        Request {
            kernel: v
                .get("kernel")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            machine: v
                .get("machine")
                .and_then(Json::as_str)
                .unwrap_or("gpu")
                .to_string(),
            size: v.get("size").and_then(Json::as_i64).unwrap_or(16),
            double_buffer: b("double_buffer", false),
            hierarchy: b("hierarchy", true),
            residency: b("residency", true),
            vector_width: v
                .get("vector_width")
                .and_then(Json::as_i64)
                .and_then(|w| u64::try_from(w).ok()),
            tuned: b("tuned", false),
        }
    }

    /// The launch configuration, mirroring `polymem run`'s flag
    /// handling over the named description: any machine in the
    /// registry works (`cpu` stays an accepted alias for `host`).
    fn machine_config(&self, artifact_dir: &Option<String>) -> Option<MachineConfig> {
        let mut cfg = polymem_machine::desc::lookup(&self.machine)?.config();
        cfg.double_buffer = self.double_buffer;
        cfg.hierarchy = self.hierarchy;
        cfg.residency = cfg.residency && self.residency;
        if let Some(w) = self.vector_width {
            if w >= 1 {
                cfg.vector_width = w;
            }
        }
        cfg.artifact_dir = artifact_dir.clone();
        Some(cfg)
    }
}

/// Parse and dispatch one request line. Returns the response line and
/// whether the daemon should shut down.
fn handle_line(line: &str, shared: &Shared) -> (String, bool) {
    let Some(v) = Json::parse(line) else {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        return (err("usage", "request is not valid JSON"), false);
    };
    let cmd = v.get("cmd").and_then(Json::as_str).unwrap_or("");
    let resp = match cmd {
        "ping" => obj(vec![
            ("ok", Json::Bool(true)),
            ("pong", Json::Bool(true)),
            (
                "schema",
                Json::Str(format!(
                    "{:016x}",
                    polymem_core::smem::artifact::schema_hash()
                )),
            ),
        ]),
        "stats" => {
            let s = shared.lru.stats();
            obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "requests",
                    Json::Num(shared.requests.load(Ordering::Relaxed) as f64),
                ),
                (
                    "errors",
                    Json::Num(shared.errors.load(Ordering::Relaxed) as f64),
                ),
                ("lru_hits", Json::Num(s.hits as f64)),
                ("lru_misses", Json::Num(s.misses as f64)),
                ("lru_evictions", Json::Num(s.evictions as f64)),
                ("lru_resident", Json::Num(s.resident as f64)),
                ("generation", Json::Num(s.generation as f64)),
                (
                    "artifact_dir",
                    match &shared.artifact_dir {
                        Some(d) => Json::Str(d.clone()),
                        None => Json::Null,
                    },
                ),
            ])
        }
        "invalidate" => {
            let g = shared.lru.invalidate();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("generation", Json::Num(g as f64)),
            ])
        }
        "shutdown" => {
            return (obj(vec![("ok", Json::Bool(true))]), true);
        }
        "run" => handle_run(&Request::from(&v), shared),
        "analyze" => handle_analyze(&Request::from(&v), shared),
        other => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            err("usage", &format!("unknown cmd `{other}`"))
        }
    };
    (resp, false)
}

/// Resolve the autotuned mapping for a `tuned` request: the same
/// search (and artifact key) as `polymem tune <kernel>` / `polymem
/// run --tuned`, so a tune artifact written by the CLI answers with
/// zero simulations. The search runs under the launch gate.
fn tuned_mapping(
    req: &Request,
    shared: &Shared,
) -> Result<(BlockedKernel, MachineConfig, String), String> {
    let mut base = match polymem_machine::desc::lookup(&req.machine) {
        Some(d) => d.config(),
        None => return Err(format!("unknown machine `{}`", req.machine)),
    };
    base.artifact_dir = shared.artifact_dir.clone();
    let cands = tunespace::candidates(&req.kernel, &base, false)
        .ok_or_else(|| format!("no tune space for `{}`", req.kernel))?;
    let (program, params, _) = tunespace::workload(&req.kernel, req.size)
        .ok_or_else(|| format!("no workload for `{}`", req.kernel))?;
    let opts = TuneOptions {
        space_label: format!("cli:{}:size={}", req.kernel, req.size),
        ..TuneOptions::default()
    };
    let name = req.kernel.clone();
    let out = {
        let _slot = shared.gate.acquire();
        tune(
            &program,
            &params,
            &|st: &mut ArrayStore| tunespace::init_store(&name, st, 42),
            &cands,
            &base,
            &opts,
        )
    }
    .map_err(|e| e.to_string())?;
    let kernel = tunespace::build(&req.kernel, &out.winner)
        .ok_or_else(|| format!("winner `{}` does not rebuild", out.winner.label()))?;
    let cfg = config_for(&out.winner, &base);
    Ok((
        kernel,
        cfg,
        format!("{} [{}]", out.winner.label(), out.plan_source),
    ))
}

/// Resolve a request's workload, config and content address, plus the
/// warm-cache seed if the plan is already resident. For `tuned`
/// requests the preset mapping (and the request's execution toggles)
/// are replaced by the autotuned winner; the returned label reports
/// which mapping runs.
#[allow(clippy::type_complexity)]
fn prepare(
    req: &Request,
    shared: &Shared,
) -> Result<
    (
        workload::Workload,
        MachineConfig,
        Option<String>,
        Option<Arc<polymem_core::smem::SymbolicPlan>>,
        Option<String>,
    ),
    String,
> {
    let Some(mut w) = workload::resolve(&req.kernel, req.size, req.double_buffer) else {
        return Err(err("usage", &format!("unknown kernel `{}`", req.kernel)));
    };
    let Some(mut cfg) = req.machine_config(&shared.artifact_dir) else {
        return Err(err("usage", &format!("unknown machine `{}`", req.machine)));
    };
    let mut mapping = None;
    if req.tuned {
        match tuned_mapping(req, shared) {
            Ok((kernel, tcfg, label)) => {
                w.kernel = kernel;
                cfg = tcfg;
                mapping = Some(label);
            }
            Err(m) => mapping = Some(format!("preset [tune failed: {m}]")),
        }
    }
    let key_hex = match plan_artifact_key(&w.kernel, &w.params, &cfg) {
        Ok(k) => k.map(|k| k.to_string()),
        Err(e) => return Err(err("compile", &e.to_string())),
    };
    let seed = key_hex.as_deref().and_then(|k| shared.lru.get(k));
    Ok((w, cfg, key_hex, seed, mapping))
}

fn handle_run(req: &Request, shared: &Shared) -> String {
    let (w, cfg, key_hex, seed, mapping) = match prepare(req, shared) {
        Ok(p) => p,
        Err(resp) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return resp;
        }
    };
    let mut st = match ArrayStore::for_program(&w.program, &w.params) {
        Ok(s) => s,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("compile", &e.to_string());
        }
    };
    workload::init(&req.kernel, &mut st);
    let profiler = PassProfiler::new();
    let t0 = Instant::now();
    let outcome = {
        let _slot = shared.gate.acquire();
        execute_blocked_seeded(
            &w.kernel,
            &w.params,
            &mut st,
            &cfg,
            true,
            Some(&profiler),
            seed.as_ref(),
        )
    };
    let elapsed = t0.elapsed();
    let (stats, warmed) = match outcome {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("runtime", &e.to_string());
        }
    };
    let source = warmed.as_ref().map(|(_, s)| *s);
    if let (Some(kh), Some((sp, _))) = (&key_hex, &warmed) {
        shared.lru.insert(kh.clone(), sp.clone());
    }
    let analysis_ns = profiler.report().compiler_total().as_nanos() as u64;
    let checksum = match st.data(w.check) {
        Ok(data) => workload::checksum(data),
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("runtime", &e.to_string());
        }
    };
    obj(vec![
        ("ok", Json::Bool(true)),
        ("kernel", Json::Str(req.kernel.clone())),
        ("machine", Json::Str(req.machine.clone())),
        ("size", Json::Num(req.size as f64)),
        ("mapping", mapping.map(Json::Str).unwrap_or(Json::Null)),
        ("plan_source", Json::Str(source_str(source).into())),
        ("key", key_hex.map(Json::Str).unwrap_or(Json::Null)),
        ("checksum", Json::Str(format!("{checksum:016x}"))),
        ("elapsed_ns", Json::Num(elapsed.as_nanos() as f64)),
        ("analysis_ns", Json::Num(analysis_ns as f64)),
        ("blocks", Json::Num(stats.blocks as f64)),
        ("rounds", Json::Num(stats.rounds as f64)),
        ("instances", Json::Num(stats.instances as f64)),
        ("plan_cache_hits", Json::Num(stats.plan_cache_hits as f64)),
        (
            "plan_cache_misses",
            Json::Num(stats.plan_cache_misses as f64),
        ),
        (
            "generation",
            Json::Num(shared.lru.stats().generation as f64),
        ),
    ])
}

fn handle_analyze(req: &Request, shared: &Shared) -> String {
    let (w, cfg, key_hex, seed, mapping) = match prepare(req, shared) {
        Ok(p) => p,
        Err(resp) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return resp;
        }
    };
    let profiler = PassProfiler::new();
    let t0 = Instant::now();
    let warmed = match warm_plan(&w.kernel, &w.params, &cfg, Some(&profiler), seed.as_ref()) {
        Ok(r) => r,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            return err("compile", &e.to_string());
        }
    };
    let elapsed = t0.elapsed();
    let source = warmed.as_ref().map(|(_, s)| *s);
    if let (Some(kh), Some((sp, _))) = (&key_hex, &warmed) {
        shared.lru.insert(kh.clone(), sp.clone());
    }
    let analysis_ns = profiler.report().compiler_total().as_nanos() as u64;
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("kernel", Json::Str(req.kernel.clone())),
        ("machine", Json::Str(req.machine.clone())),
        ("mapping", mapping.map(Json::Str).unwrap_or(Json::Null)),
        ("plan_source", Json::Str(source_str(source).into())),
        ("key", key_hex.map(Json::Str).unwrap_or(Json::Null)),
        ("elapsed_ns", Json::Num(elapsed.as_nanos() as f64)),
        ("analysis_ns", Json::Num(analysis_ns as f64)),
    ];
    if let Some((sp, _)) = &warmed {
        fields.push(("buffers", Json::Num(sp.plan.buffers.len() as f64)));
        fields.push((
            "fixed",
            Json::Arr(sp.fixed.iter().map(|f| Json::Str(f.clone())).collect()),
        ));
        fields.push(("hierarchy_plan", Json::Bool(sp.hier.is_some())));
        fields.push(("residency_plan", Json::Bool(sp.residency.is_some())));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn request(reader: &mut BufReader<TcpStream>, out: &mut TcpStream, line: &str) -> Json {
        out.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).expect("response is JSON")
    }

    fn start_local() -> ServerHandle {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            artifact_dir: None,
            lru_capacity: 8,
            launch_slots: 2,
        })
        .unwrap()
    }

    #[test]
    fn ping_stats_and_errors_round_trip() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let pong = request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        let bad = request(&mut r, &mut w, "not json");
        assert_eq!(bad.get("class").unwrap().as_str(), Some("usage"));
        let unknown = request(&mut r, &mut w, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(unknown.get("ok").unwrap().as_bool(), Some(false));
        let stats = request(&mut r, &mut w, r#"{"cmd":"stats"}"#);
        assert!(stats.get("requests").unwrap().as_i64().unwrap() >= 3);
        h.shutdown();
    }

    #[test]
    fn sequential_requests_on_one_connection_are_not_delayed() {
        // Each response must leave in one write: a body and its
        // newline written separately wait on the client's delayed ACK
        // (tens of ms per request under Nagle's algorithm).
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        // The stall is paid by every request, so the fastest of 20
        // separates the two however loaded the host is.
        request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
        let mut fastest = std::time::Duration::MAX;
        for _ in 0..20 {
            let t0 = std::time::Instant::now();
            let pong = request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
            fastest = fastest.min(t0.elapsed());
            assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        }
        assert!(
            fastest < std::time::Duration::from_millis(20),
            "fastest of 20 pings took {fastest:?}"
        );
        h.shutdown();
    }

    #[test]
    fn pipelined_requests_on_one_connection_are_not_delayed() {
        // A client that sends its next request before the previous
        // response arrives has not acknowledged that response yet, so
        // under Nagle's algorithm the second response waits for the
        // client's delayed ACK (tens of ms).
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        request(&mut r, &mut w, r#"{"cmd":"ping"}"#);
        let mut fastest = std::time::Duration::MAX;
        for _ in 0..10 {
            let t0 = std::time::Instant::now();
            w.write_all(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"ping\"}\n")
                .unwrap();
            for _ in 0..2 {
                let mut resp = String::new();
                r.read_line(&mut resp).unwrap();
                let pong = Json::parse(resp.trim()).expect("response is JSON");
                assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
            }
            fastest = fastest.min(t0.elapsed());
        }
        assert!(
            fastest < std::time::Duration::from_millis(20),
            "fastest of 10 pipelined ping pairs took {fastest:?}"
        );
        h.shutdown();
    }

    #[test]
    fn run_warms_the_cache_and_matches_direct_execution() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let req = r#"{"cmd":"run","kernel":"matmul","machine":"gpu","size":8}"#;
        let first = request(&mut r, &mut w, req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        assert_eq!(first.get("plan_source").unwrap().as_str(), Some("fresh"));
        let second = request(&mut r, &mut w, req);
        assert_eq!(second.get("plan_source").unwrap().as_str(), Some("seeded"));
        assert_eq!(second.get("analysis_ns").unwrap().as_i64(), Some(0));
        assert_eq!(
            first.get("checksum").unwrap().as_str(),
            second.get("checksum").unwrap().as_str()
        );
        // Bit-exact against a direct in-process execution.
        let wl = workload::resolve("matmul", 8, false).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let mut st = ArrayStore::for_program(&wl.program, &wl.params).unwrap();
        workload::init("matmul", &mut st);
        polymem_machine::execute_blocked(&wl.kernel, &wl.params, &mut st, &cfg, true).unwrap();
        let direct = format!("{:016x}", workload::checksum(st.data("C").unwrap()));
        assert_eq!(first.get("checksum").unwrap().as_str(), Some(&direct[..]));
        // Invalidate drops the warm cache: next run is fresh again.
        let inv = request(&mut r, &mut w, r#"{"cmd":"invalidate"}"#);
        assert_eq!(inv.get("generation").unwrap().as_i64(), Some(1));
        let third = request(&mut r, &mut w, req);
        assert_eq!(third.get("plan_source").unwrap().as_str(), Some("fresh"));
        h.shutdown();
    }

    #[test]
    fn analyze_then_run_shares_the_warm_plan() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        let analyze = request(
            &mut r,
            &mut w,
            r#"{"cmd":"analyze","kernel":"conv2d","machine":"gpu","size":8}"#,
        );
        assert_eq!(analyze.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(analyze.get("plan_source").unwrap().as_str(), Some("fresh"));
        assert!(analyze.get("buffers").unwrap().as_i64().unwrap() > 0);
        let run = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"conv2d","machine":"gpu","size":8}"#,
        );
        assert_eq!(run.get("plan_source").unwrap().as_str(), Some("seeded"));
        h.shutdown();
    }

    #[test]
    fn every_registered_machine_serves_and_unknown_names_are_usage_errors() {
        let h = start_local();
        let (mut r, mut w) = client(h.addr());
        // The same kernel is bit-exact on every registered machine:
        // the checksums all agree even as the mappings diverge.
        let mut checksums = Vec::new();
        for m in polymem_machine::desc::NAMES {
            let req = format!(r#"{{"cmd":"run","kernel":"matmul","machine":"{m}","size":8}}"#);
            let resp = request(&mut r, &mut w, &req);
            assert_eq!(
                resp.get("ok").unwrap().as_bool(),
                Some(true),
                "{m}: {resp:?}"
            );
            checksums.push(resp.get("checksum").unwrap().as_str().unwrap().to_string());
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "machines disagree: {checksums:?}"
        );
        // Aliases resolve through the same registry.
        let alias = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"matmul","machine":"cpu","size":8}"#,
        );
        assert_eq!(alias.get("ok").unwrap().as_bool(), Some(true));
        // Unknown names are usage-class errors, not crashes.
        let bad = request(
            &mut r,
            &mut w,
            r#"{"cmd":"run","kernel":"matmul","machine":"quantum","size":8}"#,
        );
        assert_eq!(bad.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(bad.get("class").unwrap().as_str(), Some("usage"));
        h.shutdown();
    }

    #[test]
    fn tuned_run_reports_the_winning_mapping() {
        let dir = std::env::temp_dir().join(format!("polymem-serve-tuned-{}", std::process::id()));
        let h = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            artifact_dir: Some(dir.to_string_lossy().into_owned()),
            lru_capacity: 8,
            launch_slots: 2,
        })
        .unwrap();
        let (mut r, mut w) = client(h.addr());
        let req = r#"{"cmd":"run","kernel":"matmul","machine":"gpu","size":8,"tuned":true}"#;
        let first = request(&mut r, &mut w, req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        let mapping = first.get("mapping").unwrap().as_str().unwrap().to_string();
        assert!(
            mapping.contains("[search]"),
            "cold tune searches: {mapping}"
        );
        // Second request answers from the persisted tune artifact.
        let second = request(&mut r, &mut w, req);
        let mapping2 = second.get("mapping").unwrap().as_str().unwrap().to_string();
        assert!(
            mapping2.contains("[artifact]"),
            "warm tune loads: {mapping2}"
        );
        assert_eq!(
            first.get("checksum").unwrap().as_str(),
            second.get("checksum").unwrap().as_str()
        );
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_request_stops_all_workers() {
        let h = start_local();
        let addr = h.addr();
        let (mut r, mut w) = client(addr);
        let bye = request(&mut r, &mut w, r#"{"cmd":"shutdown"}"#);
        assert_eq!(bye.get("ok").unwrap().as_bool(), Some(true));
        h.shutdown(); // joins; must not hang
                      // The port no longer accepts new work.
        std::thread::sleep(std::time::Duration::from_millis(50));
        if let Ok(s) = TcpStream::connect(addr) {
            // A connection may still be accepted by the OS backlog,
            // but no worker will serve it: expect EOF.
            let mut line = String::new();
            let mut rd = BufReader::new(s);
            let _ = rd.read_line(&mut line);
            assert!(line.is_empty());
        }
    }
}
