//! `serve_mixed`: an in-process compile service on loopback, fed an
//! open loop of seeded Poisson arrivals (mostly `run`, some `analyze`,
//! a periodic `invalidate`) at a fixed ladder of offered rates. The
//! same executor as `exec_large` runs here as many small launches, so
//! per-launch set-up and the wire matter; reads share the LRU and the
//! artifact store with the invalidating writes.
//!
//! One generator thread (this one) drives `nproc` connections with
//! non-blocking reads, writes each request in one write on a
//! `TCP_NODELAY` socket, and times every request from its scheduled
//! send, so a stall also delays the requests queued behind it.

use crate::exec_large::{global_bytes, serve_default_config, MACHINES};
use crate::host::HostClock;
use crate::stats::{median, percentile, Rng};
use crate::trace::{overhead_ratio, Tracer};
use crate::{nproc, out_dir, Args, Report};
use polymem_ir::ArrayStore;
use polymem_machine::execute_blocked_seeded;
use polymem_serve::workload::{self, checksum, KERNELS};
use polymem_serve::{Json, ServeConfig, Server, ServerHandle};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Problem sizes served; with 5 kernels × 2 machines the working set is
/// 20 plans, below the LRU capacity.
const SIZES: [i64; 2] = [8, 16];
const LRU_CAPACITY: usize = 64;
/// Offered rates (requests/s), light first. The light rate gives the
/// latency metrics; the highest rate that meets the limit gives the
/// throughput.
const LADDER: [f64; 4] = [50.0, 100.0, 200.0, 600.0];
/// p90 latency limit of a ladder rate (ms, from the scheduled send).
const LIMIT_MS: f64 = 150.0;
/// Share of `analyze` requests; the rest are `run` (bar invalidates).
const ANALYZE_SHARE: f64 = 0.15;
/// One `invalidate` per this many seconds of schedule.
const INVALIDATE_EVERY_S: f64 = 1.0;
/// Share of the run spent on the light rate; the rest is split evenly
/// over the other rates.
const LIGHT_SHARE: f64 = 0.4;
const SETUPS: usize = 7;

#[derive(Clone, Copy)]
struct Key {
    kernel: &'static str,
    machine: &'static str,
    size: i64,
}

fn keys() -> Vec<Key> {
    let mut out = Vec::new();
    for kernel in KERNELS {
        for machine in MACHINES {
            for size in SIZES {
                out.push(Key {
                    kernel,
                    machine,
                    size,
                });
            }
        }
    }
    out
}

/// Direct in-process launch of a key, exactly as the server runs it:
/// the oracle checksum plus modeled cycles and global↔scratchpad bytes.
fn oracle(key: &Key) -> Result<(u64, u64, u64), String> {
    let w = workload::resolve(key.kernel, key.size, false).ok_or("kernel does not resolve")?;
    let cfg = serve_default_config(key.machine)?;
    let mut st = ArrayStore::for_program(&w.program, &w.params).map_err(|e| e.to_string())?;
    workload::init(key.kernel, &mut st);
    let (stats, _) = execute_blocked_seeded(&w.kernel, &w.params, &mut st, &cfg, false, None, None)
        .map_err(|e| e.to_string())?;
    let sum = checksum(st.data(w.check).map_err(|e| e.to_string())?);
    Ok((sum, stats.modeled_cycles, global_bytes(&stats, &cfg)))
}

#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Run,
    Analyze,
    Invalidate,
}

impl Cmd {
    fn name(self) -> &'static str {
        match self {
            Cmd::Run => "run",
            Cmd::Analyze => "analyze",
            Cmd::Invalidate => "invalidate",
        }
    }

    /// The request line, newline included, so it goes out in one write.
    fn line(self, key: &Key) -> String {
        match self {
            Cmd::Invalidate => "{\"cmd\":\"invalidate\"}\n".to_string(),
            Cmd::Run | Cmd::Analyze => format!(
                "{{\"cmd\":\"{}\",\"kernel\":\"{}\",\"machine\":\"{}\",\"size\":{}}}\n",
                self.name(),
                key.kernel,
                key.machine,
                key.size
            ),
        }
    }
}

struct Pending {
    cmd: Cmd,
    key: usize,
    due: Instant,
    sent: Instant,
    span: u64,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Write one whole request line (one write unless the socket
    /// buffer is full).
    fn send(&mut self, line: &[u8]) -> Result<(), String> {
        let mut off = 0;
        while off < line.len() {
            match self.stream.write(&line[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Read what has arrived; returns complete response lines.
    fn poll(&mut self) -> Result<Vec<String>, String> {
        let mut tmp = [0u8; 16384];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let mut lines = Vec::new();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line).trim().to_string());
        }
        Ok(lines)
    }
}

/// One request's outcome.
struct Done {
    cmd: Cmd,
    /// From the scheduled send to the response (ms).
    latency_ms: f64,
    /// From the actual send to the response (ms).
    client_ms: f64,
    /// The server's `elapsed_ns` (ms); 0 for `invalidate`.
    server_ms: f64,
    late_ms: f64,
}

/// Per-run response bookkeeping.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: u64,
    mismatches: u64,
    seeded: u64,
    artifact: u64,
    fresh: u64,
}

struct Service {
    handle: ServerHandle,
    conns: Vec<Conn>,
    dir: PathBuf,
}

impl Service {
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn request_blocking(conn: &mut Conn, line: &str) -> Result<Json, String> {
    conn.send(line.as_bytes())?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(l) = conn.poll()?.into_iter().next() {
            return Json::parse(&l).ok_or_else(|| format!("bad response `{l}`"));
        }
        if Instant::now() > deadline {
            return Err("no response within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Start a daemon with a fresh artifact store, connect, and warm every
/// key once (checking each checksum against the oracle).
fn setup(idx: usize, keys: &[Key], sums: &[u64], tracer: &mut Tracer) -> Result<Service, String> {
    let root = tracer.begin("setup", None, 0);
    let dir = out_dir().join(format!("serve-artifacts-{}-{idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let handle = tracer
        .span("Server::start", Some(root), 0, |_, _| {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                threads: nproc(),
                artifact_dir: Some(dir.to_string_lossy().into_owned()),
                lru_capacity: LRU_CAPACITY,
                launch_slots: nproc(),
            })
        })
        .map_err(|e| format!("serve start: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..nproc() {
        conns.push(Conn::open(handle.addr())?);
    }
    let n_conns = conns.len();
    for (ki, key) in keys.iter().enumerate() {
        let resp = tracer.span("warm_request", Some(root), 0, |_, _| {
            request_blocking(&mut conns[ki % n_conns], &Cmd::Run.line(key))
        })?;
        let got = resp.get("checksum").and_then(Json::as_str).unwrap_or("");
        if got != format!("{:016x}", sums[ki]) {
            return Err(format!(
                "{}/{}/{}: warm-up checksum {got} differs from the direct launch",
                key.kernel, key.machine, key.size
            ));
        }
    }
    tracer.end(root);
    Ok(Service { handle, conns, dir })
}

/// The request schedule of one rate: exactly `rate × secs` Poisson
/// arrivals (uniform order statistics), plus periodic invalidates.
fn schedule(rng: &mut Rng, rate: f64, secs: f64, n_keys: usize) -> Vec<(f64, Cmd, usize)> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut reqs: Vec<(f64, Cmd, usize)> = (0..n)
        .map(|_| {
            let at = rng.unit() * secs;
            let cmd = if rng.unit() < ANALYZE_SHARE {
                Cmd::Analyze
            } else {
                Cmd::Run
            };
            (at, cmd, rng.below(n_keys))
        })
        .collect();
    let mut t = INVALIDATE_EVERY_S / 2.0;
    while t < secs {
        reqs.push((t, Cmd::Invalidate, 0));
        t += INVALIDATE_EVERY_S;
    }
    reqs.sort_by(|a, b| a.0.total_cmp(&b.0));
    reqs
}

/// Run one rate of the ladder; returns every request's outcome and the
/// wall time from the first scheduled send to the last response.
#[allow(clippy::too_many_arguments)]
fn run_rate(
    svc: &mut Service,
    keys: &[Key],
    sums: &[u64],
    sched: &[(f64, Cmd, usize)],
    secs: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    op: &mut u64,
) -> Result<(Vec<Done>, f64), String> {
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + Duration::from_secs_f64(secs + 60.0);
    let mut done: Vec<Done> = Vec::with_capacity(sched.len());
    let mut next = 0;
    let mut last = start;
    loop {
        let now = Instant::now();
        while next < sched.len() && start + Duration::from_secs_f64(sched[next].0) <= now {
            let (at, cmd, key) = sched[next];
            let due = start + Duration::from_secs_f64(at);
            let ci = (0..svc.conns.len())
                .min_by_key(|&c| svc.conns[c].pending.len())
                .expect("at least one connection");
            *op += 1;
            let span = tracer.begin(&format!("request:{}", cmd.name()), None, *op);
            svc.conns[ci].send(cmd.line(&keys[key]).as_bytes())?;
            svc.conns[ci].pending.push_back(Pending {
                cmd,
                key,
                due,
                sent: Instant::now(),
                span,
            });
            tally.attempted += 1;
            next += 1;
        }
        for conn in &mut svc.conns {
            for line in conn.poll()? {
                let recv = Instant::now();
                let p = conn
                    .pending
                    .pop_front()
                    .ok_or("response without a pending request")?;
                tracer.end(p.span);
                last = recv;
                let resp = Json::parse(&line);
                let ok = resp
                    .as_ref()
                    .and_then(|r| r.get("ok"))
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                let mut server_ms = 0.0;
                if !ok {
                    tally.errors += 1;
                    eprintln!("request failed: {line}");
                } else if let Some(r) = &resp {
                    server_ms = r
                        .get("elapsed_ns")
                        .and_then(|v| match v {
                            Json::Num(n) => Some(*n / 1e6),
                            _ => None,
                        })
                        .unwrap_or(0.0);
                    match r.get("plan_source").and_then(Json::as_str) {
                        Some("seeded") => tally.seeded += 1,
                        Some("artifact") => tally.artifact += 1,
                        Some("fresh") => tally.fresh += 1,
                        _ => {}
                    }
                    if p.cmd == Cmd::Run {
                        let got = r.get("checksum").and_then(Json::as_str).unwrap_or("");
                        if got != format!("{:016x}", sums[p.key]) {
                            tally.mismatches += 1;
                            let k = &keys[p.key];
                            eprintln!(
                                "{}/{}/{}: served checksum {got} differs from the direct launch",
                                k.kernel, k.machine, k.size
                            );
                        }
                    }
                }
                done.push(Done {
                    cmd: p.cmd,
                    latency_ms: (recv - p.due).as_secs_f64() * 1e3,
                    client_ms: (recv - p.sent).as_secs_f64() * 1e3,
                    server_ms,
                    late_ms: p.sent.saturating_duration_since(p.due).as_secs_f64() * 1e3,
                });
            }
        }
        if next == sched.len() && svc.conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if now > give_up {
            return Err(format!(
                "responses still missing {} s after the schedule",
                60
            ));
        }
        let until_next = sched
            .get(next)
            .map(|s| (start + Duration::from_secs_f64(s.0)).saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(1));
        std::thread::sleep(until_next.min(Duration::from_micros(100)));
    }
    Ok((done, (last - start).as_secs_f64()))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let poly0 = polymem_poly::poly_core_stats();
    let keys = keys();
    let mut sums = Vec::new();
    let (mut cycles, mut bytes) = (0u64, 0u64);
    for key in &keys {
        let (s, c, b) = tracer.span("oracle_launch", None, 0, |_, _| oracle(key))?;
        sums.push(s);
        cycles += c;
        bytes += b;
    }
    report.set("modeled_cycles", cycles as f64);
    report.set("global_bytes", bytes as f64);

    // Serve timings stay as measured: at the light rate they are set
    // mostly by the wire, not the CPU. The host's speed is reported
    // beside them.
    let mut clock = HostClock::default();
    let mut setup_s = Vec::new();
    let mut svc = None;
    for i in 0..SETUPS {
        if let Some(old) = svc.take() {
            Service::stop(old);
        }
        let t0 = Instant::now();
        svc = Some(setup(i, &keys, &sums, tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        clock.sample();
    }
    report.set("setup_s", median(&setup_s));
    let mut svc = svc.expect("at least one set-up");

    let mut rng = Rng::new(args.seed);
    let mut tally = Tally::default();
    let light_secs = args.seconds * LIGHT_SHARE;
    let rest_secs = args.seconds * (1.0 - LIGHT_SHARE) / (LADDER.len() - 1) as f64;
    let mut op = 0u64;
    let mut light: Vec<Done> = Vec::new();
    let mut loaded: Vec<Done> = Vec::new();
    let mut max_rps = 0.0;
    let mut late: Vec<f64> = Vec::new();
    let (t_ladder, cost0) = (Instant::now(), tracer.cost_ns());
    let result = (|| -> Result<(), String> {
        for (ri, rate) in LADDER.iter().enumerate() {
            let secs = if ri == 0 { light_secs } else { rest_secs };
            let sched = schedule(&mut rng, *rate, secs, keys.len());
            let (done, wall) = run_rate(
                &mut svc, &keys, &sums, &sched, secs, tracer, &mut tally, &mut op,
            )?;
            let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
            let p90 = percentile(&lat, 0.9);
            // A backlog that grows shows as a tail far later than the
            // head: the last quarter's median over the limit.
            let tail: Vec<f64> = lat[lat.len() * 3 / 4..].to_vec();
            let pass = p90 <= LIMIT_MS && median(&tail) <= LIMIT_MS;
            let achieved = done.len() as f64 / wall.max(1e-9);
            eprintln!(
                "rate {rate}/s: {} requests, p50 {:.2} ms, p90 {:.2} ms, achieved {:.1}/s, {}",
                done.len(),
                percentile(&lat, 0.5),
                p90,
                achieved,
                if pass {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            late.extend(done.iter().map(|d| d.late_ms));
            if ri == 0 {
                light = done;
            } else if pass {
                loaded = done;
            }
            if !pass {
                break;
            }
            max_rps = achieved;
        }
        Ok(())
    })();
    let (ladder_s, trace_ns) = (t_ladder.elapsed().as_secs_f64(), tracer.cost_ns() - cost0);
    let stats_resp = request_blocking(&mut svc.conns[0], "{\"cmd\":\"stats\"}\n");
    svc.stop();
    result?;
    let stats_resp = stats_resp?;

    report.attempted = tally.attempted;
    report.errors = tally.errors;
    report.mismatches = tally.mismatches;
    let light_lat: Vec<f64> = light.iter().map(|d| d.latency_ms).collect();
    report.set("throughput_per_s", max_rps);
    report.set("latency_ms_p50", percentile(&light_lat, 0.5));
    report.set("latency_ms_p90", percentile(&light_lat, 0.9));
    if !args.trace {
        return Ok(report);
    }

    let of = |cmds: &[Cmd], f: &dyn Fn(&Done) -> f64| -> Vec<f64> {
        light
            .iter()
            .filter(|d| cmds.contains(&d.cmd))
            .map(f)
            .collect()
    };
    let lookups = [Cmd::Run, Cmd::Analyze];
    report.set(
        "serve.server_ms_p50",
        median(&of(&lookups, &|d| d.server_ms)),
    );
    report.set(
        "serve.wire_ms_p50",
        median(&of(&lookups, &|d| d.client_ms - d.server_ms)),
    );
    report.set(
        "serve.analyze_ms_p50",
        median(&of(&[Cmd::Analyze], &|d| d.server_ms)),
    );
    report.set(
        "serve.run_ms_p50",
        median(&of(&[Cmd::Run], &|d| d.server_ms)),
    );
    let loaded_lat: Vec<f64> = loaded.iter().map(|d| d.latency_ms).collect();
    report.set("serve.loaded_latency_ms_p90", percentile(&loaded_lat, 0.9));
    report.set("serve.plan_source.seeded", tally.seeded as f64);
    report.set("serve.plan_source.artifact", tally.artifact as f64);
    report.set("serve.plan_source.fresh", tally.fresh as f64);
    let num = |k: &str| match stats_resp.get(k) {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    };
    let (hits, misses) = (num("lru_hits"), num("lru_misses"));
    report.set("serve.lru.hit_ratio", hits / (hits + misses).max(1.0));
    report.set("serve.lru.evictions", num("lru_evictions"));
    report.set("serve.errors", num("errors"));
    report.set("loadgen.late_ms_p99", percentile(&late, 0.99));
    report.set("host.calibration_ms", clock.median_ms());
    report.set("trace.overhead_ratio", overhead_ratio(ladder_s, trace_ns));
    crate::exec_large::set_poly_delta(&mut report, &poly0, 1.0);
    Ok(report)
}
