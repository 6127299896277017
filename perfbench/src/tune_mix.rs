//! `tune_mix`: cold `machine::tune` (forced, no artifact store) of a
//! fixed program mix plus programs drawn by `ir::gen` from the workload
//! seed, each on gpu and cell. This is the compile path: the polyhedral
//! core, the §3 passes and the cost estimator dominate, and the executor
//! runs only the pruned frontier at small sizes. A run is a series of
//! passes; each pass is one tuning session that starts from an empty
//! polyhedral cache, which then persists across the pass's programs.
//!
//! The timed passes tune the fixed mix only: the same programs for every
//! seed, none of which fails. The generated programs differ per seed,
//! their tune times are heavy-tailed (a few take 20× the median), and
//! tune() fails on some of them (see `perfbench/README.md`). So they are
//! tuned once each in the traced run, after the timed passes; their
//! failure share and median tune time are per-layer metrics.

use crate::exec_large::{global_bytes, pass_total_ms, set_pass_metrics, MACHINES};
use crate::host::HostClock;
use crate::stats::{median, spearman, Rng};
use crate::trace::{overhead_ratio, Tracer};
use crate::{nproc, Args, Report};
use polymem_core::smem::tune::estimate;
use polymem_ir::{
    exec_program, init_random_store, parse_program, random_program, ArrayStore, Program,
};
use polymem_kernels::tunespace;
use polymem_machine::{
    config_for, cost_constants, execute_blocked_seeded, generic_candidates, structure_of,
    tile_kernel, tune, warm_plan, BlockedKernel, MachineConfig, PassProfiler, PlanSource,
    TuneCandidate, TuneOptions, TuneOutcome,
};
use polymem_poly::{poly_core_reset, poly_core_stats};
use std::time::Instant;

const BUILTINS: [&str; 5] = ["me", "jacobi", "jacobi2d", "matmul", "conv2d"];
const BUILTIN_SIZE: i64 = 8;
const POLY_FILES: [(&str, &str, [i64; 2]); 2] = [
    (
        "blur3",
        include_str!("../../examples/kernels/blur3.poly"),
        [16, 4],
    ),
    (
        "seidel",
        include_str!("../../examples/kernels/seidel.poly"),
        [4, 16],
    ),
];
/// Generated programs tuned by the traced run, and their `N` (the CLI's
/// default size).
const GENERATED: usize = 24;
const RANDOM_SIZE: i64 = 16;
/// The CLI's tile-size menu for generic candidate spaces.
const MENU: [i64; 4] = [2, 4, 8, 16];
const SETUPS: usize = 7;

/// How a program's candidate space is derived.
#[derive(Clone)]
enum Space {
    /// A built-in kernel's hand-written table (`kernels::tunespace`).
    Builtin(&'static str),
    /// The band-derived generic space (`.poly` files, `ir::gen`).
    Generic,
}

struct Job {
    label: String,
    program: Program,
    params: Vec<i64>,
    space: Space,
    base: MachineConfig,
    /// Candidates derived during set-up (the fixed mix); `None` for
    /// generated programs, which derive them when tuned.
    candidates: Option<Vec<TuneCandidate>>,
}

fn base_config(machine: &str) -> Result<MachineConfig, String> {
    let mut cfg = polymem_machine::desc::lookup(machine)
        .ok_or_else(|| format!("unknown machine `{machine}`"))?
        .config();
    cfg.artifact_dir = None;
    Ok(cfg)
}

fn derive(job: &Job) -> Result<Vec<TuneCandidate>, String> {
    match job.space {
        Space::Builtin(name) => tunespace::candidates(name, &job.base, false)
            .ok_or_else(|| format!("no space for {name}")),
        Space::Generic => generic_candidates(&job.program, &job.params, &job.base, &MENU)
            .map_err(|e| format!("candidate derivation failed: {e}")),
    }
}

/// The fixed mix with its candidate spaces derived.
fn setup(tracer: &mut Tracer) -> Result<Vec<Job>, String> {
    let root = tracer.begin("setup", None, 0);
    let mut jobs = Vec::new();
    for machine in MACHINES {
        let base = base_config(machine)?;
        for name in BUILTINS {
            let (program, params, _) =
                tunespace::workload(name, BUILTIN_SIZE).ok_or("builtin without workload")?;
            jobs.push(Job {
                label: format!("{name}.{machine}"),
                program,
                params,
                space: Space::Builtin(name),
                base: base.clone(),
                candidates: None,
            });
        }
        for (name, src, params) in POLY_FILES {
            let program = parse_program(src).map_err(|e| format!("{name}.poly: {e}"))?;
            jobs.push(Job {
                label: format!("{name}.{machine}"),
                program,
                params: params.to_vec(),
                space: Space::Generic,
                base: base.clone(),
                candidates: None,
            });
        }
    }
    for job in &mut jobs {
        let cands = tracer.span("derive_candidates", Some(root), 0, |_, _| derive(job))?;
        job.candidates = Some(cands);
    }
    tracer.end(root);
    Ok(jobs)
}

/// The next generated program, drawn from the workload seed, on each
/// machine.
fn random_jobs(rng: &mut Rng) -> Result<Vec<Job>, String> {
    let gen_seed = rng.next_u64() % 1_000_000;
    let program = random_program(gen_seed);
    MACHINES
        .iter()
        .map(|machine| {
            Ok(Job {
                label: format!("random{gen_seed}.{machine}"),
                program: program.clone(),
                params: vec![RANDOM_SIZE],
                space: Space::Generic,
                base: base_config(machine)?,
                candidates: None,
            })
        })
        .collect()
}

fn init_store(job: &Job, store: &mut ArrayStore, seed: u64) {
    match job.space {
        Space::Builtin(name) => tunespace::init_store(name, store, seed),
        Space::Generic => init_random_store(&job.program, store, seed),
    }
}

fn tune_job(job: &Job, seed: u64, cands: &[TuneCandidate]) -> Result<TuneOutcome, String> {
    let opts = TuneOptions {
        workers: nproc(),
        force: true,
        space_label: format!("bench:{}", job.label),
        ..TuneOptions::default()
    };
    tune(
        &job.program,
        &job.params,
        &|st: &mut ArrayStore| init_store(job, st, seed),
        cands,
        &job.base,
        &opts,
    )
    .map_err(|e| e.to_string())
}

/// Launch the winner once more and return its global↔scratchpad bytes,
/// or an error when its outputs differ from `ir::exec`.
fn relaunch_winner(job: &Job, out: &TuneOutcome, seed: u64) -> Result<u64, String> {
    let kernel: BlockedKernel = match job.space {
        Space::Builtin(name) => tunespace::build(name, &out.winner),
        Space::Generic => tile_kernel(&job.program, &out.winner).map_err(|e| e.to_string())?,
    }
    .ok_or("winner does not rebuild")?;
    let cfg = config_for(&out.winner, &job.base);
    let mut reference =
        ArrayStore::for_program(&job.program, &job.params).map_err(|e| e.to_string())?;
    init_store(job, &mut reference, seed);
    let mut store =
        ArrayStore::for_program(&kernel.program, &job.params).map_err(|e| e.to_string())?;
    init_store(job, &mut store, seed);
    exec_program(&job.program, &job.params, &mut reference).map_err(|e| e.to_string())?;
    let (stats, _) =
        execute_blocked_seeded(&kernel, &job.params, &mut store, &cfg, false, None, None)
            .map_err(|e| e.to_string())?;
    for a in &job.program.arrays {
        if store.data(&a.name).ok() != reference.data(&a.name).ok() {
            return Err(format!("winner output {} differs from ir::exec", a.name));
        }
    }
    if stats.modeled_cycles != out.winner_cycles {
        eprintln!(
            "{}: relaunched winner took {} cycles, tune reported {}",
            job.label, stats.modeled_cycles, out.winner_cycles
        );
    }
    Ok(global_bytes(&stats, &cfg))
}

/// Re-run the analytic pass tune() performs (structure, warm_plan,
/// estimate) for every candidate, with a pass profiler and a span per
/// call: the per-layer split of tune's analysis time.
fn replay_analysis(
    job: &Job,
    cands: &[TuneCandidate],
    tracer: &mut Tracer,
    profiler: &PassProfiler,
    op: u64,
    fresh: &mut u64,
) {
    let root = tracer.begin(&format!("analysis_replay:{}", job.label), None, op);
    for cand in cands {
        let cfg = config_for(&cand.desc, &job.base);
        let Ok(st) = structure_of(&cand.kernel, &job.params, &cfg) else {
            continue;
        };
        let sp = if cand.kernel.use_scratchpad {
            let r = tracer.span("warm_plan", Some(root), op, |_, _| {
                warm_plan(&cand.kernel, &job.params, &cfg, Some(profiler), None)
            });
            match r {
                Ok(Some((sp, src))) => {
                    *fresh += (src == PlanSource::Fresh) as u64;
                    Some(sp)
                }
                _ => None,
            }
        } else {
            None
        };
        tracer.span("estimate", Some(root), op, |_, _| {
            let _ = estimate(
                &cand.kernel.program,
                sp.as_deref(),
                &job.params,
                &st,
                &cost_constants(&cfg),
            );
        });
    }
    tracer.end(root);
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut s = Session::default();
    let mut setup_clock = HostClock::default();
    let mut setup_s = Vec::new();
    let mut fixed = Vec::new();
    for _ in 0..SETUPS {
        poly_core_reset();
        let t0 = Instant::now();
        fixed = setup(tracer)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_clock.sample();
    }

    // Passes until the time is up. Each pass is one tuning session: the
    // polyhedral cache is reset, then the fixed mix is tuned.
    let profiler = PassProfiler::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while s.passes == 0 || Instant::now() < deadline {
        poly_core_reset();
        for job in &fixed {
            report.attempted += 1;
            if !s.tune_one(job, args, tracer, &profiler, &mut report)? {
                report.errors += 1;
            }
        }
        s.passes += 1;
    }

    let per_s = s.fixed_lat.len() as f64 / s.fixed_s.max(1e-9);
    report.set_timings(&setup_clock, &setup_s, &s.clock, per_s, &s.fixed_lat);
    report.set("modeled_cycles", s.winner_cycles as f64);
    report.set("global_bytes", s.winner_bytes as f64);
    if !args.trace {
        return Ok(report);
    }

    // The generated programs, drawn from the workload seed with no
    // exclusion list, in one more tuning session.
    poly_core_reset();
    let mut rng = Rng::new(args.seed);
    let mut generated_failed = 0u64;
    for _ in 0..GENERATED {
        for job in random_jobs(&mut rng)? {
            if !s.tune_one(&job, args, tracer, &profiler, &mut report)? {
                generated_failed += 1;
            }
        }
    }

    // Per-layer metrics, per tuned program.
    let n = s.op.max(1) as f64;
    let self_ms = tracer.self_ms();
    let total = |name: &str| self_ms.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let [hits, misses, generated, pruned] = s.poly;
    report.set("polyhedra.core_ms", s.poly_ns as f64 / 1e6 / n);
    report.set(
        "polyhedra.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("polyhedra.cache_misses", misses as f64 / n);
    report.set("polyhedra.fm_rows_generated", generated as f64 / n);
    report.set("polyhedra.fm_rows_pruned", pruned as f64 / n);
    report.set("core.smem.analyze_ms", total("warm_plan") / n);
    report.set("core.smem.analyses", s.fresh_analyses as f64 / n);
    let rep = profiler.report();
    set_pass_metrics(&mut report, &|kind| pass_total_ms(&rep, kind) / n);
    report.set("core.smem.tune.estimate_ms", total("estimate") / n);
    report.set("core.smem.tune.candidates", s.candidates as f64 / n);
    let rho = s.rhos.iter().sum::<f64>() / s.rhos.len().max(1) as f64;
    report.set("core.smem.tune.spearman", rho);
    report.set("machine.tune.simulated", s.simulated as f64 / n);
    report.set("machine.tune.sim_ms", s.sim_ns as f64 / 1e6 / n);
    report.set(
        "machine.tune.prune_ratio",
        s.simulated as f64 / s.candidates.max(1) as f64,
    );
    report.set("machine.tune.generated_ms_p50", median(&s.generated_lat));
    report.set(
        "machine.tune.generated_failed_ratio",
        generated_failed as f64 / s.generated_lat.len().max(1) as f64,
    );
    report.set("trace.overhead_ratio", overhead_ratio(s.tune_s, s.trace_ns));
    Ok(report)
}

/// Running totals of one tuning session.
#[derive(Default)]
struct Session {
    passes: u64,
    clock: HostClock,
    /// Latency (ms) and total time (s) of the fixed mix's tune calls.
    fixed_lat: Vec<f64>,
    fixed_s: f64,
    generated_lat: Vec<f64>,
    tune_s: f64,
    trace_ns: u64,
    winner_cycles: u64,
    winner_bytes: u64,
    candidates: u64,
    simulated: u64,
    sim_ns: u128,
    rhos: Vec<f64>,
    fresh_analyses: u64,
    poly_ns: u64,
    /// Polyhedral cache hits, misses, FM rows generated and pruned,
    /// inside tune calls only.
    poly: [u64; 4],
    failures_shown: u32,
    op: u64,
}

impl Session {
    /// Tune one program (deriving its space first when set-up did not),
    /// check the outcome and, when tracing, replay its analysis. Returns
    /// false when tune() failed or a simulated row was inexact.
    fn tune_one(
        &mut self,
        job: &Job,
        args: &Args,
        tracer: &mut Tracer,
        profiler: &PassProfiler,
        report: &mut Report,
    ) -> Result<bool, String> {
        self.op += 1;
        let op = self.op;
        let (cost0, poly0) = (tracer.cost_ns(), poly_core_stats());
        let sp = tracer.begin(&format!("program:{}", job.label), None, op);
        let t0 = Instant::now();
        let cands = match &job.candidates {
            Some(c) => Ok(c.clone()),
            None => tracer.span("derive_candidates", Some(sp), op, |_, _| derive(job)),
        };
        let out = cands.and_then(|c| {
            let out = tracer.span("tune", Some(sp), op, |_, _| tune_job(job, args.seed, &c));
            out.map(|o| (o, c))
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(sp);
        let poly1 = poly_core_stats();
        self.trace_ns += tracer.cost_ns() - cost0;
        self.tune_s += ms / 1e3;
        self.clock.sample();
        if job.candidates.is_some() {
            self.fixed_lat.push(ms);
            self.fixed_s += ms / 1e3;
        } else {
            self.generated_lat.push(ms);
        }
        self.poly_ns += poly1.core_ns.saturating_sub(poly0.core_ns);
        for (acc, (a, b)) in self.poly.iter_mut().zip([
            (poly1.cache_hits, poly0.cache_hits),
            (poly1.cache_misses, poly0.cache_misses),
            (poly1.fm_rows_generated, poly0.fm_rows_generated),
            (poly1.fm_rows_pruned, poly0.fm_rows_pruned),
        ]) {
            *acc += a.saturating_sub(b);
        }
        let (out, cands) = match out {
            Ok(x) => x,
            Err(e) => {
                self.show(&format!("{}: tune failed: {e}", job.label));
                return Ok(false);
            }
        };
        // tune() compares every simulated row with ir::exec itself and
        // never picks an inexact one; such a program counts as failed.
        // A winner that does not match on relaunch is a wrong result
        // that escaped, and fails the run.
        let inexact = out
            .rows
            .iter()
            .filter(|r| r.simulated.is_some() && !r.exact)
            .count();
        if inexact > 0 {
            self.show(&format!(
                "{}: {inexact} simulated rows differ from ir::exec",
                job.label
            ));
        }
        if job.candidates.is_some() && self.passes == 0 {
            self.winner_cycles += out.winner_cycles;
            match relaunch_winner(job, &out, args.seed) {
                Ok(bytes) => self.winner_bytes += bytes,
                Err(e) => {
                    report.mismatches += 1;
                    eprintln!("{}: {e}", job.label);
                }
            }
        }
        self.candidates += out.total as u64;
        self.simulated += out.simulated as u64;
        self.sim_ns += out.sim_ns.iter().flatten().sum::<u128>();
        let (p, s): (Vec<f64>, Vec<f64>) = out
            .rows
            .iter()
            .filter_map(|r| Some((r.predicted as f64, r.simulated? as f64)))
            .unzip();
        self.rhos.extend(spearman(&p, &s));
        if args.trace {
            replay_analysis(job, &cands, tracer, profiler, op, &mut self.fresh_analyses);
        }
        Ok(inexact == 0)
    }

    fn show(&mut self, msg: &str) {
        if self.failures_shown < 3 {
            eprintln!("{msg}");
            self.failures_shown += 1;
        }
    }
}
