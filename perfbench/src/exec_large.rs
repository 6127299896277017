//! `exec_large`: warm launches of the five built-in kernels on gpu and
//! cell with the compile service's default config (hierarchy and
//! residency on, compiled engine, parallel blocks). Sizes are large
//! enough that the executor does nearly all the work; plans are warmed
//! and `ir::exec` reference outputs computed during setup, so the §3
//! analysis does none. jacobi stages nothing and is the control row for
//! staging and register-frame changes.

use crate::host::HostClock;
use crate::stats::median;
use crate::trace::{overhead_ratio, Tracer};
use crate::{Args, Report};
use polymem_core::smem::SymbolicPlan;
use polymem_ir::{exec_program, ArrayStore};
use polymem_kernels::tunespace;
use polymem_machine::{
    execute_blocked_seeded, warm_plan, ExecStats, MachineConfig, PassKind, PassProfiler,
    PassReport, PlanSource,
};
use polymem_poly::poly_core_stats;
use polymem_serve::workload::{self, Workload};
use std::sync::Arc;
use std::time::Instant;

/// Kernel and problem size, chosen so every launch takes about the
/// same time (100–150 ms on a 2-core host): then no kernel dominates
/// the pass, and the latency percentiles fall inside one cluster
/// instead of in a gap between kernels. jacobi needs a far larger `n`.
const KERNELS: [(&str, i64); 5] = [
    ("me", 64),
    ("jacobi", 12288),
    ("jacobi2d", 96),
    ("matmul", 48),
    ("conv2d", 80),
];
pub const MACHINES: [&str; 2] = ["gpu", "cell"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// The config a compile-service `run` request gets by default.
pub fn serve_default_config(machine: &str) -> Result<MachineConfig, String> {
    let mut cfg = polymem_machine::desc::lookup(machine)
        .ok_or_else(|| format!("unknown machine `{machine}`"))?
        .config();
    cfg.double_buffer = false;
    cfg.hierarchy = true;
    cfg.artifact_dir = None;
    Ok(cfg)
}

struct Case {
    label: String,
    w: Arc<Workload>,
    cfg: MachineConfig,
    plan: Option<Arc<SymbolicPlan>>,
    /// Whether set-up ran a fresh §3 analysis for this case.
    fresh: bool,
    init: Arc<ArrayStore>,
    reference: Arc<ArrayStore>,
}

fn setup(args: &Args, tracer: &mut Tracer, profiler: &PassProfiler) -> Result<Vec<Case>, String> {
    let root = tracer.begin("setup", None, 0);
    let mut cases = Vec::new();
    for (name, size) in KERNELS {
        let w = Arc::new(workload::resolve(name, size, false).ok_or("kernel does not resolve")?);
        let mut init = ArrayStore::for_program(&w.program, &w.params).map_err(|e| e.to_string())?;
        tunespace::init_store(name, &mut init, args.seed);
        let mut reference = init.clone();
        tracer
            .span("exec_program", Some(root), 0, |_, _| {
                exec_program(&w.program, &w.params, &mut reference)
            })
            .map_err(|e| format!("{name}: reference: {e}"))?;
        let (init, reference) = (Arc::new(init), Arc::new(reference));
        for machine in MACHINES {
            let cfg = serve_default_config(machine)?;
            let warmed = tracer
                .span("warm_plan", Some(root), 0, |_, _| {
                    warm_plan(&w.kernel, &w.params, &cfg, Some(profiler), None)
                })
                .map_err(|e| format!("{name}/{machine}: warm_plan: {e}"))?;
            let fresh = matches!(warmed, Some((_, PlanSource::Fresh)));
            let plan = warmed.map(|(sp, _)| sp);
            cases.push(Case {
                label: format!("{name}.{machine}"),
                w: w.clone(),
                cfg,
                plan,
                fresh,
                init: init.clone(),
                reference: reference.clone(),
            });
        }
    }
    tracer.end(root);
    Ok(cases)
}

/// One launch; returns its stats and wall time (ms), or the error.
fn launch(
    case: &Case,
    parallel: bool,
    profiler: Option<&PassProfiler>,
) -> (Result<ExecStats, String>, f64, ArrayStore) {
    let mut store = (*case.init).clone();
    let t0 = Instant::now();
    let r = execute_blocked_seeded(
        &case.w.kernel,
        &case.w.params,
        &mut store,
        &case.cfg,
        parallel,
        profiler,
        case.plan.as_ref(),
    );
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (r.map(|(s, _)| s).map_err(|e| e.to_string()), ms, store)
}

fn same_outputs(case: &Case, store: &ArrayStore) -> bool {
    case.w
        .program
        .arrays
        .iter()
        .all(|a| store.data(&a.name).ok() == case.reference.data(&a.name).ok())
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let poly0 = poly_core_stats();
    let setup_profiler = PassProfiler::new();
    let (mut setup_clock, mut clock) = (HostClock::default(), HostClock::default());
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        cases = setup(args, tracer, &setup_profiler)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_clock.sample();
    }

    // Timed launches: whole passes over the mix until the time is up.
    // A traced run adds a sequential replica of each launch with a pass
    // profiler.
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut seq_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut first: Vec<Option<ExecStats>> = vec![None; cases.len()];
    let replica_profiler = PassProfiler::new();
    let (t_loop, cost0) = (Instant::now(), tracer.cost_ns());
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        for (ci, case) in cases.iter().enumerate() {
            op += 1;
            report.attempted += 1;
            let sp = tracer.begin(&format!("execute_blocked_seeded:{}", case.label), None, op);
            let (r, ms, store) = launch(case, true, None);
            tracer.end(sp);
            per_case[ci].push(ms);
            clock.sample();
            match r {
                Err(e) => {
                    report.errors += 1;
                    eprintln!("{}: launch failed: {e}", case.label);
                }
                Ok(stats) => {
                    if !same_outputs(case, &store) {
                        report.mismatches += 1;
                        eprintln!("{}: output differs from ir::exec", case.label);
                    }
                    match &first[ci] {
                        None => first[ci] = Some(stats),
                        Some(f) if f.modeled_cycles != stats.modeled_cycles => {
                            report.mismatches += 1;
                            eprintln!("{}: modeled cycles changed between launches", case.label);
                        }
                        _ => {}
                    }
                }
            }
            if args.trace {
                let sp = tracer.begin(
                    &format!("execute_blocked_seeded.seq:{}", case.label),
                    None,
                    op,
                );
                let (r, ms, store) = launch(case, false, Some(&replica_profiler));
                tracer.end(sp);
                seq_ms[ci].push(ms);
                report.attempted += 1;
                match r {
                    Err(_) => report.errors += 1,
                    Ok(_) if !same_outputs(case, &store) => report.mismatches += 1,
                    Ok(_) => {}
                }
            }
        }
        pass += 1;
    }
    let overhead = overhead_ratio(t_loop.elapsed().as_secs_f64(), tracer.cost_ns() - cost0);

    let bytes: u64 = first
        .iter()
        .zip(&cases)
        .filter_map(|(s, c)| Some(global_bytes(s.as_ref()?, &c.cfg)))
        .sum();
    let stats: Vec<ExecStats> = first.into_iter().flatten().collect();
    let sum = |f: &dyn Fn(&ExecStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    // Instances of one pass over the wall time of a median pass: each
    // case's median launch, so a stall of the shared host in one launch
    // does not move the figure.
    let instances = sum(&|s| s.instances);
    let pass_ms: f64 = per_case.iter().map(|v| median(v)).sum();
    let per_s = instances / (pass_ms / 1e3).max(1e-9);
    report.set_timings(&setup_clock, &setup_s, &clock, per_s, &per_case.concat());
    report.set("modeled_cycles", sum(&|s| s.modeled_cycles));
    report.set("global_bytes", bytes as f64);
    if !args.trace {
        return Ok(report);
    }

    // Per-layer metrics. Counters are per pass (one launch of each
    // case); wall times come from the spans' self times.
    let self_ms = tracer.self_ms();
    for c in &cases {
        let name = format!("machine.exec.launch_ms.{}", c.label);
        let spans = self_ms
            .get(&format!("execute_blocked_seeded:{}", c.label))
            .map(|v| median(v))
            .unwrap_or(0.0);
        report.set(&name, spans);
    }
    let seq: f64 = seq_ms.iter().map(|v| median(v)).sum();
    report.set("machine.exec.parallel_speedup", seq / pass_ms.max(1e-9));
    report.set("machine.exec.blocks", sum(&|s| s.blocks));
    report.set("machine.exec.rounds", sum(&|s| s.rounds));
    let hits = sum(&|s| s.plan_cache_hits);
    let misses = sum(&|s| s.plan_cache_misses);
    report.set(
        "machine.exec.plan_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    let rep = replica_profiler.report();
    let per_pass = |kind: PassKind| pass_total_ms(&rep, kind) / pass as f64;
    report.set("machine.exec.move_in_ms", per_pass(PassKind::MoveIn));
    report.set("machine.exec.compute_ms", per_pass(PassKind::Compute));
    report.set("machine.exec.move_out_ms", per_pass(PassKind::MoveOut));
    report.set("machine.exec.barrier_ms", per_pass(PassKind::Barrier));
    set_exec_counters(&mut report, &stats);

    // Set-up side: the §3 analysis that warm_plan ran, per set-up.
    let setup_rep = setup_profiler.report();
    set_pass_metrics(&mut report, &|kind| {
        pass_total_ms(&setup_rep, kind) / SETUPS as f64
    });
    let warm = self_ms.get("warm_plan").cloned().unwrap_or_default();
    report.set(
        "core.smem.analyze_ms",
        warm.iter().sum::<f64>() / SETUPS as f64,
    );
    let fresh = cases.iter().filter(|c| c.fresh).count();
    report.set("core.smem.analyses", fresh as f64);
    set_poly_delta(&mut report, &poly0, 1.0);
    report.set("trace.overhead_ratio", overhead);
    Ok(report)
}

/// Bytes a launch moved between global memory and scratchpad.
pub fn global_bytes(stats: &ExecStats, cfg: &MachineConfig) -> u64 {
    (stats.moved_in + stats.moved_out) * cfg.word_bytes
}

/// Total milliseconds a profiler recorded for one pass or phase.
pub fn pass_total_ms(report: &PassReport, kind: PassKind) -> f64 {
    report
        .rows
        .iter()
        .find(|r| r.kind == kind)
        .map_or(0.0, |r| r.total.as_secs_f64() * 1e3)
}

/// Executor counters summed over one launch of each case.
fn set_exec_counters(report: &mut Report, stats: &[ExecStats]) {
    let sum = |f: &dyn Fn(&ExecStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    report.set(
        "machine.compiled.compiled_blocks",
        sum(&|s| s.compiled_blocks),
    );
    report.set(
        "machine.compiled.interpreted_blocks",
        sum(&|s| s.interpreted_blocks),
    );
    report.set("core.smem.hierarchy.hier_groups", sum(&|s| s.hier_groups));
    report.set(
        "core.smem.hierarchy.smem_loads_saved",
        sum(&|s| s.smem_loads_saved),
    );
    report.set(
        "core.smem.hierarchy.reg_bytes_moved",
        sum(&|s| s.reg_bytes_moved),
    );
    report.set(
        "core.smem.residency.retained_elems",
        sum(&|s| s.retained_elems),
    );
    report.set("core.smem.residency.delta_elems", sum(&|s| s.delta_elems));
    report.set(
        "core.smem.residency.flushed_delta_elems",
        sum(&|s| s.flushed_delta_elems),
    );
    report.set(
        "core.smem.residency.residency_groups",
        sum(&|s| s.residency_groups),
    );
    report.set("machine.dma.descriptors", sum(&|s| s.dma.descriptors));
    report.set("machine.dma.bytes", sum(&|s| s.dma.bytes));
    report.set("machine.dma.stall_cycles", sum(&|s| s.dma.stall_cycles));
    let busy = sum(&|s| s.dma.total_busy_cycles());
    let stall = sum(&|s| s.dma.stall_cycles.min(s.dma.total_busy_cycles()));
    report.set("machine.dma.busy_cycles", busy);
    report.set(
        "machine.dma.overlap_fraction",
        if busy > 0.0 {
            (busy - stall) / busy
        } else {
            0.0
        },
    );
}

/// The six §3 pass times, from `pass_ms(kind)`.
pub fn set_pass_metrics(report: &mut Report, pass_ms: &dyn Fn(PassKind) -> f64) {
    for (kind, name) in [
        (PassKind::Dataspace, "dataspace"),
        (PassKind::Partition, "partition"),
        (PassKind::Reuse, "reuse"),
        (PassKind::Alloc, "alloc"),
        (PassKind::Movement, "movement"),
        (PassKind::Hierarchy, "hierarchy"),
    ] {
        report.set(&format!("core.smem.pass.{name}_ms"), pass_ms(kind));
    }
}

/// Polyhedral-core counters since `since`, divided by `per`.
pub fn set_poly_delta(report: &mut Report, since: &polymem_poly::PolyCoreStats, per: f64) {
    let now = poly_core_stats();
    let hits = now.cache_hits.saturating_sub(since.cache_hits) as f64;
    let misses = now.cache_misses.saturating_sub(since.cache_misses) as f64;
    report.set(
        "polyhedra.core_ms",
        now.core_ns.saturating_sub(since.core_ns) as f64 / 1e6 / per,
    );
    report.set("polyhedra.cache_hit_ratio", hits / (hits + misses).max(1.0));
    report.set("polyhedra.cache_misses", misses / per);
    report.set(
        "polyhedra.fm_rows_generated",
        now.fm_rows_generated
            .saturating_sub(since.fm_rows_generated) as f64
            / per,
    );
    report.set(
        "polyhedra.fm_rows_pruned",
        now.fm_rows_pruned.saturating_sub(since.fm_rows_pruned) as f64 / per,
    );
}
