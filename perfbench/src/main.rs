//! polymem benchmark: one command, three workloads, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec_large|tune_mix|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end table below, with `--trace 1` the per-layer table.
//! A wrong output (a launch, tune row or served checksum that differs
//! from its oracle) sets `correct` to false and the exit code to 1.
//! See `perfbench/README.md` for what each metric means per workload.

mod exec_large;
mod host;
mod serve_mixed;
mod stats;
mod trace;
mod tune_mix;

use host::HostClock;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("modeled_cycles", "cycles"),
    ("global_bytes", "bytes"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("polyhedra.core_ms", "ms"),
    ("polyhedra.cache_hit_ratio", "ratio"),
    ("polyhedra.cache_misses", "count"),
    ("polyhedra.fm_rows_generated", "count"),
    ("polyhedra.fm_rows_pruned", "count"),
    ("core.smem.analyze_ms", "ms"),
    ("core.smem.analyses", "count"),
    ("core.smem.pass.dataspace_ms", "ms"),
    ("core.smem.pass.partition_ms", "ms"),
    ("core.smem.pass.reuse_ms", "ms"),
    ("core.smem.pass.alloc_ms", "ms"),
    ("core.smem.pass.movement_ms", "ms"),
    ("core.smem.pass.hierarchy_ms", "ms"),
    ("core.smem.tune.estimate_ms", "ms"),
    ("core.smem.tune.candidates", "count"),
    ("core.smem.tune.spearman", "rho"),
    ("machine.tune.simulated", "count"),
    ("machine.tune.sim_ms", "ms"),
    ("machine.tune.prune_ratio", "ratio"),
    ("machine.tune.generated_ms_p50", "ms"),
    ("machine.tune.generated_failed_ratio", "ratio"),
    ("machine.exec.launch_ms.me.gpu", "ms"),
    ("machine.exec.launch_ms.me.cell", "ms"),
    ("machine.exec.launch_ms.jacobi.gpu", "ms"),
    ("machine.exec.launch_ms.jacobi.cell", "ms"),
    ("machine.exec.launch_ms.jacobi2d.gpu", "ms"),
    ("machine.exec.launch_ms.jacobi2d.cell", "ms"),
    ("machine.exec.launch_ms.matmul.gpu", "ms"),
    ("machine.exec.launch_ms.matmul.cell", "ms"),
    ("machine.exec.launch_ms.conv2d.gpu", "ms"),
    ("machine.exec.launch_ms.conv2d.cell", "ms"),
    ("machine.exec.blocks", "count"),
    ("machine.exec.rounds", "count"),
    ("machine.exec.plan_cache_hit_ratio", "ratio"),
    ("machine.exec.parallel_speedup", "ratio"),
    ("machine.exec.move_in_ms", "ms"),
    ("machine.exec.compute_ms", "ms"),
    ("machine.exec.move_out_ms", "ms"),
    ("machine.exec.barrier_ms", "ms"),
    ("machine.compiled.compiled_blocks", "count"),
    ("machine.compiled.interpreted_blocks", "count"),
    ("core.smem.hierarchy.hier_groups", "count"),
    ("core.smem.hierarchy.smem_loads_saved", "count"),
    ("core.smem.hierarchy.reg_bytes_moved", "bytes"),
    ("core.smem.residency.retained_elems", "count"),
    ("core.smem.residency.delta_elems", "count"),
    ("core.smem.residency.flushed_delta_elems", "count"),
    ("core.smem.residency.residency_groups", "count"),
    ("machine.dma.descriptors", "count"),
    ("machine.dma.bytes", "bytes"),
    ("machine.dma.stall_cycles", "cycles"),
    ("machine.dma.busy_cycles", "cycles"),
    ("machine.dma.overlap_fraction", "ratio"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.analyze_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.loaded_latency_ms_p90", "ms"),
    ("serve.plan_source.seeded", "count"),
    ("serve.plan_source.artifact", "count"),
    ("serve.plan_source.fresh", "count"),
    ("serve.lru.hit_ratio", "ratio"),
    ("serve.lru.evictions", "count"),
    ("serve.errors", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("host.calibration_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of a workload did.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (launches, tuned programs, requests).
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations whose output differed from its oracle.
    pub mismatches: u64,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set the CPU-bound workloads' timings, scaled to the reference
    /// host (see `host.rs`) by the clock sampled in the same phase, and
    /// the host's measured speed.
    pub fn set_timings(
        &mut self,
        setup_clock: &HostClock,
        setup_s: &[f64],
        clock: &HostClock,
        per_s: f64,
        lat_ms: &[f64],
    ) {
        self.set("setup_s", median(setup_s) * setup_clock.to_reference());
        let f = clock.to_reference();
        self.set("throughput_per_s", per_s / f);
        self.set("latency_ms_p50", percentile(lat_ms, 0.5) * f);
        self.set("latency_ms_p90", percentile(lat_ms, 0.9) * f);
        self.set("host.calibration_ms", clock.median_ms());
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds needs a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where traces and serve artifacts go: inside the benchmark's own
/// directory of the checkout.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Logical CPUs; every generator and program pool is capped at this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(m) => {
            eprintln!("error: {m}");
            eprintln!(
                "usage: perfbench --workload exec_large|tune_mix|serve_mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "exec_large" => exec_large::run(&args, &mut tracer),
        "tune_mix" => tune_mix::run(&args, &mut tracer),
        "serve_mixed" => serve_mixed::run(&args, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match result {
        Ok(r) => r,
        Err(m) => {
            eprintln!("error: {m}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|k| !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == k))
    {
        eprintln!("error: metric {extra} is in neither table");
        return ExitCode::from(2);
    }
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = match report.metrics.get(*name) {
            Some(v) if v.is_finite() => *v,
            None if args.trace => 0.0,
            _ => {
                eprintln!("error: metric {name} is missing or not finite");
                return ExitCode::from(2);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.mismatches == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.errors + report.mismatches,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
