//! Functional block-parallel execution of mapped kernels.
//!
//! [`execute_blocked`] runs a tiled program the way the paper's GPU
//! runs it: an outer sequence of *rounds* (values of the round dims,
//! with a device-wide barrier between consecutive rounds — the
//! inter-thread-block synchronisation of the Jacobi kernel), each
//! round launching a grid of *blocks* (values of the block dims) that
//! execute independently. Blocks may run on real parallel threads
//! (std scoped threads, one pool slot per simulated
//! multiprocessor); determinism is preserved by buffering each block's
//! global writes in an overlay that is merged in block order at the
//! end of its round — exactly the visibility rule of the hardware
//! (writes are not guaranteed visible to other blocks until the
//! barrier).
//!
//! With `use_scratchpad`, each block stages data through local buffers
//! using the full §3 pipeline — `analyze_program` on the block's
//! restricted view, generated move-in code, rewritten accesses,
//! generated move-out code — so the executor is an end-to-end test of
//! the compiler: the test-suite compares final array contents
//! bit-exactly against the reference interpreter.

use crate::compiled::{run_compiled, LaunchShared};
use crate::config::MachineConfig;
use crate::dma::{DmaEngine, DmaStats, DmaTag};
use crate::overlay::{flatten, Overlay};
use crate::trace::PassProfiler;
use crate::{MachineError, Result};
use polymem_core::smem::{
    analyze_program_timed, analyze_symbolic_hier, delta_transfer_list, flush_transfer_list,
    parametrize_dims, plan_key, transfer_list, AccessId, ArtifactKey, ArtifactStore, Direction,
    HierPlan, HierSpec, LocalBuffer, PlanArtifact, ResidencyPlan, RetainPlan, SmemConfig, SmemPlan,
    SymbolicPlan,
};
use polymem_core::tiling::transform::fix_dims;
use polymem_ir::{ArrayStore, Program};
use polymem_poly::bounds::{bound_cascade, DimBounds};
use polymem_poly::count::{enumerate_points, enumerate_with_cascade};
use polymem_poly::{Constraint, Polyhedron};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A tiled program mapped onto the two-level machine.
#[derive(Clone, Debug)]
pub struct BlockedKernel {
    /// The tiled program.
    pub program: Program,
    /// Sequential dims with a device-wide barrier between values
    /// (outermost first). Empty for sync-free kernels like ME.
    pub round_dims: Vec<String>,
    /// Dims enumerated across thread blocks.
    pub block_dims: Vec<String>,
    /// Sequential sub-tile dims *inside* a block (the paper's middle
    /// tiling level, executed one sub-tile at a time to respect the
    /// scratchpad limit). Scratchpad staging then happens per
    /// sub-tile, with §4.2 hoisting: buffers none of whose references
    /// depend on these dims are staged once per block and written back
    /// once at the end.
    pub seq_dims: Vec<String>,
    /// Dims distributed across the *inner* processes (threads) of one
    /// block. With [`MachineConfig::hierarchy`] on, the §3 pipeline
    /// runs a second time over the intra-thread subnest and promotes
    /// reused scratchpad data into per-thread register frames
    /// (smem → reg move-in, reg → smem move-out). Empty = no register
    /// level.
    pub thread_dims: Vec<String>,
    /// Stage per-block data through scratchpad buffers (§3 pipeline).
    pub use_scratchpad: bool,
}

/// Counters collected by the functional executor.
///
/// Equality compares every *deterministic* counter and ignores
/// [`compute_ns`](ExecStats::compute_ns), which is wall-clock time and
/// varies run to run (the parallel-determinism tests assert stats
/// equality).
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Thread blocks executed.
    pub blocks: u64,
    /// Statement instances executed.
    pub instances: u64,
    /// Global-memory element reads (incl. move-in traffic).
    pub global_reads: u64,
    /// Global-memory element writes (incl. move-out traffic).
    pub global_writes: u64,
    /// Scratchpad element reads.
    pub smem_reads: u64,
    /// Scratchpad element writes.
    pub smem_writes: u64,
    /// Elements moved global → scratchpad.
    pub moved_in: u64,
    /// Elements moved scratchpad → global.
    pub moved_out: u64,
    /// Rounds executed (device-wide barriers = rounds - 1).
    pub rounds: u64,
    /// Peak scratchpad words used by any single block.
    pub max_smem_words: u64,
    /// Sub-blocks whose scratchpad plan was instantiated from the
    /// shared symbolic plan (compile-once-per-shape reuse).
    pub plan_cache_hits: u64,
    /// Sub-blocks that required a fresh §3 analysis (the one symbolic
    /// warm-up analysis counts as a miss, as does any block whose
    /// fixed-dim shape differs from the representative).
    pub plan_cache_misses: u64,
    /// Modeled cycles one block spent (compute + exposed transfer
    /// time); summed over blocks by [`absorb`](ExecStats::absorb).
    pub block_cycles: u64,
    /// Modeled device cycles for the whole launch: per round, the
    /// slowest block's cycles times the number of occupancy waves,
    /// plus the device-wide barrier cost (top-level only).
    pub modeled_cycles: u64,
    /// Buffer stagings issued asynchronously ahead of compute
    /// (double-buffer prefetches).
    pub overlap_groups: u64,
    /// Buffer stagings forced synchronous by a seq-carried flow
    /// dependence while double buffering was on.
    pub sync_groups: u64,
    /// Scratchpad reads avoided because the access hit a register
    /// frame instead (level-2 hits; charged near-zero latency).
    pub smem_loads_saved: u64,
    /// Bytes moved between scratchpad and register frames (level-2
    /// move-in + move-out traffic).
    pub reg_bytes_moved: u64,
    /// Register frame sets staged (one per thread key per sub-block
    /// compute phase).
    pub hier_groups: u64,
    /// Elements kept resident in scratchpad across consecutive
    /// sub-tiles (re-based in place instead of re-transferred).
    pub retained_elems: u64,
    /// Elements transferred as residency deltas (the only move-in
    /// traffic of a residency-staged group).
    pub delta_elems: u64,
    /// Move-out elements flushed as residency flush deltas: when
    /// [`RetainPlan::flush_legal`] holds, elements the successor
    /// sub-tile overwrites anyway are skipped and only these cross the
    /// bus.
    pub flushed_delta_elems: u64,
    /// Buffer stagings served by the residency pass (retain + delta
    /// instead of a full move-in).
    pub residency_groups: u64,
    /// Sub-block compute phases executed by the compiled engine.
    /// Engine attribution (this field, `interpreted_blocks` and
    /// `fallback`) is excluded from stats equality: the whole point of
    /// comparing stats across engines is that everything *else*
    /// matches.
    pub compiled_blocks: u64,
    /// Sub-block compute phases that ran on the per-point interpreter.
    pub interpreted_blocks: u64,
    /// Why interpreted phases fell back (one count per phase).
    pub fallback: FallbackStats,
    /// DMA transfer-engine counters ([`crate::dma`]).
    pub dma: DmaStats,
    /// Wall-clock nanoseconds spent in block compute phases (compiled
    /// or interpreted), summed across blocks by
    /// [`absorb`](ExecStats::absorb). Excluded from equality.
    pub compute_ns: u64,
}

/// Reasons a sub-block compute phase used the interpreter instead of
/// the compiled engine. Before these counters existed, the default
/// CLI path (hierarchy on) silently interpreted every block while
/// reporting compute time as if the compiled engine were on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FallbackStats {
    /// Compiled execution was off for the launch: the config flag,
    /// naive mode, or a body that failed to compile to bytecode.
    pub engine_off: u64,
    /// The sub-block's scratchpad plan was analysed per-block (owned),
    /// so there is no shared shape to key compiled streams on.
    pub owned_plan: u64,
    /// The block shape failed to compile (unbounded cascade, or a
    /// plan/dim-layout mismatch); parked so same-shape blocks skip the
    /// retry.
    pub shape_uncompiled: u64,
    /// The compiled engine declined at run time, before any effect
    /// (parameter mismatch, foreign store, unbounded proof box).
    pub runtime_decline: u64,
}

impl FallbackStats {
    /// Total interpreted-phase fallbacks.
    pub fn total(&self) -> u64 {
        self.engine_off + self.owned_plan + self.shape_uncompiled + self.runtime_decline
    }

    fn absorb(&mut self, o: &FallbackStats) {
        self.engine_off += o.engine_off;
        self.owned_plan += o.owned_plan;
        self.shape_uncompiled += o.shape_uncompiled;
        self.runtime_decline += o.runtime_decline;
    }
}

impl PartialEq for ExecStats {
    fn eq(&self, o: &ExecStats) -> bool {
        self.blocks == o.blocks
            && self.instances == o.instances
            && self.global_reads == o.global_reads
            && self.global_writes == o.global_writes
            && self.smem_reads == o.smem_reads
            && self.smem_writes == o.smem_writes
            && self.moved_in == o.moved_in
            && self.moved_out == o.moved_out
            && self.rounds == o.rounds
            && self.max_smem_words == o.max_smem_words
            && self.plan_cache_hits == o.plan_cache_hits
            && self.plan_cache_misses == o.plan_cache_misses
            && self.block_cycles == o.block_cycles
            && self.modeled_cycles == o.modeled_cycles
            && self.overlap_groups == o.overlap_groups
            && self.sync_groups == o.sync_groups
            && self.smem_loads_saved == o.smem_loads_saved
            && self.reg_bytes_moved == o.reg_bytes_moved
            && self.hier_groups == o.hier_groups
            && self.retained_elems == o.retained_elems
            && self.delta_elems == o.delta_elems
            && self.flushed_delta_elems == o.flushed_delta_elems
            && self.residency_groups == o.residency_groups
            && self.dma == o.dma
    }
}

impl Eq for ExecStats {}

impl ExecStats {
    /// Merge another stats block into this one. Field-complete:
    /// every counter is summed (`max_smem_words` maxes; `dma`
    /// delegates to [`DmaStats::absorb`]). `rounds` and
    /// `modeled_cycles` are incremented at the top level of
    /// [`execute_blocked_profiled`] and are always zero in per-block
    /// stats, but they are summed here too so the merge stays correct
    /// if per-block stats ever carry them.
    pub fn absorb(&mut self, o: &ExecStats) {
        self.blocks += o.blocks;
        self.instances += o.instances;
        self.global_reads += o.global_reads;
        self.global_writes += o.global_writes;
        self.smem_reads += o.smem_reads;
        self.smem_writes += o.smem_writes;
        self.moved_in += o.moved_in;
        self.moved_out += o.moved_out;
        self.rounds += o.rounds;
        self.max_smem_words = self.max_smem_words.max(o.max_smem_words);
        self.plan_cache_hits += o.plan_cache_hits;
        self.plan_cache_misses += o.plan_cache_misses;
        self.block_cycles += o.block_cycles;
        self.modeled_cycles += o.modeled_cycles;
        self.overlap_groups += o.overlap_groups;
        self.sync_groups += o.sync_groups;
        self.smem_loads_saved += o.smem_loads_saved;
        self.reg_bytes_moved += o.reg_bytes_moved;
        self.hier_groups += o.hier_groups;
        self.retained_elems += o.retained_elems;
        self.delta_elems += o.delta_elems;
        self.flushed_delta_elems += o.flushed_delta_elems;
        self.residency_groups += o.residency_groups;
        self.compiled_blocks += o.compiled_blocks;
        self.interpreted_blocks += o.interpreted_blocks;
        self.fallback.absorb(&o.fallback);
        self.dma.absorb(&o.dma);
        self.compute_ns += o.compute_ns;
    }
}

/// The scratchpad plan a sub-block executes with: either freshly
/// analysed for this instance, or a shared symbolic plan evaluated at
/// the instance's fixed-dim values.
enum PlanRef {
    Owned(SmemPlan),
    Shared(Arc<SymbolicPlan>),
}

impl PlanRef {
    fn plan(&self) -> &SmemPlan {
        match self {
            PlanRef::Owned(p) => p,
            PlanRef::Shared(s) => &s.plan,
        }
    }

    /// Map a full-space instance point into the plan's iteration
    /// space (the symbolic plan drops the fixed dims).
    fn project<'a>(&self, si: usize, point: &'a [i64]) -> Cow<'a, [i64]> {
        match self {
            PlanRef::Owned(_) => Cow::Borrowed(point),
            PlanRef::Shared(s) => Cow::Owned(s.project_point(si, point)),
        }
    }
}

/// Shared memo of the one-per-shape symbolic scratchpad plan, keyed on
/// the (sorted) fixed-dim names of a sub-block's restricted view.
/// Warmed once before workers spawn; lookups from parallel block
/// workers are read-only, so hit/miss counts are deterministic and
/// identical between sequential and parallel execution.
struct PlanCache {
    plans: RwLock<HashMap<Vec<String>, Option<Arc<SymbolicPlan>>>>,
    /// Per-shape symbolic instance-enumeration plans (lazily built).
    enums: RwLock<HashMap<Vec<String>, Option<Arc<EnumPlan>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Compile-once-per-shape instance enumeration: the bound cascade of
/// every statement domain with the block's fixed dims turned into
/// parameters. Enumerating a concrete sub-block is then bound
/// *evaluation* at `params ++ fixed values` — no per-block
/// Fourier–Motzkin. Disabled in the polyhedral core's naive mode so
/// the pre-optimization baseline stays measurable.
struct EnumPlan {
    /// Fixed-dim names in the order their values extend the params.
    fixed: Vec<String>,
    stmts: Vec<StmtEnum>,
}

struct StmtEnum {
    /// The statement domain with the fixed dims as parameters.
    domain: Polyhedron,
    cascade: Vec<DimBounds>,
    /// Original dim index of each symbolic dim, in order.
    kept: Vec<usize>,
    /// `(original dim index, index into the fixed-name list)` for each
    /// fixed dim present in this statement.
    fixed_pos: Vec<(usize, usize)>,
    /// Dim count of the original (full-space) statement domain.
    n_full: usize,
}

impl EnumPlan {
    fn build(program: &Program, fixed_names: &[String]) -> Option<EnumPlan> {
        let sym = parametrize_dims(program, fixed_names).ok()?;
        let mut stmts = Vec::with_capacity(sym.stmts.len());
        for (si, s) in sym.stmts.iter().enumerate() {
            let cascade = bound_cascade(&s.domain).ok()?;
            let orig_dims = program.stmts[si].domain.space().dims();
            let kept: Vec<usize> = (0..orig_dims.len())
                .filter(|&i| !fixed_names.contains(&orig_dims[i]))
                .collect();
            let fixed_pos: Vec<(usize, usize)> = (0..orig_dims.len())
                .filter_map(|i| {
                    fixed_names
                        .iter()
                        .position(|n| *n == orig_dims[i])
                        .map(|fi| (i, fi))
                })
                .collect();
            stmts.push(StmtEnum {
                domain: s.domain.clone(),
                cascade,
                kept,
                fixed_pos,
                n_full: orig_dims.len(),
            });
        }
        Some(EnumPlan {
            fixed: fixed_names.to_vec(),
            stmts,
        })
    }

    /// `params ++ fixed values`, or `None` on a shape mismatch.
    fn ext_params(&self, params: &[i64], fixed: &HashMap<String, i64>) -> Option<Vec<i64>> {
        if fixed.len() != self.fixed.len() {
            return None;
        }
        let mut out = Vec::with_capacity(params.len() + self.fixed.len());
        out.extend_from_slice(params);
        for name in &self.fixed {
            out.push(*fixed.get(name)?);
        }
        Some(out)
    }

    /// Enumerate statement `si`'s instances for the block at `ext`,
    /// reconstructing full-space points. Errors (unbounded cascade,
    /// exceeded budget) surface so the caller can fall back to the
    /// per-block path.
    fn enumerate(
        &self,
        si: usize,
        ext: &[i64],
        budget: u64,
        out: &mut Vec<(usize, Vec<i64>)>,
    ) -> polymem_poly::Result<()> {
        let se = &self.stmts[si];
        let n_params = ext.len() - self.fixed.len();
        enumerate_with_cascade(&se.domain, &se.cascade, ext, budget, &mut |p| {
            let mut full = vec![0i64; se.n_full];
            for (k, &d) in se.kept.iter().enumerate() {
                full[d] = p[k];
            }
            for &(d, fi) in &se.fixed_pos {
                full[d] = ext[n_params + fi];
            }
            out.push((si, full));
        })
    }
}

/// Where the launch's shared symbolic plan came from (see
/// [`execute_blocked_seeded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// The caller-provided in-memory seed (a compile service's warm
    /// cache) matched this launch's shape and was reused as-is.
    Seeded,
    /// Loaded — and re-proved against the program — from the
    /// content-addressed artifact store.
    Artifact,
    /// Freshly analysed by the §3 pipeline this launch.
    Fresh,
}

/// A launch's shared symbolic plan together with where it came from —
/// what seeded entry points hand back for the caller's warm cache.
pub type WarmedPlan = (Arc<SymbolicPlan>, PlanSource);

/// Mapping-relevant machine-model fields folded into the plan
/// artifact key: everything that changes which symbolic plan a launch
/// computes or consumes. Performance-only knobs (latencies, clocks,
/// DMA shape) deliberately stay out, so retuning the cost model never
/// invalidates compiled plans.
pub(crate) fn machine_salt(config: &MachineConfig) -> [u64; 11] {
    [
        // Capability bits replace the old machine-kind discriminant:
        // each flag changes what the §3 pipeline decides, so each gets
        // its own bit. Mesh geometry stays out (routes change cycles,
        // never plans).
        config.caps.must_stage as u64
            | (config.caps.in_place_compute as u64) << 1
            | (config.caps.placement_cost as u64) << 2
            | (config.caps.hardware_cache as u64) << 3,
        config.smem_bytes,
        config.word_bytes,
        config.plan_cache as u64,
        config.double_buffer as u64,
        config.compiled_exec as u64,
        config.regs_per_inner,
        config.hierarchy as u64,
        config.vector_width,
        config.residency as u64,
        config.partition as u64,
    ]
}

/// Pin `kernel`'s block and seq dims (and, with hierarchy on, the
/// thread dims) at their first enumerated values, extending `rep`
/// (which already holds the representative round values). Returns the
/// register-level spec, if any.
fn complete_representative(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    lead: &polymem_ir::Statement,
    rep: &mut HashMap<String, i64>,
) -> Result<Option<HierSpec>> {
    let bvals = enumerate_named(lead, &kernel.block_dims, params, rep, config.enum_budget)?;
    if let Some(b0) = bvals.first() {
        for (n, v) in kernel.block_dims.iter().zip(b0) {
            rep.insert(n.clone(), *v);
        }
    }
    if !kernel.seq_dims.is_empty() {
        let svals = enumerate_named(lead, &kernel.seq_dims, params, rep, config.enum_budget)?;
        if let Some(s0) = svals.first() {
            for (n, v) in kernel.seq_dims.iter().zip(s0) {
                rep.insert(n.clone(), *v);
            }
        }
    }
    // Register-tile level: analyse the intra-thread subnest of the
    // representative block with the thread dims as extra fixed
    // dims. The representative thread values feed Algorithm 1's
    // volume test exactly like the representative block values do.
    if config.hierarchy && !kernel.thread_dims.is_empty() {
        let tvals = enumerate_named(lead, &kernel.thread_dims, params, rep, config.enum_budget)?;
        return Ok(tvals.first().map(|t0| HierSpec {
            thread_dims: kernel.thread_dims.clone(),
            thread_reps: kernel
                .thread_dims
                .iter()
                .cloned()
                .zip(t0.iter().copied())
                .collect(),
            regs_per_inner: config.regs_per_inner,
        }));
    }
    Ok(None)
}

/// The content address of the symbolic plan [`execute_blocked`] would
/// compile for this launch: the program IR, the mapping-relevant
/// machine fields and the representative block-shape parametrization,
/// hashed per `polymem_core::smem::artifact`. `None` when the mapping
/// stages nothing through the plan cache (no scratchpad, no
/// statements, or the cache disabled). Stable across processes — a
/// compile service keys its warm cache and the on-disk store with it.
pub fn plan_artifact_key(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
) -> Result<Option<ArtifactKey>> {
    if !kernel.use_scratchpad || !config.plan_cache {
        return Ok(None);
    }
    let Some(lead) = kernel.program.stmts.first() else {
        return Ok(None);
    };
    let round_vals = enumerate_named(
        lead,
        &kernel.round_dims,
        params,
        &HashMap::new(),
        config.enum_budget,
    )?;
    let mut rep: HashMap<String, i64> = HashMap::new();
    if let Some(r0) = round_vals.first() {
        for (n, v) in kernel.round_dims.iter().zip(r0) {
            rep.insert(n.clone(), *v);
        }
    }
    let hier_spec = complete_representative(kernel, params, config, lead, &mut rep)?;
    let mut pairs: Vec<(String, i64)> = rep.into_iter().collect();
    pairs.sort();
    Ok(Some(plan_key(
        &kernel.program,
        &smem_config(params, config, kernel),
        &pairs,
        hier_spec.as_ref(),
        &machine_salt(config),
    )))
}

/// Obtain the shared symbolic plan [`execute_blocked`] would launch
/// with, without executing anything: a compile service's `analyze`
/// entry point. Consults the caller's `seed` and the configured
/// artifact store exactly like execution does — and persists fresh
/// analyses the same way — so a later `run` of the same launch finds
/// the plan warm. `None` when nothing stages through the plan cache.
pub fn warm_plan(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<Option<WarmedPlan>> {
    kernel.program.validate()?;
    if !kernel.use_scratchpad || !config.plan_cache {
        return Ok(None);
    }
    let Some(lead) = kernel.program.stmts.first() else {
        return Ok(None);
    };
    let round_vals = enumerate_named(
        lead,
        &kernel.round_dims,
        params,
        &HashMap::new(),
        config.enum_budget,
    )?;
    let mut rep: HashMap<String, i64> = HashMap::new();
    if let Some(r0) = round_vals.first() {
        for (n, v) in kernel.round_dims.iter().zip(r0) {
            rep.insert(n.clone(), *v);
        }
    }
    let hier_spec = complete_representative(kernel, params, config, lead, &mut rep)?;
    let art_store = config
        .artifact_dir
        .as_ref()
        .and_then(|d| ArtifactStore::open(d).ok());
    let akey = if art_store.is_some() || seed.is_some() {
        let mut pairs: Vec<(String, i64)> = rep.iter().map(|(k, v)| (k.clone(), *v)).collect();
        pairs.sort();
        Some(plan_key(
            &kernel.program,
            &smem_config(params, config, kernel),
            &pairs,
            hier_spec.as_ref(),
            &machine_salt(config),
        ))
    } else {
        None
    };
    Ok(PlanCache::new().warm(
        &kernel.program,
        &rep,
        &smem_config(params, config, kernel),
        hier_spec.as_ref(),
        profiler,
        seed,
        art_store.as_ref(),
        akey,
    ))
}

impl PlanCache {
    fn new() -> PlanCache {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            enums: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The per-shape enumeration plan for this sub-block's fixed-dim
    /// set, built on first use. A shape whose construction fails parks
    /// `None` so every same-shape block uses the per-block path.
    fn enum_plan(&self, fixed: &HashMap<String, i64>, program: &Program) -> Option<Arc<EnumPlan>> {
        let key = Self::key(fixed);
        if let Some(entry) = self.enums.read().unwrap().get(&key) {
            return entry.clone();
        }
        let built = EnumPlan::build(program, &key).map(Arc::new);
        let mut map = self.enums.write().unwrap();
        map.entry(key).or_insert(built).clone()
    }

    fn key(fixed: &HashMap<String, i64>) -> Vec<String> {
        let mut k: Vec<String> = fixed.keys().cloned().collect();
        k.sort();
        k
    }

    /// Prime the cache with the representative instance's symbolic
    /// plan (counted as the one miss all same-shape blocks share),
    /// cheapest source first:
    ///
    /// 1. a caller-provided in-memory `seed` whose fixed names match
    ///    this shape (a compile service's warm cache);
    /// 2. the content-addressed artifact `store` under `akey` —
    ///    loads are fully re-proved against `program`, so a corrupt or
    ///    stale file silently degrades to the next source;
    /// 3. a fresh `analyze_symbolic_hier` run. Only this source
    ///    absorbs §3 pass times into the profiler (the others skipped
    ///    the passes) and, when a store is configured, persists the
    ///    result for future processes.
    ///
    /// A failed symbolic analysis parks `None`, making every block
    /// fall back to per-instance analysis. Returns the shared plan and
    /// where it came from.
    #[allow(clippy::too_many_arguments)]
    fn warm(
        &self,
        program: &Program,
        rep: &HashMap<String, i64>,
        cfg: &SmemConfig,
        hier: Option<&HierSpec>,
        profiler: Option<&PassProfiler>,
        seed: Option<&Arc<SymbolicPlan>>,
        store: Option<&ArtifactStore>,
        akey: Option<ArtifactKey>,
    ) -> Option<WarmedPlan> {
        let mut pairs: Vec<(String, i64)> = rep.iter().map(|(k, v)| (k.clone(), *v)).collect();
        pairs.sort();
        let key: Vec<String> = pairs.iter().map(|p| p.0.clone()).collect();
        let seeded = seed
            .filter(|sp| sp.fixed == key)
            .map(|sp| (sp.clone(), PlanSource::Seeded));
        let entry = seeded
            .or_else(|| {
                let art = store.and_then(|s| s.load(&akey?, program))?;
                (art.plan.fixed == key).then(|| (Arc::new(art.plan), PlanSource::Artifact))
            })
            .or_else(|| {
                let sp = analyze_symbolic_hier(program, &pairs, cfg, hier).ok()?;
                if let Some(pr) = profiler {
                    pr.absorb_pass_times(&sp.pass_times);
                }
                if let (Some(s), Some(k)) = (store, akey) {
                    let mut ext = cfg.sample_params.clone();
                    ext.extend(pairs.iter().map(|p| p.1));
                    if let Ok(art) = PlanArtifact::build(program, &sp, k, &ext) {
                        let _ = s.save(&art);
                    }
                }
                Some((Arc::new(sp), PlanSource::Fresh))
            });
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.plans
            .write()
            .unwrap()
            .insert(key, entry.as_ref().map(|(sp, _)| sp.clone()));
        entry
    }

    /// A shared plan for this sub-block's shape, counting the lookup.
    fn get(&self, fixed: &HashMap<String, i64>) -> Option<Arc<SymbolicPlan>> {
        let key = Self::key(fixed);
        let entry = self.plans.read().unwrap().get(&key).cloned();
        match entry {
            Some(Some(sp)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(sp)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

/// Execute a mapped kernel functionally.
///
/// `parallel` runs each round's blocks on up to `config.n_outer`
/// worker threads; results are bit-identical to sequential execution.
pub fn execute_blocked(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
) -> Result<ExecStats> {
    execute_blocked_profiled(kernel, params, store, config, parallel, None)
}

/// [`execute_blocked`] with an optional pass-level profiler: compiler
/// passes (§3 pipeline) and executor phases (move-in, compute,
/// move-out, barrier) accumulate real wall-clock time into it.
pub fn execute_blocked_profiled(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
    profiler: Option<&PassProfiler>,
) -> Result<ExecStats> {
    execute_blocked_seeded(kernel, params, store, config, parallel, profiler, None)
        .map(|(stats, _)| stats)
}

/// [`execute_blocked_profiled`] with plan seeding: a caller holding a
/// still-valid symbolic plan (a compile service's warm cache) passes
/// it as `seed` and the launch skips the §3 pipeline entirely when the
/// shapes match. Independently, when `config.artifact_dir` is set, the
/// launch consults the content-addressed on-disk store before
/// analysing and persists freshly computed plans into it. Returns the
/// shared plan alongside where it came from, so services can keep it
/// warm for the next request.
pub fn execute_blocked_seeded(
    kernel: &BlockedKernel,
    params: &[i64],
    store: &mut ArrayStore,
    config: &MachineConfig,
    parallel: bool,
    profiler: Option<&PassProfiler>,
    seed: Option<&Arc<SymbolicPlan>>,
) -> Result<(ExecStats, Option<WarmedPlan>)> {
    kernel.program.validate()?;
    let program = &kernel.program;

    // Enumerate round values from the first statement that has all
    // round dims (programs with no statements do nothing).
    let mut stats = ExecStats::default();
    let Some(lead) = program.stmts.first() else {
        return Ok((stats, None));
    };
    // Per-launch shared state: hoisted common-depth matrix, global
    // extents/weights, compiled bodies and the compiled-shape cache.
    let launch = LaunchShared::new(program, params, config)?;
    let launch = &launch;
    // Test hook: `POLYMEM_FAULT_PANIC_BLOCK=<idx>` makes the parallel
    // worker for that block index panic (exercises WorkerPanicked).
    let fault_block: Option<usize> = std::env::var("POLYMEM_FAULT_PANIC_BLOCK")
        .ok()
        .and_then(|s| s.parse().ok());
    let round_vals = enumerate_named(
        lead,
        &kernel.round_dims,
        params,
        &HashMap::new(),
        config.enum_budget,
    )?;
    let rounds = if round_vals.is_empty() {
        vec![Vec::new()]
    } else {
        round_vals
    };

    // Compile-once-per-shape: analyse one representative sub-block
    // symbolically (fixed dims as parameters) before any worker runs,
    // so every same-shape block instantiates the shared plan instead
    // of re-running the §3 pipeline. Warming up-front (rather than
    // filling on first use) keeps hit/miss counts deterministic under
    // parallel execution.
    let cache = if kernel.use_scratchpad && config.plan_cache {
        Some(PlanCache::new())
    } else {
        None
    };
    let mut warmed: Option<WarmedPlan> = None;
    if let Some(c) = &cache {
        let mut rep: HashMap<String, i64> = HashMap::new();
        for (n, v) in kernel.round_dims.iter().zip(rounds[0].iter()) {
            rep.insert(n.clone(), *v);
        }
        let hier_spec = complete_representative(kernel, params, config, lead, &mut rep)?;
        // The on-disk store and the content-address are only computed
        // when someone can use them: a configured artifact dir, or a
        // caller-provided seed (whose provider keys by the same hash).
        let art_store = config
            .artifact_dir
            .as_ref()
            .and_then(|d| ArtifactStore::open(d).ok());
        let akey = if art_store.is_some() || seed.is_some() {
            let mut pairs: Vec<(String, i64)> = rep.iter().map(|(k, v)| (k.clone(), *v)).collect();
            pairs.sort();
            Some(plan_key(
                program,
                &smem_config(params, config, kernel),
                &pairs,
                hier_spec.as_ref(),
                &machine_salt(config),
            ))
        } else {
            None
        };
        warmed = c.warm(
            program,
            &rep,
            &smem_config(params, config, kernel),
            hier_spec.as_ref(),
            profiler,
            seed,
            art_store.as_ref(),
            akey,
        );
    }
    let cache = cache.as_ref();

    // Double-buffer legality (§3.1.4 dependence information, reused):
    // read accesses reached by a seq-carried flow dependence within a
    // block may not be prefetched ahead of the writing sub-tile.
    // Computed once per launch, shared read-only by all workers.
    let poisoned: Option<HashSet<AccessId>> =
        if kernel.use_scratchpad && config.double_buffer && !kernel.seq_dims.is_empty() {
            Some(overlap_poisoned_reads(kernel)?)
        } else {
            None
        };
    let poisoned = poisoned.as_ref();

    for round in &rounds {
        let mut fixed_round: HashMap<String, i64> = HashMap::new();
        for (n, v) in kernel.round_dims.iter().zip(round) {
            fixed_round.insert(n.clone(), *v);
        }
        let block_vals = enumerate_named(
            lead,
            &kernel.block_dims,
            params,
            &fixed_round,
            config.enum_budget,
        )?;
        let blocks = if block_vals.is_empty() {
            vec![Vec::new()]
        } else {
            block_vals
        };

        // Execute every block of this round against the same store
        // snapshot, buffering writes.
        let run_block = |bv: &Vec<i64>, bidx: u64| -> Result<(Overlay, ExecStats)> {
            let mut fixed = fixed_round.clone();
            for (n, v) in kernel.block_dims.iter().zip(bv) {
                fixed.insert(n.clone(), *v);
            }
            execute_one_block(
                kernel, &fixed, params, store, config, cache, profiler, poisoned, launch, bidx,
            )
        };

        let results: Vec<(Overlay, ExecStats)> = if parallel && blocks.len() > 1 {
            let workers = config.n_outer.max(1) as usize;
            let mut out: Vec<Option<(Overlay, ExecStats)>> = vec![None; blocks.len()];
            let err = std::sync::Mutex::new(None::<MachineError>);
            std::thread::scope(|scope| {
                let chunk = blocks.len().div_ceil(workers);
                for (ci, (bchunk, ochunk)) in
                    blocks.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
                {
                    let err = &err;
                    let run_block = &run_block;
                    scope.spawn(move || {
                        for (k, (b, o)) in bchunk.iter().zip(ochunk.iter_mut()).enumerate() {
                            let block = ci * chunk + k;
                            // A panicking worker (a compiler/executor bug,
                            // or an injected fault) must surface as a typed
                            // error, not abort the whole process.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    if fault_block == Some(block) {
                                        panic!("injected fault in block worker {block}");
                                    }
                                    run_block(b, block as u64)
                                }));
                            match outcome {
                                Ok(Ok(r)) => *o = Some(r),
                                Ok(Err(e)) => {
                                    err.lock().unwrap().get_or_insert(e);
                                    return;
                                }
                                Err(_) => {
                                    err.lock()
                                        .unwrap()
                                        .get_or_insert(MachineError::WorkerPanicked { block });
                                    return;
                                }
                            }
                        }
                    });
                }
            });
            if let Some(e) = err.into_inner().unwrap() {
                return Err(e);
            }
            out.into_iter()
                .map(|o| o.expect("block completed"))
                .collect()
        } else {
            let mut v = Vec::with_capacity(blocks.len());
            for (bidx, b) in blocks.iter().enumerate() {
                v.push(run_block(b, bidx as u64)?);
            }
            v
        };

        // Merge overlays deterministically, in block order (the
        // device-wide barrier: writes become visible between rounds).
        let t0 = Instant::now();
        let mut round_max_cycles = 0u64;
        let mut round_max_words = 0u64;
        for (overlay, bstats) in &results {
            overlay.merge_into(program, store)?;
            round_max_cycles = round_max_cycles.max(bstats.block_cycles);
            round_max_words = round_max_words.max(bstats.max_smem_words);
            stats.absorb(bstats);
        }
        if let Some(pr) = profiler {
            pr.record(crate::trace::PassKind::Barrier, t0.elapsed());
        }
        // Device time for this round: the slowest block, times the
        // number of occupancy waves (§5), plus the barrier cost.
        let nblocks = results.len() as u64;
        let conc = config
            .concurrent_blocks(round_max_words * config.word_bytes)
            .max(1);
        let sync = (config.device_sync_base + config.device_sync_per_block * nblocks as f64).round()
            as u64;
        stats.modeled_cycles += round_max_cycles * nblocks.div_ceil(conc) + sync;
        stats.rounds += 1;
    }
    if let Some(c) = cache {
        stats.plan_cache_hits = c.hits.load(Ordering::Relaxed);
        stats.plan_cache_misses = c.misses.load(Ordering::Relaxed);
    }
    Ok((stats, warmed))
}

/// The §3 configuration the executor analyses (and warms) with. The
/// residency dim (innermost `seq_dims` entry) only affects the shared
/// symbolic analysis; per-instance (owned) analysis ignores it.
pub(crate) fn smem_config(
    params: &[i64],
    config: &MachineConfig,
    kernel: &BlockedKernel,
) -> SmemConfig {
    SmemConfig {
        sample_params: params.to_vec(),
        must_copy_all: config.caps.must_stage,
        staging_pays: config.staging_pays(),
        partition: config.partition,
        residency_dim: if config.residency {
            kernel.seq_dims.last().cloned()
        } else {
            None
        },
        ..SmemConfig::default()
    }
}

/// Enumerate the values of the named dims of a statement's domain
/// (projected), with some dims already fixed.
pub(crate) fn enumerate_named(
    stmt: &polymem_ir::Statement,
    names: &[String],
    params: &[i64],
    fixed: &HashMap<String, i64>,
    budget: u64,
) -> Result<Vec<Vec<i64>>> {
    if names.is_empty() {
        return Ok(Vec::new());
    }
    let dom = fix_dims(&stmt.domain, fixed);
    let keep: Vec<usize> = names
        .iter()
        .filter_map(|n| dom.space().find_dim(n))
        .collect();
    if keep.len() != names.len() {
        return Ok(Vec::new());
    }
    let proj = dom.project_onto(&keep)?;
    let concrete = proj.substitute_params(params)?;
    let mut out = Vec::new();
    enumerate_points(&concrete, budget, &mut |p| out.push(p.to_vec())).map_err(budget_error)?;
    Ok(out)
}

/// Map point-budget exhaustion to its typed machine error; everything
/// else stays a polyhedral error.
pub(crate) fn budget_error(e: polymem_poly::PolyError) -> MachineError {
    match e {
        polymem_poly::PolyError::TooManyPoints { budget } => {
            MachineError::EnumerationBudget { budget }
        }
        other => MachineError::Poly(other),
    }
}

/// Local scratchpad storage for one block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LocalStore {
    /// Per buffer id: (flat data, extents, offsets).
    pub(crate) bufs: Vec<(Vec<i64>, Vec<i64>, Vec<i64>)>,
}

impl LocalStore {
    fn flat(&self, buf: usize, idx: &[i64]) -> Option<usize> {
        let (_, extents, _) = &self.bufs[buf];
        let mut off: i64 = 0;
        for (&i, &e) in idx.iter().zip(extents) {
            if i < 0 || i >= e {
                return None;
            }
            off = off * e + i;
        }
        Some(off as usize)
    }

    pub(crate) fn get(&self, buf: usize, idx: &[i64]) -> Result<i64> {
        let f = self.flat(buf, idx).ok_or_else(|| {
            MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                array: format!("local buffer {buf}"),
                index: idx.to_vec(),
            })
        })?;
        Ok(self.bufs[buf].0[f])
    }

    pub(crate) fn set(&mut self, buf: usize, idx: &[i64], v: i64) -> Result<()> {
        let f = self.flat(buf, idx).ok_or_else(|| {
            MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                array: format!("local buffer {buf}"),
                index: idx.to_vec(),
            })
        })?;
        self.bufs[buf].0[f] = v;
        Ok(())
    }
}

/// A buffer kept alive across a block's sequential sub-tiles because
/// none of its references depend on the sub-tile dims (§4.2 hoisting).
struct Persistent {
    buffer: polymem_core::smem::LocalBuffer,
    mc: polymem_core::smem::MovementCode,
    /// Parameter vector `buffer`/`mc` are affine in: the program
    /// params for an owned plan, `params ++ fixed` for a shared
    /// symbolic plan (hoisted buffers do not depend on the seq dims,
    /// so any captured seq value yields the same element set).
    pparams: Vec<i64>,
    data: Vec<i64>,
    extents: Vec<i64>,
    offsets: Vec<i64>,
    dirty: bool,
}

/// Arrays none of whose accesses depend on the kernel's seq dims:
/// their staged buffers are identical across sub-tiles and hoist.
///
/// Dependence can enter two ways: directly, through a nonzero seq-dim
/// coefficient in the subscript map, or indirectly, through a domain
/// constraint coupling a seq dim to a dim the subscripts read (e.g.
/// `j = jT` when the seq tile width is 1 — the `j` footprint slides
/// with `jT` even though no subscript mentions `jT`). The indirect
/// case matters because the buffer planner may drop such a dim as an
/// H-matrix row, leaving the kept-dim shape identical across
/// sub-tiles — hoisting would then alias distinct footprints.
pub(crate) fn seq_redundant_arrays(kernel: &BlockedKernel) -> std::collections::HashSet<usize> {
    let program = &kernel.program;
    (0..program.arrays.len())
        .filter(|&a| {
            program.stmts.iter().all(|s| {
                let dims = s.domain.space().dims();
                let seq_idx: Vec<usize> = kernel
                    .seq_dims
                    .iter()
                    .filter_map(|n| dims.iter().position(|d| d == n))
                    .collect();
                let clean = |acc: &polymem_ir::Access| {
                    if acc.array != a {
                        return true;
                    }
                    let m = acc.map.matrix();
                    let used: Vec<usize> = (0..dims.len())
                        .filter(|&d| (0..m.rows()).any(|r| m[(r, d)] != 0))
                        .collect();
                    seq_idx.iter().all(|&j| {
                        (0..m.rows()).all(|r| m[(r, j)] == 0)
                            && s.domain
                                .constraints()
                                .iter()
                                .all(|c| c.coeff(j) == 0 || used.iter().all(|&d| c.coeff(d) == 0))
                    })
                };
                clean(&s.write) && s.reads.iter().all(clean)
            })
        })
        .collect()
}

/// Per-block simulated clock plus its DMA engine: `now` advances with
/// modeled compute cycles, the engine tracks in-flight transfers.
/// Everything is deterministic integer arithmetic, so block stats are
/// identical between sequential and parallel execution.
struct BlockClock {
    now: u64,
    dma: DmaEngine,
    /// DMA modeling enabled (`dma_channels > 0`). When off, movement
    /// costs nothing in modeled time (the pre-DMA behaviour) and no
    /// descriptors are built.
    dma_on: bool,
    /// Concrete extents of every global array, for flattening
    /// descriptor addresses and overlay offsets (shared per launch).
    ext: Vec<Vec<i64>>,
}

impl BlockClock {
    fn new(ext: Vec<Vec<i64>>, config: &MachineConfig, block_idx: u64) -> BlockClock {
        BlockClock {
            now: 0,
            dma: DmaEngine::with_route(config, config.route_cycles(block_idx)),
            dma_on: config.dma_channels > 0,
            ext,
        }
    }

    /// Build the DMA list for one movement entry and queue it. The
    /// transfer starts no earlier than `earliest` (buffer-reuse
    /// dependence on the previous sub-tile's move-out).
    fn issue_movement(
        &mut self,
        plan: &SmemPlan,
        mi: usize,
        pparams: &[i64],
        dir: Direction,
        config: &MachineConfig,
        earliest: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let mc = &plan.movement[mi];
        let buf = &plan.buffers[mc.buffer];
        let list = transfer_list(mc, buf, dir, &self.ext[buf.array], pparams)?;
        Ok(self
            .dma
            .issue_list(&list, config.word_bytes, self.now, earliest))
    }

    /// Queue the DMA list for a residency delta — the only elements
    /// that cross the bus. The local re-base rides the same channel
    /// first: retained atoms move scratchpad-to-scratchpad at 4× the
    /// global DMA rate, delaying the delta's start. The tag therefore
    /// always completes no later than the full transfer it replaces
    /// (the retained bytes leave the 1×-rate payload and come back as
    /// a 4×-rate local copy), at either scheduler depth.
    fn issue_delta(
        &mut self,
        rp: &RetainPlan,
        buf: &LocalBuffer,
        pparams: &[i64],
        config: &MachineConfig,
        earliest: u64,
        retained: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let start = earliest.max(self.now);
        // Re-basing the retained atoms is a scratchpad-local copy at 4x
        // the global DMA rate; it proceeds concurrently with the
        // incoming delta (the two touch disjoint buffer regions), so
        // the group is ready at the max of the two, never the sum.
        let mut rebase_done = start;
        if retained > 0 {
            let bytes = (retained * config.word_bytes) as f64;
            rebase_done += (bytes / (config.dma_bytes_per_cycle * 4.0)).ceil() as u64;
        }
        let list = delta_transfer_list(rp, buf, &self.ext[buf.array], pparams)?;
        if list.is_empty() {
            return Ok(DmaTag::immediate(rebase_done));
        }
        let mut tag = self
            .dma
            .issue_list(&list, config.word_bytes, self.now, start);
        tag.done = tag.done.max(rebase_done);
        Ok(tag)
    }

    /// Queue the DMA list for a residency flush delta — the move-out
    /// elements the successor does not overwrite. Issued in place of
    /// the full move-out list when [`RetainPlan::flush_legal`] holds;
    /// the list is a subset of the full one, so the tag never
    /// completes later than the flush it replaces.
    fn issue_flush(
        &mut self,
        rp: &RetainPlan,
        buf: &LocalBuffer,
        pparams: &[i64],
        config: &MachineConfig,
        earliest: u64,
    ) -> Result<DmaTag> {
        if !self.dma_on {
            return Ok(DmaTag::immediate(self.now));
        }
        let start = earliest.max(self.now);
        let list = flush_transfer_list(rp, buf, &self.ext[buf.array], pparams)?;
        if list.is_empty() {
            return Ok(DmaTag::immediate(start));
        }
        Ok(self
            .dma
            .issue_list(&list, config.word_bytes, self.now, start))
    }

    /// Advance the clock to the tag's completion, recording stalls.
    fn wait(&mut self, tag: &DmaTag) {
        self.now = self.dma.wait(tag, self.now);
    }
}

/// Read accesses reached by a flow dependence carried by a seq dim
/// within one block (§3.1.4 dependence information, reused): for each
/// flow dependence, restrict its polyhedron to pairs with equal
/// round/block dims (same block, same round) and a strictly positive
/// seq-dim distance (earlier seq dims equal). Non-empty means
/// prefetching the target's buffer ahead of the writing sub-tile would
/// read stale data, so its group must stage synchronously.
fn overlap_poisoned_reads(kernel: &BlockedKernel) -> Result<HashSet<AccessId>> {
    use polymem_poly::dep::DepKind;
    let program = &kernel.program;
    let deps = polymem_core::deps::compute_deps(program, &[DepKind::Flow])?;
    let mut out = HashSet::new();
    let pos = |dims: &[String], n: &str| dims.iter().position(|x| x == n);
    'deps: for d in deps {
        let src_dims = program.stmts[d.dep.src_stmt].domain.space().dims().to_vec();
        let dst_dims = program.stmts[d.dep.dst_stmt].domain.space().dims().to_vec();
        let n_src = d.dep.n_src;
        let n_cols = d.dep.poly.space().n_cols();
        let mut base = d.dep.poly.clone();
        for name in kernel.round_dims.iter().chain(&kernel.block_dims) {
            if let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) {
                let mut row = vec![0i64; n_cols];
                row[s] = 1;
                row[n_src + t] = -1;
                base.add_constraint(Constraint::eq(row));
            }
        }
        for (li, name) in kernel.seq_dims.iter().enumerate() {
            let (Some(s), Some(t)) = (pos(&src_dims, name), pos(&dst_dims, name)) else {
                continue;
            };
            let mut p = base.clone();
            for prev in &kernel.seq_dims[..li] {
                if let (Some(ps), Some(pt)) = (pos(&src_dims, prev), pos(&dst_dims, prev)) {
                    let mut row = vec![0i64; n_cols];
                    row[ps] = 1;
                    row[n_src + pt] = -1;
                    p.add_constraint(Constraint::eq(row));
                }
            }
            // dst[seq] >= src[seq] + 1: carried strictly forward.
            let mut row = vec![0i64; n_cols];
            row[s] = -1;
            row[n_src + t] = 1;
            row[n_cols - 1] = -1;
            p.add_constraint(Constraint::ineq(row));
            if !p.is_empty()? {
                out.insert(d.dst_access);
                continue 'deps;
            }
        }
    }
    Ok(out)
}

/// §4.2 hoisting applies only when the array materialises as exactly
/// one buffer in the plan: with separate read and write buffers,
/// parking by array key would keep only the last-parked buffer and
/// lose the other's writes (the stale-flush rule already treats the
/// multi-buffer case as unhoistable).
fn plan_hoists(plan: &SmemPlan, array: usize, hoistable: &HashSet<usize>) -> bool {
    hoistable.contains(&array) && plan.buffers.iter().filter(|b| b.array == array).count() == 1
}

/// Whether any poisoned read access is rewritten into the buffer
/// served by movement entry `mi`.
fn buffer_poisoned(plan: &SmemPlan, mi: usize, poisoned: &HashSet<AccessId>) -> bool {
    let b = plan.movement[mi].buffer;
    plan.rewrites
        .iter()
        .any(|(id, la)| la.buffer == b && poisoned.contains(id))
}

/// Whether staging `next` after `cur` parks its buffers would serve
/// this (read-only) buffer from the §4.2 persistent copy for free: the
/// array is hoist-eligible and its buffer shape (extents and offsets)
/// does not shift between the two sub-tiles. Prefetching such a buffer
/// would only add global traffic.
fn hoist_shortcut_hits(
    cur: &SubBlock,
    next: &Staging,
    bi: usize,
    array: usize,
    hoistable: &HashSet<usize>,
) -> bool {
    if !plan_hoists(next.source.plan(), array, hoistable) {
        return false;
    }
    match cur.staging.as_ref() {
        Some(cs) => {
            let cplan = cs.source.plan();
            // Plans of consecutive sub-tiles share buffer layout
            // (same shape class); anything else is unexpected, so be
            // conservative and stage it after `cur` instead.
            bi >= cplan.buffers.len()
                || cplan.buffers[bi].array != array
                || (cs.local.bufs[bi].1 == next.local.bufs[bi].1
                    && cs.local.bufs[bi].2 == next.local.bufs[bi].2)
        }
        None => true,
    }
}

/// One sub-tile's scratchpad state: plan, parameter vector and
/// allocated local buffers, plus per-movement-entry staging progress
/// (a prefetched entry is staged before its sub-tile's turn).
struct Staging {
    source: PlanRef,
    pparams: Vec<i64>,
    local: LocalStore,
    words: u64,
    /// Per movement entry: functional move-in already performed.
    staged: Vec<bool>,
    /// In-flight prefetch DMA tags, waited on before compute.
    tags: Vec<DmaTag>,
}

/// A sub-block prepared for execution: the restricted program view
/// and (with `use_scratchpad`) its staging state.
struct SubBlock {
    fixed: HashMap<String, i64>,
    view: Program,
    staging: Option<Staging>,
}

impl SubBlock {
    /// Scratchpad words this sub-tile's buffers occupy.
    fn words(&self) -> u64 {
        self.staging.as_ref().map_or(0, |st| st.words)
    }
}

/// Restrict the program to one (sub-)block and build its scratchpad
/// plan and local buffers. Footprint checks are the caller's job (a
/// sub-tile computed alone needs one footprint resident, one whose
/// successor is prefetched two).
fn prepare_sub_block(
    kernel: &BlockedKernel,
    fixed: &HashMap<String, i64>,
    params: &[i64],
    config: &MachineConfig,
    cache: Option<&PlanCache>,
    profiler: Option<&PassProfiler>,
    stats: &mut ExecStats,
) -> Result<SubBlock> {
    let program = &kernel.program;
    let mut view = program.clone();
    for s in &mut view.stmts {
        s.domain = fix_dims(&s.domain, fixed);
    }
    let staging = if kernel.use_scratchpad {
        let (source, pparams) = match cache.and_then(|c| c.get(fixed)) {
            Some(sp) => {
                let ext = sp
                    .ext_params(params, fixed)
                    .expect("cache key matched fixed-dim names");
                (PlanRef::Shared(sp), ext)
            }
            None => {
                let (plan, times) =
                    analyze_program_timed(&view, &smem_config(params, config, kernel))?;
                if let Some(pr) = profiler {
                    pr.absorb_pass_times(&times);
                }
                (PlanRef::Owned(plan), params.to_vec())
            }
        };
        let (bufs, words, n_move) = {
            let plan = source.plan();
            let mut bufs = Vec::with_capacity(plan.buffers.len());
            let mut words = 0u64;
            for b in &plan.buffers {
                let extents = b.extents(&pparams)?;
                let offsets = b.offsets(&pparams)?;
                let size: i64 = extents.iter().product::<i64>().max(0);
                words += size as u64;
                bufs.push((vec![0i64; size as usize], extents, offsets));
            }
            (bufs, words, plan.movement.len())
        };
        stats.max_smem_words = stats.max_smem_words.max(words);
        Some(Staging {
            source,
            pparams,
            local: LocalStore { bufs },
            words,
            staged: vec![false; n_move],
            tags: Vec::new(),
        })
    } else {
        None
    };
    Ok(SubBlock {
        fixed: fixed.clone(),
        view,
        staging,
    })
}

/// The shared plan's residency decomposition, when it applies between
/// `prev_fixed` and `fixed`: same shared symbolic plan, and the two
/// sub-tiles are lexicographically consecutive along the residency seq
/// dim (every other fixed dim equal).
fn shared_residency<'a>(
    source: &'a PlanRef,
    fixed: &HashMap<String, i64>,
    prev_fixed: &HashMap<String, i64>,
) -> Option<&'a ResidencyPlan> {
    let PlanRef::Shared(sp) = source else {
        return None;
    };
    let res = sp.residency.as_ref()?;
    if res.plans.is_empty() || prev_fixed.len() != fixed.len() {
        return None;
    }
    let consecutive = fixed.iter().all(|(k, v)| match prev_fixed.get(k) {
        Some(pv) if *k == res.seq_param => *v == pv + 1,
        Some(pv) => v == pv,
        None => false,
    });
    consecutive.then_some(res)
}

/// The flush-delta plan for one movement entry, present iff the delta
/// flush is legal *and* the successor sub-tile will provably stage
/// this buffer by residency — decided with the exact predicate and
/// argument pair its move-in uses ([`shared_residency`] on
/// `(next_fixed, fixed)`), so the two sides can never disagree.
/// `None` means the full move-out must run.
fn flush_delta_plan<'a>(
    staging: &'a Staging,
    mi: usize,
    fixed: &HashMap<String, i64>,
    next_fixed: Option<&HashMap<String, i64>>,
) -> Option<&'a RetainPlan> {
    let res = shared_residency(&staging.source, next_fixed?, fixed)?;
    let rp = res.plans.get(&staging.source.plan().movement[mi].buffer)?;
    rp.flush_legal.then_some(rp)
}

/// One block's execution state: the launch inputs its sub-tiles read,
/// its buffered global writes, counters and modeled clock, and the
/// §4.2 hoisting state shared by its sub-tiles.
struct BlockState<'a> {
    program: &'a Program,
    store: &'a ArrayStore,
    config: &'a MachineConfig,
    profiler: Option<&'a PassProfiler>,
    overlay: Overlay,
    stats: ExecStats,
    clock: BlockClock,
    /// Arrays whose staged buffers are identical across the block's
    /// sub-tiles (empty without a staged seq loop).
    hoistable: HashSet<usize>,
    /// Parked copies of hoisted buffers, keyed by array.
    persistent: HashMap<usize, Persistent>,
}

impl BlockState<'_> {
    /// Drop the parked copy of `array`, writing it back to the overlay
    /// first if a sub-tile wrote it. The writeback is modeled as a
    /// synchronous DMA list.
    fn flush_parked(&mut self, array: usize) -> Result<()> {
        let Some(p) = self.persistent.remove(&array) else {
            return Ok(());
        };
        if !p.dirty {
            return Ok(());
        }
        let flat = |idx: &[i64]| -> Option<usize> {
            let mut off: i64 = 0;
            for (&i, &e) in idx.iter().zip(&p.extents) {
                if i < 0 || i >= e {
                    return None;
                }
                off = off * e + i;
            }
            Some(off as usize)
        };
        let mut err = None;
        let ext = &self.clock.ext[p.buffer.array];
        let (overlay, stats) = (&mut self.overlay, &mut self.stats);
        polymem_core::smem::movement::for_each_move_out(
            &p.mc,
            &p.buffer,
            &p.pparams,
            &mut |g, l| {
                if err.is_some() {
                    return;
                }
                match flat(l) {
                    Some(off) => {
                        if let Err(e) = overlay.set_idx(
                            p.buffer.array,
                            &p.buffer.array_name,
                            g,
                            ext,
                            p.data[off],
                        ) {
                            err = Some(MachineError::Ir(e));
                        }
                    }
                    None => {
                        err = Some(MachineError::Ir(polymem_ir::IrError::OutOfBounds {
                            array: format!("persistent L{}", p.buffer.array_name),
                            index: l.to_vec(),
                        }))
                    }
                }
                stats.global_writes += 1;
                stats.moved_out += 1;
            },
        )?;
        if let Some(e) = err {
            return Err(e);
        }
        if self.clock.dma_on {
            let list = transfer_list(&p.mc, &p.buffer, Direction::Out, ext, &p.pparams)?;
            let now = self.clock.now;
            let tag = self
                .clock
                .dma
                .issue_list(&list, self.config.word_bytes, now, now);
            self.clock.wait(&tag);
        }
        Ok(())
    }

    /// Stage movement entry `mi` of `cur` (global → local) and queue
    /// its DMA list, returning the tag to wait on — `None` when the
    /// §4.2 shortcut served it. In order: a shape-stable parked copy
    /// serves it for free; otherwise a stale parked copy of the array
    /// reaches global memory first; then residency re-bases the atoms
    /// the predecessor `pred` still holds and fetches only the delta;
    /// else the full move-in runs. Transfers start no earlier than
    /// `earliest`.
    fn move_in(
        &mut self,
        cur: &mut SubBlock,
        mi: usize,
        pred: Option<&SubBlock>,
        earliest: u64,
    ) -> Result<Option<DmaTag>> {
        let (program, store, config) = (self.program, self.store, self.config);
        let Staging {
            source,
            pparams,
            local,
            staged,
            ..
        } = cur.staging.as_mut().expect("staged");
        let plan = source.plan();
        let mc = &plan.movement[mi];
        let bi = mc.buffer;
        let buf = &plan.buffers[bi];
        staged[mi] = true;
        if plan_hoists(plan, buf.array, &self.hoistable) {
            if let Some(p) = self.persistent.get(&buf.array) {
                if p.extents == local.bufs[bi].1 && p.offsets == local.bufs[bi].2 {
                    local.bufs[bi].0.copy_from_slice(&p.data);
                    return Ok(None);
                }
            }
            self.flush_parked(buf.array)?;
        }
        // Residency: the predecessor's window contains the retained
        // atoms by construction (retained ⊆ W(s−1) ⊆ its bounding box),
        // so the indexed reads below are always in bounds, boundary
        // tiles included.
        let retain = pred.and_then(|p| {
            let prev_local = &p.staging.as_ref()?.local;
            let rp = shared_residency(source, &cur.fixed, &p.fixed)?
                .plans
                .get(&bi)?;
            (bi < prev_local.bufs.len()).then_some((rp, prev_local))
        });
        let mut err: Option<MachineError> = None;
        let mut retained = 0u64;
        if let Some((rp, prev_local)) = retain {
            let prev_offsets = &prev_local.bufs[bi].2;
            polymem_core::smem::residency::for_each_retained(rp, buf, pparams, &mut |g, l| {
                if err.is_some() {
                    return;
                }
                let prev_l = level1_index(buf, prev_offsets, g);
                if let Err(e) = prev_local
                    .get(bi, &prev_l)
                    .and_then(|v| local.set(bi, l, v))
                {
                    err = Some(e);
                }
                retained += 1;
            })?;
            if let Some(e) = err.take() {
                return Err(e);
            }
        }
        // Fetch from global memory: the delta atoms under residency
        // (the only elements crossing the bus), else the whole window.
        let name = &program.arrays[buf.array].name;
        let ext = &self.clock.ext[buf.array];
        let (overlay, stats) = (&self.overlay, &mut self.stats);
        let mut fetched = 0u64;
        let mut fetch = |g: &[i64], l: &[i64]| {
            if err.is_some() {
                return;
            }
            match read_global(store, overlay, buf.array, name, g, ext) {
                Ok(v) => {
                    if let Err(e) = local.set(bi, l, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            stats.global_reads += 1;
            stats.moved_in += 1;
            fetched += 1;
        };
        match retain {
            Some((rp, _)) => {
                polymem_core::smem::residency::for_each_delta_in(rp, buf, pparams, &mut fetch)?
            }
            None => polymem_core::smem::movement::for_each_move_in(mc, buf, pparams, &mut fetch)?,
        }
        if let Some(e) = err {
            return Err(e);
        }
        let tag = match retain {
            Some((rp, _)) => {
                self.stats.retained_elems += retained;
                self.stats.delta_elems += fetched;
                self.stats.residency_groups += 1;
                self.clock
                    .issue_delta(rp, buf, pparams, config, earliest, retained)?
            }
            None => {
                self.clock
                    .issue_movement(plan, mi, pparams, Direction::In, config, earliest)?
            }
        };
        Ok(Some(tag))
    }

    /// Apply movement entry `mi`'s move-out (local → global overlay)
    /// and queue its DMA list, returning the tag — `None` when the
    /// hoisted buffer parks instead (one writeback at the end of the
    /// block). When the successor `next_fixed` stages this buffer by
    /// residency and [`RetainPlan::flush_legal`] holds, only the flush
    /// delta is written back: the skipped elements are overwritten by
    /// a later sub-tile's flush before anything can read them from
    /// global memory, and meanwhile every legal reader finds them in
    /// the still-live predecessor's scratchpad.
    fn move_out(
        &mut self,
        sb: &SubBlock,
        mi: usize,
        next_fixed: Option<&HashMap<String, i64>>,
    ) -> Result<Option<DmaTag>> {
        let st = sb.staging.as_ref().expect("staged");
        let plan = st.source.plan();
        let mc = &plan.movement[mi];
        let buf = &plan.buffers[mc.buffer];
        if plan_hoists(plan, buf.array, &self.hoistable) {
            let (data, extents, offsets) = st.local.bufs[mc.buffer].clone();
            // A parked copy of another shape holds elements this one
            // may not cover: write it back before it is replaced.
            if self
                .persistent
                .get(&buf.array)
                .is_some_and(|q| q.extents != extents || q.offsets != offsets)
            {
                self.flush_parked(buf.array)?;
            }
            let prev_dirty = self.persistent.get(&buf.array).is_some_and(|q| q.dirty);
            self.persistent.insert(
                buf.array,
                Persistent {
                    buffer: buf.clone(),
                    mc: mc.clone(),
                    pparams: st.pparams.clone(),
                    data,
                    extents,
                    offsets,
                    dirty: !mc.write_spaces.is_empty() || prev_dirty,
                },
            );
            return Ok(None);
        }
        let flush = flush_delta_plan(st, mi, &sb.fixed, next_fixed);
        let (ls, overlay) = (&st.local, &mut self.overlay);
        let aext = &self.clock.ext[buf.array];
        let mut err = None;
        let mut n = 0u64;
        let mut copy = |g: &[i64], l: &[i64]| {
            if err.is_some() {
                return;
            }
            match ls.get(mc.buffer, l) {
                Ok(v) => {
                    if let Err(e) = overlay.set_idx(buf.array, &buf.array_name, g, aext, v) {
                        err = Some(MachineError::Ir(e));
                    }
                }
                Err(e) => err = Some(e),
            }
            n += 1;
        };
        match flush {
            Some(rp) => polymem_core::smem::residency::for_each_flush_delta(
                rp,
                buf,
                &st.pparams,
                &mut copy,
            )?,
            None => {
                polymem_core::smem::movement::for_each_move_out(mc, buf, &st.pparams, &mut copy)?
            }
        }
        if let Some(e) = err {
            return Err(e);
        }
        self.stats.global_writes += n;
        self.stats.moved_out += n;
        let now = self.clock.now;
        let tag = match flush {
            Some(rp) => {
                self.stats.flushed_delta_elems += n;
                self.clock
                    .issue_flush(rp, buf, &st.pparams, self.config, now)?
            }
            None => self.clock.issue_movement(
                plan,
                mi,
                &st.pparams,
                Direction::Out,
                self.config,
                now,
            )?,
        };
        Ok(Some(tag))
    }

    /// Stage every movement entry of `sb` that prefetching left
    /// unstaged, waiting on each transfer at issue; it starts no
    /// earlier than `earliest` (the predecessor's move-out, whose slots
    /// it reuses). A hoisted copy the sub-tile does not stage as
    /// exactly one buffer would become invisible to its accesses, so
    /// such stale copies are written back first. `poisoned`, when the
    /// sub-tile had a prefetch opportunity, counts the groups a
    /// seq-carried flow dependence kept synchronous.
    fn stage(
        &mut self,
        sb: &mut SubBlock,
        pred: Option<&SubBlock>,
        earliest: u64,
        poisoned: Option<&HashSet<AccessId>>,
    ) -> Result<()> {
        let Some(st) = sb.staging.as_ref() else {
            return Ok(());
        };
        let t0 = Instant::now();
        let plan = st.source.plan();
        let mut stale: Vec<usize> = self
            .persistent
            .keys()
            .filter(|a| plan.buffers.iter().filter(|b| b.array == **a).count() != 1)
            .copied()
            .collect();
        stale.sort_unstable();
        for a in stale {
            self.flush_parked(a)?;
        }
        for mi in 0..plan.movement.len() {
            let st = sb.staging.as_ref().expect("staged");
            if st.staged[mi] {
                continue;
            }
            let plan = st.source.plan();
            let array = plan.buffers[plan.movement[mi].buffer].array;
            let denied = poisoned.is_some_and(|p| {
                !plan_hoists(plan, array, &self.hoistable) && buffer_poisoned(plan, mi, p)
            });
            if let Some(tag) = self.move_in(sb, mi, pred, earliest)? {
                self.clock.wait(&tag);
                if denied {
                    self.stats.sync_groups += 1;
                }
            }
        }
        if let Some(pr) = self.profiler {
            pr.record(crate::trace::PassKind::MoveIn, t0.elapsed());
        }
        Ok(())
    }

    /// Prefetch `next`'s overlap-legal groups while `cur` computes: the
    /// transfers fly on the DMA channels, starting no earlier than
    /// `earliest`. Functionally the copies happen before `cur`'s
    /// writes, which the legality checks license: only read-only,
    /// dependence-free buffers the hoist shortcut cannot satisfy
    /// prefetch (a written buffer's move-in may read locations `cur`
    /// writes — an output/anti dependence the flow-dep check does not
    /// cover), and `cur`'s pre-compute contents already hold the values
    /// residency retains.
    fn prefetch(
        &mut self,
        next: &mut SubBlock,
        cur: &SubBlock,
        poisoned: &HashSet<AccessId>,
        earliest: u64,
    ) -> Result<()> {
        let t0 = Instant::now();
        let n_move = next
            .staging
            .as_ref()
            .map_or(0, |st| st.source.plan().movement.len());
        for mi in 0..n_move {
            let nst = next.staging.as_ref().expect("staged");
            let plan = nst.source.plan();
            let bi = plan.movement[mi].buffer;
            if !plan.movement[mi].write_spaces.is_empty()
                || buffer_poisoned(plan, mi, poisoned)
                || hoist_shortcut_hits(cur, nst, bi, plan.buffers[bi].array, &self.hoistable)
            {
                continue;
            }
            if let Some(tag) = self.move_in(next, mi, Some(cur), earliest)? {
                next.staging.as_mut().expect("staged").tags.push(tag);
                self.stats.overlap_groups += 1;
            }
        }
        if let Some(pr) = self.profiler {
            pr.record(crate::trace::PassKind::MoveIn, t0.elapsed());
        }
        Ok(())
    }
}

/// Execute the sub-block's statement instances in interleaved source
/// order, then charge the modeled compute cycles to the block clock.
///
/// Dispatch: when the launch compiled (bytecode bodies + a per-shape
/// [`crate::compiled::CompiledShape`]) and the block's staging plan is
/// the shared symbolic one (or absent), the compiled engine runs the
/// instances — including hierarchy (level-2) plans, whose register
/// frames it stages through the same [`stage_frames`]/[`flush_frames`]
/// protocol as the interpreter; otherwise — owned per-block plan,
/// naive mode, shape compile failure, or a per-block proof obstacle —
/// the interpreter does, with identical semantics and counters. Which
/// engine ran, and why a fallback happened, lands in
/// [`ExecStats::compiled_blocks`] / [`ExecStats::interpreted_blocks`]
/// / [`ExecStats::fallback`]. `POLYMEM_EXEC_CHECK=1` runs the
/// interpreter as an oracle on cloned state beside every compiled
/// block (outside the timed window) and panics on divergence.
#[allow(clippy::too_many_arguments)]
fn compute_sub_block(
    kernel: &BlockedKernel,
    sb: &mut SubBlock,
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    cache: Option<&PlanCache>,
    profiler: Option<&PassProfiler>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    clock: &mut BlockClock,
    launch: &LaunchShared,
) -> Result<()> {
    let program = &kernel.program;
    // Fallback attribution for the engine counters; `None` after the
    // dispatch below means the compiled engine ran.
    enum Why {
        EngineOff,
        OwnedPlan,
        ShapeUncompiled,
        RuntimeDecline,
    }
    let mut why: Option<Why> = None;
    let shape = match &launch.compiled {
        Some(cc) => match sb.staging.as_ref() {
            None => cc.shape(&sb.fixed, program, None),
            Some(st) => match &st.source {
                PlanRef::Shared(sp) => cc.shape(&sb.fixed, program, Some(sp)),
                // A freshly analysed per-block plan has no shared
                // shape to key the compiled streams on.
                PlanRef::Owned(_) => {
                    why = Some(Why::OwnedPlan);
                    None
                }
            },
        },
        None => {
            why = Some(Why::EngineOff);
            None
        }
    };
    if shape.is_none() && why.is_none() {
        why = Some(Why::ShapeUncompiled);
    }

    // Oracle pass (check mode only): the interpreter runs first on
    // cloned state, outside the timed window.
    let oracle = if shape.is_some() && launch.exec_check {
        let mut ov = overlay.clone();
        let mut loc = sb.staging.as_ref().map(|st| st.local.clone());
        let mut sc = ExecStats::default();
        let staging_arg = match (sb.staging.as_ref(), loc.as_mut()) {
            (Some(st), Some(l)) => Some((&st.source, st.pparams.as_slice(), l)),
            _ => None,
        };
        let c = interpreted_compute(
            kernel,
            &sb.view,
            &sb.fixed,
            params,
            store,
            config,
            cache,
            staging_arg,
            &mut ov,
            &mut sc,
            launch,
        )?;
        Some((ov, loc, sc, c))
    } else {
        None
    };
    let before = oracle.as_ref().map(|_| stats.clone());

    let t0 = Instant::now();
    let mut counts = None;
    if let Some(shape) = &shape {
        let (local, splan) = match sb.staging.as_mut() {
            Some(st) => {
                let sp = match &st.source {
                    PlanRef::Shared(sp) => Some(sp.as_ref()),
                    PlanRef::Owned(_) => None,
                };
                (Some(&mut st.local), sp)
            }
            None => (None, None),
        };
        counts = run_compiled(
            shape, launch, program, params, &sb.fixed, store, local, splan, overlay, stats, config,
        )?
        .map(|c| (c.n_inst, c.n_smem, c.n_glob));
        if counts.is_none() {
            why = Some(Why::RuntimeDecline);
        }
    }
    match &why {
        None => stats.compiled_blocks += 1,
        Some(w) => {
            stats.interpreted_blocks += 1;
            match w {
                Why::EngineOff => stats.fallback.engine_off += 1,
                Why::OwnedPlan => stats.fallback.owned_plan += 1,
                Why::ShapeUncompiled => stats.fallback.shape_uncompiled += 1,
                Why::RuntimeDecline => stats.fallback.runtime_decline += 1,
            }
        }
    }
    let (n_inst, n_smem, n_glob) = match counts {
        Some(c) => c,
        None => {
            let staging_arg = sb.staging.as_mut().map(|st| {
                let Staging {
                    source,
                    pparams,
                    local,
                    ..
                } = st;
                (&*source, pparams.as_slice(), local)
            });
            interpreted_compute(
                kernel,
                &sb.view,
                &sb.fixed,
                params,
                store,
                config,
                cache,
                staging_arg,
                overlay,
                stats,
                launch,
            )?
        }
    };
    if let Some(pr) = profiler {
        pr.record(crate::trace::PassKind::Compute, t0.elapsed());
    }
    stats.compute_ns += t0.elapsed().as_nanos() as u64;

    if let (Some((ov, loc, sc, oc)), Some(before)) = (oracle, before) {
        let local_now = sb.staging.as_ref().map(|st| st.local.clone());
        let deltas = (
            stats.instances - before.instances,
            stats.global_reads - before.global_reads,
            stats.global_writes - before.global_writes,
            stats.smem_reads - before.smem_reads,
            stats.smem_writes - before.smem_writes,
            stats.smem_loads_saved - before.smem_loads_saved,
            stats.reg_bytes_moved - before.reg_bytes_moved,
            stats.hier_groups - before.hier_groups,
        );
        let odeltas = (
            sc.instances,
            sc.global_reads,
            sc.global_writes,
            sc.smem_reads,
            sc.smem_writes,
            sc.smem_loads_saved,
            sc.reg_bytes_moved,
            sc.hier_groups,
        );
        assert!(
            *overlay == ov
                && local_now == loc
                && deltas == odeltas
                && (n_inst, n_smem, n_glob) == oc,
            "POLYMEM_EXEC_CHECK: compiled execution diverged from the interpreter \
             (fixed dims {:?}: overlay match {}, local match {}, counters {:?} vs {:?})",
            sb.fixed,
            *overlay == ov,
            local_now == loc,
            deltas,
            odeltas,
        );
    }

    let l = config.global_latency / config.global_overlap.max(1.0);
    let cycles = n_inst as f64 * config.cycles_per_op
        + n_smem as f64 * config.smem_latency
        + n_glob as f64 * l;
    clock.now += cycles.round() as u64;
    Ok(())
}

/// Register frames staged for one inner process (thread key) during a
/// sub-block's compute phase. Shared by both engines: the interpreter
/// and the compiled engine stage, serve and flush frames through the
/// same functions, which is what keeps `smem_loads_saved`,
/// `reg_bytes_moved`, `hier_groups` and the typed overflow check
/// bit-identical between them.
pub(crate) struct FrameSet {
    /// The thread-dim values the frames are staged for.
    pub(crate) key: Vec<i64>,
    /// `params ++ ext values` at this key — the parameter vector every
    /// level-2 affine structure evaluates under.
    pub(crate) pp2: Vec<i64>,
    /// Frame storage, indexed by level-2 buffer id.
    pub(crate) frames: LocalStore,
}

/// The level-1 local index of global array element `g` in buffer
/// `buf1` (whose concrete offsets are `offsets1`).
fn level1_index(buf1: &LocalBuffer, offsets1: &[i64], g: &[i64]) -> Vec<i64> {
    buf1.kept_dims
        .iter()
        .zip(offsets1)
        .map(|(&d, &o)| g[d] - o)
        .collect()
}

/// Stage every register frame for one thread key (smem → reg move-in):
/// allocate the frames at the key's concrete extents, enforce the
/// register-file capacity at runtime (the plan-time gate only checked
/// the representative block — frames can grow past it, e.g. on
/// triangular domains), then run the level-2 movement code against the
/// backing level-1 buffers. Returns the staged set plus the scratchpad
/// reads to charge the cycle model.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_frames(
    h: &HierPlan,
    plan1: &SmemPlan,
    key: Vec<i64>,
    params: &[i64],
    fixed: &HashMap<String, i64>,
    local: &LocalStore,
    stats: &mut ExecStats,
    config: &MachineConfig,
) -> Result<(FrameSet, u64)> {
    let pp2 = h
        .ext_params(params, fixed, &key)
        .expect("hier plan was built from this shape's fixed dims");
    let mut bufs = Vec::with_capacity(h.plan.buffers.len());
    let mut words = 0u64;
    for b in &h.plan.buffers {
        let extents = b.extents(&pp2)?;
        let offsets = b.offsets(&pp2)?;
        let size: i64 = extents.iter().product::<i64>().max(0);
        words += size as u64;
        bufs.push((vec![0i64; size as usize], extents, offsets));
    }
    if words > h.regs_per_inner {
        return Err(MachineError::RegisterOverflow {
            requested: words,
            available: h.regs_per_inner,
        });
    }
    let mut frames = LocalStore { bufs };
    let mut n_smem = 0u64;
    for mc in &h.plan.movement {
        let buf = &h.plan.buffers[mc.buffer];
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        let mut err = None;
        polymem_core::smem::movement::for_each_move_in(mc, buf, &pp2, &mut |g, l| {
            if err.is_some() {
                return;
            }
            let l1 = level1_index(buf1, &local.bufs[buf1.id].2, g);
            match local.get(buf1.id, &l1) {
                Ok(v) => {
                    if let Err(e) = frames.set(mc.buffer, l, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            stats.smem_reads += 1;
            stats.reg_bytes_moved += config.word_bytes;
            n_smem += 1;
        })?;
        if let Some(e) = err {
            return Err(e);
        }
    }
    stats.hier_groups += 1;
    Ok((FrameSet { key, pp2, frames }, n_smem))
}

/// Flush written register frames back to their level-1 buffers
/// (reg → smem move-out) before the thread key changes or the compute
/// phase ends. Read-only frames are dropped for free. Returns the
/// scratchpad writes to charge the cycle model.
pub(crate) fn flush_frames(
    h: &HierPlan,
    plan1: &SmemPlan,
    fs: &FrameSet,
    local: &mut LocalStore,
    stats: &mut ExecStats,
    config: &MachineConfig,
) -> Result<u64> {
    let mut n_smem = 0u64;
    for mc in &h.plan.movement {
        if mc.write_spaces.is_empty() {
            continue;
        }
        let buf = &h.plan.buffers[mc.buffer];
        let buf1 = &plan1.buffers[h.backing[mc.buffer]];
        let mut err = None;
        polymem_core::smem::movement::for_each_move_out(mc, buf, &fs.pp2, &mut |g, l| {
            if err.is_some() {
                return;
            }
            let l1 = level1_index(buf1, &local.bufs[buf1.id].2, g);
            match fs.frames.get(mc.buffer, l) {
                Ok(v) => {
                    if let Err(e) = local.set(buf1.id, &l1, v) {
                        err = Some(e);
                    }
                }
                Err(e) => err = Some(e),
            }
            stats.smem_writes += 1;
            stats.reg_bytes_moved += config.word_bytes;
            n_smem += 1;
        })?;
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(n_smem)
}

/// The reference per-point interpreter for one sub-block's compute
/// phase: enumerate every statement's instances (shared enumeration
/// plan when available), sort into interleaved source order, then walk
/// them through `Expr::eval` and `AffineMap::apply`. Returns the
/// `(instances, smem accesses, global accesses)` tallies for the cycle
/// model.
///
/// When the shared symbolic plan carries a level-2 (register-tile)
/// plan, the walk additionally stages register frames per thread key:
/// on every thread-key change the previous key's written frames flush
/// to scratchpad and the new key's frames stage from it, and accesses
/// rewritten at level 2 are served from the frames (counted in
/// `smem_loads_saved`, charged near-zero latency) instead of touching
/// scratchpad. Flush-on-change keeps cross-key overlap (e.g. sliding
/// windows) exact — §3.1 partitioning guarantees frames never alias
/// any other access of the same instance at any thread value.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn interpreted_compute(
    kernel: &BlockedKernel,
    view: &Program,
    fixed: &HashMap<String, i64>,
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    cache: Option<&PlanCache>,
    staging: Option<(&PlanRef, &[i64], &mut LocalStore)>,
    overlay: &mut Overlay,
    stats: &mut ExecStats,
    launch: &LaunchShared,
) -> Result<(u64, u64, u64)> {
    let program = &kernel.program;
    let (source, pparams, mut local) = match staging {
        Some((s, p, l)) => (Some(s), p, Some(l)),
        None => (None, &[][..], None),
    };
    // The level-2 (register-tile) plan rides on the shared symbolic
    // plan only; owned per-block plans never carry one.
    let hier: Option<&HierPlan> = source.and_then(|s| match s {
        PlanRef::Shared(sp) => sp.hier.as_ref(),
        PlanRef::Owned(_) => None,
    });
    let mut cur_frames: Option<FrameSet> = None;

    // With the plan cache active, the shared per-shape enumeration
    // plan turns this into bound evaluation; the per-block projection
    // path is the fallback (and the whole story in naive mode).
    let enum_plan = if polymem_poly::cache::naive_mode() {
        None
    } else {
        cache.and_then(|c| c.enum_plan(fixed, program))
    };
    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (si, s) in view.stmts.iter().enumerate() {
        let shared = enum_plan
            .as_ref()
            .and_then(|ep| ep.ext_params(params, fixed).map(|ext| (ep, ext)))
            .is_some_and(|(ep, ext)| {
                let mark = instances.len();
                match ep.enumerate(si, &ext, config.enum_budget, &mut instances) {
                    Ok(()) => true,
                    Err(_) => {
                        instances.truncate(mark);
                        false
                    }
                }
            });
        if shared {
            continue;
        }
        let dom = s.domain.substitute_params(params)?;
        enumerate_points(&dom, config.enum_budget, &mut |p| {
            instances.push((si, p.to_vec()))
        })
        .map_err(budget_error)?;
    }
    let common = &launch.common;
    instances.sort_by(|(sa, pa), (sb, pb)| {
        let c = common[*sa][*sb];
        for k in 0..c {
            match pa[k].cmp(&pb[k]) {
                std::cmp::Ordering::Equal => {}
                o => return o,
            }
        }
        match sa.cmp(sb) {
            std::cmp::Ordering::Equal => pa[c..].cmp(&pb[c..]),
            o => o,
        }
    });

    let (mut n_inst, mut n_smem, mut n_glob) = (0u64, 0u64, 0u64);
    for (si, point) in &instances {
        let stmt = &view.stmts[*si];
        // Stage the instance's register frames: flush the previous
        // thread key's written frames, load this key's from
        // scratchpad. Statements that don't iterate every thread dim
        // have no key and never touch frames (the thread-complete
        // gate dropped any group they could alias).
        if let Some(h) = hier {
            if let Some(key) = h.thread_key(*si, point) {
                if cur_frames.as_ref().map(|fs| &fs.key) != Some(&key) {
                    let plan1 = source.expect("hier implies staging").plan();
                    let ls = local.as_deref_mut().expect("hier implies local store");
                    if let Some(fs) = cur_frames.take() {
                        n_smem += flush_frames(h, plan1, &fs, ls, stats, config)?;
                    }
                    let (fs, dn) = stage_frames(h, plan1, key, params, fixed, ls, stats, config)?;
                    n_smem += dn;
                    cur_frames = Some(fs);
                }
            }
        }
        let mut reads = Vec::with_capacity(stmt.reads.len());
        for (k, r) in stmt.reads.iter().enumerate() {
            let id = AccessId::read(*si, k);
            let mut staged = None;
            // Level-2 hit: serve the read from the register frame at
            // near-zero cost (no smem access in the cycle model).
            if let (Some(h), Some(fs)) = (hier, cur_frames.as_ref()) {
                if let Some(la) = h.plan.rewrites.get(&id) {
                    let buf = &h.plan.buffers[la.buffer];
                    let proj = h.project_point(*si, point);
                    let idx = la.local_index(buf, &proj, &fs.pp2)?;
                    stats.smem_loads_saved += 1;
                    staged = Some(fs.frames.get(la.buffer, &idx)?);
                }
            }
            if staged.is_none() {
                if let Some(src) = source {
                    if let Some(la) = src.plan().rewrites.get(&id) {
                        let buf = &src.plan().buffers[la.buffer];
                        let proj = src.project(*si, point);
                        let idx = la.local_index(buf, &proj, pparams)?;
                        stats.smem_reads += 1;
                        n_smem += 1;
                        staged = Some(
                            local
                                .as_deref()
                                .expect("staged plan implies local store")
                                .get(la.buffer, &idx)?,
                        );
                    }
                }
            }
            let v = match staged {
                Some(v) => v,
                None => {
                    let idx = r.map.apply(point, params)?;
                    let name = &program.arrays[r.array].name;
                    stats.global_reads += 1;
                    n_glob += 1;
                    read_global(store, overlay, r.array, name, &idx, &launch.ext[r.array])?
                }
            };
            reads.push(v);
        }
        let value = stmt.body.eval(&reads, point, params)?;
        let wid = AccessId::write(*si);
        let mut staged = false;
        // Level-2 hit: the write lands in the register frame and
        // reaches scratchpad once, at the next flush.
        if let (Some(h), Some(fs)) = (hier, cur_frames.as_mut()) {
            if let Some(la) = h.plan.rewrites.get(&wid) {
                let buf = &h.plan.buffers[la.buffer];
                let proj = h.project_point(*si, point);
                let idx = la.local_index(buf, &proj, &fs.pp2)?;
                fs.frames.set(la.buffer, &idx, value)?;
                staged = true;
            }
        }
        if !staged {
            if let Some(src) = source {
                if let Some(la) = src.plan().rewrites.get(&wid) {
                    let buf = &src.plan().buffers[la.buffer];
                    let proj = src.project(*si, point);
                    let idx = la.local_index(buf, &proj, pparams)?;
                    stats.smem_writes += 1;
                    n_smem += 1;
                    local
                        .as_deref_mut()
                        .expect("staged plan implies local store")
                        .set(la.buffer, &idx, value)?;
                    staged = true;
                }
            }
        }
        if !staged {
            let a = stmt.write.array;
            let idx = stmt.write.map.apply(point, params)?;
            stats.global_writes += 1;
            n_glob += 1;
            overlay
                .set_idx(a, &program.arrays[a].name, &idx, &launch.ext[a], value)
                .map_err(MachineError::Ir)?;
        }
        stats.instances += 1;
        n_inst += 1;
    }
    // Final flush: the last thread key's written frames must reach
    // scratchpad before the sub-block's move-out runs.
    if let (Some(h), Some(fs)) = (hier, cur_frames.take()) {
        let plan1 = source.expect("hier implies staging").plan();
        let ls = local.expect("hier implies local store");
        n_smem += flush_frames(h, plan1, &fs, ls, stats, config)?;
    }
    Ok((n_inst, n_smem, n_glob))
}

/// Run one block: its sub-tiles (one per value of the staged seq dims,
/// or the whole block when there is no staged seq loop) in order, each
/// staged, computed and moved out, with §4.2 hoisting across them.
///
/// One schedule covers every case; only its depth varies. At depth 1
/// every DMA tag is waited on as soon as it is issued — the fully
/// synchronous schedule, since the DMA engine starts a transfer at
/// `max(now, earliest, channel free)` and `earliest` never exceeds
/// `now` there. At depth 2 — double buffering with a legality set
/// (`poisoned`) and at least two sub-tiles — the successor is prepared
/// and its overlap-legal groups prefetched while the current sub-tile
/// computes, and the move-out is not waited on, overlapping the
/// successor. Both depths compute identical arrays: a group is
/// prefetched only when it reads nothing the current sub-tile writes.
#[allow(clippy::too_many_arguments)]
fn execute_one_block(
    kernel: &BlockedKernel,
    fixed: &HashMap<String, i64>,
    params: &[i64],
    store: &ArrayStore,
    config: &MachineConfig,
    cache: Option<&PlanCache>,
    profiler: Option<&PassProfiler>,
    poisoned: Option<&HashSet<AccessId>>,
    launch: &LaunchShared,
    block_idx: u64,
) -> Result<(Overlay, ExecStats)> {
    let program = &kernel.program;
    let staged_seq = kernel.use_scratchpad && !kernel.seq_dims.is_empty();
    let mut fixeds = Vec::new();
    if let (true, Some(lead)) = (staged_seq, program.stmts.first()) {
        for sv in enumerate_named(lead, &kernel.seq_dims, params, fixed, config.enum_budget)? {
            let mut f2 = fixed.clone();
            f2.extend(kernel.seq_dims.iter().cloned().zip(sv));
            fixeds.push(f2);
        }
    }
    if fixeds.is_empty() {
        fixeds.push(fixed.clone());
    }
    let mut bs = BlockState {
        program,
        store,
        config,
        profiler,
        overlay: Overlay::new(program.arrays.len()),
        stats: ExecStats {
            blocks: 1,
            ..ExecStats::default()
        },
        clock: BlockClock::new(launch.ext.clone(), config, block_idx),
        hoistable: if staged_seq {
            seq_redundant_arrays(kernel)
        } else {
            HashSet::new()
        },
        persistent: HashMap::new(),
    };
    let poisoned = poisoned.filter(|_| fixeds.len() > 1);
    let wb = config.word_bytes;
    let mut prev: Option<SubBlock> = None;
    let mut next: Option<SubBlock> = None;
    // When the previous sub-tile's move-out completes: move-ins reuse
    // its slots, so they start no earlier.
    let mut out_done = 0u64;
    for t in 0..fixeds.len() {
        let mut cur = match next.take() {
            Some(nx) => nx,
            None => {
                let sb = prepare_sub_block(
                    kernel,
                    &fixeds[t],
                    params,
                    config,
                    cache,
                    profiler,
                    &mut bs.stats,
                )?;
                if config.smem_bytes > 0 && sb.words() * wb > config.smem_bytes {
                    return Err(MachineError::ScratchpadOverflow {
                        requested: sb.words() * wb,
                        available: config.smem_bytes,
                    });
                }
                sb
            }
        };
        bs.stage(
            &mut cur,
            prev.as_ref(),
            out_done,
            poisoned.filter(|_| t > 0),
        )?;
        if let (Some(poisoned), Some(f)) = (poisoned, fixeds.get(t + 1)) {
            let mut nx =
                prepare_sub_block(kernel, f, params, config, cache, profiler, &mut bs.stats)?;
            let words = cur.words() + nx.words();
            if config.smem_bytes > 0 && words * wb > config.smem_bytes {
                return Err(MachineError::DoubleBufferOverflow {
                    requested: words * wb,
                    available: config.smem_bytes,
                });
            }
            bs.prefetch(&mut nx, &cur, poisoned, out_done)?;
            next = Some(nx);
        }
        // The prefetches for `cur` must have landed before its compute
        // touches the buffers.
        if let Some(st) = cur.staging.as_mut() {
            for tag in std::mem::take(&mut st.tags) {
                bs.clock.wait(&tag);
            }
        }
        compute_sub_block(
            kernel,
            &mut cur,
            params,
            store,
            config,
            cache,
            profiler,
            &mut bs.overlay,
            &mut bs.stats,
            &mut bs.clock,
            launch,
        )?;
        out_done = bs.clock.now;
        if let Some(n_move) = cur
            .staging
            .as_ref()
            .map(|st| st.source.plan().movement.len())
        {
            let t0 = Instant::now();
            for mi in 0..n_move {
                let Some(tag) = bs.move_out(&cur, mi, fixeds.get(t + 1))? else {
                    continue;
                };
                if poisoned.is_some() {
                    out_done = out_done.max(tag.done);
                } else {
                    bs.clock.wait(&tag);
                }
            }
            if let Some(pr) = profiler {
                pr.record(crate::trace::PassKind::MoveOut, t0.elapsed());
            }
        }
        // `cur` stays live as the successor's residency predecessor: its
        // scratchpad holds the newest value of every element (move-out
        // copies out of it, never into it).
        prev = Some(cur);
    }
    // Deterministic writeback order (DMA timing depends on it).
    let mut arrays: Vec<usize> = bs.persistent.keys().copied().collect();
    arrays.sort_unstable();
    for a in arrays {
        bs.flush_parked(a)?;
    }
    let mut stats = bs.stats;
    stats.block_cycles = bs.clock.dma.drain(bs.clock.now);
    stats.dma = bs.clock.dma.stats;
    Ok((bs.overlay, stats))
}

/// A global element read: the block's own buffered writes shadow the
/// store. Overlay lookups go through the flat row-major offset; an
/// index that does not flatten falls through to `store.get`, whose
/// typed out-of-bounds error is authoritative.
fn read_global(
    store: &ArrayStore,
    overlay: &Overlay,
    array: usize,
    name: &str,
    idx: &[i64],
    ext: &[i64],
) -> Result<i64> {
    if let Some(v) = flatten(idx, ext).and_then(|off| overlay.get(array, off)) {
        return Ok(v);
    }
    Ok(store.get(name, idx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polymem_core::tiling::transform::{tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{exec_program, Expr, LinExpr, ProgramBuilder};

    /// C[i][j] = A[i][j] + A[i][j+1], tiled 2-D.
    fn window2d() -> Program {
        let mut b = ProgramBuilder::new("w", ["N"]);
        b.array("A", &[v("N"), v("N") + 1]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j")])
            .read("A", &[v("i"), v("j") + 1])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        b.build().unwrap()
    }

    fn blocked(use_scratchpad: bool) -> BlockedKernel {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad,
        }
    }

    fn reference(params: &[i64]) -> ArrayStore {
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        exec_program(&p, params, &mut st).unwrap();
        st
    }

    fn run(kernel: &BlockedKernel, params: &[i64], parallel: bool) -> (ArrayStore, ExecStats) {
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(kernel, params, &mut st, &cfg, parallel).unwrap();
        (st, stats)
    }

    #[test]
    fn blocked_matches_reference_without_scratchpad() {
        let k = blocked(false);
        let (st, stats) = run(&k, &[10], false);
        assert_eq!(st.data("C").unwrap(), reference(&[10]).data("C").unwrap());
        assert_eq!(stats.blocks, 9); // ceil(10/4)^2
        assert_eq!(stats.instances, 100);
        assert_eq!(stats.smem_reads, 0);
        assert_eq!(stats.moved_in, 0);
    }

    #[test]
    fn blocked_matches_reference_with_scratchpad() {
        let k = blocked(true);
        let (st, stats) = run(&k, &[10], false);
        assert_eq!(st.data("C").unwrap(), reference(&[10]).data("C").unwrap());
        assert!(stats.moved_in > 0);
        // C is written once per element — no reuse, so the GPU-mode
        // plan correctly leaves it in global memory (no move-out).
        assert_eq!(stats.moved_out, 0);
        assert!(stats.smem_reads > 0);
        assert!(stats.max_smem_words > 0);
    }

    #[test]
    fn plan_cache_hits_and_can_be_disabled() {
        let k = blocked(true);
        let p = window2d();
        let run_with = |plan_cache: bool| {
            let mut st = ArrayStore::for_program(&p, &[10]).unwrap();
            st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
            let mut cfg = MachineConfig::geforce_8800_gtx();
            cfg.plan_cache = plan_cache;
            let stats = execute_blocked(&k, &[10], &mut st, &cfg, false).unwrap();
            (st, stats)
        };
        let (st_on, on) = run_with(true);
        let (st_off, off) = run_with(false);
        // Bit-exact contents either way.
        assert_eq!(st_on.data("C").unwrap(), st_off.data("C").unwrap());
        // 9 blocks: 1 warm-up miss, every block a hit.
        assert_eq!(on.plan_cache_misses, 1);
        assert_eq!(on.plan_cache_hits, 9);
        assert_eq!(off.plan_cache_hits, 0);
        assert_eq!(off.plan_cache_misses, 0);
        // Traffic identical: instantiation is exact, boundary tiles
        // included (10 = 2*4 + 2 leaves partial tiles).
        assert_eq!(on.moved_in, off.moved_in);
        assert_eq!(on.global_reads, off.global_reads);
        assert_eq!(on.smem_reads, off.smem_reads);
        assert_eq!(on.max_smem_words, off.max_smem_words);
    }

    #[test]
    fn profiled_run_records_phases() {
        use crate::trace::{PassKind, PassProfiler};
        let k = blocked(true);
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, &[10]).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let profiler = PassProfiler::new();
        execute_blocked_profiled(&k, &[10], &mut st, &cfg, false, Some(&profiler)).unwrap();
        let r = profiler.report();
        let count = |kind: PassKind| r.rows.iter().find(|w| w.kind == kind).unwrap().count;
        // One warm-up symbolic analysis → one occurrence per compiler
        // pass; 9 blocks → 9 move-in and compute phases; one barrier.
        assert_eq!(count(PassKind::Reuse), 1);
        assert_eq!(count(PassKind::Dataspace), 1);
        assert_eq!(count(PassKind::MoveIn), 9);
        assert_eq!(count(PassKind::Compute), 9);
        assert_eq!(count(PassKind::Barrier), 1);
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let k = blocked(true);
        let (seq, s1) = run(&k, &[13], false);
        let (par, s2) = run(&k, &[13], true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn scratchpad_reduces_global_traffic() {
        let k_no = blocked(false);
        let k_yes = blocked(true);
        let (_, dram) = run(&k_no, &[16], false);
        let (_, smem) = run(&k_yes, &[16], false);
        // DRAM-only: 2 global reads per instance (512 total). With
        // staging each A element is read once per block (overlap
        // column read twice across neighbouring blocks only).
        assert!(
            smem.global_reads < dram.global_reads,
            "{} vs {}",
            smem.global_reads,
            dram.global_reads
        );
    }

    #[test]
    fn rounds_with_device_sync() {
        // A 1-D recurrence over rounds: for r in [1,3], i in [0,N-1]:
        // B[r][i] = B[r-1][i] + 1 — each round reads the previous
        // round's output, so round_dims = [r] is required and the
        // executor must produce the sequential result.
        let mut b = ProgramBuilder::new("r", ["N"]);
        b.array("B", &[LinExpr::c(4), v("N")]);
        b.stmt("S")
            .loops(&[
                ("r", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("B", &[v("r"), v("i")])
            .read("B", &[v("r") - 1, v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Const(1)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec!["r".into()],
            block_dims: vec!["iT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: false,
        };
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        let cfg = MachineConfig::geforce_8800_gtx();
        let stats = execute_blocked(&k, &[8], &mut st, &cfg, true).unwrap();
        assert_eq!(stats.rounds, 3);
        for i in 0..8 {
            assert_eq!(st.get("B", &[3, i]).unwrap(), 3);
        }
    }

    #[test]
    fn cell_mode_copies_everything() {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
        st.fill_with("A", |ix| ix[0] + ix[1]).unwrap();
        let cfg = MachineConfig::cell_like();
        let stats = execute_blocked(&k, &[8], &mut st, &cfg, false).unwrap();
        // In Cell mode no compute access touches global memory: all
        // global traffic is movement.
        assert_eq!(stats.global_reads, stats.moved_in);
        assert_eq!(stats.global_writes, stats.moved_out);
        assert_eq!(st.data("C").unwrap(), {
            let mut r = ArrayStore::for_program(&p, &[8]).unwrap();
            r.fill_with("A", |ix| ix[0] + ix[1]).unwrap();
            exec_program(&p, &[8], &mut r).unwrap();
            r.data("C").unwrap().to_vec()
        });
    }

    /// The window2d kernel with the `j` tile loop kept sequential
    /// inside each block — the shape the double-buffered pipeline
    /// targets.
    fn blocked_seq() -> BlockedKernel {
        let p = window2d();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["jT".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        }
    }

    fn run_seq(double_buffer: bool, params: &[i64]) -> (ArrayStore, ExecStats) {
        let k = blocked_seq();
        let p = window2d();
        let mut st = ArrayStore::for_program(&p, params).unwrap();
        st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
        let mut cfg = MachineConfig::cell_like();
        cfg.double_buffer = double_buffer;
        let stats = execute_blocked(&k, params, &mut st, &cfg, false).unwrap();
        (st, stats)
    }

    #[test]
    fn absorb_accumulates_every_field() {
        // Explicit struct literals (no `..`) so a future field forces
        // this test — and `absorb` — to be revisited.
        let mk = |x: u64| ExecStats {
            blocks: x,
            instances: x + 1,
            global_reads: x + 2,
            global_writes: x + 3,
            smem_reads: x + 4,
            smem_writes: x + 5,
            moved_in: x + 6,
            moved_out: x + 7,
            rounds: x + 8,
            max_smem_words: x + 9,
            plan_cache_hits: x + 10,
            plan_cache_misses: x + 11,
            block_cycles: x + 12,
            modeled_cycles: x + 13,
            overlap_groups: x + 14,
            sync_groups: x + 15,
            smem_loads_saved: x + 23,
            reg_bytes_moved: x + 24,
            hier_groups: x + 25,
            retained_elems: x + 32,
            delta_elems: x + 33,
            flushed_delta_elems: x + 35,
            residency_groups: x + 34,
            compiled_blocks: x + 26,
            interpreted_blocks: x + 27,
            fallback: FallbackStats {
                engine_off: x + 28,
                owned_plan: x + 29,
                shape_uncompiled: x + 30,
                runtime_decline: x + 31,
            },
            compute_ns: x + 22,
            dma: DmaStats {
                descriptors: x + 16,
                elements: x + 17,
                bytes: x + 18,
                channel_busy_cycles: vec![x, x + 19],
                stall_cycles: x + 20,
                bytes_hist: vec![x + 21],
            },
        };
        let mut a = mk(100);
        let b = mk(1);
        a.absorb(&b);
        assert_eq!(a.blocks, 101);
        assert_eq!(a.instances, 103);
        assert_eq!(a.global_reads, 105);
        assert_eq!(a.global_writes, 107);
        assert_eq!(a.smem_reads, 109);
        assert_eq!(a.smem_writes, 111);
        assert_eq!(a.moved_in, 113);
        assert_eq!(a.moved_out, 115);
        assert_eq!(a.rounds, 117);
        assert_eq!(a.max_smem_words, 109); // max, not sum
        assert_eq!(a.plan_cache_hits, 121);
        assert_eq!(a.plan_cache_misses, 123);
        assert_eq!(a.block_cycles, 125);
        assert_eq!(a.modeled_cycles, 127);
        assert_eq!(a.overlap_groups, 129);
        assert_eq!(a.sync_groups, 131);
        assert_eq!(a.dma.descriptors, 133);
        assert_eq!(a.dma.elements, 135);
        assert_eq!(a.dma.bytes, 137);
        assert_eq!(a.dma.channel_busy_cycles, vec![101, 139]);
        assert_eq!(a.dma.stall_cycles, 141);
        assert_eq!(a.dma.bytes_hist, vec![143]);
        assert_eq!(a.compute_ns, 145); // wall time sums across workers
        assert_eq!(a.smem_loads_saved, 147);
        assert_eq!(a.reg_bytes_moved, 149);
        assert_eq!(a.hier_groups, 151);
        assert_eq!(a.retained_elems, 165);
        assert_eq!(a.delta_elems, 167);
        assert_eq!(a.flushed_delta_elems, 171);
        assert_eq!(a.residency_groups, 169);
        assert_eq!(a.compiled_blocks, 153);
        assert_eq!(a.interpreted_blocks, 155);
        assert_eq!(a.fallback.engine_off, 157);
        assert_eq!(a.fallback.owned_plan, 159);
        assert_eq!(a.fallback.shape_uncompiled, 161);
        assert_eq!(a.fallback.runtime_decline, 163);
        assert_eq!(a.fallback.total(), 157 + 159 + 161 + 163);
    }

    /// Square matmul C[i][j] += A[i][k] * B[k][j] with i and j tiled,
    /// mapped with `i` distributed across the inner processes.
    fn matmul_hier_kernel() -> (Program, BlockedKernel) {
        let mut b = ProgramBuilder::new("mm", ["N"]);
        b.array("A", &[v("N"), v("N")]);
        b.array("B", &[v("N"), v("N")]);
        b.array("C", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("N") - 1),
                ("k", LinExpr::c(0), v("N") - 1),
            ])
            .write("C", &[v("i"), v("j")])
            .read("C", &[v("i"), v("j")])
            .read("A", &[v("i"), v("k")])
            .read("B", &[v("k"), v("j")])
            .body(Expr::add(
                Expr::Read(0),
                Expr::mul(Expr::Read(1), Expr::Read(2)),
            ))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into(), "jT".into()],
            seq_dims: vec![],
            thread_dims: vec!["i".into()],
            use_scratchpad: true,
        };
        (p, k)
    }

    fn run_hier(
        k: &BlockedKernel,
        p: &Program,
        hierarchy: bool,
        parallel: bool,
    ) -> (ArrayStore, ExecStats) {
        let mut st = ArrayStore::for_program(p, &[8]).unwrap();
        st.fill_with("A", |ix| ix[0] * 7 + ix[1]).unwrap();
        st.fill_with("B", |ix| ix[0] - 3 * ix[1]).unwrap();
        let mut cfg = MachineConfig::geforce_8800_gtx();
        cfg.hierarchy = hierarchy;
        let stats = execute_blocked(k, &[8], &mut st, &cfg, parallel).unwrap();
        (st, stats)
    }

    #[test]
    fn hierarchy_is_bit_exact_and_cuts_scratchpad_traffic() {
        let (p, k) = matmul_hier_kernel();
        let (st_off, off) = run_hier(&k, &p, false, false);
        let (st_on, on) = run_hier(&k, &p, true, false);
        assert_eq!(st_on.data("C").unwrap(), st_off.data("C").unwrap());
        assert_eq!(st_on.data("C").unwrap(), {
            let mut r = ArrayStore::for_program(&p, &[8]).unwrap();
            r.fill_with("A", |ix| ix[0] * 7 + ix[1]).unwrap();
            r.fill_with("B", |ix| ix[0] - 3 * ix[1]).unwrap();
            exec_program(&p, &[8], &mut r).unwrap();
            r.data("C").unwrap().to_vec()
        });
        // Reused C and A rows are served from register frames: the
        // scratchpad sees only B reads plus the frame staging traffic.
        assert_eq!(off.smem_loads_saved, 0);
        assert_eq!(off.hier_groups, 0);
        assert!(on.smem_loads_saved > 0);
        assert!(on.reg_bytes_moved > 0);
        // 4 blocks × 4 thread values each.
        assert_eq!(on.hier_groups, 16);
        let traffic = |s: &ExecStats| s.smem_reads + s.smem_writes;
        assert!(
            traffic(&on) * 2 <= traffic(&off),
            "expected ≥2× scratchpad-traffic cut: {} vs {}",
            traffic(&on),
            traffic(&off)
        );
        // Fewer scratchpad accesses at equal functional global traffic
        // can only lower the modeled time.
        assert!(on.modeled_cycles <= off.modeled_cycles);
        assert_eq!(on.global_reads, off.global_reads);
        assert_eq!(on.global_writes, off.global_writes);
    }

    #[test]
    fn hierarchy_parallel_is_deterministic() {
        let (p, k) = matmul_hier_kernel();
        let (seq, s1) = run_hier(&k, &p, true, false);
        let (par, s2) = run_hier(&k, &p, true, true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn register_overflow_is_typed() {
        // Triangular domain: the T frame holds row i's first i+1
        // elements, so it grows past the representative (i = 0) size.
        // The plan-time gate passes; the runtime check must trip with
        // the typed error once a thread value no longer fits.
        let mut b = ProgramBuilder::new("tri", ["N"]);
        b.array("T", &[v("N"), v("N")]);
        b.array("Out", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("Out", &[v("i"), v("j")])
            .read("T", &[v("i"), v("j")])
            .read("T", &[v("i"), v("j")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        let p = b.build().unwrap();
        let k = BlockedKernel {
            program: p.clone(),
            round_dims: vec![],
            block_dims: vec![],
            seq_dims: vec![],
            thread_dims: vec!["i".into()],
            use_scratchpad: true,
        };
        let run = |regs: u64| {
            let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
            st.fill_with("T", |ix| ix[0] * 10 + ix[1]).unwrap();
            let mut cfg = MachineConfig::geforce_8800_gtx();
            cfg.hierarchy = true;
            cfg.regs_per_inner = regs;
            execute_blocked(&k, &[8], &mut st, &cfg, false)
        };
        assert!(run(8).is_ok(), "the largest row (8 words) must fit");
        match run(4) {
            Err(MachineError::RegisterOverflow {
                requested,
                available,
            }) => {
                assert_eq!(requested, 5); // row i = 4 is the first to overflow
                assert_eq!(available, 4);
            }
            other => panic!("expected RegisterOverflow, got {other:?}"),
        }
    }

    #[test]
    fn double_buffer_is_bit_exact_and_overlaps() {
        let (off_st, off) = run_seq(false, &[16]);
        let (on_st, on) = run_seq(true, &[16]);
        assert_eq!(on_st.data("C").unwrap(), off_st.data("C").unwrap());
        assert_eq!(
            on_st.data("C").unwrap(),
            reference(&[16]).data("C").unwrap()
        );
        // Identical functional traffic, different schedule.
        assert_eq!(on.moved_in, off.moved_in);
        assert_eq!(on.moved_out, off.moved_out);
        assert_eq!(on.instances, off.instances);
        // The read-only A buffers prefetch ahead of compute…
        assert!(on.overlap_groups > 0, "no prefetches issued");
        assert_eq!(off.overlap_groups, 0);
        // …which hides transfer latency: modeled time cannot get
        // worse, and the DMA engine reports coalesced descriptors.
        assert!(on.modeled_cycles <= off.modeled_cycles);
        assert!(on.dma.descriptors > 0);
        assert!(on.dma.descriptors < on.moved_in + on.moved_out);
        assert!(on.dma.overlap_fraction() > 0.0);
    }

    #[test]
    fn double_buffer_parallel_is_deterministic() {
        let k = blocked_seq();
        let p = window2d();
        let run = |parallel: bool| {
            let mut st = ArrayStore::for_program(&p, &[13]).unwrap();
            st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = true;
            let stats = execute_blocked(&k, &[13], &mut st, &cfg, parallel).unwrap();
            (st, stats)
        };
        let (seq, s1) = run(false);
        let (par, s2) = run(true);
        assert_eq!(seq.data("C").unwrap(), par.data("C").unwrap());
        assert_eq!(s1, s2);
    }

    #[test]
    fn double_buffer_overflow_is_typed() {
        // Find the single-buffer footprint, then give the machine
        // room for one footprint but not two.
        let (_, off) = run_seq(false, &[16]);
        let words = off.max_smem_words;
        assert!(words > 0);
        let k = blocked_seq();
        let p = window2d();
        let run = |double_buffer: bool| {
            let mut st = ArrayStore::for_program(&p, &[16]).unwrap();
            st.fill_with("A", |ix| ix[0] * 1000 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            cfg.smem_bytes = words * cfg.word_bytes + cfg.word_bytes;
            execute_blocked(&k, &[16], &mut st, &cfg, false)
        };
        assert!(run(false).is_ok(), "one footprint must still fit");
        match run(true) {
            Err(MachineError::DoubleBufferOverflow {
                requested,
                available,
            }) => {
                assert!(requested > available);
            }
            other => panic!("expected DoubleBufferOverflow, got {other:?}"),
        }
    }

    #[test]
    fn seq_carried_dep_forces_sync_staging() {
        // A[s][i] = A[s-1][i] + 1 carries a flow dependence on the
        // seq dim `s`, so A's group must stage synchronously; the
        // independent Out[s][i] = B2[s][i] * 2 statement still
        // prefetches B2. Both must stay bit-exact.
        let mut b = ProgramBuilder::new("d", ["N"]);
        b.array("A", &[LinExpr::c(4), v("N")]);
        b.array("B2", &[LinExpr::c(4), v("N")]);
        b.array("Out", &[LinExpr::c(4), v("N")]);
        b.stmt("S1")
            .loops(&[
                ("s", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("A", &[v("s"), v("i")])
            .read("A", &[v("s") - 1, v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Const(1)))
            .done();
        b.stmt("S2")
            .loops(&[
                ("s", LinExpr::c(1), LinExpr::c(3)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .write("Out", &[v("s"), v("i")])
            .read("B2", &[v("s"), v("i")])
            .body(Expr::mul(Expr::Read(0), Expr::Const(2)))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4)], "T")).unwrap();
        let k = BlockedKernel {
            program: t,
            round_dims: vec![],
            block_dims: vec!["iT".into()],
            seq_dims: vec!["s".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        let run = |double_buffer: bool| {
            let mut st = ArrayStore::for_program(&p, &[8]).unwrap();
            st.fill_with("A", |ix| ix[1]).unwrap();
            st.fill_with("B2", |ix| ix[0] * 10 + ix[1]).unwrap();
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            let stats = execute_blocked(&k, &[8], &mut st, &cfg, false).unwrap();
            (st, stats)
        };
        let (off_st, off) = run(false);
        let (on_st, on) = run(true);
        for a in ["A", "Out"] {
            assert_eq!(on_st.data(a).unwrap(), off_st.data(a).unwrap(), "{a}");
        }
        // The recurrence result is the sequential one.
        for i in 0..8 {
            assert_eq!(on_st.get("A", &[3, i]).unwrap(), i + 3);
        }
        assert_eq!(off.sync_groups, 0);
        assert!(
            on.sync_groups > 0,
            "seq-carried dep must pin a group synchronous"
        );
        assert!(
            on.overlap_groups > 0,
            "independent group must still prefetch"
        );
    }

    #[test]
    fn prefetched_hoisted_buffer_with_a_growing_footprint_is_bit_exact() {
        // A is seq-invariant (§4.2 hoisting) yet its footprint grows
        // with `jT` through the coupled dim `j`, so each sub-tile
        // stages it at a new shape: the hoist shortcut misses, A is
        // prefetched, and the move-in must drop the predecessor's
        // parked copy instead of serving it.
        let src = "program grow(N)\n\
                   array A[N]\n\
                   array B[N]\n\
                   S1: for jT = 0 .. 3, j = jT .. jT, i = 0 .. j {\n\
                     B[j] = B[j] + A[i]\n\
                   }\n";
        let p = polymem_ir::parse_program(src).unwrap();
        let k = BlockedKernel {
            program: p.clone(),
            round_dims: vec![],
            block_dims: vec![],
            seq_dims: vec!["jT".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        assert!(seq_redundant_arrays(&k).contains(&p.array_index("A").unwrap()));
        let params = [8i64];
        let init = |st: &mut ArrayStore| st.fill_with("A", |ix| 10 * ix[0] + 1).unwrap();
        let mut want = ArrayStore::for_program(&p, &params).unwrap();
        init(&mut want);
        exec_program(&p, &params, &mut want).unwrap();
        for (double_buffer, residency) in [(false, false), (true, false), (true, true)] {
            let mut cfg = MachineConfig::cell_like();
            cfg.double_buffer = double_buffer;
            cfg.residency = residency;
            let mut st = ArrayStore::for_program(&p, &params).unwrap();
            init(&mut st);
            let stats = execute_blocked(&k, &params, &mut st, &cfg, false).unwrap();
            assert_eq!(stats.overlap_groups > 0, double_buffer, "A prefetch");
            for a in ["A", "B"] {
                assert_eq!(
                    st.data(a).unwrap(),
                    want.data(a).unwrap(),
                    "{a} diverges (double_buffer={double_buffer}, residency={residency})"
                );
            }
        }
    }
}
