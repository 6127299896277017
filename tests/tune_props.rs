//! Property tests for the autotuner's analytic cost estimator and
//! pruning behaviour.
//!
//! The gates mirror the claims the tuner's design rests on: the
//! estimator's predicted ranking is good enough that the top-K
//! frontier contains the true simulated optimum, and its traffic term
//! is monotone — a mapping with strictly less reuse never gets charged
//! fewer global bytes.

use polymem::core::smem::tune::{estimate, CostEstimate, MappingDesc};
use polymem::ir::{init_random_store, parse_program, random_program, ArrayStore};
use polymem::kernels::tunespace;
use polymem::machine::{
    config_for, cost_constants, desc, generic_candidates, structure_of, tune, warm_plan,
    MachineConfig, MachineError, TuneOptions,
};

/// Price one mapping of a built-in kernel with the analytic estimator
/// (no simulation).
fn price(name: &str, desc: &MappingDesc, base: &MachineConfig, size: i64) -> CostEstimate {
    let kernel = tunespace::build(name, desc).expect("desc rebuilds");
    let (_, params, _) = tunespace::workload(name, size).expect("workload");
    let cfg = config_for(desc, base);
    let st = structure_of(&kernel, &params, &cfg).expect("structure");
    let sp = if kernel.use_scratchpad {
        warm_plan(&kernel, &params, &cfg, None, None)
            .expect("plan")
            .map(|(sp, _)| sp)
    } else {
        None
    };
    estimate(
        &kernel.program,
        sp.as_deref(),
        &params,
        &st,
        &cost_constants(&cfg),
    )
    .expect("estimate")
}

fn square_desc(
    ti: i64,
    tj: i64,
    seq_last: bool,
    residency: bool,
    base: &MachineConfig,
) -> MappingDesc {
    let (block_dims, seq_dims) = if seq_last {
        (vec!["iT".into()], vec!["jT".into()])
    } else {
        (vec!["iT".into(), "jT".into()], vec![])
    };
    MappingDesc {
        scheme: "tile".into(),
        tiles: vec![("i".into(), ti), ("j".into(), tj)],
        round_dims: vec![],
        block_dims,
        seq_dims,
        thread_dims: vec!["i".into()],
        use_scratchpad: true,
        double_buffer: false,
        hierarchy: false,
        residency,
        vector_width: base.vector_width,
    }
}

/// Shrinking the tile shrinks the window reuse each staged tile
/// amortizes (the halo is re-loaded per tile), so the estimator must
/// never predict *fewer* global bytes for a smaller tile.
#[test]
fn estimator_traffic_is_monotone_in_tile_reuse() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["conv2d", "me"] {
        let mut prev: Option<(i64, u64)> = None;
        for t in [2i64, 4, 8] {
            let e = price(name, &square_desc(t, t, false, true, &base), &base, 16);
            if let Some((pt, pb)) = prev {
                assert!(
                    pb >= e.global_bytes,
                    "{name}: tile {pt} predicted {pb} B < tile {t}'s {} B — \
                     smaller tiles must never be charged less traffic",
                    e.global_bytes
                );
            }
            prev = Some((t, e.global_bytes));
        }
    }
}

/// Disabling residency re-stages each group's full window at every
/// sequential sub-tile instead of transferring the delta: strictly
/// less reuse, so never fewer predicted global bytes — and with a
/// genuine overlap, strictly more.
#[test]
fn estimator_charges_no_residency_at_least_as_much() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["conv2d", "me"] {
        let with = price(name, &square_desc(4, 4, true, true, &base), &base, 16);
        let without = price(name, &square_desc(4, 4, true, false, &base), &base, 16);
        assert!(
            without.global_bytes >= with.global_bytes,
            "{name}: no-residency predicted {} B < residency's {} B",
            without.global_bytes,
            with.global_bytes
        );
    }
}

/// An unstaged mapping (every access to global memory) must never be
/// charged fewer global accesses than the staged one.
#[test]
fn estimator_charges_unstaged_at_least_as_many_global_accesses() {
    let base = MachineConfig::geforce_8800_gtx();
    let staged = square_desc(4, 4, false, true, &base);
    let unstaged = MappingDesc {
        use_scratchpad: false,
        ..staged.clone()
    };
    for name in ["conv2d", "me", "jacobi2d"] {
        let s = price(name, &staged, &base, 16);
        let u = price(name, &unstaged, &base, 16);
        assert!(
            u.global_accesses >= s.global_accesses,
            "{name}: unstaged {} global accesses < staged {}",
            u.global_accesses,
            s.global_accesses
        );
        assert!(u.predicted_cycles >= s.predicted_cycles, "{name}");
    }
}

/// On a small space simulated exhaustively, the pruned top-K frontier
/// must contain the true optimum (same winning cycles), while
/// simulating at least 5× fewer candidates.
#[test]
fn pruned_frontier_contains_the_simulated_optimum() {
    let base = MachineConfig::geforce_8800_gtx();
    for name in ["matmul", "me"] {
        let cands = tunespace::candidates(name, &base, true).expect("space");
        let (program, params, _) = tunespace::workload(name, 8).expect("workload");
        let init = |st: &mut ArrayStore| tunespace::init_store(name, st, 42);
        let exhaustive = tune(
            &program,
            &params,
            &init,
            &cands,
            &base,
            &TuneOptions {
                exhaustive: true,
                space_label: format!("props:{name}:ex"),
                ..TuneOptions::default()
            },
        )
        .expect("exhaustive tune");
        let pruned = tune(
            &program,
            &params,
            &init,
            &cands,
            &base,
            &TuneOptions {
                top_k: 2,
                space_label: format!("props:{name}:pruned"),
                ..TuneOptions::default()
            },
        )
        .expect("pruned tune");
        assert_eq!(
            pruned.winner_cycles, exhaustive.winner_cycles,
            "{name}: pruned winner ({} cycles) missed the true optimum ({} cycles)",
            pruned.winner_cycles, exhaustive.winner_cycles
        );
        assert!(
            exhaustive.simulated >= 5 * pruned.simulated,
            "{name}: pruning only cut {} -> {} simulations",
            exhaustive.simulated,
            pruned.simulated
        );
        // Every simulated candidate was bit-exact.
        for r in &pruned.rows {
            assert!(
                r.simulated.is_none() || r.exact,
                "{name}: simulated candidate {} diverged",
                r.desc.label()
            );
        }
    }
}

/// ir::gen seeds whose outer band is all-carried: the §4.1 rule labels
/// every band loop but the last as space (pipelined, skewed execution),
/// and mapping those loops to parallel blocks without skewing computes
/// wrong outputs.
const CARRIED_BAND_SEEDS: [u64; 7] = [3, 15, 16, 33, 36, 39, 41];

#[test]
fn generic_candidates_keep_carried_loops_off_parallel_blocks() {
    for seed in CARRIED_BAND_SEEDS {
        let program = random_program(seed);
        let params = [16i64];
        for machine in ["gpu", "cell"] {
            let base = desc::lookup(machine).unwrap().config();
            let cands = generic_candidates(&program, &params, &base, &[2, 4, 8, 16]).unwrap();
            let p = program.clone();
            let init = move |st: &mut ArrayStore| init_random_store(&p, st, 42);
            let out = tune(
                &program,
                &params,
                &init,
                &cands,
                &base,
                &TuneOptions {
                    workers: 2,
                    space_label: format!("props:carried:{seed}"),
                    ..TuneOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed} on {machine}: {e}"));
            assert!(out.simulated > 0, "seed {seed} on {machine}");
            for r in &out.rows {
                assert!(
                    r.exact,
                    "seed {seed} on {machine}: {} diverged",
                    r.desc.label()
                );
            }
        }
    }
}

#[test]
fn tune_failures_are_typed() {
    let program = random_program(0);
    let err = tune(
        &program,
        &[8],
        &|_: &mut ArrayStore| {},
        &[],
        &MachineConfig::geforce_8800_gtx(),
        &TuneOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, MachineError::Tune(_)), "{err:?}");
    assert_eq!(err.to_string(), "tune: empty candidate space");
}

/// Candidate spaces of the `.poly` examples in the benchmark's tune mix.
/// blur3 carries no dependence and seidel tiles nothing, so keeping
/// carried loops off parallel blocks must leave both lists as they are.
#[test]
fn poly_example_candidate_lists_are_unchanged() {
    let labels = |name: &str, params: &[i64], machine: &str| -> Vec<String> {
        let src = std::fs::read_to_string(format!(
            "{}/examples/kernels/{name}.poly",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        let program = parse_program(&src).unwrap();
        let base = desc::lookup(machine).unwrap().config();
        generic_candidates(&program, params, &base, &[2, 4, 8, 16])
            .unwrap()
            .iter()
            .map(|c| c.desc.label())
            .collect()
    };
    for (machine, vw) in [("gpu", "vw8"), ("cell", "vw4")] {
        let blur3: Vec<String> = BLUR3_CANDIDATES
            .lines()
            .filter(|l| !l.is_empty())
            .map(|l| l.replace("vw8", vw))
            .collect();
        assert_eq!(
            labels("blur3", &[16, 4], machine),
            blur3,
            "blur3 on {machine}"
        );
        assert_eq!(
            labels("seidel", &[4, 16], machine),
            [
                format!("tile[] rnd[t] spad {vw}"),
                format!("tile[] rnd[t] {vw}")
            ],
            "seidel on {machine}"
        );
    }
}

const BLUR3_CANDIDATES: &str = "
tile[r=2,i=2] blk[rT,iT] thr[r] spad vw8
tile[r=2,i=2] blk[rT,iT] thr[r] vw8
tile[r=2,i=2] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=2,i=2] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=2,i=4] blk[rT,iT] thr[r] spad vw8
tile[r=2,i=4] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=2,i=4] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=2,i=8] blk[rT,iT] thr[r] spad vw8
tile[r=2,i=8] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=2,i=8] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=2,i=16] blk[rT,iT] thr[r] spad vw8
tile[r=2,i=16] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=2,i=16] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=4,i=2] blk[rT,iT] thr[r] spad vw8
tile[r=4,i=2] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=4,i=2] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=4,i=4] blk[rT,iT] thr[r] spad vw8
tile[r=4,i=4] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=4,i=4] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=4,i=8] blk[rT,iT] thr[r] spad vw8
tile[r=4,i=8] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=4,i=8] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=4,i=16] blk[rT,iT] thr[r] spad vw8
tile[r=4,i=16] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=4,i=16] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=8,i=2] blk[rT,iT] thr[r] spad vw8
tile[r=8,i=2] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=8,i=2] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=8,i=4] blk[rT,iT] thr[r] spad vw8
tile[r=8,i=4] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=8,i=4] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=8,i=8] blk[rT,iT] thr[r] spad vw8
tile[r=8,i=8] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=8,i=8] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=8,i=16] blk[rT,iT] thr[r] spad vw8
tile[r=8,i=16] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=8,i=16] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=16,i=2] blk[rT,iT] thr[r] spad vw8
tile[r=16,i=2] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=16,i=2] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=16,i=4] blk[rT,iT] thr[r] spad vw8
tile[r=16,i=4] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=16,i=4] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=16,i=8] blk[rT,iT] thr[r] spad vw8
tile[r=16,i=8] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=16,i=8] blk[rT] seq[iT] thr[r] spad db res vw8
tile[r=16,i=16] blk[rT,iT] thr[r] spad vw8
tile[r=16,i=16] blk[rT] seq[iT] thr[r] spad res vw8
tile[r=16,i=16] blk[rT] seq[iT] thr[r] spad db res vw8
";
