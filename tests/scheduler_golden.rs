//! Golden counters for the block executor's sub-tile scheduler.
//!
//! Every built-in kernel at size 16 runs on the gpu, cell and spatial
//! machine descriptions in three schedules — the canonical mapping,
//! the sequential-sub-tile mapping staged synchronously, and the same
//! mapping double-buffered — with the residency pass on and off and
//! the register level on. Each run's full `ExecStats` equality field
//! set (modeled cycles, DMA stats, moved/retained/delta/flushed counts,
//! overlap/sync groups, …) plus a checksum of the output array must
//! match the recorded table exactly. The table pins the scheduler's
//! observable behaviour, so a restructuring of the executor cannot
//! silently move a single counter or cycle.

use polymem::ir::ArrayStore;
use polymem::machine::{desc, execute_blocked, ExecStats};
use polymem::serve::workload;

const SIZE: i64 = 16;

/// (label, sequential-sub-tile mapping, double buffering)
const SCHEDULES: [(&str, bool, bool); 3] = [
    ("canonical", false, false),
    ("seq-sync", true, false),
    ("seq-db", true, true),
];

fn line(kernel: &str, machine: &str, schedule: &str, residency: bool) -> String {
    let (_, seq, db) = SCHEDULES
        .iter()
        .copied()
        .find(|(s, _, _)| *s == schedule)
        .expect("known schedule");
    let w = workload::resolve(kernel, SIZE, seq).expect("built-in kernel");
    let mut cfg = desc::lookup(machine).expect("registered machine").config();
    cfg.double_buffer = db;
    cfg.hierarchy = true;
    cfg.residency = cfg.residency && residency;
    let mut st = ArrayStore::for_program(&w.program, &w.params).unwrap();
    workload::init(kernel, &mut st);
    let s: ExecStats = execute_blocked(&w.kernel, &w.params, &mut st, &cfg, false)
        .unwrap_or_else(|e| panic!("{kernel}/{machine}/{schedule}: {e}"));
    let d = &s.dma;
    format!(
        "{kernel} {machine} {schedule} res={} | blocks={} inst={} gr={} gw={} sr={} sw={} \
         in={} out={} rounds={} smem={} hits={} misses={} bcy={} cy={} ovl={} sync={} \
         saved={} regb={} hier={} ret={} delta={} flushed={} resg={} | dma desc={} elem={} \
         bytes={} busy={:?} stall={} hist={:?} | sum={:016x}",
        if residency { "on" } else { "off" },
        s.blocks,
        s.instances,
        s.global_reads,
        s.global_writes,
        s.smem_reads,
        s.smem_writes,
        s.moved_in,
        s.moved_out,
        s.rounds,
        s.max_smem_words,
        s.plan_cache_hits,
        s.plan_cache_misses,
        s.block_cycles,
        s.modeled_cycles,
        s.overlap_groups,
        s.sync_groups,
        s.smem_loads_saved,
        s.reg_bytes_moved,
        s.hier_groups,
        s.retained_elems,
        s.delta_elems,
        s.flushed_delta_elems,
        s.residency_groups,
        d.descriptors,
        d.elements,
        d.bytes,
        d.channel_busy_cycles,
        d.stall_cycles,
        d.bytes_hist,
        workload::checksum(st.data(w.check).unwrap()),
    )
}

#[test]
fn scheduler_counters_match_the_recorded_table() {
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut actual = Vec::new();
    for kernel in workload::KERNELS {
        for machine in ["gpu", "cell", "spatial"] {
            for (schedule, _, _) in SCHEDULES {
                for residency in [false, true] {
                    actual.push(line(kernel, machine, schedule, residency));
                }
            }
        }
    }
    let diverged: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != e.trim())
        .map(|(a, e)| format!("expected {}\n  actual {a}", e.trim()))
        .collect();
    assert!(
        diverged.is_empty() && actual.len() == expected.len(),
        "{} of {} scheduler cases diverged ({} expected rows):\n{}",
        diverged.len(),
        actual.len(),
        expected.len(),
        diverged.join("\n")
    );
}

/// Recorded before the sub-tile scheduler was unified; never edit.
const GOLDEN: &str = r#"
me gpu canonical res=off | blocks=16 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=32032 cy=4802 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[5008, 5008, 4864, 4864, 0, 0, 0, 0] stall=19744 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me gpu canonical res=on | blocks=16 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=32032 cy=4802 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[5008, 5008, 4864, 4864, 0, 0, 0, 0] stall=19744 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me gpu seq-sync res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=32032 cy=10208 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[2504, 2504, 2432, 2432, 2504, 2504, 2432, 2432] stall=19744 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me gpu seq-sync res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=3840 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=31888 cy=10172 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[2480, 2480, 2432, 2432, 2456, 2456, 2432, 2432] stall=19600 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me gpu seq-db res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=24520 cy=8330 ovl=24 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[3720, 2468, 2432, 2504, 2504, 2432, 2432, 1252] stall=12232 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me gpu seq-db res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=3840 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=24520 cy=8330 ovl=24 sync=0 saved=12288 regb=16384 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[3696, 2468, 2432, 2456, 2456, 2432, 2432, 1228] stall=12232 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell canonical res=off | blocks=16 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=34336 cy=30292 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[3600, 3600, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13856 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell canonical res=on | blocks=16 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=34336 cy=30292 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[3600, 3600, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13856 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell seq-sync res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=34336 cy=22584 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[900, 900, 832, 832, 900, 900, 832, 832, 900, 900, 832, 832, 900, 900, 832, 832] stall=13856 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell seq-sync res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=3840 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=34072 cy=22518 ovl=0 sync=0 saved=12288 regb=16384 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[900, 900, 832, 832, 856, 856, 832, 832, 856, 856, 832, 832, 856, 856, 832, 832] stall=13592 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell seq-db res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=3840 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=28936 cy=21234 ovl=24 sync=0 saved=12288 regb=16384 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[900, 900, 832, 900, 900, 832, 832, 900, 900, 832, 832, 900, 900, 832, 832, 832] stall=8456 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me cell seq-db res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=3840 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=28936 cy=21234 ovl=24 sync=0 saved=12288 regb=16384 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[900, 900, 832, 856, 856, 832, 832, 856, 856, 832, 832, 856, 856, 832, 832, 832] stall=8456 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial canonical res=off | blocks=16 inst=4096 gr=1824 gw=256 sr=6144 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=31776 cy=5626 ovl=0 sync=0 saved=8192 regb=9216 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[5584, 5584, 5056, 5056] stall=21280 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial canonical res=on | blocks=16 inst=4096 gr=1824 gw=256 sr=6144 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=31776 cy=5626 ovl=0 sync=0 saved=8192 regb=9216 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[5584, 5584, 5056, 5056] stall=21280 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial seq-sync res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=6144 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=26656 cy=9744 ovl=0 sync=0 saved=8192 regb=9216 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[4304, 4304, 3776, 3776] stall=16160 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial seq-sync res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=6144 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=26152 cy=9618 ovl=0 sync=0 saved=8192 regb=9216 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[4052, 4052, 3776, 3776] stall=15656 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial seq-db res=off | blocks=4 inst=4096 gr=1824 gw=256 sr=6144 sw=256 in=1824 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=20200 cy=8130 ovl=24 sync=0 saved=8192 regb=9216 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2080 bytes=8320 busy=[5248, 3908, 3776, 3228] stall=9704 hist=[0, 0, 0, 0, 0, 0, 32, 32, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
me spatial seq-db res=on | blocks=4 inst=4096 gr=1320 gw=256 sr=6144 sw=256 in=1320 out=256 rounds=1 smem=114 hits=16 misses=1 bcy=20200 cy=8130 ovl=24 sync=0 saved=8192 regb=9216 hier=64 ret=504 delta=672 flushed=0 resg=24 | dma desc=64 elem=1576 bytes=6304 busy=[4996, 3908, 3776, 2976] stall=9704 hist=[0, 0, 0, 0, 0, 0, 56, 8, 0, 0, 0, 0, 0, 0, 0, 0] | sum=64e492310ec18553
jacobi gpu canonical res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi gpu canonical res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi gpu seq-sync res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi gpu seq-sync res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi gpu seq-db res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi gpu seq-db res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=8640 cy=12720 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell canonical res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell canonical res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell seq-sync res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell seq-sync res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell seq-db res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi cell seq-db res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=54536 cy=75268 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial canonical res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial canonical res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial seq-sync res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial seq-sync res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial seq-db res=off | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi spatial seq-db res=on | blocks=8 inst=136 gr=408 gw=136 sr=0 sw=0 in=0 out=0 rounds=4 smem=0 hits=0 misses=0 bcy=32776 cy=28548 ovl=0 sync=0 saved=0 regb=0 hier=0 ret=0 delta=0 flushed=0 resg=0 | dma desc=0 elem=0 bytes=0 busy=[0, 0, 0, 0] stall=0 hist=[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=b16889586888cad9
jacobi2d gpu canonical res=off | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=41067 cy=11796 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[22710, 22623, 22575, 18060, 18060, 13545, 0, 0] stall=22710 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d gpu canonical res=on | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=41067 cy=11796 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[22710, 22623, 22575, 18060, 18060, 13545, 0, 0] stall=22710 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d gpu seq-sync res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=41067 cy=15885 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[13581, 13587, 19869, 18966, 18066, 17163, 8172, 8169] stall=22710 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d gpu seq-sync res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=0 in=1344 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=41004 cy=15867 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=399 elem=1344 bytes=5376 busy=[16293, 16278, 17166, 18966, 16257, 14454, 11754, 9051] stall=22647 hist=[0, 0, 24, 267, 96, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d gpu seq-db res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=24717 cy=12294 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[16290, 17199, 18966, 18966, 15357, 14454, 8172, 8169] stall=6360 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d gpu seq-db res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=0 in=1344 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=24696 cy=12288 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=399 elem=1344 bytes=5376 busy=[14496, 18987, 18963, 16257, 16257, 14454, 11754, 9051] stall=6339 hist=[0, 0, 24, 267, 96, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell canonical res=off | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=768 in=1728 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=45777 cy=113640 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=465 elem=2496 bytes=9984 busy=[15411, 15219, 15075, 15087, 12060, 12120, 9288, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=30801 hist=[0, 0, 6, 267, 51, 87, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell canonical res=on | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=768 in=1728 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=45777 cy=113640 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=465 elem=2496 bytes=9984 busy=[15411, 15219, 15075, 15087, 12060, 12120, 9288, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=30801 hist=[0, 0, 6, 267, 51, 87, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell seq-sync res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=768 in=1728 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=45777 cy=54936 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=465 elem=2496 bytes=9984 busy=[6156, 6129, 8442, 7857, 7260, 7251, 5514, 5511, 5526, 5445, 5430, 5445, 4848, 4899, 3684, 4863] stall=30801 hist=[0, 0, 6, 267, 51, 87, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell seq-sync res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=768 in=1344 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=45594 cy=54888 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=474 elem=2112 bytes=8448 busy=[7911, 7881, 6054, 8463, 7848, 6057, 5559, 6054, 5448, 5445, 5448, 5448, 5460, 4842, 4962, 3033] stall=30618 hist=[0, 0, 27, 273, 114, 33, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell seq-db res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=768 in=1728 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=26085 cy=50616 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=465 elem=2496 bytes=9984 busy=[6123, 6120, 7854, 7260, 7248, 6108, 5511, 5526, 5445, 5430, 5442, 4848, 4881, 5499, 5535, 5430] stall=11109 hist=[0, 0, 6, 267, 51, 87, 54, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d cell seq-db res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=768 in=1344 out=768 rounds=3 smem=52 hits=75 misses=1 bcy=26016 cy=50598 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=474 elem=2112 bytes=8448 busy=[6162, 7875, 8514, 7860, 7872, 7863, 6057, 5448, 5445, 5448, 5448, 5457, 4842, 4944, 3639, 3039] stall=11040 hist=[0, 0, 27, 273, 114, 33, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial canonical res=off | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=100308 cy=16848 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[30276, 34479, 49941, 34752] stall=50676 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial canonical res=on | blocks=75 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=100308 cy=16848 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[30276, 34479, 49941, 34752] stall=50676 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial seq-sync res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=79668 cy=28368 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[18375, 19065, 27348, 22740] stall=30036 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial seq-sync res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=0 in=1344 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=77094 cy=27738 ovl=0 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=399 elem=1344 bytes=5376 busy=[22851, 20157, 22722, 23394] stall=27462 hist=[0, 0, 24, 267, 96, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial seq-db res=off | blocks=15 inst=768 gr=1728 gw=768 sr=2784 sw=0 in=1728 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=55740 cy=23040 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=0 delta=0 flushed=0 resg=0 | dma desc=390 elem=1728 bytes=6912 busy=[19044, 19065, 26679, 22740] stall=6108 hist=[0, 0, 3, 261, 33, 66, 27, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
jacobi2d spatial seq-db res=on | blocks=15 inst=768 gr=1344 gw=768 sr=2784 sw=0 in=1344 out=0 rounds=3 smem=36 hits=75 misses=1 bcy=55734 cy=23040 ovl=60 sync=0 saved=2304 regb=4992 hier=240 ret=384 delta=1014 flushed=0 resg=60 | dma desc=399 elem=1344 bytes=5376 busy=[22191, 20817, 22071, 24045] stall=6102 hist=[0, 0, 24, 267, 96, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] | sum=d65d65960507bf0c
matmul gpu canonical res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=6656 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=38272 cy=5192 ovl=0 sync=0 saved=8192 regb=12288 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[5056, 5056, 4864, 4864, 0, 0, 0, 0] stall=19840 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul gpu canonical res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=6656 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=38272 cy=5192 ovl=0 sync=0 saved=8192 regb=12288 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[5056, 5056, 4864, 4864, 0, 0, 0, 0] stall=19840 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul gpu seq-sync res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=45824 cy=5664 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[4928, 4928, 4864, 4928, 4928, 4864, 0, 0] stall=29440 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul gpu seq-sync res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=45824 cy=5664 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[4928, 4928, 4864, 4928, 4928, 4864, 0, 0] stall=29440 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul gpu seq-db res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=35968 cy=5048 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[4928, 4928, 4864, 4928, 4928, 4864, 0, 0] stall=19584 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul gpu seq-db res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=35968 cy=5048 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[4928, 4928, 4864, 4928, 4928, 4864, 0, 0] stall=19584 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell canonical res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=10752 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=63232 cy=33904 ovl=0 sync=0 saved=12288 regb=45056 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[3712, 3712, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=14080 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell canonical res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=10752 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=63232 cy=33904 ovl=0 sync=0 saved=12288 regb=45056 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[3712, 3712, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=14080 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell seq-sync res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=49152 cy=32144 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[3456, 3456, 3328, 3456, 3456, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=20480 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell seq-sync res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=49152 cy=32144 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[3456, 3456, 3328, 3456, 3456, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=20480 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell seq-db res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=42240 cy=31280 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[3456, 3456, 3328, 3456, 3456, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13568 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul cell seq-db res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=42240 cy=31280 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[3456, 3456, 3328, 3456, 3456, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13568 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial canonical res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=6656 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=33024 cy=5704 ovl=0 sync=0 saved=8192 regb=12288 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[5824, 5824, 5056, 5056] stall=21760 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial canonical res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=6656 sw=512 in=2304 out=256 rounds=1 smem=144 hits=16 misses=1 bcy=33024 cy=5704 ovl=0 sync=0 saved=8192 regb=12288 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=2560 bytes=10240 busy=[5824, 5824, 5056, 5056] stall=21760 hist=[0, 0, 0, 0, 0, 0, 32, 0, 32, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial seq-sync res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=41600 cy=6400 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[10624, 10368, 5056, 5312] stall=31360 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial seq-sync res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=41600 cy=6400 ovl=0 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[10624, 10368, 5056, 5312] stall=31360 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial seq-db res=off | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=31712 cy=5668 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[10624, 10368, 5056, 5312] stall=21472 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
matmul spatial seq-db res=on | blocks=16 inst=4096 gr=2304 gw=256 sr=5632 sw=512 in=2304 out=256 rounds=1 smem=80 hits=32 misses=1 bcy=31712 cy=5668 ovl=32 sync=0 saved=8192 regb=8192 hier=128 ret=0 delta=0 flushed=0 resg=0 | dma desc=96 elem=2560 bytes=10240 busy=[10624, 10368, 5056, 5312] stall=21472 hist=[0, 0, 0, 0, 0, 0, 32, 64, 0, 0, 0, 0, 0, 0, 0, 0] | sum=6d2cecce3e2fc89f
conv2d gpu canonical res=off | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=26304 cy=4444 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[4944, 4848, 4864, 4864, 0, 0, 0, 0] stall=19520 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d gpu canonical res=on | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=26304 cy=4444 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[4944, 4848, 4864, 4864, 0, 0, 0, 0] stall=19520 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d gpu seq-sync res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=22668 cy=7867 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[2452, 2428, 2452, 2432, 2452, 1216, 1216, 1236] stall=15884 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d gpu seq-sync res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=22632 cy=7858 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[2452, 2428, 2440, 2432, 2440, 1216, 1216, 1224] stall=15848 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d gpu seq-db res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=18960 cy=6940 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[2452, 2448, 2432, 2452, 2432, 1216, 1236, 1216] stall=12176 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d gpu seq-db res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=18960 cy=6940 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[2452, 2436, 2432, 2440, 2432, 1216, 1224, 1216] stall=12176 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell canonical res=off | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=24688 cy=29086 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[3488, 3280, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13424 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell canonical res=on | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=24688 cy=29086 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[3488, 3280, 3328, 3328, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] stall=13424 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell seq-sync res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=22228 cy=19557 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[872, 820, 832, 832, 872, 832, 832, 872, 832, 832, 872, 832, 832, 0, 0, 0] stall=10964 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell seq-sync res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=22156 cy=19539 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[872, 820, 832, 832, 848, 832, 832, 848, 832, 832, 848, 832, 832, 0, 0, 0] stall=10892 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell seq-db res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=19612 cy=18903 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[872, 820, 832, 872, 832, 832, 872, 832, 832, 872, 832, 832, 832, 0, 0, 0] stall=8348 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d cell seq-db res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=19612 cy=18903 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[872, 820, 832, 848, 832, 832, 848, 832, 832, 848, 832, 832, 832, 0, 0, 0] stall=8348 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial canonical res=off | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=24976 cy=5201 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[5376, 4944, 5056, 5056] stall=20432 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial canonical res=on | blocks=16 inst=2304 gr=976 gw=256 sr=1984 sw=256 in=976 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=24976 cy=5201 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=64 elem=1232 bytes=4928 busy=[5376, 4944, 5056, 5056] stall=20432 hist=[0, 0, 0, 0, 0, 16, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial seq-sync res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=17108 cy=7357 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[3936, 2804, 2912, 2912] stall=12564 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial seq-sync res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=16964 cy=7321 ovl=0 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[3888, 2804, 2864, 2864] stall=12420 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial seq-db res=off | blocks=4 inst=2304 gr=868 gw=256 sr=1984 sw=256 in=868 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=14036 cy=6589 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=0 delta=0 flushed=0 resg=0 | dma desc=52 elem=1124 bytes=4496 busy=[3856, 2884, 2912, 2912] stall=9492 hist=[0, 0, 0, 0, 0, 4, 32, 16, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
conv2d spatial seq-db res=on | blocks=4 inst=2304 gr=724 gw=256 sr=1984 sw=256 in=724 out=256 rounds=1 smem=61 hits=16 misses=1 bcy=14036 cy=6589 ovl=12 sync=0 saved=6912 regb=8960 hier=64 ret=144 delta=288 flushed=0 resg=12 | dma desc=52 elem=980 bytes=3920 busy=[3856, 2836, 2864, 2864] stall=9492 hist=[0, 0, 0, 0, 0, 4, 44, 4, 0, 0, 0, 0, 0, 0, 0, 0] | sum=7f7ea9f344fa70c5
"#;
