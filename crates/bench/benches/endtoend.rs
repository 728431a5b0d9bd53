//! End-to-end benchmark: full-system simulated instructions per second
//! under each prefetcher configuration, plus the pipeline alone.

use psb_bench::micro::{bench, bench_run, group};
use psb_cpu::{CpuConfig, Disambiguation, FixedLatencyMemory, Pipeline};
use psb_sim::{MachineConfig, PrefetcherKind, Simulation};
use psb_workloads::Benchmark;
use std::hint::black_box;
use std::sync::Arc;

fn main() {
    group("sim_throughput");
    // One modest trace, shared by every run: no per-iteration copy.
    let trace = Benchmark::DeltaBlue.shared_trace(1);
    let window = 60_000u64;

    for kind in [PrefetcherKind::None, PrefetcherKind::PcStride, PrefetcherKind::PsbConfPriority] {
        bench_run(kind.label(), || {
            let cfg = MachineConfig::baseline().with_prefetcher(kind);
            let stats = Simulation::new_shared(cfg, black_box(Arc::clone(&trace)), window).run();
            black_box(stats.ipc());
        });
    }
    println!("(throughput basis: {window} committed instructions per iter)");

    group("pipeline");
    // The CPU model alone: a health window against a fixed 20-cycle
    // memory, so the pointer chase leaves the core idle between loads
    // and both the busy-cycle stages and the idle skip are measured.
    let health = Benchmark::Health.shared_trace(1);
    let window = 20_000;
    bench("pipeline_health_window", || {
        let mut mem = FixedLatencyMemory::new(20);
        let stats = Pipeline::new(CpuConfig::baseline()).run(
            black_box(&health[..window]).iter().copied(),
            &mut mem,
            u64::MAX,
        );
        black_box(stats.cycles);
    });
    // Health forwards the most loads of the six benchmarks (23,426 in
    // `results/shootout.json`); without disambiguation each load also
    // waits for every older store, so the store queue and the parked-load
    // wakeups carry the most work.
    bench("pipeline_health_nodis_window", || {
        let mut mem = FixedLatencyMemory::new(20);
        let config = CpuConfig::baseline().with_disambiguation(Disambiguation::WaitForStores);
        let stats = Pipeline::new(config).run(
            black_box(&health[..window]).iter().copied(),
            &mut mem,
            u64::MAX,
        );
        black_box(stats.cycles);
    });
    println!("(pipeline basis: {window} instructions per iter)");

    if let Err(e) = psb_bench::micro::write_json_default() {
        eprintln!("{}: {e}", psb_bench::micro::BENCH_JSON);
    }
}
