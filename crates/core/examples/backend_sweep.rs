//! End-to-end smoke of the public API surface: build a workload, stream it
//! through the k-deep pipelined batch scheduler, then sweep every registered
//! execution backend over the recorded compaction trace — the paper's seven,
//! the PANDA-style in-DRAM bitwise research backend, and a custom GPU
//! registered next to them.
//!
//! ```text
//! cargo run --release -p nmp-pak-core --example backend_sweep
//! ```

use nmp_pak_core::assembler::NmpPakAssembler;
use nmp_pak_core::backend::{BackendId, BackendRegistry, GpuBackend, SimulationContext};
use nmp_pak_core::workload::Workload;
use nmp_pak_pakman::{BatchAssembler, BatchSchedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::tiny(7)?;
    let assembler = NmpPakAssembler::default();
    println!(
        "workload: {} — genome {} bp, {} reads",
        workload.name,
        workload.genome_length().unwrap_or(0),
        workload.reads.len()
    );

    // Streamed batch assembly off a chunked source: the fronts (A–C) of up to
    // three later batches overlap each batch's compaction, with the in-flight
    // reads capped at 2 MB. The output is bit-identical to the sequential
    // schedule.
    let batched = BatchAssembler::with_schedule(
        assembler.pakman,
        0.25,
        BatchSchedule::Pipelined {
            depth: 3,
            max_inflight_bytes: Some(2 << 20),
        },
    )
    .assemble_source(nmp_pak_genome::InMemorySource::chunked(
        &workload.reads,
        workload.reads.len().div_ceil(4),
    ))?;
    println!(
        "streamed assembly: {} batches, {} contigs, N50 = {}, footprint reduction {:.1}x, \
         peak in-flight reads {} KB",
        batched.batch_compaction.len(),
        batched.stats.contig_count,
        batched.stats.n50,
        batched.footprint_reduction(),
        batched.peak_inflight_read_bytes / 1024,
    );

    // Sweep every registered backend on the same trace: the Fig. 12 seven plus
    // the PANDA research configuration appended by the extended registry. One
    // software run produces the trace and layout; only the registry sweep below
    // simulates backends.
    let software = assembler.run_source(workload.source(), BackendId::NMP_PAK)?;
    let (assembly, layout) = (software.assembly, software.layout);
    let trace = assembly.trace.as_ref().expect("trace is forced on");
    let ctx = SimulationContext::new(assembly.footprint.peak_bytes());
    let registry = BackendRegistry::extended(&assembler.system);
    let results = registry.simulate_all(trace, &layout, &ctx);
    let baseline = results
        .iter()
        .find(|r| r.backend == BackendId::CPU_BASELINE)
        .expect("the extended registry simulates the CPU baseline");
    println!(
        "\nbackend sweep over {} compaction iterations:",
        assembly.compaction.iteration_count()
    );
    for result in &results {
        println!(
            "  {:<22} {:>8.3} ms   {:>5.2}x vs baseline   {:>12} external bytes",
            result.label,
            result.runtime_ns / 1e6,
            result.speedup_over(baseline),
            result.traffic.total_bytes(),
        );
    }
    let panda = results
        .iter()
        .find(|r| r.backend == BackendId::PANDA)
        .expect("the extended registry simulates PANDA");
    assert!(
        panda.speedup_over(baseline) > 1.0,
        "in-DRAM bitwise execution must beat the CPU baseline"
    );

    // Register a custom backend next to the standard configurations and run it
    // through the same trait-object path.
    let mut registry = registry;
    registry.register(Box::new(GpuBackend::custom(
        BackendId::new("gpu-80gb"),
        "GPU-80GB",
        assembler.system.dram,
        nmp_pak_memsim::GpuConfig::a100_80gb(),
    )));
    let custom = registry
        .get(BackendId::new("gpu-80gb"))
        .expect("just registered");
    let run = assembler.run_with(&workload, custom)?;
    println!(
        "\ncustom backend {}: {:.3} ms, capacity check fits = {}",
        run.backend_result.label,
        run.backend_result.runtime_ns / 1e6,
        custom
            .capacity_check(run.assembly.footprint.peak_bytes())
            .fits()
    );

    Ok(())
}
