//! The top-level NMP-PaK assembler API.
//!
//! [`NmpPakAssembler::run`] performs the complete flow of the paper: run the
//! software-optimized PaKman pipeline on the reads (recording the Iterative
//! Compaction trace), lay the MacroNodes out across the DIMMs, and simulate the
//! compaction phase on the selected execution backend. The result bundles the
//! assembly output (contigs, N50, footprint) with the hardware-simulation result
//! (runtime, traffic, bandwidth, communication locality).
//!
//! Backends are selected by [`BackendId`] from the seven §5.3 configurations
//! of the [`BackendRegistry`].

use crate::backend::{
    Backend, BackendId, BackendRegistry, BackendResult, SimulationContext, SystemConfig,
};
use crate::workload::Workload;
use nmp_pak_genome::ReadSource;
use nmp_pak_memsim::NodeLayout;
use nmp_pak_pakman::{AssemblyOutput, PakmanAssembler, PakmanConfig, PakmanError};

/// The complete result of one system run.
#[derive(Debug)]
pub struct SystemRun {
    /// Software assembly output (contigs, quality, phase timings, compaction stats).
    pub assembly: AssemblyOutput,
    /// The MacroNode layout used by the hardware simulation.
    pub layout: NodeLayout,
    /// The backend simulation result for the Iterative Compaction phase.
    pub backend_result: BackendResult,
}

/// Top-level assembler: software pipeline plus backend simulation.
#[derive(Debug, Clone)]
pub struct NmpPakAssembler {
    /// PaKman software configuration.
    pub pakman: PakmanConfig,
    /// Machine configuration for the backend simulations.
    pub system: SystemConfig,
}

impl Default for NmpPakAssembler {
    fn default() -> Self {
        NmpPakAssembler {
            pakman: PakmanConfig {
                k: 21,
                min_kmer_count: 2,
                compaction_node_threshold: 100,
                threads: 4,
                record_trace: true,
                ..PakmanConfig::default()
            },
            system: SystemConfig::default(),
        }
    }
}

impl NmpPakAssembler {
    /// Creates an assembler with explicit configurations.
    pub fn new(pakman: PakmanConfig, system: SystemConfig) -> Self {
        let pakman = PakmanConfig {
            record_trace: true,
            ..pakman
        };
        NmpPakAssembler { pakman, system }
    }

    /// The standard backend registry for this assembler's machine configuration
    /// (the seven §5.3 configurations, in Fig. 12 order).
    pub fn registry(&self) -> BackendRegistry {
        BackendRegistry::standard(&self.system)
    }

    /// The step every run shares: lays the trace `assembly` recorded out
    /// across the DIMMs and simulates each of `backends` on it, in order. The
    /// trace stays where it was recorded.
    pub(crate) fn replay<'b>(
        &self,
        assembly: &AssemblyOutput,
        backends: impl IntoIterator<Item = &'b Backend>,
    ) -> (NodeLayout, Vec<BackendResult>) {
        let trace = assembly
            .trace
            .as_ref()
            .expect("trace recording is forced on by NmpPakAssembler");
        let layout = NodeLayout::new(&trace.initial_sizes, &self.system.dram);
        let ctx = Self::context_for(assembly);
        let results = backends
            .into_iter()
            .map(|backend| backend.simulate(trace, &layout, &ctx))
            .collect();
        (layout, results)
    }

    /// The standard backend with id `id`.
    fn standard_backend(&self, id: BackendId) -> Result<Backend, PakmanError> {
        self.registry()
            .get(id)
            .copied()
            .ok_or_else(|| PakmanError::InvalidConfig {
                message: format!("backend id `{id}` is not in the standard registry"),
            })
    }

    /// [`NmpPakAssembler::replay`] on one backend.
    fn system_run(&self, assembly: AssemblyOutput, backend: &Backend) -> SystemRun {
        let (layout, mut results) = self.replay(&assembly, [backend]);
        let backend_result = results.pop().expect("one backend, one result");
        SystemRun {
            assembly,
            layout,
            backend_result,
        }
    }

    /// Runs the pipeline on `workload` and simulates compaction on the standard
    /// backend with id `backend`.
    ///
    /// # Errors
    ///
    /// Propagates configuration and empty-input errors from the software
    /// pipeline, and returns [`PakmanError::InvalidConfig`] for an id that is not
    /// in the standard registry.
    pub fn run(
        &self,
        workload: &Workload,
        backend: impl Into<BackendId>,
    ) -> Result<SystemRun, PakmanError> {
        let backend = self.standard_backend(backend.into())?;
        let assembly = PakmanAssembler::new(self.pakman).assemble(&workload.reads)?;
        Ok(self.system_run(assembly, &backend))
    }

    /// The simulation context for an assembly: peak footprint plus — when the
    /// software ran sharded — the full *measured* sharding telemetry, so
    /// spatial backends stop assuming perfectly uniform work: scalar-only
    /// models read the derived load-imbalance factor, while the NMP channel
    /// model folds per-shard work and the mailbox flush ledger onto its
    /// channels directly.
    pub fn context_for(assembly: &AssemblyOutput) -> SimulationContext {
        let ctx = SimulationContext::new(assembly.footprint.peak_bytes());
        match &assembly.sharding {
            Some(telemetry) => ctx.with_sharding(telemetry.clone()),
            None => ctx,
        }
    }

    /// Runs the pipeline over a streaming [`ReadSource`] (a FASTA/FASTQ file, a
    /// synthetic generator, chunked in-memory reads) and simulates compaction on
    /// the standard backend with id `backend`. The reads stream through stage A
    /// without a `Workload` ever being materialized by the caller.
    ///
    /// # Errors
    ///
    /// Propagates source I/O/parse errors and software-pipeline errors, and
    /// returns [`PakmanError::InvalidConfig`] for an id that is not in the
    /// standard registry.
    pub fn run_source<'s>(
        &self,
        source: impl ReadSource<'s>,
        backend: impl Into<BackendId>,
    ) -> Result<SystemRun, PakmanError> {
        let backend = self.standard_backend(backend.into())?;
        let assembly = PakmanAssembler::new(self.pakman).assemble_source(source)?;
        Ok(self.system_run(assembly, &backend))
    }

    /// Runs the software pipeline once and simulates every standard backend on
    /// the same trace, returning results in Fig. 12 order.
    ///
    /// # Errors
    ///
    /// Propagates errors from the software pipeline.
    pub fn run_all_backends(
        &self,
        workload: &Workload,
    ) -> Result<(AssemblyOutput, Vec<BackendResult>), PakmanError> {
        let assembly = PakmanAssembler::new(self.pakman).assemble(&workload.reads)?;
        let (_, results) = self.replay(&assembly, self.registry().iter());
        Ok((assembly, results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_contigs_and_a_backend_result() {
        let workload = Workload::tiny(3).unwrap();
        let assembler = NmpPakAssembler::default();
        let run = assembler.run(&workload, BackendId::NMP_PAK).unwrap();
        assert!(!run.assembly.contigs.is_empty());
        assert!(run.backend_result.runtime_ns > 0.0);
        assert!(run.layout.slot_count() > 0);
        assert_eq!(run.backend_result.backend, BackendId::NMP_PAK);
        assert_eq!(run.backend_result.label, "NMP-PaK");
    }

    #[test]
    fn unknown_backend_id_is_rejected() {
        let workload = Workload::tiny(4).unwrap();
        let assembler = NmpPakAssembler::default();
        assert!(matches!(
            assembler.run(&workload, BackendId::new("warp-drive")),
            Err(PakmanError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn run_with_accepts_unregistered_backends() {
        let workload = Workload::tiny(8).unwrap();
        let assembler = NmpPakAssembler::default();
        let assembly = PakmanAssembler::new(assembler.pakman)
            .assemble(&workload.reads)
            .unwrap();
        let custom = Backend::nmp(
            BackendId::new("nmp-64pe"),
            "NMP-64PE",
            nmp_pak_nmphw::NmpConfig {
                pes_per_channel: 64,
                ..assembler.system.nmp
            },
            &assembler.system,
        );
        assert!(assembler.registry().get(custom.id()).is_none());
        let (_, results) = assembler.replay(&assembly, [&custom]);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].backend, BackendId::new("nmp-64pe"));
        assert_eq!(results[0].label, "NMP-64PE");
        assert!(results[0].runtime_ns > 0.0);
    }

    #[test]
    fn all_backends_share_the_same_software_trace() {
        let workload = Workload::tiny(9).unwrap();
        let assembler = NmpPakAssembler::default();
        let (assembly, results) = assembler.run_all_backends(&workload).unwrap();
        assert_eq!(results.len(), assembler.registry().ids().len());
        assert!(assembly.stats.total_length > 0);
        // NMP-PaK outperforms the CPU baseline on the shared trace.
        let cpu = results
            .iter()
            .find(|r| r.backend == BackendId::CPU_BASELINE)
            .unwrap();
        let nmp = results
            .iter()
            .find(|r| r.backend == BackendId::NMP_PAK)
            .unwrap();
        assert!(nmp.speedup_over(cpu) > 1.0);
    }

    #[test]
    fn trace_recording_is_forced_on() {
        let assembler = NmpPakAssembler::new(
            PakmanConfig {
                record_trace: false,
                k: 17,
                min_kmer_count: 1,
                ..PakmanConfig::default()
            },
            SystemConfig::default(),
        );
        assert!(assembler.pakman.record_trace);
    }

    #[test]
    fn run_source_matches_the_workload_path() {
        let workload = Workload::tiny(6).unwrap();
        let assembler = NmpPakAssembler::default();
        let via_workload = assembler.run(&workload, BackendId::NMP_PAK).unwrap();
        let via_source = assembler
            .run_source(workload.source(), BackendId::NMP_PAK)
            .unwrap();
        assert_eq!(via_source.assembly.contigs, via_workload.assembly.contigs);
        assert_eq!(via_source.backend_result, via_workload.backend_result);
    }

    #[test]
    fn hand_built_backend_matches_the_registry() {
        let workload = Workload::tiny(12).unwrap();
        let assembler = NmpPakAssembler::default();
        let via_id = assembler.run(&workload, BackendId::NMP_PAK).unwrap();
        let direct = Backend::nmp(
            BackendId::NMP_PAK,
            "NMP-PaK",
            assembler.system.nmp,
            &assembler.system,
        );
        let (_, results) = assembler.replay(&via_id.assembly, [&direct]);
        assert_eq!(results, [via_id.backend_result]);
    }
}
