//! The backend registry: lookup and ordered iteration over
//! [`CompactionBackend`] trait objects.
//!
//! [`BackendRegistry::standard`] registers the paper's seven configurations in
//! Fig. 12 plot order, replacing the old `ExecutionBackend::ALL` array; every
//! sweep and the benchmark simulate that registry. Another backend is
//! [`BackendRegistry::register`]ed into a registry its caller builds and
//! simulates; no sweep picks it up.

use super::{
    BackendId, BackendResult, CompactionBackend, CpuBackend, GpuBackend, NmpBackend,
    SimulationContext, SystemConfig, UnoptimizedCpuConfig,
};
use nmp_pak_memsim::NodeLayout;
use nmp_pak_pakman::CompactionTrace;

/// An ordered collection of execution backends.
///
/// Iteration order is registration order (the Fig. 12 plot order for
/// [`BackendRegistry::standard`]); lookup is by [`BackendId`].
#[derive(Debug, Default)]
pub struct BackendRegistry {
    backends: Vec<Box<dyn CompactionBackend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> BackendRegistry {
        BackendRegistry {
            backends: Vec::new(),
        }
    }

    /// The seven paper configurations (§5.3), in the order Fig. 12 plots them.
    pub fn standard(config: &SystemConfig) -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry
            .register(Box::new(CpuBackend::unoptimized(
                config,
                UnoptimizedCpuConfig::default(),
            )))
            .register(Box::new(CpuBackend::baseline(config)))
            .register(Box::new(GpuBackend::baseline(config)))
            .register(Box::new(CpuBackend::pak(config)))
            .register(Box::new(NmpBackend::pak(config)))
            .register(Box::new(NmpBackend::ideal_pe(config)))
            .register(Box::new(NmpBackend::ideal_forwarding(config)));
        registry
    }

    /// Registers a backend. A backend with the same id replaces the existing
    /// registration in place (keeping its position in the iteration order).
    pub fn register(&mut self, backend: Box<dyn CompactionBackend>) -> &mut BackendRegistry {
        match self.backends.iter_mut().find(|b| b.id() == backend.id()) {
            Some(slot) => *slot = backend,
            None => self.backends.push(backend),
        }
        self
    }

    /// Looks a backend up by id.
    pub fn get(&self, id: BackendId) -> Option<&dyn CompactionBackend> {
        self.backends.iter().find(|b| b.id() == id).map(Box::as_ref)
    }

    /// Iterates the backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn CompactionBackend> {
        self.backends.iter().map(Box::as_ref)
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id()).collect()
    }

    /// Number of registered backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// `true` if no backend is registered.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Simulates every registered backend on the same trace, in registration
    /// order (the Fig. 12 sweep).
    pub fn simulate_all(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        ctx: &SimulationContext,
    ) -> Vec<BackendResult> {
        self.iter()
            .map(|b| b.simulate(trace, layout, ctx))
            .collect()
    }
}

impl<'r> IntoIterator for &'r BackendRegistry {
    type Item = &'r dyn CompactionBackend;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'r, Box<dyn CompactionBackend>>,
        fn(&'r Box<dyn CompactionBackend>) -> &'r dyn CompactionBackend,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.backends.iter().map(Box::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic;
    use super::*;

    fn results() -> Vec<BackendResult> {
        let (trace, layout) = synthetic();
        let registry = BackendRegistry::standard(&SystemConfig::default());
        registry.simulate_all(&trace, &layout, &SimulationContext::new(1 << 30))
    }

    fn by(results: &[BackendResult], id: BackendId) -> &BackendResult {
        results
            .iter()
            .find(|r| r.backend == id)
            .expect("all standard backends simulated")
    }

    #[test]
    fn standard_registry_preserves_fig12_order() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        assert_eq!(
            registry.ids(),
            vec![
                BackendId::CPU_BASELINE_UNOPTIMIZED,
                BackendId::CPU_BASELINE,
                BackendId::GPU_BASELINE,
                BackendId::CPU_PAK,
                BackendId::NMP_PAK,
                BackendId::NMP_IDEAL_PE,
                BackendId::NMP_IDEAL_FORWARDING,
            ]
        );
    }

    #[test]
    fn lookup_by_id_and_label_agree() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        for backend in &registry {
            let found = registry.get(backend.id()).unwrap();
            assert_eq!(found.id(), backend.id());
            assert_eq!(found.label(), backend.label());
        }
        assert!(registry.get(BackendId::new("no-such-backend")).is_none());
    }

    #[test]
    fn labels_are_unique() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        let labels: std::collections::HashSet<&str> = registry.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), registry.len());
    }

    #[test]
    fn registering_the_same_id_replaces_in_place() {
        let system = SystemConfig::default();
        let mut registry = BackendRegistry::standard(&system);
        let before = registry.ids();
        // Re-register the GPU baseline with an 80 GB device.
        registry.register(Box::new(GpuBackend::custom(
            BackendId::GPU_BASELINE,
            "GPU-baseline",
            system.dram,
            nmp_pak_memsim::GpuConfig::a100_80gb(),
        )));
        assert_eq!(registry.ids(), before, "order preserved on replacement");
        // A 50 GB footprint exceeds the 40 GB baseline and fits the 80 GB one.
        let (trace, layout) = synthetic();
        let ctx = SimulationContext::new(50 << 30);
        let exceeded = |registry: &BackendRegistry| {
            let gpu = registry.get(BackendId::GPU_BASELINE).unwrap();
            gpu.simulate(&trace, &layout, &ctx).capacity_exceeded
        };
        assert!(exceeded(&BackendRegistry::standard(&system)));
        assert!(!exceeded(&registry));
    }

    #[test]
    fn backend_ordering_matches_the_paper() {
        let results = results();
        let baseline = by(&results, BackendId::CPU_BASELINE);
        let unopt = by(&results, BackendId::CPU_BASELINE_UNOPTIMIZED);
        let cpu_pak = by(&results, BackendId::CPU_PAK);
        let gpu = by(&results, BackendId::GPU_BASELINE);
        let nmp = by(&results, BackendId::NMP_PAK);
        let ideal_pe = by(&results, BackendId::NMP_IDEAL_PE);
        let ideal_fwd = by(&results, BackendId::NMP_IDEAL_FORWARDING);

        // Fig. 12's ordering: W/O SW-opt < CPU baseline < {CPU-PaK, GPU} < NMP ≤ ideal.
        assert!(unopt.speedup_over(baseline) < 1.0);
        assert!(cpu_pak.speedup_over(baseline) > 1.2);
        assert!(gpu.speedup_over(baseline) > 1.2);
        assert!(nmp.speedup_over(baseline) > cpu_pak.speedup_over(baseline));
        assert!(nmp.speedup_over(baseline) > gpu.speedup_over(baseline));
        assert!(
            nmp.speedup_over(baseline) > 5.0,
            "nmp speedup {}",
            nmp.speedup_over(baseline)
        );
        assert!(ideal_pe.speedup_over(baseline) >= nmp.speedup_over(baseline) * 0.95);
        assert!(ideal_fwd.speedup_over(baseline) >= nmp.speedup_over(baseline));
    }

    #[test]
    fn bandwidth_utilization_ordering() {
        let results = results();
        let cpu = by(&results, BackendId::CPU_BASELINE);
        let nmp = by(&results, BackendId::NMP_PAK);
        assert!(nmp.bandwidth_utilization() > 3.0 * cpu.bandwidth_utilization());
    }

    #[test]
    fn traffic_ordering_matches_fig14() {
        let results = results();
        let cpu = by(&results, BackendId::CPU_BASELINE);
        let cpu_pak = by(&results, BackendId::CPU_PAK);
        let nmp = by(&results, BackendId::NMP_PAK);
        let fwd = by(&results, BackendId::NMP_IDEAL_FORWARDING);
        // CPU-PaK and NMP-PaK share the optimized flow → identical traffic, below the baseline.
        assert_eq!(cpu_pak.traffic, nmp.traffic);
        assert!(nmp.traffic.read_bytes < cpu.traffic.read_bytes);
        assert!(nmp.traffic.write_bytes < cpu.traffic.write_bytes);
        // Ideal forwarding trims reads further but not writes.
        assert!(fwd.traffic.read_bytes < nmp.traffic.read_bytes);
        assert_eq!(fwd.traffic.write_bytes, nmp.traffic.write_bytes);
    }
}
