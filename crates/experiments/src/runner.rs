//! Shared machinery: the quick/full scale switch, the convergence budget,
//! and the drive helpers the experiments compose over the manifest front
//! end.
//!
//! There is no simulator builder here: every GRP run of E1–E4 and E7–E10
//! is a [`ScenarioManifest`] (usually [`ScenarioManifest::simulate`]) turned
//! into a simulator by [`scenarios::build_simulator`], the code path the
//! golden digests pin.

use dyngraph::GraphGenerator;
use grp_core::observers::{ContinuityProbe, ContinuityStats, SnapshotRecorder};
use grp_core::predicates::{view_removals, SystemSnapshot};
use grp_core::GrpConfig;
use scenarios::manifest::WorkloadSpec;
use scenarios::{build_simulator, drive_manifest, ScenarioManifest};

/// How heavy an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes and few seeds — used by integration tests and CI.
    Quick,
    /// The full parameter sweep (observed behaviours at this scale are
    /// listed in `docs/SCENARIOS.md`, "Observed reproduction behaviours").
    Full,
}

impl Scale {
    /// Pick between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// The random seeds to replicate over.
    pub fn seeds(self) -> Vec<u64> {
        match self {
            Scale::Quick => vec![1, 2],
            Scale::Full => (1..=10).collect(),
        }
    }
}

/// A `rounds`-round GRP run at `dmax` on a generated topology, everything
/// else at the manifest defaults.
pub fn grp_manifest(
    name: &str,
    generator: GraphGenerator,
    dmax: usize,
    rounds: usize,
) -> ScenarioManifest {
    let workload = WorkloadSpec::Explicit(generator);
    ScenarioManifest::simulate(name, workload, GrpConfig::new(dmax), rounds as u64)
}

/// Run `manifest` under `seed` and return one snapshot per round (active
/// nodes only; see `SystemSnapshot::from_simulator`).
pub fn snapshots(manifest: &ScenarioManifest, seed: u64) -> Vec<SystemSnapshot> {
    let mut sim = build_simulator(manifest, seed);
    let mut recorder = SnapshotRecorder::new();
    drive_manifest(&mut sim, manifest, &mut recorder);
    recorder.into_snapshots()
}

/// Run `manifest` under each of `seeds` and account every snapshot
/// transition after a run's first `warmup` rounds: ΠT and ΠC through a
/// [`ContinuityProbe`], and the view removals. Returns both totals over
/// the seeds.
pub fn churn_after_warmup(
    manifest: &ScenarioManifest,
    seeds: &[u64],
    warmup: usize,
) -> (ContinuityStats, u64) {
    let (mut total, mut removals) = (ContinuityStats::default(), 0);
    for &seed in seeds {
        let snapshots = &snapshots(manifest, seed)[warmup..];
        let mut probe = ContinuityProbe::new(manifest.protocol.dmax);
        snapshots.iter().for_each(|snapshot| probe.record(snapshot));
        let stats = probe.stats();
        total.transitions += stats.transitions;
        total.pi_t_held += stats.pi_t_held;
        total.pi_c_held += stats.pi_c_held;
        total.pi_c_held_given_pi_t += stats.pi_c_held_given_pi_t;
        for pair in snapshots.windows(2) {
            removals += view_removals(&pair[0], &pair[1]) as u64;
        }
    }
    (total, removals)
}

/// A generous default for "long enough to converge" on an n-node topology.
pub fn convergence_budget(n: usize, dmax: usize) -> usize {
    4 * dmax + 3 * n + 20
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_and_seeds() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
        assert!(Scale::Quick.seeds().len() < Scale::Full.seeds().len());
    }

    #[test]
    fn snapshots_are_recorded_every_round() {
        let manifest = grp_manifest("t", GraphGenerator::Path { n: 3 }, 2, 10);
        assert_eq!(snapshots(&manifest, 1).len(), 10);
        let (continuity, _) = churn_after_warmup(&manifest, &[1], 4);
        assert_eq!(continuity.transitions, 5);
    }
}
