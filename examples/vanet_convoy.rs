//! VANET convoy: vehicles with different speeds on a two-lane highway.
//!
//! Demonstrates the best-effort continuity property in the scenario that
//! motivated the paper: groups survive as long as their members stay within
//! `Dmax` hops, and only break when the convoy physically stretches apart.
//! The per-transition ΠT/ΠC accounting is implemented as a custom
//! [`Observer`] streaming over the run; it hands each snapshot it takes to
//! a built-in [`ContinuityProbe`] as well, which cross-checks the
//! aggregate.
//!
//! ```text
//! cargo run --example vanet_convoy
//! ```

use dyngraph::NodeId;
use grp_core::observers::ContinuityProbe;
use grp_core::predicates::{pi_c_violations, pi_t_violations, SystemSnapshot};
use grp_core::{GrpConfig, GrpNode};
use netsim::mobility::Highway;
use netsim::radio::UnitDisk;
use netsim::{Observer, SimConfig, Simulator, TopologyMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Streams per-transition ΠT/ΠC violation counts, keeping only the
/// previous round's (Arc-shared) snapshot, and feeds the same snapshots
/// to `continuity`.
struct ConvoyWatch {
    dmax: usize,
    previous: Option<SystemSnapshot>,
    best_effort_violations: u64,
    continuity: ContinuityProbe,
}

impl Observer<GrpNode> for ConvoyWatch {
    fn on_round_end(&mut self, round: u64, sim: &Simulator<GrpNode>) {
        let snapshot = SystemSnapshot::from_simulator(sim);
        if let Some(prev) = &self.previous {
            let t_viol = pi_t_violations(prev, &snapshot, self.dmax);
            let c_viol = pi_c_violations(prev, &snapshot);
            if t_viol == 0 && c_viol > 0 {
                self.best_effort_violations += 1;
            }
            if (round + 1).is_multiple_of(10) {
                let note = if t_viol > 0 {
                    "topology stretched beyond Dmax — groups may split"
                } else {
                    ""
                };
                println!(
                    "{:5} | {:6} | {:7} | {:7} | {note}",
                    round + 1,
                    snapshot.group_count(),
                    t_viol == 0,
                    c_viol == 0
                );
            }
        }
        self.continuity.record(&snapshot);
        self.previous = Some(snapshot);
    }
}

fn main() {
    let dmax = 3;
    let vehicles = 14;
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    // speeds between 2 and 8 m per tick-equivalent: the convoy stretches
    let mobility = Highway::new(vehicles, 2, 1_200.0, 15.0, (0.002, 0.008), &mut rng);
    let mode = TopologyMode::Spatial {
        radio: UnitDisk::new(40.0),
        mobility: Box::new(mobility),
    };
    let mut sim = Simulator::new(SimConfig::rounds(7), mode);
    sim.add_nodes((0..vehicles as u64).map(|i| GrpNode::new(NodeId(i), GrpConfig::new(dmax))));

    println!("{vehicles} vehicles, two lanes, Dmax = {dmax}");
    println!("round | groups | ΠT held | ΠC held | note");

    let mut watch = ConvoyWatch {
        dmax,
        previous: None,
        best_effort_violations: 0,
        continuity: ContinuityProbe::new(dmax),
    };
    sim.run_rounds_observed(80, &mut watch);

    println!(
        "\ntransitions where continuity was lost although the topology allowed it: {}",
        watch.best_effort_violations
    );
    let stats = watch.continuity.stats();
    println!(
        "built-in ContinuityProbe agrees: ΠC held in {}/{} ΠT-transitions ({:.1}% conformance)",
        stats.pi_c_held_given_pi_t,
        stats.pi_t_held,
        100.0 * stats.view_continuity()
    );
    println!("(the paper's Proposition 14 predicts 0 once the system has converged)");
}
