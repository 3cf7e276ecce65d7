//! Lateral lane-keeping dynamics under a tube MPC.

use oic_control::{ConstrainedLti, Lti, TubeMpcBuilder};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::BoundedWalk;
use crate::{Scenario, ScenarioController, ScenarioInstance};

/// Lane keeping: lateral offset `e` (m) and lateral velocity `v` (m/s)
/// relative to the lane center, 20 Hz control, lateral-acceleration input,
/// crosswind/curvature disturbance. Skipping holds the current steering
/// (zero commanded lateral acceleration) — safe only inside `X′`, which is
/// exactly what the strengthened set certifies.
#[derive(Debug, Clone)]
pub struct LaneKeepingScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Lateral-velocity relaxation rate (1/s) from tire self-alignment.
    pub damping: f64,
    /// MPC prediction horizon.
    pub horizon: usize,
}

impl Default for LaneKeepingScenario {
    fn default() -> Self {
        Self {
            dt: 0.05,
            damping: 0.2,
            horizon: 8,
        }
    }
}

impl LaneKeepingScenario {
    /// The constrained lateral plant.
    pub fn plant(&self) -> ConstrainedLti {
        let dt = self.dt;
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, dt], &[0.0, 1.0 - self.damping * dt]]),
                Matrix::from_rows(&[&[0.0], &[dt]]),
            ),
            // Offset within ±1.8 m of center, lateral speed within ±1.2 m/s.
            Polytope::from_box(&[-1.8, -1.2], &[1.8, 1.2]),
            // Lateral acceleration command within ±3 m/s² (comfort limit).
            Polytope::from_box(&[-3.0], &[3.0]),
            // Crosswind/curvature kicks: small position creep, velocity
            // kicks up to 0.6 m/s² · δ.
            Polytope::from_box(&[-0.005, -0.03], &[0.005, 0.03]),
        )
    }

    /// The tube-MPC configuration `build()` uses.
    fn mpc_builder(&self) -> TubeMpcBuilder {
        TubeMpcBuilder::new(self.plant(), self.horizon)
            .state_weight_vector(vec![1.0, 0.05])
            .input_weight(0.02)
    }
}

impl Scenario for LaneKeepingScenario {
    fn name(&self) -> &'static str {
        "lane-keeping"
    }

    fn description(&self) -> &'static str {
        "lateral lane keeping: tube MPC, hold-steering skip, crosswind random-walk disturbance"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        let mpc = self.mpc_builder().build()?;
        let sets = SafeSets::for_tube_mpc(&mpc, &SkipInput::Zero)?;
        sets.certify()?;
        // Tube certificate for the MPC's local (terminal) loop — read
        // from the controller, not re-derived.
        let gain = mpc
            .terminal_gain()
            .expect("tube MPC synthesizes its terminal set from a gain")
            .clone();
        let tube = crate::certified_tube(sets.plant(), &gain)?;
        Ok(
            ScenarioInstance::new(self.name(), sets, ScenarioController::Tube(Box::new(mpc)))
                .with_tube(tube),
        )
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        // Gusty crosswind: a reflected random walk with ~30%-of-half-width
        // increments, correlated across steps.
        let (lo, hi) = self
            .plant()
            .disturbance_set()
            .bounding_box()
            .expect("W is a bounded box");
        let step = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| 0.3 * (h - l) * 0.5)
            .collect();
        Box::new(BoundedWalk::new(lo, hi, step, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_control::{max_rpi, InvariantOptions};

    #[test]
    fn builds_and_certifies() {
        let instance = LaneKeepingScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    /// With the terminal set invariant against W instead of the tail
    /// disturbance A^N W (the construction that let paper-scale episodes
    /// leave XI), the feasible set is not robust control invariant and
    /// the run-branch certificate must reject it.
    #[test]
    fn terminal_set_against_w_fails_the_run_branch_certificate() {
        let scenario = LaneKeepingScenario::default();
        let plant = scenario.plant();
        let fixed = scenario.mpc_builder().build().unwrap();
        let gain = fixed.terminal_gain().unwrap();
        let constraint = fixed.tightened_sets()[scenario.horizon]
            .intersection(&plant.input_set().preimage(gain, &[0.0]));
        let a_cl = plant.system().closed_loop(gain);
        let options = InvariantOptions::default();
        let terminal = max_rpi(&a_cl, plant.disturbance_set(), &constraint, &options).unwrap();
        let old = scenario
            .mpc_builder()
            .terminal_set(terminal)
            .build()
            .unwrap();
        assert!(matches!(
            SafeSets::for_tube_mpc(&old, &SkipInput::Zero)
                .unwrap()
                .certify(),
            Err(CoreError::CertificateFailed {
                inclusion: "XI ⊆ Pre_W(XI)"
            })
        ));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = LaneKeepingScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(11);
        for t in 0..300 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
