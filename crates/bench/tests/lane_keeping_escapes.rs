//! Regression test for the lane-keeping escape from XI at paper scale.
//!
//! While the tube MPC's terminal set was robust invariant against W
//! instead of the tail disturbance A^N W, lane-keeping's XI was not
//! robust control invariant: these two episodes of the default `batch`
//! sweep (seed 2020, 100 steps) left XI without any dropout.

use oic_bench::golden;
use oic_core::CoreError;
use oic_engine::{episode_seed, run_episode, BatchConfig, PolicySpec};
use oic_scenarios::{LaneKeepingScenario, Scenario};

fn replay(policy: &PolicySpec, episode: usize) {
    let scenario = LaneKeepingScenario::default();
    let instance = scenario.build().unwrap();
    let prepared = policy.prepare(instance.sets()).unwrap();
    let seed = episode_seed(2020, scenario.name(), &policy.label(), episode);
    let memory = BatchConfig::default().memory;
    let result = run_episode(&instance, &scenario, &prepared, episode, 100, memory, seed);
    assert!(
        !matches!(result, Err(CoreError::OutsideInvariant { .. })),
        "{} episode {episode}: {result:?}",
        policy.label()
    );
    let record = result.unwrap();
    assert_eq!(record.invariant_violations + record.safety_violations, 0);
}

#[test]
fn bang_bang_episode_72_stays_in_xi() {
    replay(&PolicySpec::BangBang, 72);
}

#[test]
fn drl_acc_episode_447_stays_in_xi() {
    replay(&PolicySpec::drl("acc", golden::ACC_DQN), 447);
}
