//! Regression tests for the committed golden learned-skipping fixtures.
//!
//! These pin the tentpole claim of the learned-policy pipeline: on the
//! ACC study the golden DQN harvests strictly more skips than every
//! analytic policy while Theorem 1 keeps every trajectory safe — and the
//! whole learned sweep stays byte-identical for any worker count.

use oic_bench::experiments::batch::standard_policies;
use oic_bench::golden;
use oic_engine::{run_batch_opts, BatchConfig, BatchReport, PolicySpec, SweepOptions};
use oic_scenarios::{AccScenario, ScenarioRegistry};

/// The plain sweep's report: `run_batch_opts` with default options.
fn sweep(
    registry: &ScenarioRegistry,
    policies: &[PolicySpec],
    config: &BatchConfig,
) -> BatchReport {
    run_batch_opts(registry, policies, config, &SweepOptions::default())
        .unwrap()
        .0
}

fn acc_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(AccScenario::default()));
    registry
}

/// The committed-benchmark shape: 50 episodes × 50 steps, seed 42 —
/// exactly the cells `BENCH_batch.json` locks.
fn bench_config() -> BatchConfig {
    BatchConfig {
        episodes: 50,
        steps: 50,
        seed: 42,
        ..Default::default()
    }
}

/// Golden-fixture inference on ACC reproduces a pinned tally. The pin is
/// on integer step counts (no float formatting in the loop), so any
/// silent weight-decode drift, action-order change, or encoder change
/// trips it immediately.
#[test]
fn golden_acc_tally_is_pinned() {
    let mut policies = standard_policies();
    policies.push(PolicySpec::drl("acc", golden::ACC_DQN));
    let report = sweep(&acc_registry(), &policies, &bench_config());
    let drl = report
        .cells
        .iter()
        .find(|c| c.policy == "drl-acc")
        .expect("learned cell present");
    // Pinned when the fixture was trained: 2118 of 2500 steps skipped,
    // not a single safety or invariant violation.
    assert_eq!(drl.total_steps, 2500);
    assert_eq!(drl.skipped_steps, 2118, "skip tally drifted");
    assert_eq!(drl.mean_skip_rate, 0.8472000000000001, "rate drifted");
    assert_eq!(drl.safety_violations, 0, "Theorem 1");
    assert_eq!(drl.invariant_violations, 0, "Theorem 1");
}

/// The paper's headline, as an inequality the suite enforces forever:
/// the learned policy out-skips **every** analytic policy on ACC.
#[test]
fn golden_acc_beats_every_analytic_policy() {
    let mut policies = standard_policies();
    policies.push(PolicySpec::drl("acc", golden::ACC_DQN));
    let report = sweep(&acc_registry(), &policies, &bench_config());
    let drl = report
        .cells
        .iter()
        .find(|c| c.policy == "drl-acc")
        .unwrap()
        .clone();
    for cell in report.cells.iter().filter(|c| c.policy != "drl-acc") {
        assert!(
            drl.mean_skip_rate > cell.mean_skip_rate,
            "drl-acc ({}) must out-skip {} ({})",
            drl.mean_skip_rate,
            cell.policy,
            cell.mean_skip_rate
        );
    }
    assert_eq!(report.total_safety_violations(), 0);
}

/// A sweep containing learned cells is byte-identical at 1 vs 8 workers
/// — the decoded network is shared, greedy inference has no RNG, and the
/// merge order never depends on the thread count.
#[test]
fn learned_sweep_is_thread_count_invariant() {
    let registry = golden::registry_with_golden();
    let mut policies = standard_policies();
    policies.extend(golden::drl_policies(&registry));
    let run = |threads: usize| {
        sweep(
            &registry,
            &policies,
            &BatchConfig {
                episodes: 12,
                steps: 30,
                seed: 7,
                threads,
                chunk: 2,
                ..Default::default()
            },
        )
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial, parallel);
    assert_eq!(
        serial.to_json(true).to_json(),
        parallel.to_json(true).to_json(),
        "JSON must match byte-for-byte"
    );
    assert!(serial.cells.iter().any(|c| c.policy == "drl-acc"));
}
