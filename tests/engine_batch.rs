//! Acceptance tests for the batch engine: a ≥100-episode batch across
//! multiple policies runs in parallel with seed-stable aggregate stats,
//! zero safety violations, and deterministic JSON output.

use oic::engine::{run_batch_opts, BatchConfig, BatchReport, PolicySpec, SweepOptions};
use oic::scenarios::{
    DoubleIntegratorScenario, OrbitHoldScenario, ScenarioRegistry, ThermalRcScenario,
};

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

/// The linear-feedback scenarios: cheap per step, so the batch can be
/// large even in debug builds.
fn fast_registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(OrbitHoldScenario::default()));
    registry.register(Box::new(ThermalRcScenario::default()));
    registry
}

#[test]
fn hundred_episode_batch_is_parallel_deterministic_and_safe() {
    let registry = fast_registry();
    let policies = [
        PolicySpec::BangBang,
        PolicySpec::AlwaysRun,
        PolicySpec::Random(0.7),
    ];
    let config = BatchConfig {
        episodes: 100,
        steps: 100,
        seed: 2020,
        threads: 4,
        detail: true,
        ..Default::default()
    };
    let report = sweep(&registry, &policies, &config);

    // Shape: every (scenario, policy) cell ran every episode.
    assert_eq!(report.cells.len(), registry.len() * policies.len());
    for cell in &report.cells {
        assert_eq!(cell.episodes, 100);
        assert_eq!(cell.total_steps, 100 * 100);
        assert_eq!(cell.episodes_detail.len(), 100);
    }

    // Theorem 1 across 90 000 closed-loop steps.
    assert_eq!(report.total_safety_violations(), 0);
    for cell in &report.cells {
        assert_eq!(
            cell.invariant_violations, 0,
            "{}/{} left XI",
            cell.scenario, cell.policy
        );
        assert!(
            cell.min_safe_slack >= -1e-6,
            "{}/{}",
            cell.scenario,
            cell.policy
        );
    }

    // The policies are behaviourally distinct: bang-bang skips the most,
    // always-run never skips.
    for scenario in registry.names() {
        let bang = report.cell(scenario, "bang-bang").unwrap();
        let never = report.cell(scenario, "always-run").unwrap();
        // Shortest round-trip label (the `{p:.2}` key was `random-0.70`
        // until the collision fix widened the formatting).
        let random = report.cell(scenario, "random-0.7").unwrap();
        assert_eq!(never.skipped_steps, 0);
        assert!(
            bang.mean_skip_rate > random.mean_skip_rate,
            "{scenario}: bang-bang {:.3} vs random {:.3}",
            bang.mean_skip_rate,
            random.mean_skip_rate
        );
        assert!(
            bang.mean_skip_rate > 0.5,
            "{scenario}: {:.3}",
            bang.mean_skip_rate
        );
        // The paper's computation-saving claim: skipping slashes the
        // number of controller invocations (runs = total − skipped).
        let bang_runs = bang.total_steps - bang.skipped_steps;
        let never_runs = never.total_steps - never.skipped_steps;
        assert!(
            2 * bang_runs < never_runs,
            "{scenario}: runs {bang_runs} vs {never_runs}"
        );
    }

    // Seed-stable: an independent run with a different thread count
    // produces byte-identical JSON.
    let other = sweep(
        &registry,
        &policies,
        &BatchConfig {
            threads: 2,
            ..config.clone()
        },
    );
    assert_eq!(report, other);
    assert_eq!(
        report.to_json(true).to_json_pretty(),
        other.to_json(true).to_json_pretty()
    );

    // A different seed produces different trajectories.
    let reseeded = sweep(
        &registry,
        &policies,
        &BatchConfig {
            seed: 1999,
            ..config
        },
    );
    assert_ne!(report, reseeded);
}

#[test]
fn full_registry_smoke_batch_is_safe() {
    // Every scenario — including the two tube-MPC plants — through the
    // engine end to end (small sizes keep the MPC LP count reasonable).
    let registry = ScenarioRegistry::standard();
    let policies = [PolicySpec::BangBang, PolicySpec::MaxSkip(2)];
    let config = BatchConfig {
        episodes: 3,
        steps: 30,
        threads: 2,
        ..Default::default()
    };
    let report = sweep(&registry, &policies, &config);
    assert_eq!(report.cells.len(), 20, "10 scenarios x 2 policies");
    assert_eq!(report.total_safety_violations(), 0);
    let json = report.to_json(false).to_json_pretty();
    assert!(json.contains("\"scenario\": \"acc\""));
    assert!(json.contains("\"scenario\": \"cstr\""));
    assert!(json.contains("\"scenario\": \"two-mass-spring\""));
    assert!(json.contains("\"policy\": \"max-skip-2\""));
}
