//! In-process sweeps through `run_batch_opts`, scenario builds, and the
//! per-cell output checks.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use oic_engine::{
    executed_throughput, run_batch_opts, BatchReport, CellReport, SweepOptions, SweepSpec,
    SweepStats,
};
use oic_scenarios::{ScenarioInstance, ScenarioRegistry};

/// Built scenario instances by name.
pub type Instances = BTreeMap<String, ScenarioInstance>;

/// One timed sweep.
pub struct Sweep {
    /// `run_batch_opts` wall time, in-sweep scenario build included.
    pub wall: Duration,
    /// Time until the first cell completed.
    pub first_cell: Duration,
    /// Episodes of the cells that executed and completed.
    pub executed_episodes: usize,
    /// The report.
    pub report: BatchReport,
    /// Scheduler and per-cell timing.
    pub stats: SweepStats,
}

/// Runs `spec` in-process on the engine's default (`nproc`) workers.
///
/// # Errors
///
/// The engine's error, as text.
pub fn run_sweep(registry: &ScenarioRegistry, spec: &SweepSpec) -> Result<Sweep, String> {
    let first = OnceLock::new();
    let on_cell = |_: usize, _: &CellReport| {
        first.get_or_init(Instant::now);
    };
    let opts = SweepOptions {
        scenarios: Some(&spec.scenarios),
        on_cell: Some(&on_cell),
        ..SweepOptions::default()
    };
    let start = Instant::now();
    let (report, stats) = run_batch_opts(registry, &spec.policies, &spec.to_config(), &opts)
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let first_cell = first.get().map_or(wall, |t| t.duration_since(start));
    let executed_episodes = executed_throughput(&report, &stats).episodes;
    Ok(Sweep {
        wall,
        first_cell,
        executed_episodes,
        report,
        stats,
    })
}

/// Builds each named scenario once; returns the instances (by name) and
/// the summed build time.
///
/// # Errors
///
/// Names a scenario that is unknown or fails to build.
pub fn build_all(
    registry: &ScenarioRegistry,
    names: &[String],
) -> Result<(Instances, Duration), String> {
    let mut built = BTreeMap::new();
    let mut total = Duration::ZERO;
    for name in names {
        let scenario = registry
            .get(name)
            .ok_or_else(|| format!("unknown scenario {name}"))?;
        let start = Instant::now();
        let instance = scenario
            .build()
            .map_err(|e| format!("{name}: build failed: {e}"))?;
        total += start.elapsed();
        built.insert(name.clone(), instance);
    }
    Ok((built, total))
}

/// Cell tallies across every sweep or response a run checked.
#[derive(Debug, Default)]
pub struct CellTally {
    /// Cells seen.
    pub cells: usize,
    /// Cells that degraded to a failed entry.
    pub failed: usize,
    /// Skipped steps over the completed cells.
    pub skipped: usize,
    /// Steps over the completed cells.
    pub steps: usize,
    /// Distinct `scenario/policy: reason` of the failed cells.
    pub failures: Vec<String>,
}

impl CellTally {
    /// Folds one completed-or-failed cell in; returns a problem when a
    /// completed cell breaks Theorem 1 or its own step accounting.
    pub fn add(&mut self, cell: &CellReport) -> Option<String> {
        self.cells += 1;
        if let oic_engine::CellOutcome::Failed { reason } = &cell.outcome {
            self.failed += 1;
            let failure = format!("{}/{}: {reason}", cell.scenario, cell.policy);
            if !self.failures.contains(&failure) {
                self.failures.push(failure);
            }
            return None;
        }
        self.skipped += cell.skipped_steps;
        self.steps += cell.total_steps;
        let id = format!("{}/{}", cell.scenario, cell.policy);
        if cell.safety_violations != 0 || cell.invariant_violations != 0 {
            return Some(format!(
                "{id}: completed with {} safety and {} invariant violations",
                cell.safety_violations, cell.invariant_violations
            ));
        }
        if cell.total_steps != cell.episodes * cell.steps_per_episode
            || cell.skipped_steps + cell.forced_runs + cell.policy_runs != cell.total_steps
        {
            return Some(format!("{id}: step tallies do not add up"));
        }
        None
    }

    /// Failed cells over cells seen.
    pub fn failed_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.cells as f64)
    }

    /// Skipped steps over steps of the completed cells.
    pub fn skip_rate(&self) -> f64 {
        crate::stats::ratio(self.skipped as f64, self.steps as f64)
    }
}
