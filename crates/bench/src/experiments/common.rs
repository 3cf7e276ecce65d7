//! Shared experiment plumbing: scaling knobs, paired episode runs, and
//! saving statistics.

use oic_core::acc::{AccCaseStudy, EpisodeConfig, EpisodeOutcome};
use oic_core::{CoreError, SkipPolicy};
use oic_sim::front::FrontModel;
use oic_sim::fuel::Hbefa3Fuel;

/// Size knobs shared by all experiment binaries.
///
/// Defaults match the paper's protocol (500 cases × 100 steps); pass
/// `--cases/--steps/--train/--seed` on the command line to scale, and
/// `--out report.json` to save the machine-readable report. The
/// engine-backed sweeps additionally honor `--threads N` (0 = all
/// cores), `--chunk N` (episodes per work-stealing task, 0 = auto) and
/// `--stream`/`--detail` (drop or keep per-episode records; streaming is
/// the default and keeps memory O(cells)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Number of random test cases per experiment.
    pub cases: usize,
    /// Steps per episode (the paper evaluates 100).
    pub steps: usize,
    /// DRL training episodes per experiment.
    pub train_episodes: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for engine sweeps (0 = one per available CPU).
    pub threads: usize,
    /// Episodes per work-stealing task (0 = deterministic auto sizing).
    pub chunk: usize,
    /// Stream aggregation only (`true`, the default) vs. keeping
    /// per-episode detail rows in the report.
    pub stream: bool,
    /// Extra policy roster entries (`--policies drl:<path>[,…]`): each
    /// `drl:<path>` adds a learned skipping policy from an `oic-nn`
    /// weight blob on disk, named after the file stem.
    pub policies: Vec<String>,
    /// Optional path for the JSON report.
    pub out: Option<String>,
    /// Optional path for the `oic-obs` metrics snapshot (`--metrics`).
    pub metrics_out: Option<String>,
    /// Optional path for the Chrome trace export (`--trace`); also turns
    /// span recording on for the run.
    pub trace_out: Option<String>,
    /// Optional content-addressed cell-cache directory (`--cache-dir`):
    /// cells already stored there are answered without running episodes,
    /// new cells are stored as they complete. Results stay byte-identical
    /// either way.
    pub cache_dir: Option<String>,
    /// Optional shard assignment (`--shard i/n`): run only the cells
    /// whose global index `g` satisfies `g % n == i`; merge shard
    /// reports back with `serve merge`.
    pub shard: Option<String>,
    /// Environment-forced actuation-dropout variants
    /// (`--dropout none,bernoulli-0.1,mk-1-5`): each label adds a
    /// dropout axis value to every `(scenario, policy)` cell. Empty
    /// (the default) keeps the fault-free grid and its exact report
    /// bytes.
    pub dropout: Vec<String>,
    /// Optional deterministic fault-injection plan
    /// (`--fault-plan plan.json`): a JSON document with `seed`,
    /// `panic_rate`, and `nan_rate` keys, applied per cell hash. The
    /// sweep degrades (failed cells, never aborts) under the plan.
    pub fault_plan: Option<String>,
    /// Episode-loop implementation (`--kernel lockstep|scalar`, default
    /// lockstep). Both produce byte-identical reports: the scalar loop is
    /// the reference oracle.
    pub kernel: oic_engine::KernelChoice,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            cases: 500,
            steps: 100,
            train_episodes: 300,
            seed: 2020,
            threads: 0,
            chunk: 0,
            stream: true,
            policies: Vec::new(),
            out: None,
            metrics_out: None,
            trace_out: None,
            cache_dir: None,
            shard: None,
            dropout: Vec::new(),
            fault_plan: None,
            kernel: oic_engine::KernelChoice::Lockstep,
        }
    }
}

impl ExperimentScale {
    /// Parses `--cases N --steps N --train N --seed N --threads N
    /// --chunk N --stream --detail --policies LIST --out FILE` from an
    /// argument iterator (unknown arguments are ignored).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut scale = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--cases" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.cases = v;
                    }
                }
                "--steps" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.steps = v;
                    }
                }
                "--train" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.train_episodes = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.seed = v;
                    }
                }
                "--threads" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.threads = v;
                    }
                }
                "--chunk" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        scale.chunk = v;
                    }
                }
                "--stream" => scale.stream = true,
                "--detail" => scale.stream = false,
                "--policies" => {
                    if let Some(v) = args.next() {
                        scale
                            .policies
                            .extend(v.split(',').map(|s| s.trim().to_string()));
                    }
                }
                "--out" => {
                    if let Some(v) = args.next() {
                        scale.out = Some(v);
                    }
                }
                "--metrics" => {
                    if let Some(v) = args.next() {
                        scale.metrics_out = Some(v);
                    }
                }
                "--trace" => {
                    if let Some(v) = args.next() {
                        scale.trace_out = Some(v);
                    }
                }
                "--cache-dir" => {
                    if let Some(v) = args.next() {
                        scale.cache_dir = Some(v);
                    }
                }
                "--shard" => {
                    if let Some(v) = args.next() {
                        scale.shard = Some(v);
                    }
                }
                "--dropout" => {
                    if let Some(v) = args.next() {
                        scale
                            .dropout
                            .extend(v.split(',').map(|s| s.trim().to_string()));
                    }
                }
                "--fault-plan" => {
                    if let Some(v) = args.next() {
                        scale.fault_plan = Some(v);
                    }
                }
                "--kernel" => match args.next().as_deref() {
                    Some("lockstep") => scale.kernel = oic_engine::KernelChoice::Lockstep,
                    Some("scalar") => scale.kernel = oic_engine::KernelChoice::Scalar,
                    Some(other) => eprintln!("ignoring unknown --kernel value {other}"),
                    None => {}
                },
                _ => {}
            }
        }
        scale
    }

    /// The scale parameters every JSON report carries (so a saved report
    /// is reproducible from its own header).
    pub fn json_header(&self, experiment: &str) -> oic_engine::JsonValue {
        oic_engine::JsonValue::object()
            .with("experiment", experiment)
            .with("cases", self.cases)
            .with("steps", self.steps)
            .with("train_episodes", self.train_episodes)
            .with("seed", self.seed.to_string())
    }

    /// Writes a JSON report to [`Self::out`] when set, logging the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_json(&self, document: &oic_engine::JsonValue) -> std::io::Result<()> {
        if let Some(path) = &self.out {
            std::fs::write(path, document.to_json_pretty())?;
            eprintln!("report written to {path}");
        }
        Ok(())
    }
}

/// Outcome of running one test case under a policy and under the RMPC-only
/// baseline on the *same* front-vehicle trace and initial state.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeComparison {
    /// Baseline (always-run) outcome.
    pub baseline: EpisodeOutcome,
    /// Policy-under-test outcome.
    pub policy: EpisodeOutcome,
}

impl EpisodeComparison {
    /// Fractional fuel saving of the policy over the baseline.
    pub fn fuel_saving(&self) -> f64 {
        let base = self.baseline.summary.total_fuel;
        if base <= 0.0 {
            return 0.0;
        }
        (base - self.policy.summary.total_fuel) / base
    }

    /// Total safety violations across both runs (must be zero).
    pub fn violations(&self) -> usize {
        self.baseline.summary.safety_violations + self.policy.summary.safety_violations
    }
}

/// Runs one test case: the same initial state and front trace under the
/// RMPC-only baseline and under `policy`.
///
/// # Errors
///
/// Propagates episode failures (which indicate a precondition violation —
/// they abort the experiment rather than being averaged away).
pub fn compare_on_case(
    case: &AccCaseStudy,
    policy: &mut dyn SkipPolicy,
    front_factory: &mut dyn FnMut() -> Box<dyn FrontModel>,
    initial_state: [f64; 2],
    steps: usize,
    oracle_forecast: bool,
) -> Result<EpisodeComparison, CoreError> {
    let mut always = oic_core::AlwaysRunPolicy;
    let baseline = case.run_episode(EpisodeConfig {
        policy: &mut always,
        front: front_factory(),
        fuel: Box::new(Hbefa3Fuel::default()),
        steps,
        initial_state,
        oracle_forecast: false,
    })?;
    let policy_outcome = case.run_episode(EpisodeConfig {
        policy,
        front: front_factory(),
        fuel: Box::new(Hbefa3Fuel::default()),
        steps,
        initial_state,
        oracle_forecast,
    })?;
    Ok(EpisodeComparison {
        baseline,
        policy: policy_outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let scale = ExperimentScale::from_args(
            ["--cases", "20", "--train", "5", "--junk", "--seed", "7"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(scale.cases, 20);
        assert_eq!(scale.train_episodes, 5);
        assert_eq!(scale.seed, 7);
        assert_eq!(scale.steps, 100, "untouched default");
        assert_eq!(scale.threads, 0, "untouched default");
        assert!(scale.stream, "streaming is the default");
    }

    #[test]
    fn scale_parsing_engine_knobs() {
        let scale = ExperimentScale::from_args(
            ["--threads", "16", "--chunk", "64", "--detail"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(scale.threads, 16);
        assert_eq!(scale.chunk, 64);
        assert!(!scale.stream);
        let streamed = ExperimentScale::from_args(["--stream".to_string()]);
        assert!(streamed.stream);
    }

    #[test]
    fn scale_parsing_cache_and_shard() {
        let scale = ExperimentScale::from_args(
            ["--cache-dir", "/tmp/cells", "--shard", "1/4"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(scale.cache_dir.as_deref(), Some("/tmp/cells"));
        assert_eq!(scale.shard.as_deref(), Some("1/4"));
        let default = ExperimentScale::default();
        assert!(default.cache_dir.is_none() && default.shard.is_none());
    }

    #[test]
    fn scale_parsing_fault_knobs() {
        let scale = ExperimentScale::from_args(
            ["--dropout", "none,mk-1-5", "--fault-plan", "plan.json"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(scale.dropout, ["none", "mk-1-5"]);
        assert_eq!(scale.fault_plan.as_deref(), Some("plan.json"));
        let default = ExperimentScale::default();
        assert!(default.dropout.is_empty() && default.fault_plan.is_none());
    }

    #[test]
    fn scale_parsing_policy_entries() {
        let scale = ExperimentScale::from_args(
            [
                "--policies",
                "drl:a.bin,drl:b.bin",
                "--policies",
                "drl:c.bin",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(scale.policies, ["drl:a.bin", "drl:b.bin", "drl:c.bin"]);
        assert!(ExperimentScale::default().policies.is_empty());
    }

    #[test]
    fn comparison_math() {
        use oic_core::RunStats;
        use oic_sim::SimSummary;
        let outcome = |fuel: f64| EpisodeOutcome {
            summary: SimSummary {
                total_fuel: fuel,
                total_actuation: 0.0,
                safety_violations: 0,
                skipped_steps: 0,
                steps: 100,
                min_distance: 140.0,
                max_distance: 160.0,
            },
            stats: RunStats::default(),
        };
        let cmp = EpisodeComparison {
            baseline: outcome(10.0),
            policy: outcome(8.0),
        };
        assert!((cmp.fuel_saving() - 0.2).abs() < 1e-12);
        assert_eq!(cmp.violations(), 0);
    }
}
