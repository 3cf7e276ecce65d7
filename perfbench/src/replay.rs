//! The traced replay: re-runs sampled episodes through the public
//! per-step API with timing wrappers around every layer call, and checks
//! each against `run_episode`.
//!
//! The loop mirrors `oic_engine::run_episode` step for step (same seeds,
//! same call order), so the replayed integer tallies must equal the
//! engine's. Adjacent layer spans share a timestamp, so a step's time is
//! split between the engine's safety tally, `IntermittentController::step`
//! (itself split into the skipping policy, the safe controller, and the
//! monitor's self time), the disturbance draw, and the plant update; only
//! the divergence guard and loop glue fall outside every span.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use oic_control::{ControlCache, ControlError, Controller};
use oic_core::{CoreError, IntermittentController, PolicyContext, SkipDecision, SkipPolicy};
use oic_engine::{episode_seed, run_episode, PreparedPolicy};
use oic_scenarios::{Scenario, ScenarioInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed offset `run_episode` applies to the disturbance stream.
const DISTURBANCE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Accumulated layer times of the replayed episodes (nanoseconds).
#[derive(Debug, Default)]
pub struct Split {
    /// Episodes replayed.
    pub episodes: usize,
    /// Steps replayed.
    pub steps: u64,
    /// Wall time of the replayed episodes.
    pub episode_ns: u64,
    /// Wall time of `run_episode` on the same episodes.
    pub reference_ns: u64,
    /// Seeding, initial-state sampling, disturbance process and runtime
    /// construction.
    pub setup_ns: u64,
    /// LP solves during episode setup.
    pub setup_lp_solves: u64,
    /// The engine's per-step safety tally (safe/invariant containment).
    pub tally_ns: u64,
    /// `IntermittentController::step`, whole.
    pub step_ns: u64,
    /// `SkipPolicy::decide` inside `step`.
    pub policy_ns: u64,
    /// Calls to `SkipPolicy::decide`.
    pub policy_calls: u64,
    /// Each safe-controller call inside `step`.
    pub controller_ns: Vec<u64>,
    /// `DisturbanceProcess::next`.
    pub disturbance_ns: u64,
    /// `Lti::step`.
    pub plant_ns: u64,
}

impl Split {
    /// Summed controller time.
    pub fn controller_total_ns(&self) -> u64 {
        self.controller_ns.iter().sum()
    }

    /// `step` minus the policy and controller spans inside it: the
    /// monitor check, disturbance estimation and bookkeeping.
    pub fn monitor_ns(&self) -> u64 {
        self.step_ns
            .saturating_sub(self.policy_ns + self.controller_total_ns())
    }

    /// Layer spans summed: the part of the replayed wall time the split
    /// accounts for.
    pub fn covered_ns(&self) -> u64 {
        self.setup_ns + self.tally_ns + self.step_ns + self.disturbance_ns + self.plant_ns
    }
}

/// A skipping policy that times each decision.
struct TimedPolicy {
    inner: Box<dyn SkipPolicy>,
    ns: Rc<Cell<u64>>,
    calls: Rc<Cell<u64>>,
}

impl SkipPolicy for TimedPolicy {
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> SkipDecision {
        let start = Instant::now();
        let decision = self.inner.decide(ctx);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A safe controller that times each call.
struct TimedController<C> {
    inner: C,
    calls: Rc<RefCell<Vec<u64>>>,
}

impl<C: Controller> TimedController<C> {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.calls
            .borrow_mut()
            .push(start.elapsed().as_nanos() as u64);
        out
    }
}

impl<C: Controller> Controller for TimedController<C> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError> {
        self.timed(|| self.inner.control(x))
    }

    fn control_with_cache(
        &self,
        x: &[f64],
        cache: &mut ControlCache,
    ) -> Result<Vec<f64>, ControlError> {
        self.timed(|| self.inner.control_with_cache(x, cache))
    }
}

/// The integer tallies of one episode, or its error text.
pub type Tallies = Result<[usize; 6], String>;

fn tallies_of(stats: &oic_core::RunStats, safety: usize, invariant: usize) -> [usize; 6] {
    [
        stats.steps,
        stats.skipped,
        stats.forced_runs,
        stats.policy_runs,
        safety,
        invariant,
    ]
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Replays one episode with layer timing, accumulating into `split`.
pub fn replay_episode(
    split: &mut Split,
    instance: &ScenarioInstance,
    scenario: &dyn Scenario,
    prepared: &PreparedPolicy,
    steps: usize,
    memory: usize,
    seed: u64,
) -> Tallies {
    let lp_solves = oic_obs::registry().counter("lp.solves", "solves");
    let policy_ns = Rc::new(Cell::new(0));
    let policy_calls = Rc::new(Cell::new(0));
    let controller_calls = Rc::new(RefCell::new(Vec::with_capacity(steps)));

    let start = Instant::now();
    let lp_before = lp_solves.value();
    let mut rng = StdRng::seed_from_u64(seed);
    let x0 = instance.sample_initial_state(&mut rng);
    let mut process = scenario.disturbance_process(seed ^ DISTURBANCE_SALT);
    let policy = TimedPolicy {
        inner: prepared.for_episode(seed),
        ns: Rc::clone(&policy_ns),
        calls: Rc::clone(&policy_calls),
    };
    let controller = TimedController {
        inner: instance.controller().clone(),
        calls: Rc::clone(&controller_calls),
    };
    let mut runtime =
        IntermittentController::new(controller, instance.sets().clone(), policy, memory);
    let sys = instance.sets().plant().system().clone();
    let safe = instance.sets().safe();
    let invariant = instance.sets().invariant();
    split.setup_lp_solves += lp_solves.value() - lp_before;
    let mut mark = Instant::now();
    split.setup_ns += nanos(start, mark);

    let mut x = x0;
    let mut safety = 0usize;
    let mut invariant_hits = 0usize;
    let mut outcome = Ok(());
    for t in 0..steps {
        if !safe.contains_with_tol(&x, 1e-6) {
            safety += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_hits += 1;
        }
        let tallied = Instant::now();
        split.tally_ns += nanos(mark, tallied);
        let decision = runtime.step(&x, &[]);
        let stepped = Instant::now();
        split.step_ns += nanos(tallied, stepped);
        let decision = match decision {
            Ok(decision) => decision,
            Err(e) => {
                outcome = Err(e);
                mark = stepped;
                break;
            }
        };
        let w = process.next(t);
        let drawn = Instant::now();
        split.disturbance_ns += nanos(stepped, drawn);
        x = sys.step(&x, &decision.input, &w);
        split.plant_ns += nanos(drawn, Instant::now());
        split.steps += 1;
        // The divergence guard and loop glue stay outside every span:
        // they are the split's shortfall.
        if !x.iter().all(|v| v.is_finite() && v.abs() < 1e12) {
            outcome = Err(CoreError::NonFinite { step: t });
            mark = Instant::now();
            break;
        }
        mark = Instant::now();
    }
    let result = outcome.map(|()| {
        if !safe.contains_with_tol(&x, 1e-6) {
            safety += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_hits += 1;
        }
        tallies_of(runtime.stats(), safety, invariant_hits)
    });
    let end = Instant::now();
    split.tally_ns += nanos(mark, end);
    split.episode_ns += nanos(start, end);
    split.episodes += 1;
    split.policy_ns += policy_ns.get();
    split.policy_calls += policy_calls.get();
    split
        .controller_ns
        .extend_from_slice(&controller_calls.borrow());
    result.map_err(|e| e.to_string())
}

/// One cell to sample episodes from.
pub struct ReplayCell<'a> {
    /// The scenario (disturbance process factory).
    pub scenario: &'a dyn Scenario,
    /// Its built instance.
    pub instance: &'a ScenarioInstance,
    /// The cell's policy, prepared for the instance.
    pub prepared: PreparedPolicy,
    /// The cell's report label (it feeds the episode seeds).
    pub label: String,
}

/// Replays episodes round-robin over `cells` (episode 0 of every cell,
/// then episode 1, … up to `episodes`) until `budget` is spent, at least
/// one pass, and compares each replay's tallies with `run_episode`'s.
///
/// # Errors
///
/// Names the first episode whose replayed tallies differ from
/// `run_episode`'s.
pub fn replay_cells(
    split: &mut Split,
    cells: &[ReplayCell<'_>],
    base_seed: u64,
    episodes: usize,
    steps: usize,
    memory: usize,
    budget: Duration,
) -> Result<(), String> {
    let started = Instant::now();
    for episode in 0..episodes {
        if episode > 0 && started.elapsed() >= budget {
            break;
        }
        for cell in cells {
            let name = cell.scenario.name();
            let seed = episode_seed(base_seed, name, &cell.label, episode);
            // Alternate which side runs first so neither always finds
            // the other's data in cache.
            let reference = || {
                let start = Instant::now();
                let tallies = run_episode(
                    cell.instance,
                    cell.scenario,
                    &cell.prepared,
                    episode,
                    steps,
                    memory,
                    seed,
                )
                .map(|r| tallies_of(&r.stats, r.safety_violations, r.invariant_violations))
                .map_err(|e| e.to_string());
                (tallies, start.elapsed().as_nanos() as u64)
            };
            let early = (episode % 2 == 1).then(reference);
            let replayed = replay_episode(
                split,
                cell.instance,
                cell.scenario,
                &cell.prepared,
                steps,
                memory,
                seed,
            );
            let (expected, reference_ns) = early.unwrap_or_else(reference);
            split.reference_ns += reference_ns;
            if replayed != expected {
                return Err(format!(
                    "replay of {name}/{} episode {episode} (seed {seed}) gave {replayed:?}, run_episode gave {expected:?}",
                    cell.label
                ));
            }
        }
    }
    Ok(())
}
