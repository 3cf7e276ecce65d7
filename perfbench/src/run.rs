//! One benchmark run: a workload, a seed, a time budget, and either the
//! end-to-end metrics (untraced) or the per-layer split (traced).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use oic_engine::{
    cell_hash, CellCache, CellOutcome, CellReport, DropoutSpec, JsonValue, SweepSpec,
};
use oic_scenarios::ScenarioRegistry;

use crate::metrics::Results;
use crate::obs::ObsTotals;
use crate::replay::{replay_cells, ReplayCell, Split};
use crate::serve::{wire_body, Response, Server, Status};
use crate::stats::{median, quantile, ratio};
use crate::sweep::{build_all, run_sweep, CellTally, Instances, Sweep};
use crate::workload::{pool_seeds, request, sweep_seed, Request, Workload};

/// Scenario builds per set-up measurement, at least (the median is
/// reported)...
const SETUP_REPS: usize = 7;

/// ...and for at least this long, so cheap scenario sets get more.
const SETUP_MIN: Duration = Duration::from_secs(2);

/// Timed sweeps a run measures at least, whatever the budget.
const MIN_SWEEPS: usize = 3;

/// Server starts (each primed on a fresh cache) per `serve-mixed`
/// set-up measurement (the median is reported).
const SERVE_SETUPS: usize = 3;

/// Timed requests a `serve-mixed` run sends at least.
const MIN_REQUESTS: usize = 20;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// The `serve` binary (`serve-mixed` only).
    pub serve_bin: Option<PathBuf>,
    /// Scratch directory for cache stores; removed afterwards.
    pub work_dir: PathBuf,
}

/// What a run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metric values.
    pub results: Results,
    /// Cells (sweeps) or requests (serve) attempted.
    pub attempted: usize,
    /// Of those, failed.
    pub failed: usize,
    /// Correctness-check failures; any makes the run incorrect.
    pub problems: Vec<String>,
}

struct Ctx<'a> {
    args: &'a Args,
    registry: ScenarioRegistry,
    budget: Duration,
    out: Outcome,
}

impl Ctx<'_> {
    fn spec(&self, seed: u64) -> SweepSpec {
        self.args.workload.spec(&self.registry, seed)
    }

    fn names(&self) -> Vec<String> {
        self.args.workload.scenarios(&self.registry)
    }

    fn check(&mut self, report_cells: &[CellReport], tally: &mut CellTally) {
        for cell in report_cells {
            if let Some(problem) = tally.add(cell) {
                self.out.problems.push(problem);
            }
        }
    }
}

/// Runs the benchmark described by `args`.
///
/// # Errors
///
/// Describes a run that could not measure at all (a sweep or the server
/// failed outright); correctness-check failures land in
/// [`Outcome::problems`] instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut ctx = Ctx {
        args,
        registry: oic_bench::golden::registry_with_golden(),
        budget: Duration::from_secs(args.seconds),
        out: Outcome::default(),
    };
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let result = match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => serve_end_to_end(&mut ctx),
        (Workload::ServeMixed, true) => serve_layers(&mut ctx),
        (_, false) => sweep_end_to_end(&mut ctx),
        (_, true) => {
            let budget = ctx.budget;
            layers_in_process(&mut ctx, budget)
        }
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Some(parent) = args.work_dir.parent() {
        // Only succeeds once no other run's directory is left in it.
        let _ = std::fs::remove_dir(parent);
    }
    result.map(|()| ctx.out)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the workload's scenarios [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN`]; returns the median and every build time, in seconds,
/// and the instances of the last build.
fn setup_builds(ctx: &Ctx<'_>) -> Result<(f64, Vec<f64>, Instances), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut instances = Instances::new();
    while times.len() < SETUP_REPS || started.elapsed() < SETUP_MIN {
        let (built, total) = build_all(&ctx.registry, &ctx.names())?;
        times.push(total.as_secs_f64());
        instances = built;
    }
    Ok((median(&times), times, instances))
}

/// Untraced sweep workload: repeated sweeps, each with its own derived
/// seed, after one untimed warm-up sweep.
fn sweep_end_to_end(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let (setup, builds, _) = setup_builds(ctx)?;
    let mut tally = CellTally::default();
    let (mut walls, mut firsts, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut measuring = Instant::now();
    let mut i = 0;
    loop {
        let sweep = run_sweep(&ctx.registry, &ctx.spec(sweep_seed(ctx.args.seed, i)))?;
        ctx.check(&sweep.report.cells, &mut tally);
        if i == 0 {
            measuring = Instant::now();
        } else {
            walls.push(ms(sweep.wall));
            firsts.push(ms(sweep.first_cell));
            rates.push(sweep.executed_episodes as f64 / sweep.wall.as_secs_f64());
        }
        i += 1;
        if walls.len() >= MIN_SWEEPS && measuring.elapsed() >= ctx.budget {
            break;
        }
    }
    report_failures(&tally);
    let n = walls.len();
    let spec = ctx.spec(0);
    let cells = tally.cells / (n + 1);
    let r = &mut ctx.out.results;
    r.set(
        "setup_s",
        setup,
        format!(
            "median of {} builds of {} scenarios",
            builds.len(),
            spec.scenarios.len()
        ),
    );
    r.set(
        "episodes_per_s",
        median(&rates),
        format!(
            "median of {n} sweeps, {cells} cells x {} episodes x {} steps",
            spec.episodes, spec.steps
        ),
    );
    r.set(
        "request_p50_ms",
        median(&walls),
        format!("sweep wall, n={n}"),
    );
    r.set(
        "request_p90_ms",
        quantile(&walls, 0.9),
        format!("sweep wall, n={n}"),
    );
    r.set("first_cell_p50_ms", median(&firsts), format!("n={n}"));
    r.set(
        "success_share",
        1.0 - tally.failed_share(),
        format!(
            "failed_share {} ({} of {} cells)",
            tally.failed_share(),
            tally.failed,
            tally.cells
        ),
    );
    r.set(
        "skip_rate",
        tally.skip_rate(),
        format!("{} steps", tally.steps),
    );
    r.set(
        "peak_rss_mb",
        crate::serve::peak_rss_mb("/proc/self/status")?,
        "benchmark process",
    );
    ctx.out.attempted = tally.cells;
    ctx.out.failed = tally.failed;
    Ok(())
}

fn report_failures(tally: &CellTally) {
    for failure in &tally.failures {
        eprintln!("failed cell: {failure}");
    }
}

/// The traced in-process split of the workload's sweep spec: builds with
/// the program's counters on, paired untraced/traced sweeps, the timed
/// replay, and the cache, report and spec-hash layers.
fn layers_in_process(ctx: &mut Ctx<'_>, budget: Duration) -> Result<(), String> {
    let started = Instant::now();
    oic_obs::set_metrics_enabled(true);
    let before = ObsTotals::local();
    let (_, build_times, instances) = setup_builds(ctx)?;
    let built = ObsTotals::local().since(&before);
    let reps = build_times.len() as f64;
    let r = &mut ctx.out.results;
    r.set(
        "scenarios.build_ms",
        median(&build_times) * 1e3,
        format!("median of {reps} builds of the workload's scenarios"),
    );
    r.set(
        "scenarios.build_lp_solves",
        built.counter("lp.solves") as f64 / reps,
        "per build of the scenario set",
    );
    r.set(
        "cert.build_ms",
        built.sum_prefixed("cert.") as f64 / reps / 1e6,
        "cert.* spans per build of the scenario set",
    );

    // Paired sweeps on the same derived seeds: counters off, then on.
    let mut tally = CellTally::default();
    oic_obs::set_metrics_enabled(false);
    let warm = run_sweep(&ctx.registry, &ctx.spec(sweep_seed(ctx.args.seed, 0)))?;
    ctx.check(&warm.report.cells, &mut tally);
    let before = ObsTotals::local();
    let (mut ratios, mut cpu, mut cell_max, mut busy) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<(SweepSpec, Sweep)> = None;
    let workers = crate::env::nproc() as f64;
    let mut i = 1;
    while ratios.len() < 2 || started.elapsed() < budget * 3 / 5 {
        let spec = ctx.spec(sweep_seed(ctx.args.seed, i));
        oic_obs::set_metrics_enabled(false);
        let plain = run_sweep(&ctx.registry, &spec)?;
        oic_obs::set_metrics_enabled(true);
        let traced = run_sweep(&ctx.registry, &spec)?;
        ctx.check(&plain.report.cells, &mut tally);
        if plain.report.to_json(false).to_json() != traced.report.to_json(false).to_json() {
            ctx.out.problems.push(format!(
                "sweep {i}: report bytes change with the counters on"
            ));
        }
        ratios.push(traced.wall.as_secs_f64() / plain.wall.as_secs_f64());
        let cell_ns: Vec<u64> = plain.stats.cell_timings.iter().map(|c| c.wall_ns).collect();
        let cpu_s = cell_ns.iter().sum::<u64>() as f64 / 1e9;
        cpu.push(cpu_s);
        cell_max.push(cell_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6);
        busy.push(cpu_s / (plain.wall.as_secs_f64() * workers));
        last = Some((spec, traced));
        i += 1;
    }
    let swept = ObsTotals::local().since(&before);
    let pairs = ratios.len();
    let n = pairs as f64;
    let solves = swept.counter("lp.solves") as f64;
    let pivots = swept.counter("lp.pivots") as f64;
    let r = &mut ctx.out.results;
    let per = format!("per traced sweep, {pairs} sweeps");
    r.set(
        "mpc.solves",
        swept.count("mpc.step_ns") as f64 / n,
        per.clone(),
    );
    r.set("lp.solves", solves / n, per.clone());
    r.set("lp.pivots", pivots / n, per.clone());
    r.set("lp.pivots_per_solve", ratio(pivots, solves), per.clone());
    r.set(
        "lp.phase1_entries",
        swept.counter("lp.phase1_entries") as f64 / n,
        per.clone(),
    );
    r.set(
        "lp.warm_hit_share",
        ratio(swept.counter("lp.warm_hits") as f64, solves),
        per,
    );
    let per = format!("median of {pairs} untraced sweeps on {workers} workers");
    r.set("engine.cell_cpu_s", median(&cpu), per.clone());
    r.set("engine.cell_max_ms", median(&cell_max), per.clone());
    r.set("engine.worker_busy_share", median(&busy), per);
    r.set(
        "trace.overhead_share",
        median(&ratios) - 1.0,
        format!("median traced/untraced sweep wall - 1, {pairs} pairs"),
    );
    let (spec, sweep) = last.expect("at least two pairs ran");

    // The timed replay of sampled episodes, counters on.
    let roster = &spec.policies;
    let mut cells = Vec::new();
    for cell in &sweep.report.cells {
        let instance = &instances[&cell.scenario];
        let policy = roster
            .iter()
            .find(|p| p.label() == cell.policy)
            .ok_or_else(|| format!("no roster policy labelled {}", cell.policy))?;
        cells.push(ReplayCell {
            scenario: ctx
                .registry
                .get(&cell.scenario)
                .expect("report names a registered scenario"),
            instance,
            prepared: policy
                .prepare(instance.sets())
                .map_err(|e| format!("{}/{}: prepare: {e}", cell.scenario, cell.policy))?,
            label: cell.policy.clone(),
        });
    }
    let mut split = Split::default();
    let before = ObsTotals::local();
    let replay_budget = budget.saturating_sub(started.elapsed());
    if let Err(problem) = replay_cells(
        &mut split,
        &cells,
        spec.seed,
        spec.episodes,
        spec.steps,
        spec.memory,
        replay_budget,
    ) {
        ctx.out.problems.push(problem);
    }
    let replayed = ObsTotals::local().since(&before);
    oic_obs::set_metrics_enabled(false);
    set_split(&mut ctx.out.results, &split, &replayed);

    // Cache, report and spec-hash layers on the last traced sweep.
    cache_layer(ctx, &spec, &sweep.report.cells)?;
    let mut to_json = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(sweep.report.to_json(false).to_json_pretty());
        to_json.push(ms(start.elapsed()));
    }
    let mut hash = Vec::new();
    for _ in 0..21 {
        let start = Instant::now();
        std::hint::black_box(spec.spec_hash());
        hash.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let r = &mut ctx.out.results;
    r.set(
        "report.to_json_ms",
        median(&to_json),
        format!("median of 5 renders, {} cells", sweep.report.cells.len()),
    );
    r.set(
        "spec.hash_us",
        median(&hash),
        "median of 21 canonical_json + sha256",
    );
    r.set("serve.response_bytes", 0.0, "no server in this workload");
    report_failures(&tally);
    ctx.out.attempted = tally.cells;
    ctx.out.failed = tally.failed;
    Ok(())
}

fn set_split(r: &mut Results, split: &Split, obs: &ObsTotals) {
    let steps = split.steps as f64;
    let episodes = split.episodes as f64;
    let note = format!(
        "{} replayed episodes, {} steps",
        split.episodes, split.steps
    );
    r.set(
        "episode.setup_us",
        split.setup_ns as f64 / episodes / 1e3,
        note.clone(),
    );
    r.set(
        "episode.setup_lp_solves",
        split.setup_lp_solves as f64 / episodes,
        note.clone(),
    );
    r.set(
        "disturbance.next_ns",
        split.disturbance_ns as f64 / steps,
        "per step",
    );
    r.set(
        "monitor.check_ns",
        split.monitor_ns() as f64 / steps,
        "step self time (step minus policy and controller), per step",
    );
    r.set(
        "policy.decide_ns",
        ratio(split.policy_ns as f64, split.policy_calls as f64),
        format!("per decision, n={}", split.policy_calls),
    );
    r.set(
        "drl.infer_ns",
        ratio(
            obs.sum("drl.infer_ns") as f64,
            obs.count("drl.infer_ns") as f64,
        ),
        format!("oic-obs drl.infer_ns mean, n={}", obs.count("drl.infer_ns")),
    );
    r.set(
        "episode.tally_ns",
        split.tally_ns as f64 / steps,
        "per step",
    );
    let solves: Vec<f64> = split.controller_ns.iter().map(|&ns| ns as f64).collect();
    let n = solves.len();
    r.set(
        "controller.solve_ns_p50",
        median(&solves),
        format!("per controller call, n={n}"),
    );
    r.set(
        "controller.solve_ns_p90",
        quantile(&solves, 0.9),
        format!("per controller call, n={n}"),
    );
    r.set("plant.step_ns", split.plant_ns as f64 / steps, "per step");
    let coverage = ratio(split.covered_ns() as f64, split.episode_ns as f64);
    r.set(
        "trace.coverage_share",
        coverage,
        format!("shortfall {:.4}%", (1.0 - coverage) * 100.0),
    );
    r.set(
        "replay.overhead_share",
        ratio(split.episode_ns as f64, split.reference_ns as f64) - 1.0,
        "timed replay / run_episode wall - 1",
    );
    r.set("replay.episodes", episodes, note);
}

/// Times `CellCache::put` and `get` on the completed cells of a sweep,
/// in a disk-backed store, and checks every cell reads back unchanged.
fn cache_layer(ctx: &mut Ctx<'_>, spec: &SweepSpec, cells: &[CellReport]) -> Result<(), String> {
    let dir = ctx.args.work_dir.join("cache-layer");
    let cache = CellCache::new(4096, Some(dir.clone()));
    let config = spec.to_config();
    let keyed: Vec<([u8; 32], &CellReport)> = cells
        .iter()
        .filter(|c| c.outcome == CellOutcome::Ok)
        .map(|cell| {
            let policy = spec
                .policies
                .iter()
                .find(|p| p.label() == cell.policy)
                .expect("report policies come from the roster");
            (
                cell_hash(
                    &cell.scenario,
                    &cell.policy,
                    policy,
                    &DropoutSpec::None,
                    &config,
                ),
                cell,
            )
        })
        .collect();
    let (mut puts, mut gets, mut hits) = (Vec::new(), Vec::new(), 0usize);
    for (key, cell) in &keyed {
        let start = Instant::now();
        cache.put(key, cell)?;
        puts.push(start.elapsed().as_secs_f64() * 1e6);
    }
    for (key, cell) in &keyed {
        let start = Instant::now();
        let got = cache.get(key);
        gets.push(start.elapsed().as_secs_f64() * 1e6);
        match got {
            Some(got) if &got == *cell => hits += 1,
            Some(_) => ctx.out.problems.push(format!(
                "cache returned a different {}/{}",
                cell.scenario, cell.policy
            )),
            None => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let n = keyed.len();
    let r = &mut ctx.out.results;
    r.set(
        "cache.put_us",
        median(&puts),
        format!("median per put, disk store, n={n}"),
    );
    r.set(
        "cache.get_us",
        median(&gets),
        format!("median per get, n={n}"),
    );
    r.set(
        "cache.hit_share",
        ratio(hits as f64, n as f64),
        "gets answered with the stored cell",
    );
    Ok(())
}

/// A `serve-mixed` pool entry: the spec, its wire body, and the cell
/// lines of its first answer.
struct PoolSpec {
    spec: SweepSpec,
    body: String,
    cells: Vec<String>,
}

/// What the client phase of `serve-mixed` measured.
#[derive(Default)]
struct ClientPhase {
    latencies: Vec<f64>,
    firsts: Vec<f64>,
    miss_rates: Vec<f64>,
    bytes: Vec<f64>,
    sent: usize,
    failed: usize,
    tally: CellTally,
}

/// Starts a server on a fresh cache and primes the repeat pool, `setups`
/// times; every start answers the pool byte-identically. Returns the last
/// server, the pool, and the median seconds from process start through
/// the last priming response (the earlier servers are drained).
fn start_and_prime(
    ctx: &mut Ctx<'_>,
    setups: usize,
) -> Result<(Server, Vec<PoolSpec>, f64), String> {
    let bin = ctx
        .args
        .serve_bin
        .clone()
        .ok_or("serve-mixed needs --serve-bin")?;
    let mut times = Vec::with_capacity(setups);
    let mut last: Option<(Server, Vec<PoolSpec>)> = None;
    for k in 0..setups {
        let dir = ctx.args.work_dir.join(format!("serve-cache-{k}"));
        let started = Instant::now();
        let server = Server::start(&bin, &dir)?;
        let mut pool = Vec::new();
        for seed in pool_seeds(ctx.args.seed) {
            let spec = ctx.spec(seed);
            let body = wire_body(&spec);
            let response = server.sweep(&body);
            if response.status != Status::Done {
                return Err(format!("priming request failed: {}", response.error));
            }
            pool.push(PoolSpec {
                spec,
                body,
                cells: response.cells,
            });
        }
        times.push(started.elapsed().as_secs_f64());
        if let Some((previous, first_pool)) = last.replace((server, pool)) {
            previous.stop()?;
            let pool = &last.as_ref().expect("just replaced").1;
            if pool
                .iter()
                .zip(&first_pool)
                .any(|(a, b)| a.cells != b.cells)
            {
                ctx.out
                    .problems
                    .push("a restarted server answered the pool differently".to_string());
            }
        }
    }
    let (server, pool) = last.expect("at least one set-up");
    Ok((server, pool, median(&times)))
}

/// Sends the seeded request sequence for `budget` (at least
/// [`MIN_REQUESTS`]) and checks every response.
fn client_phase(
    ctx: &mut Ctx<'_>,
    server: &Server,
    pool: &[PoolSpec],
    budget: Duration,
) -> ClientPhase {
    let mut phase = ClientPhase::default();
    let started = Instant::now();
    while phase.sent < MIN_REQUESTS || started.elapsed() < budget {
        let (body, repeat) = match request(ctx.args.seed, phase.sent) {
            Request::Repeat(k) => (pool[k].body.clone(), Some(k)),
            Request::Fresh(seed) => (wire_body(&ctx.spec(seed)), None),
        };
        phase.sent += 1;
        let response = server.sweep(&body);
        phase.bytes.push(response.bytes as f64);
        if let Some(problem) = check_response(&response, repeat.map(|k| &pool[k]), &mut phase) {
            ctx.out.problems.push(problem);
        }
    }
    phase
}

/// Classifies and checks one response; returns a correctness problem.
fn check_response(
    response: &Response,
    repeat: Option<&PoolSpec>,
    phase: &mut ClientPhase,
) -> Option<String> {
    if response.status != Status::Done {
        phase.failed += 1;
        eprintln!(
            "request {} failed ({:?}): {}",
            phase.sent, response.status, response.error
        );
        return None;
    }
    let trailer = response
        .trailer
        .as_ref()
        .expect("a done response has a trailer");
    let field = |key: &str| trailer.get(key).and_then(JsonValue::as_usize);
    if field("cells") != Some(response.cells.len()) {
        phase.failed += 1;
        return Some(format!(
            "request {}: trailer cell count differs from the stream",
            phase.sent
        ));
    }
    if field("total_safety_violations") != Some(0) {
        return Some(format!(
            "request {}: safety violations in a served sweep",
            phase.sent
        ));
    }
    if field("failed_cells").unwrap_or(0) > 0 {
        phase.failed += 1;
    }
    let mut episodes = 0;
    for line in &response.cells {
        match parse_cell_line(line) {
            Ok(cell) => {
                episodes += cell.episodes;
                if let Some(problem) = phase.tally.add(&cell) {
                    return Some(format!("request {}: {problem}", phase.sent));
                }
            }
            Err(e) => return Some(format!("request {}: {e}", phase.sent)),
        }
    }
    if let Some(first) = repeat {
        if response.cells != first.cells {
            return Some(format!(
                "request {}: repeat answer differs from the first answer for seed {}",
                phase.sent, first.spec.seed
            ));
        }
    } else {
        phase
            .miss_rates
            .push(episodes as f64 / response.total.as_secs_f64());
    }
    phase.latencies.push(ms(response.total));
    phase.firsts.push(response.first_cell.map_or(0.0, ms));
    None
}

/// The fields of a streamed cell line the checks use.
fn parse_cell_line(line: &str) -> Result<CellReport, String> {
    let doc = JsonValue::parse(line).map_err(|e| format!("cell line: {e}"))?;
    let data = doc.get("data").ok_or("cell line without data")?;
    let text = |key: &str| {
        data.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let int = |key: &str| data.get(key).and_then(JsonValue::as_usize).unwrap_or(0);
    let (scenario, policy) = (text("scenario"), text("policy"));
    if text("outcome") == "failed" {
        return Ok(CellReport::failed(
            &scenario,
            &policy,
            "none",
            0,
            text("reason"),
        ));
    }
    let mut cell = CellReport::failed(
        &scenario,
        &policy,
        "none",
        int("steps_per_episode"),
        String::new(),
    );
    cell.outcome = CellOutcome::Ok;
    cell.episodes = int("episodes");
    cell.total_steps = int("total_steps");
    cell.skipped_steps = int("skipped_steps");
    cell.forced_runs = int("forced_runs");
    cell.policy_runs = int("policy_runs");
    cell.safety_violations = int("safety_violations");
    cell.invariant_violations = int("invariant_violations");
    Ok(cell)
}

/// Checks each pool answer against the same spec run in-process: the
/// server must stream exactly the cells the engine computes.
fn cross_check_pool(ctx: &mut Ctx<'_>, pool: &[PoolSpec]) -> Result<(), String> {
    for entry in pool {
        let sweep = run_sweep(&ctx.registry, &entry.spec)?;
        let lines: Vec<String> = sweep
            .report
            .cells
            .iter()
            .enumerate()
            .map(|(g, cell)| {
                JsonValue::object()
                    .with("cell", g)
                    .with("data", cell.to_json(false))
                    .to_json()
            })
            .collect();
        if lines != entry.cells {
            ctx.out.problems.push(format!(
                "served cells for seed {} differ from the in-process sweep",
                entry.spec.seed
            ));
        }
    }
    Ok(())
}

/// Untraced `serve-mixed`: set-up (builds, server start, priming), the
/// closed-loop request phase, then the checks.
fn serve_end_to_end(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let (build, builds, _) = setup_builds(ctx)?;
    let (server, pool, started) = start_and_prime(ctx, SERVE_SETUPS)?;
    let phase = client_phase(ctx, &server, &pool, ctx.budget);
    let rss = server.peak_rss_mb();
    let stopped = server.stop();
    cross_check_pool(ctx, &pool)?;
    stopped?;
    let n = phase.latencies.len();
    let misses = phase.miss_rates.len();
    let r = &mut ctx.out.results;
    r.set(
        "setup_s",
        build + started,
        format!(
            "median of {} builds ({build:.4} s) + median of {SERVE_SETUPS} server starts with {} priming requests",
            builds.len(),
            pool.len()
        ),
    );
    r.set(
        "episodes_per_s",
        median(&phase.miss_rates),
        format!("median over {misses} fresh (all-miss) requests"),
    );
    r.set("request_p50_ms", median(&phase.latencies), format!("n={n}"));
    r.set(
        "request_p90_ms",
        quantile(&phase.latencies, 0.9),
        format!("n={n}"),
    );
    r.set("first_cell_p50_ms", median(&phase.firsts), format!("n={n}"));
    let failed_share = ratio(phase.failed as f64, phase.sent as f64);
    r.set(
        "success_share",
        1.0 - failed_share,
        format!(
            "failed_share {failed_share} ({} of {} requests)",
            phase.failed, phase.sent
        ),
    );
    r.set(
        "skip_rate",
        phase.tally.skip_rate(),
        format!("{} steps", phase.tally.steps),
    );
    r.set("peak_rss_mb", rss?, "server process");
    ctx.out.attempted = phase.sent;
    ctx.out.failed = phase.failed;
    Ok(())
}

/// Traced `serve-mixed`: a third of the budget drives the server (its
/// own counters give the LP work and cache traffic per request), the
/// rest splits the same spec in-process.
fn serve_layers(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let (server, pool, _) = start_and_prime(ctx, 1)?;
    let before = server.metrics()?;
    let phase = client_phase(ctx, &server, &pool, ctx.budget / 3);
    let after = server.metrics()?;
    server.stop()?;
    let budget = ctx.budget - ctx.budget / 3;
    layers_in_process(ctx, budget)?;

    // The served mix, not the in-process cold sweeps, decides the LP
    // work per request, the cache hit share and the response size: these
    // replace the in-process figures.

    let obs = |doc: &JsonValue| ObsTotals::from_json(doc.get("obs").unwrap_or(&JsonValue::Null));
    let served = obs(&after).since(&obs(&before));
    let cache = |doc: &JsonValue, key: &str| {
        doc.get("cache")
            .and_then(|c| c.get(key))
            .and_then(JsonValue::as_usize)
            .unwrap_or(0) as f64
    };
    let delta = |key: &str| cache(&after, key) - cache(&before, key);
    let hits = delta("mem_hits") + delta("disk_hits");
    let requests = phase.sent as f64;
    let solves = served.counter("lp.solves") as f64;
    let pivots = served.counter("lp.pivots") as f64;
    let per = format!("server counters per request, {} requests", phase.sent);
    let r = &mut ctx.out.results;
    r.set(
        "mpc.solves",
        served.count("mpc.step_ns") as f64 / requests,
        per.clone(),
    );
    r.set("lp.solves", solves / requests, per.clone());
    r.set("lp.pivots", pivots / requests, per.clone());
    r.set("lp.pivots_per_solve", ratio(pivots, solves), per.clone());
    r.set(
        "lp.phase1_entries",
        served.counter("lp.phase1_entries") as f64 / requests,
        per.clone(),
    );
    r.set(
        "lp.warm_hit_share",
        ratio(served.counter("lp.warm_hits") as f64, solves),
        per,
    );
    r.set(
        "cache.hit_share",
        ratio(hits, hits + delta("misses")),
        "server cell cache, measured requests",
    );
    r.set(
        "serve.response_bytes",
        median(&phase.bytes),
        format!("median response size, n={}", phase.bytes.len()),
    );
    ctx.out.attempted += phase.sent;
    ctx.out.failed += phase.failed;
    Ok(())
}

/// The scratch directory of one run under `root`.
pub fn work_dir(root: &Path, workload: Workload) -> PathBuf {
    root.join(".bench_work")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}
