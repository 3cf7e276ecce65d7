//! The benchmark's workloads and the inputs each draws from its seed.
//!
//! Every input here is a pure function of the workload seed: the sweep
//! specs of the two sweep workloads and the request sequence of
//! `serve-mixed`. A run consumes a prefix of an endless, seed-fixed
//! stream, so the same seed always feeds the program the same inputs.

use oic_engine::{PolicySpec, SweepSpec};
use oic_scenarios::ScenarioRegistry;

/// The scenarios whose safe controller is a tube MPC.
pub const MPC_SCENARIOS: [&str; 2] = ["acc", "lane-keeping"];

/// The `serve-mixed` scenario subset: `acc` (tube MPC) plus three
/// linear-feedback plants.
pub const SERVE_SCENARIOS: [&str; 4] = ["acc", "dc-motor", "double-integrator", "thermal-rc"];

/// Episodes per cell of one `mpc-sweep` sweep.
pub const MPC_EPISODES: usize = 8;

/// Episodes per work-stealing task in `mpc-sweep`: four tasks per cell,
/// so no single tube-MPC cell decides when the last worker finishes.
pub const MPC_CHUNK: usize = 2;

/// Episodes per cell of one `feedback-sweep` sweep.
pub const FEEDBACK_EPISODES: usize = 300;

/// Episodes per cell of one `serve-mixed` request.
pub const SERVE_EPISODES: usize = 3;

/// Steps per episode, every workload.
pub const STEPS: usize = 100;

/// Distinct already-answered specs the `serve-mixed` repeats draw from.
pub const SERVE_POOL: usize = 3;

/// Requests per block of the `serve-mixed` sequence; exactly one request
/// of every block carries a fresh seed.
pub const SERVE_BLOCK: usize = 5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `acc` + `lane-keeping` (tube MPC) × the full roster.
    MpcSweep,
    /// The eight linear-feedback scenarios × the full roster.
    FeedbackSweep,
    /// A `serve listen` process answering a mix of repeated and fresh
    /// specs over HTTP.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::MpcSweep,
        Workload::FeedbackSweep,
        Workload::ServeMixed,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MpcSweep => "mpc-sweep",
            Workload::FeedbackSweep => "feedback-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry scenarios this workload runs, in registry order.
    pub fn scenarios(self, registry: &ScenarioRegistry) -> Vec<String> {
        registry
            .names()
            .into_iter()
            .filter(|name| match self {
                Workload::MpcSweep => MPC_SCENARIOS.contains(name),
                Workload::FeedbackSweep => !MPC_SCENARIOS.contains(name),
                Workload::ServeMixed => SERVE_SCENARIOS.contains(name),
            })
            .map(String::from)
            .collect()
    }

    /// The policy roster: the five analytic policies plus the golden
    /// learned ones (`serve-mixed` carries only `drl-acc`, whose weights
    /// travel in every request body).
    pub fn roster(self, registry: &ScenarioRegistry) -> Vec<PolicySpec> {
        let mut roster = oic_bench::experiments::batch::standard_policies();
        roster.extend(
            oic_bench::golden::drl_policies(registry)
                .into_iter()
                .filter(|p| self != Workload::ServeMixed || p.label() == "drl-acc"),
        );
        roster
    }

    /// Episodes per cell of one sweep or request.
    pub fn episodes(self) -> usize {
        match self {
            Workload::MpcSweep => MPC_EPISODES,
            Workload::FeedbackSweep => FEEDBACK_EPISODES,
            Workload::ServeMixed => SERVE_EPISODES,
        }
    }

    /// The sweep spec with base seed `seed`.
    pub fn spec(self, registry: &ScenarioRegistry, seed: u64) -> SweepSpec {
        SweepSpec {
            scenarios: self.scenarios(registry),
            policies: self.roster(registry),
            episodes: self.episodes(),
            steps: STEPS,
            seed,
            chunk: if self == Workload::MpcSweep {
                MPC_CHUNK
            } else {
                0
            },
            ..SweepSpec::default()
        }
    }
}

/// SplitMix64 finalizer: a bijective mix of one word.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Base seed of stream `stream`, element `index`, under workload seed
/// `seed`. Streams keep sweep iterations, the serve pool and fresh serve
/// requests apart.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}

const STREAM_SWEEP: u64 = 1;
const STREAM_POOL: u64 = 2;
const STREAM_FRESH: u64 = 3;
const STREAM_PLAN: u64 = 4;

/// Base seed of sweep iteration `i` (iteration 0 is the warm-up).
pub fn sweep_seed(seed: u64, i: usize) -> u64 {
    derive(seed, STREAM_SWEEP, i as u64)
}

/// One request of the `serve-mixed` sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Repeat pool spec `k`, already answered while priming.
    Repeat(usize),
    /// A spec never sent before, with this base seed.
    Fresh(u64),
}

/// Base seeds of the repeat pool.
pub fn pool_seeds(seed: u64) -> Vec<u64> {
    (0..SERVE_POOL as u64)
        .map(|k| derive(seed, STREAM_POOL, k))
        .collect()
}

/// Request `i` of the `serve-mixed` sequence: in every block of
/// [`SERVE_BLOCK`] requests one, at a seeded position, is fresh; the
/// others repeat seeded picks from the pool.
pub fn request(seed: u64, i: usize) -> Request {
    let block = (i / SERVE_BLOCK) as u64;
    let fresh_at = derive(seed, STREAM_PLAN, block) % SERVE_BLOCK as u64;
    if (i % SERVE_BLOCK) as u64 == fresh_at {
        Request::Fresh(derive(seed, STREAM_FRESH, block))
    } else {
        Request::Repeat(
            (derive(seed, STREAM_PLAN, i as u64 + (1 << 32)) % SERVE_POOL as u64) as usize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ScenarioRegistry {
        oic_bench::golden::registry_with_golden()
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn specs_are_a_pure_function_of_the_seed() {
        let registry = registry();
        for w in Workload::ALL {
            for seed in [0, 7, u64::MAX] {
                let a = w.spec(&registry, sweep_seed(seed, 3));
                let b = w.spec(&registry, sweep_seed(seed, 3));
                assert_eq!(a.spec_hash(), b.spec_hash(), "{}", w.name());
            }
            let a = w.spec(&registry, sweep_seed(1, 0));
            let b = w.spec(&registry, sweep_seed(2, 0));
            assert_ne!(a.spec_hash(), b.spec_hash(), "{}: seeds differ", w.name());
        }
    }

    #[test]
    fn workloads_cover_the_registry_as_described() {
        let registry = registry();
        assert_eq!(
            Workload::MpcSweep.scenarios(&registry),
            ["acc", "lane-keeping"]
        );
        assert_eq!(Workload::FeedbackSweep.scenarios(&registry).len(), 8);
        assert_eq!(
            Workload::ServeMixed.scenarios(&registry).len(),
            SERVE_SCENARIOS.len()
        );
        let labels: Vec<String> = Workload::ServeMixed
            .roster(&registry)
            .iter()
            .map(PolicySpec::label)
            .collect();
        assert!(labels.contains(&"drl-acc".to_string()));
        assert_eq!(Workload::MpcSweep.roster(&registry).len(), 7);
    }

    #[test]
    fn request_sequence_is_a_pure_function_of_the_seed() {
        let a: Vec<Request> = (0..200).map(|i| request(42, i)).collect();
        let b: Vec<Request> = (0..200).map(|i| request(42, i)).collect();
        let c: Vec<Request> = (0..200).map(|i| request(43, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool_seeds(42), pool_seeds(42));
    }

    #[test]
    fn one_request_per_block_is_fresh_and_never_repeats_a_pool_seed() {
        for seed in [0, 1, 99] {
            let pool = pool_seeds(seed);
            let mut fresh = Vec::new();
            for block in 0..100 {
                let kinds: Vec<Request> = (0..SERVE_BLOCK)
                    .map(|j| request(seed, block * SERVE_BLOCK + j))
                    .collect();
                let seeds: Vec<u64> = kinds
                    .iter()
                    .filter_map(|r| match r {
                        Request::Fresh(s) => Some(*s),
                        Request::Repeat(k) => {
                            assert!(*k < SERVE_POOL);
                            None
                        }
                    })
                    .collect();
                assert_eq!(seeds.len(), 1, "one fresh request per block");
                assert!(!pool.contains(&seeds[0]));
                fresh.push(seeds[0]);
            }
            let mut dedup = fresh.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), fresh.len(), "fresh seeds never repeat");
        }
    }
}
