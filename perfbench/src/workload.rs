//! The four workloads: what each one builds, from which seed.

use scrip_bench::scenario::Scenario;
use scrip_core::des::{SeedSequence, SimTime};
use scrip_core::market::MarketConfig;
use scrip_core::spec::MarketSpec;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed scale-free market with availability feedback.
    ClosedFeedback,
    /// Open market under churn.
    ChurnOpen,
    /// Faulted single-case jobs through an in-process daemon.
    ServeFaulted,
    /// Record, verify and resume the faulted market.
    RecordReplay,
}

/// Every workload, in the order the documentation lists them.
pub const ALL: [Workload; 4] = [
    Workload::ClosedFeedback,
    Workload::ChurnOpen,
    Workload::ServeFaulted,
    Workload::RecordReplay,
];

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedFeedback => "closed_feedback",
            Workload::ChurnOpen => "churn_open",
            Workload::ServeFaulted => "serve_faulted",
            Workload::RecordReplay => "record_replay",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and horizons of one workload at full or smoke scale.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The market every job of the workload runs.
    pub spec: MarketSpec,
    /// Simulated horizon of one job.
    pub horizon: SimTime,
    /// Simulated horizon of the record → replay check and of the
    /// trace/checkpoint layer probes.
    pub probe_horizon: SimTime,
    /// Overlay sizes for the join/leave scaling exponents.
    pub slope_sizes: [usize; 3],
    /// Whether this is the tiny-n smoke scale.
    pub smoke: bool,
}

impl Plan {
    /// The plan for `workload`; `smoke` shrinks every market to a few
    /// hundred peers so a whole run takes about a second.
    pub fn new(workload: Workload, smoke: bool) -> Plan {
        let big = if smoke { 600 } else { 100_000 };
        let job = if smoke { 300 } else { 10_000 };
        let mut spec;
        let (horizon, probe_horizon);
        match workload {
            Workload::ClosedFeedback => {
                spec = MarketSpec::new(big, 50);
                set(&mut spec, "profile", "asymmetric");
                set(&mut spec, "availability-feedback", "true");
                set(&mut spec, "sample", "1");
                (horizon, probe_horizon) = if smoke { (40, 10) } else { (4, 2) };
            }
            Workload::ChurnOpen => {
                spec = MarketSpec::new(big, 50);
                set(&mut spec, "profile", "asymmetric");
                // Arrival n/500 per second, lifespan 500 s, attach 20.
                set(
                    &mut spec,
                    "churn",
                    &format!("{}:500:20", big as f64 / 500.0),
                );
                set(&mut spec, "sample", "1");
                (horizon, probe_horizon) = if smoke { (40, 10) } else { (3, 2) };
            }
            Workload::ServeFaulted | Workload::RecordReplay => {
                spec = MarketSpec::new(job, 50);
                set(&mut spec, "profile", "asymmetric");
                // 1% drops and 1% defections, no delays or crashes.
                set(&mut spec, "faults", "0.01:0.01:0:0");
                set(&mut spec, "sample", "10");
                horizon = 20;
                probe_horizon = 20;
            }
        }
        Plan {
            workload,
            spec,
            horizon: SimTime::from_secs(horizon),
            probe_horizon: SimTime::from_secs(probe_horizon),
            slope_sizes: if smoke {
                [100, 300, 1_000]
            } else {
                [1_000, 10_000, 100_000]
            },
            smoke,
        }
    }

    /// The validated market configuration.
    pub fn config(&self) -> MarketConfig {
        self.spec.build().expect("workload markets are valid")
    }

    /// The workload's market as a single-case scenario file (what the
    /// daemon is sent, and what `scenario.parse_us` parses).
    pub fn scenario(&self, seed: u64) -> Scenario {
        let mut scenario = Scenario::new(self.workload.name(), self.spec.clone());
        scenario.run.horizon_secs = self.horizon.as_secs_f64() as u64;
        scenario.run.seed = seed;
        scenario
    }
}

fn set(spec: &mut MarketSpec, key: &str, value: &str) {
    spec.set(key, value).expect("workload keys are valid");
}

/// The seed of job `k` of a run started with `run_seed`. Jobs cycle
/// through two seeds, so from the third job on every job has an earlier
/// twin whose output it must reproduce exactly.
pub fn job_seed(run_seed: u64, k: u64) -> u64 {
    SeedSequence::new(run_seed).derive(k % 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_plans_validate() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for smoke in [true, false] {
                let plan = Plan::new(w, smoke);
                plan.config();
                let text = plan.scenario(7).to_file_string();
                let parsed = Scenario::parse_str(&text).expect("scenario text parses");
                assert_eq!(parsed.run.seed, 7);
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn job_seeds_alternate_between_two_values() {
        assert_eq!(job_seed(5, 0), job_seed(5, 2));
        assert_eq!(job_seed(5, 1), job_seed(5, 3));
        assert_ne!(job_seed(5, 0), job_seed(5, 1));
        assert_ne!(job_seed(5, 0), job_seed(6, 0));
    }
}
