//! # bts-fault
//!
//! Seeded, deterministic fault injection for the BTS serving stack.
//!
//! Every layer above the cost model assumes a perfect world unless told
//! otherwise; this crate is how it gets told otherwise. A [`FaultPlan`]
//! describes, in *simulated* time, everything that goes wrong during one run:
//!
//! * **chip failures** ([`ChipFailure`]) — a chip dies at a given instant and
//!   never comes back; the cluster layer migrates its queued and in-flight
//!   jobs to the survivors;
//! * **transient job faults** — a per-execution fault probability, decided
//!   deterministically per `(job, attempt)` so the decision does not depend
//!   on scheduling order; the serving layer redrives faulted jobs under a
//!   [`RetryPolicy`] (BASALISC-style conservative redrive: the faulted
//!   attempt consumes its full service time);
//! * **link degradation** ([`LinkDegradation`]) — windows of simulated time
//!   during which the cluster interconnect delivers only a fraction of its
//!   bandwidth.
//!
//! Plans are plain data: built explicitly with the `with_*` builders, or
//! generated reproducibly from a seed with [`FaultPlan::random`] (vendored
//! `StdRng`, so one seed pins one plan across platforms and PRs). The same
//! plan over the same job stream always yields bitwise-identical reports and
//! telemetry — the property suite (`tests/property_fault.rs`) holds the repo
//! to that.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One chip dying at a simulated instant, permanently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipFailure {
    /// Index of the chip within the cluster spec.
    pub chip: usize,
    /// When the chip fails, in seconds from the start of the run. Work that
    /// finishes strictly after this instant on the chip never completes.
    pub at_seconds: f64,
}

/// A window of simulated time during which the interconnect delivers only
/// `bandwidth_factor` of its nominal bandwidth (fixed latency unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start, seconds (inclusive).
    pub from_seconds: f64,
    /// Window end, seconds (exclusive).
    pub until_seconds: f64,
    /// Remaining bandwidth fraction in `(0, 1]`; overlapping windows
    /// multiply.
    pub bandwidth_factor: f64,
}

/// Why a fault plan is rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A chip failure names a chip the cluster does not have.
    ChipOutOfRange {
        /// The offending chip index.
        chip: usize,
        /// Number of chips the plan was validated against.
        chips: usize,
    },
    /// A failure time or retry backoff is negative or non-finite.
    InvalidTime {
        /// The rejected timestamp.
        seconds: f64,
    },
    /// The transient fault rate is outside `[0, 1)`.
    InvalidRate {
        /// The rejected rate.
        rate: f64,
    },
    /// A degradation window is empty, inverted, or has a factor outside
    /// `(0, 1]`.
    InvalidWindow {
        /// Window start.
        from_seconds: f64,
        /// Window end.
        until_seconds: f64,
        /// Window bandwidth factor.
        bandwidth_factor: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ChipOutOfRange { chip, chips } => {
                write!(
                    f,
                    "fault plan kills chip {chip} but the fleet has {chips} chips"
                )
            }
            FaultError::InvalidTime { seconds } => {
                write!(f, "fault time {seconds} must be finite and ≥ 0")
            }
            FaultError::InvalidRate { rate } => {
                write!(f, "transient fault rate {rate} must be in [0, 1)")
            }
            FaultError::InvalidWindow {
                from_seconds,
                until_seconds,
                bandwidth_factor,
            } => write!(
                f,
                "degradation window [{from_seconds}, {until_seconds}) x{bandwidth_factor} is \
                 malformed (need from < until, factor in (0, 1])"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Checks that `seconds` is a finite, non-negative simulated time.
///
/// # Errors
///
/// [`FaultError::InvalidTime`] otherwise.
pub fn check_time(seconds: f64) -> Result<(), FaultError> {
    if seconds.is_finite() && seconds >= 0.0 {
        Ok(())
    } else {
        Err(FaultError::InvalidTime { seconds })
    }
}

/// Everything that goes wrong during one simulated run, as plain data.
///
/// The default plan is fault-free; layers given a fault-free plan behave
/// bit-for-bit as if no plan existed at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-`(job, attempt)` transient-fault decisions.
    pub seed: u64,
    /// Probability in `[0, 1)` that any single job execution faults.
    pub transient_fault_rate: f64,
    /// Permanent chip failures, in no particular order.
    pub chip_failures: Vec<ChipFailure>,
    /// Interconnect brown-out windows.
    pub link_degradations: Vec<LinkDegradation>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: nothing fails, nothing degrades.
    pub fn none() -> Self {
        Self {
            seed: 0,
            transient_fault_rate: 0.0,
            chip_failures: Vec::new(),
            link_degradations: Vec::new(),
        }
    }

    /// Returns a copy with a different transient-fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a per-execution transient fault probability.
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_fault_rate = rate;
        self
    }

    /// Returns a copy with one more chip failure.
    pub fn with_chip_failure(mut self, chip: usize, at_seconds: f64) -> Self {
        self.chip_failures.push(ChipFailure { chip, at_seconds });
        self
    }

    /// Returns a copy with one more link-degradation window.
    pub fn with_link_degradation(
        mut self,
        from_seconds: f64,
        until_seconds: f64,
        bandwidth_factor: f64,
    ) -> Self {
        self.link_degradations.push(LinkDegradation {
            from_seconds,
            until_seconds,
            bandwidth_factor,
        });
        self
    }

    /// A reproducible random plan over a `chips`-chip fleet and a
    /// `horizon_seconds` run: each chip fails with probability 0.3 at a
    /// uniform time inside the horizon, the transient rate is uniform in
    /// `[0, 0.05)`, and with probability 0.5 one degradation window covers a
    /// random sub-interval at half bandwidth. One seed pins one plan.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_seconds` is not finite and positive.
    pub fn random(seed: u64, chips: usize, horizon_seconds: f64) -> Self {
        assert!(
            horizon_seconds.is_finite() && horizon_seconds > 0.0,
            "fault horizon must be finite and positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::none().with_seed(seed);
        for chip in 0..chips {
            let dies: f64 = rng.gen();
            let at: f64 = rng.gen::<f64>() * horizon_seconds;
            if dies < 0.3 {
                plan.chip_failures.push(ChipFailure {
                    chip,
                    at_seconds: at,
                });
            }
        }
        plan.transient_fault_rate = rng.gen::<f64>() * 0.05;
        let degrade: f64 = rng.gen();
        let a = rng.gen::<f64>() * horizon_seconds;
        let b = rng.gen::<f64>() * horizon_seconds;
        if degrade < 0.5 && a != b {
            plan.link_degradations.push(LinkDegradation {
                from_seconds: a.min(b),
                until_seconds: a.max(b),
                bandwidth_factor: 0.5,
            });
        }
        plan
    }

    /// Earliest failure time of `chip`, if the plan kills it.
    pub fn failure_of(&self, chip: usize) -> Option<f64> {
        self.chip_failures
            .iter()
            .filter(|f| f.chip == chip)
            .map(|f| f.at_seconds)
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.min(t))))
    }

    /// Deterministically decides whether execution `attempt` of `job`
    /// faults. The decision is a pure function of `(seed, job, attempt)` —
    /// it does not depend on when or where the attempt runs, so retries and
    /// migrations cannot perturb other jobs' fault draws.
    pub fn transient_faults(&self, job: u64, attempt: u32) -> bool {
        if self.transient_fault_rate <= 0.0 {
            return false;
        }
        let mut rng = StdRng::seed_from_u64(mix(self.seed, job, attempt));
        rng.gen::<f64>() < self.transient_fault_rate
    }

    /// Interconnect bandwidth fraction available at simulated time `t`:
    /// the product of every degradation window covering `t` (1.0 outside
    /// all windows).
    pub fn bandwidth_factor_at(&self, t: f64) -> f64 {
        self.link_degradations
            .iter()
            .filter(|w| w.from_seconds <= t && t < w.until_seconds)
            .map(|w| w.bandwidth_factor)
            .product()
    }

    /// Checks the plan against a fleet of `chips` chips.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: chip index in range, all times
    /// finite and non-negative, rate in `[0, 1)`, windows non-empty with
    /// factors in `(0, 1]`.
    pub fn validate(&self, chips: usize) -> Result<(), FaultError> {
        if !(0.0..1.0).contains(&self.transient_fault_rate) {
            return Err(FaultError::InvalidRate {
                rate: self.transient_fault_rate,
            });
        }
        for failure in &self.chip_failures {
            if failure.chip >= chips {
                return Err(FaultError::ChipOutOfRange {
                    chip: failure.chip,
                    chips,
                });
            }
            check_time(failure.at_seconds)?;
        }
        for w in &self.link_degradations {
            let times_ok = w.from_seconds.is_finite()
                && w.until_seconds.is_finite()
                && w.from_seconds >= 0.0
                && w.from_seconds < w.until_seconds;
            let factor_ok = w.bandwidth_factor.is_finite()
                && w.bandwidth_factor > 0.0
                && w.bandwidth_factor <= 1.0;
            if !times_ok || !factor_ok {
                return Err(FaultError::InvalidWindow {
                    from_seconds: w.from_seconds,
                    until_seconds: w.until_seconds,
                    bandwidth_factor: w.bandwidth_factor,
                });
            }
        }
        Ok(())
    }
}

/// How a layer redrives work that faulted or was interrupted: a budget of
/// executions per job and a capped exponential backoff in *simulated* time
/// between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum executions of one job (first attempt included). 1 means no
    /// retries at all.
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub backoff_base_seconds: f64,
    /// Backoff ceiling, seconds.
    pub backoff_cap_seconds: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_seconds: 1e-3,
            backoff_cap_seconds: 64e-3,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: one attempt, no backoff.
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_seconds: 0.0,
            backoff_cap_seconds: 0.0,
        }
    }

    /// Checks that both backoffs are finite, non-negative times: a NaN
    /// redrive would never come due, an infinite one never start.
    ///
    /// # Errors
    ///
    /// [`FaultError::InvalidTime`] naming the first offending backoff (base,
    /// then cap).
    pub fn validate(&self) -> Result<(), FaultError> {
        check_time(self.backoff_base_seconds)?;
        check_time(self.backoff_cap_seconds)
    }

    /// Simulated-time delay before retry number `retry` (1-based):
    /// `min(cap, base · 2^(retry−1))`. Retry 0 (the first attempt) waits
    /// nothing.
    pub fn backoff_seconds(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        let doubled = self.backoff_base_seconds
            * f64::from(u32::checked_pow(2, retry - 1).unwrap_or(u32::MAX));
        doubled.min(self.backoff_cap_seconds)
    }
}

/// Mixes `(seed, job, attempt)` into one RNG seed (splitmix64 finalizer), so
/// every `(job, attempt)` pair gets an independent, order-free fault draw.
fn mix(seed: u64, job: u64, attempt: u32) -> u64 {
    let mut z = seed
        ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free_and_valid() {
        let plan = FaultPlan::none();
        plan.validate(0).unwrap();
        assert_eq!(plan.failure_of(0), None);
        assert!(!plan.transient_faults(0, 0));
        assert_eq!(plan.bandwidth_factor_at(1.0), 1.0);
    }

    #[test]
    fn random_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::random(7, 4, 0.5);
        let b = FaultPlan::random(7, 4, 0.5);
        assert_eq!(a, b);
        a.validate(4).unwrap();
        // Some seed in a small range must differ (chip kills are Bernoulli).
        let differs = (0..16u64).any(|s| FaultPlan::random(s, 4, 0.5) != a);
        assert!(differs, "random plans look seed-insensitive");
    }

    #[test]
    fn transient_draws_are_per_attempt_and_order_free() {
        let plan = FaultPlan::none().with_seed(11).with_transient_rate(0.5);
        // Same (job, attempt) always draws the same answer...
        for job in 0..50u64 {
            for attempt in 0..3u32 {
                assert_eq!(
                    plan.transient_faults(job, attempt),
                    plan.transient_faults(job, attempt)
                );
            }
        }
        // ...and at rate 0.5 both outcomes occur across jobs.
        let faults = (0..100u64).filter(|&j| plan.transient_faults(j, 0)).count();
        assert!(faults > 20 && faults < 80, "rate 0.5 drew {faults}/100");
        // Attempts draw independently: some job faults on attempt 0 but not 1.
        assert!((0..100u64).any(|j| plan.transient_faults(j, 0) != plan.transient_faults(j, 1)));
    }

    #[test]
    fn failure_of_takes_the_earliest_kill() {
        let plan = FaultPlan::none()
            .with_chip_failure(1, 0.4)
            .with_chip_failure(1, 0.2)
            .with_chip_failure(0, 0.9);
        assert_eq!(plan.failure_of(1), Some(0.2));
        assert_eq!(plan.failure_of(0), Some(0.9));
        assert_eq!(plan.failure_of(2), None);
        plan.validate(2).unwrap();
        assert!(matches!(
            plan.validate(1),
            Err(FaultError::ChipOutOfRange { chip: 1, chips: 1 })
        ));
    }

    #[test]
    fn degradation_windows_multiply_and_validate() {
        let plan = FaultPlan::none()
            .with_link_degradation(0.0, 1.0, 0.5)
            .with_link_degradation(0.5, 2.0, 0.4);
        assert!((plan.bandwidth_factor_at(0.25) - 0.5).abs() < 1e-15);
        assert!((plan.bandwidth_factor_at(0.75) - 0.2).abs() < 1e-15);
        assert!((plan.bandwidth_factor_at(1.5) - 0.4).abs() < 1e-15);
        assert_eq!(plan.bandwidth_factor_at(3.0), 1.0);
        plan.validate(0).unwrap();

        let empty = FaultPlan::none().with_link_degradation(1.0, 1.0, 0.5);
        assert!(matches!(
            empty.validate(0),
            Err(FaultError::InvalidWindow { .. })
        ));
        let over = FaultPlan::none().with_link_degradation(0.0, 1.0, 1.5);
        assert!(over.validate(0).is_err());
        let rate = FaultPlan::none().with_transient_rate(1.0);
        assert!(matches!(
            rate.validate(0),
            Err(FaultError::InvalidRate { rate: r }) if r == 1.0
        ));
        let when = FaultPlan::none().with_chip_failure(0, f64::NAN);
        assert!(matches!(
            when.validate(1),
            Err(FaultError::InvalidTime { .. })
        ));
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let retry = RetryPolicy {
            max_attempts: 8,
            backoff_base_seconds: 1e-3,
            backoff_cap_seconds: 5e-3,
        };
        assert_eq!(retry.backoff_seconds(0), 0.0);
        assert!((retry.backoff_seconds(1) - 1e-3).abs() < 1e-18);
        assert!((retry.backoff_seconds(2) - 2e-3).abs() < 1e-18);
        assert!((retry.backoff_seconds(3) - 4e-3).abs() < 1e-18);
        assert!((retry.backoff_seconds(4) - 5e-3).abs() < 1e-18);
        assert!((retry.backoff_seconds(40) - 5e-3).abs() < 1e-18);
        assert_eq!(RetryPolicy::no_retries().max_attempts, 1);
    }

    #[test]
    fn backoffs_must_be_finite_non_negative_times() {
        RetryPolicy::default().validate().unwrap();
        RetryPolicy::no_retries().validate().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3] {
            let base = RetryPolicy {
                backoff_base_seconds: bad,
                ..RetryPolicy::default()
            };
            let cap = RetryPolicy {
                backoff_cap_seconds: bad,
                ..RetryPolicy::default()
            };
            for policy in [base, cap] {
                assert!(
                    matches!(policy.validate(), Err(FaultError::InvalidTime { seconds })
                        if seconds.to_bits() == bad.to_bits()),
                    "backoff {bad} accepted"
                );
            }
        }
    }

    #[test]
    fn errors_render_their_context() {
        let e = FaultError::ChipOutOfRange { chip: 5, chips: 4 };
        assert!(e.to_string().contains("chip 5"));
        assert!(FaultError::InvalidRate { rate: 2.0 }
            .to_string()
            .contains("[0, 1)"));
    }
}
