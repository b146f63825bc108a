//! Job descriptors: what a tenant submits to the serving layer.

use std::collections::HashMap;

use bts_params::CkksInstance;

use crate::error::ServeError;

/// One unit of work submitted to the serving layer: a named workload from the
/// registry, the CKKS instance to run it under, and when it arrives. The
/// server lowers the workload's circuit to a trace and streams it through the
/// shared accelerator alongside every other in-flight job.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen job identifier, unique within one serve call.
    pub id: u64,
    /// Tenant the job belongs to (fairness is reported per tenant).
    pub tenant: u32,
    /// Registry name of the workload (e.g. `"bootstrap"`, `"resnet20"`).
    pub workload: String,
    /// CKKS instance the job's circuit is built for. Jobs in one batch may
    /// use different instances; they still share the machine's channels.
    pub instance: CkksInstance,
    /// Arrival time of the job at the service queue, in seconds from the
    /// start of the simulation.
    pub arrival_seconds: f64,
    /// Optional absolute completion deadline (seconds from the start of the
    /// simulation, not relative to arrival). Jobs finishing after it count
    /// against SLO attainment; jobs still queued when it passes are shed.
    pub deadline_seconds: Option<f64>,
}

impl JobRequest {
    /// A job request with every field explicit.
    pub fn new(
        id: u64,
        tenant: u32,
        workload: impl Into<String>,
        instance: CkksInstance,
        arrival_seconds: f64,
    ) -> Self {
        Self {
            id,
            tenant,
            workload: workload.into(),
            instance,
            arrival_seconds,
            deadline_seconds: None,
        }
    }

    /// Returns a copy with an absolute completion deadline.
    pub fn with_deadline(mut self, deadline_seconds: f64) -> Self {
        self.deadline_seconds = Some(deadline_seconds);
        self
    }
}

/// The batch front door of every server (one chip or a fleet): arrivals must
/// be finite, non-negative and times the simulated clock can hold
/// ([`bts_sim::ticks::from_seconds`]), deadlines finite, ids unique.
/// Returns each job id's index in submission order.
///
/// # Errors
///
/// [`ServeError::InvalidArrival`], [`ServeError::InvalidDeadline`] or
/// [`ServeError::DuplicateJobId`], naming the first offending job.
pub fn validate_batch(jobs: &[JobRequest]) -> Result<HashMap<u64, usize>, ServeError> {
    let mut index_of = HashMap::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        if bts_sim::ticks::from_seconds(job.arrival_seconds).is_none() {
            return Err(ServeError::InvalidArrival {
                job: job.id,
                arrival_seconds: job.arrival_seconds,
            });
        }
        if let Some(d) = job.deadline_seconds {
            if !d.is_finite() {
                return Err(ServeError::InvalidDeadline {
                    job: job.id,
                    deadline_seconds: d,
                });
            }
        }
        if index_of.insert(job.id, j).is_some() {
            return Err(ServeError::DuplicateJobId { job: job.id });
        }
    }
    Ok(index_of)
}

/// A queued job as a [`crate::QueuePolicy`] sees it when picking the next
/// admission: enough to order by arrival, estimated cost, or tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Index of the job in the submission order (the tie-breaker of last
    /// resort, so selection is always deterministic).
    pub submit_index: usize,
    /// Tenant the job belongs to.
    pub tenant: u32,
    /// Arrival time in seconds.
    pub arrival_seconds: f64,
    /// Estimated service cost in seconds — the online closed-form estimate
    /// of the job's lowered trace ([`crate::estimate`]), not the oracle
    /// serial charge.
    pub estimate_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_carry_their_fields() {
        let job = JobRequest::new(3, 1, "bootstrap", CkksInstance::ins1(), 0.5);
        assert_eq!(job.id, 3);
        assert_eq!(job.tenant, 1);
        assert_eq!(job.workload, "bootstrap");
        assert_eq!(job.instance.name(), "INS-1");
        assert!((job.arrival_seconds - 0.5).abs() < 1e-15);
        assert_eq!(job.deadline_seconds, None);
        let strict = job.with_deadline(0.75);
        assert_eq!(strict.deadline_seconds, Some(0.75));
    }
}
