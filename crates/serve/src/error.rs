//! Errors a serve call can surface.

/// Why the serving layer refused or failed to run a batch.
#[derive(Debug)]
pub enum ServeError {
    /// A job names a workload the registry does not know.
    UnknownWorkload {
        /// Id of the offending job.
        job: u64,
        /// The unknown workload name.
        workload: String,
    },
    /// Building or lowering a job's circuit failed (e.g. the instance cannot
    /// bootstrap but the workload needs to).
    Circuit {
        /// Id of the offending job.
        job: u64,
        /// The underlying circuit error.
        source: bts_circuit::CircuitError,
    },
    /// A job's lowered trace failed structural validation.
    Trace {
        /// Id of the offending job.
        job: u64,
        /// The underlying trace error.
        source: bts_sim::TraceError,
    },
    /// A job's arrival time is negative, non-finite, or past the simulated
    /// clock's range ([`bts_sim::ticks::MAX_TICKS`]).
    InvalidArrival {
        /// Id of the offending job.
        job: u64,
        /// The rejected arrival time.
        arrival_seconds: f64,
    },
    /// Two jobs share the same id, which would make the report ambiguous.
    DuplicateJobId {
        /// The duplicated id.
        job: u64,
    },
    /// `max_in_flight` is zero — the server could never start a job.
    NoCapacity,
    /// A job's deadline is non-finite (deadlines are absolute simulated
    /// times; `None` means no deadline — an explicit one must be a number).
    InvalidDeadline {
        /// Id of the offending job.
        job: u64,
        /// The rejected deadline.
        deadline_seconds: f64,
    },
    /// A job's (workload, instance) pair is not in the prepared batch it
    /// was served from ([`crate::PreparedBatch::serve`]).
    Unprepared {
        /// Id of the offending job.
        job: u64,
        /// The job's workload name.
        workload: String,
    },
    /// The options describe another machine than the one the batch was
    /// prepared for: its plans and charges would not hold there.
    OtherMachine,
    /// The retry policy allows zero attempts — no job could ever run.
    NoAttempts,
    /// The fault plan is malformed (bad rate, window, or failure time).
    Fault(bts_fault::FaultError),
    /// The hardware configuration fails [`bts_sim::BtsConfig::validate`]
    /// (zero unit counts, non-positive bandwidths, …).
    Config(bts_sim::ConfigError),
    /// The scheduler refused an admission: the run's clock passed the
    /// range of simulated ticks ([`bts_sim::ticks::MAX_TICKS`]).
    Schedule(bts_sched::ScheduleError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownWorkload { job, workload } => {
                write!(f, "job {job} names unknown workload '{workload}'")
            }
            ServeError::Circuit { job, source } => {
                write!(f, "job {job} failed to lower: {source}")
            }
            ServeError::Trace { job, source } => {
                write!(f, "job {job} produced an invalid trace: {source}")
            }
            ServeError::InvalidArrival {
                job,
                arrival_seconds,
            } => write!(
                f,
                "job {job} has invalid arrival time {arrival_seconds} (must be finite, ≥ 0 and in the clock's range)"
            ),
            ServeError::DuplicateJobId { job } => {
                write!(f, "job id {job} submitted twice in one batch")
            }
            ServeError::NoCapacity => {
                write!(f, "max_in_flight is 0; the server can never start a job")
            }
            ServeError::InvalidDeadline {
                job,
                deadline_seconds,
            } => write!(
                f,
                "job {job} has invalid deadline {deadline_seconds} (must be finite)"
            ),
            ServeError::Unprepared { job, workload } => write!(
                f,
                "job {job} runs '{workload}' on an instance the batch did not prepare"
            ),
            ServeError::OtherMachine => write!(
                f,
                "the options' hardware configuration is not the one the batch was prepared for"
            ),
            ServeError::NoAttempts => {
                write!(f, "retry policy allows 0 attempts; no job could ever run")
            }
            ServeError::Fault(source) => {
                write!(f, "invalid fault plan: {source}")
            }
            ServeError::Config(source) => {
                write!(f, "invalid hardware configuration: {source}")
            }
            ServeError::Schedule(source) => write!(f, "admission refused: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Circuit { source, .. } => Some(source),
            ServeError::Trace { source, .. } => Some(source),
            ServeError::Config(source) => Some(source),
            ServeError::Fault(source) => Some(source),
            ServeError::Schedule(source) => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = ServeError::UnknownWorkload {
            job: 7,
            workload: "nope".into(),
        };
        assert!(e.to_string().contains("job 7"));
        assert!(e.to_string().contains("nope"));
        assert!(ServeError::NoCapacity.to_string().contains("max_in_flight"));
    }

    #[test]
    fn overload_and_fault_errors_render_their_context() {
        let unprepared = ServeError::Unprepared {
            job: 12,
            workload: "helr".into(),
        };
        assert!(unprepared.to_string().contains("job 12"));
        assert!(unprepared.to_string().contains("helr"));
        assert!(ServeError::OtherMachine
            .to_string()
            .contains("prepared for"));
        let deadline = ServeError::InvalidDeadline {
            job: 9,
            deadline_seconds: f64::NAN,
        };
        assert!(deadline.to_string().contains("job 9"));
        let fault = ServeError::Fault(bts_fault::FaultError::InvalidRate { rate: 2.0 });
        assert!(fault.to_string().contains("fault plan"));
        use std::error::Error as _;
        assert!(fault.source().is_some(), "fault errors chain their source");
        assert!(ServeError::NoAttempts.to_string().contains("0 attempts"));
    }
}
