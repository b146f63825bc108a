//! Why the scheduler refuses a job, as a value instead of a panic.

use bts_sim::TraceError;

/// A job [`crate::JobPlan::new`], [`crate::MultiScheduler::add_planned`] or
/// [`crate::MultiScheduler::add_job`] refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The plan was built for another machine than the scheduler's.
    MachineMismatch,
    /// A release time (seconds) that is negative or not finite.
    InvalidRelease(f64),
    /// A tag that was already admitted.
    DuplicateTag(u32),
    /// `(ops, timings)`: per-op timings that do not cover the trace.
    TimingCount(usize, usize),
    /// The trace's first structural defect.
    Trace(TraceError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::MachineMismatch => write!(f, "plan built for another machine"),
            ScheduleError::InvalidRelease(t) => {
                write!(f, "release time {t} s is negative or not finite")
            }
            ScheduleError::DuplicateTag(tag) => write!(f, "job tag {tag} admitted twice"),
            ScheduleError::TimingCount(ops, timings) => {
                write!(f, "{timings} timings for a trace of {ops} ops")
            }
            ScheduleError::Trace(e) => write!(f, "invalid op trace: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}
