//! Why the scheduler refuses a job, as a value instead of a panic.

use bts_sim::TraceError;

/// A job [`crate::JobPlan::new`], [`crate::MultiScheduler::add_planned`] or
/// [`crate::MultiScheduler::add_job`] refused.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A release time (seconds) that is negative or not finite.
    InvalidRelease(f64),
    /// A tag that was already admitted.
    DuplicateTag(u32),
    /// `(ops, timings)`: per-op timings that do not cover the trace.
    TimingCount(usize, usize),
    /// An op's duration or unit busy time that is negative or not finite.
    InvalidTiming {
        /// Index of the op in program order.
        op: usize,
        /// The offending time, seconds.
        seconds: f64,
    },
    /// The trace's first structural defect.
    Trace(TraceError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::InvalidRelease(t) => {
                write!(f, "release time {t} s is negative or not finite")
            }
            ScheduleError::DuplicateTag(tag) => write!(f, "job tag {tag} admitted twice"),
            ScheduleError::TimingCount(ops, timings) => {
                write!(f, "{timings} timings for a trace of {ops} ops")
            }
            ScheduleError::InvalidTiming { op, seconds } => {
                write!(f, "op #{op} is charged {seconds} s: negative or not finite")
            }
            ScheduleError::Trace(e) => write!(f, "invalid op trace: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}
