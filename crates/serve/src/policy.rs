//! Queueing policies: who gets the next free slot on the accelerator.

use crate::job::QueuedJob;

/// How the server picks the next job from the arrived-but-waiting queue when
/// an accelerator slot frees up. All three policies are deterministic; ties
/// fall through to earlier arrival and finally submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// First come, first served: earliest arrival wins.
    #[default]
    Fifo,
    /// Shortest job first, by the *online* closed-form estimate of the
    /// lowered trace (compiled op counts × cache-independent per-op charges,
    /// see [`crate::estimate`]) — minimizes mean latency under load, at the
    /// price of starving long jobs while short ones keep arriving.
    ShortestJobFirst,
    /// Round-robin across tenants: the next tenant (by id, cyclically after
    /// the last served one) with a waiting job goes first; within a tenant,
    /// FIFO. Bounds how long any tenant can be locked out.
    RoundRobin,
}

impl QueuePolicy {
    /// All policies, in display order.
    pub const ALL: [QueuePolicy; 3] = [
        QueuePolicy::Fifo,
        QueuePolicy::ShortestJobFirst,
        QueuePolicy::RoundRobin,
    ];

    /// Stable short name (`fifo`, `sjf`, `round-robin`).
    pub fn label(&self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::ShortestJobFirst => "sjf",
            QueuePolicy::RoundRobin => "round-robin",
        }
    }

    /// Picks the next job to admit from `candidates` (the arrived, waiting
    /// jobs) and returns its index in that slice. `last_tenant` is the
    /// tenant served most recently, for round-robin rotation.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty — the server only consults the policy
    /// when at least one job waits.
    pub fn select(&self, candidates: &[QueuedJob], last_tenant: Option<u32>) -> usize {
        assert!(!candidates.is_empty(), "no queued jobs to select from");
        let best_by = |key: &dyn Fn(&QueuedJob) -> (f64, f64, usize)| -> usize {
            let mut best = 0;
            for (i, j) in candidates.iter().enumerate() {
                if key(j) < key(&candidates[best]) {
                    best = i;
                }
            }
            best
        };
        match self {
            QueuePolicy::Fifo => best_by(&|j| (0.0, j.arrival_seconds, j.submit_index)),
            QueuePolicy::ShortestJobFirst => {
                best_by(&|j| (j.estimate_seconds, j.arrival_seconds, j.submit_index))
            }
            QueuePolicy::RoundRobin => {
                // Distance of each candidate's tenant from the last served
                // tenant, cyclically and excluding it unless it is the only
                // one waiting; smallest distance wins, then FIFO within it.
                let after = last_tenant.map_or(0, |t| t.wrapping_add(1));
                let distance = |j: &QueuedJob| f64::from(j.tenant.wrapping_sub(after));
                best_by(&|j| (distance(j), j.arrival_seconds, j.submit_index))
            }
        }
    }
}

impl std::fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(submit_index: usize, tenant: u32, arrival: f64, estimate: f64) -> QueuedJob {
        QueuedJob {
            submit_index,
            tenant,
            arrival_seconds: arrival,
            estimate_seconds: estimate,
        }
    }

    #[test]
    fn fifo_takes_the_earliest_arrival() {
        let q = [queued(0, 0, 2.0, 1.0), queued(1, 1, 1.0, 9.0)];
        assert_eq!(QueuePolicy::Fifo.select(&q, None), 1);
    }

    #[test]
    fn sjf_takes_the_cheapest_estimate() {
        let q = [queued(0, 0, 1.0, 5.0), queued(1, 1, 2.0, 0.5)];
        assert_eq!(QueuePolicy::ShortestJobFirst.select(&q, None), 1);
        // Equal estimates fall back to arrival order.
        let q = [queued(0, 0, 2.0, 1.0), queued(1, 1, 1.0, 1.0)];
        assert_eq!(QueuePolicy::ShortestJobFirst.select(&q, None), 1);
    }

    #[test]
    fn round_robin_rotates_tenants() {
        let q = [
            queued(0, 0, 0.0, 1.0),
            queued(1, 1, 0.0, 1.0),
            queued(2, 2, 0.0, 1.0),
        ];
        // After tenant 0, tenant 1 is next; after 2 it wraps back to 0.
        assert_eq!(QueuePolicy::RoundRobin.select(&q, Some(0)), 1);
        assert_eq!(QueuePolicy::RoundRobin.select(&q, Some(2)), 0);
        // The last-served tenant only goes again if nobody else waits.
        let only = [queued(5, 1, 0.0, 1.0)];
        assert_eq!(QueuePolicy::RoundRobin.select(&only, Some(1)), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QueuePolicy::Fifo.label(), "fifo");
        assert_eq!(QueuePolicy::ShortestJobFirst.label(), "sjf");
        assert_eq!(QueuePolicy::RoundRobin.to_string(), "round-robin");
    }
}
