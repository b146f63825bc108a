//! What a cluster run reports: per-chip serving reports stitched into
//! fleet-level throughput, utilization, fairness, and interconnect figures.
//!
//! Per-chip [`ServeReport`]s keep the *shifted* arrivals (original arrival
//! plus interconnect transfer time) — that is what the chip actually saw —
//! and cover every job ever shipped to the chip: a failed chip's report lists
//! the jobs it cut under `interrupted`, whatever became of them elsewhere.
//! The cluster-level [`ClusterJobOutcome`]s keep the *original* arrivals, so
//! cluster latency and fairness include the time jobs spent on the wire.

use std::fmt::Write as _;

use bts_fault::ChipFailure;
use bts_serve::{ServeReport, ShedJob};

use crate::placement::PlacementPolicy;

/// One job's fleet-level lifecycle: where it ran and when, measured from its
/// original arrival at the cluster front door.
#[derive(Debug, Clone)]
pub struct ClusterJobOutcome {
    /// The caller's job id.
    pub id: u64,
    /// Tenant the job belongs to.
    pub tenant: u32,
    /// Chip the job was placed on.
    pub chip: usize,
    /// Workload name.
    pub workload: String,
    /// Original arrival at the cluster, in seconds.
    pub arrival_seconds: f64,
    /// Interconnect time charged before the chip could see the job
    /// (ciphertext inputs, plus the tenant's evaluation keys if this job
    /// grew the tenant's resident key footprint on its chip).
    pub transfer_seconds: f64,
    /// When the chip's queueing policy admitted the job.
    pub admitted_seconds: f64,
    /// When the job's last op finished on its chip.
    pub finish_seconds: f64,
    /// How many times the job was re-placed onto another chip after its
    /// chip failed (0 for a job that stayed put).
    pub migrations: u32,
    /// Service attempts consumed on the final chip (1 plus transient-fault
    /// redrives there).
    pub attempts: u32,
    /// The job's absolute deadline, if it had one.
    pub deadline_seconds: Option<f64>,
}

impl ClusterJobOutcome {
    /// End-to-end latency from the *original* arrival (`finish − arrival`),
    /// so wire time counts against the cluster.
    pub fn latency_seconds(&self) -> f64 {
        self.finish_seconds - self.arrival_seconds
    }

    /// Whether the deadline was met (`None` when the job has no deadline).
    pub fn deadline_met(&self) -> Option<bool> {
        self.deadline_seconds.map(|d| self.finish_seconds <= d)
    }
}

/// One chip's share of the run: its serving report plus what the
/// interconnect moved to feed it.
#[derive(Debug, Clone)]
pub struct ChipOutcome {
    /// Chip index within the spec.
    pub chip: usize,
    /// The chip's own serving report (arrivals shifted by transfer time).
    pub report: ServeReport,
    /// Bytes the interconnect moved to this chip (ciphertexts + evk sets).
    pub interconnect_bytes: u64,
    /// Seconds of interconnect time charged against this chip's jobs.
    pub interconnect_seconds: f64,
}

/// Aggregate result of streaming a batch through a fleet of identical chips.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The spec's display label (e.g. `"bts"`, `"fab"`).
    pub label: String,
    /// The placement policy that sharded the stream.
    pub placement: PlacementPolicy,
    /// Per-chip outcomes, indexed by chip. Idle chips carry empty reports.
    pub chips: Vec<ChipOutcome>,
    /// Per-job fleet-level outcomes for *completed* jobs, in submission
    /// order.
    pub jobs: Vec<ClusterJobOutcome>,
    /// Jobs the fleet gave up on — overload shedding, expired deadlines,
    /// exhausted retry/migration budgets — with *original* arrivals.
    pub shed: Vec<ShedJob>,
    /// Chip-to-chip re-placements after chip failures, whatever became of
    /// the re-placed job afterwards (completed, shed, or moved again).
    pub migrations: u64,
    /// Chip failures the fault plan injected into this run.
    pub failed_chips: Vec<ChipFailure>,
}

impl ClusterReport {
    /// Number of chips in the fleet (including idle ones).
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// Number of served jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of jobs submitted to the fleet (completed plus shed — the
    /// cluster resolves every job one way or the other).
    pub fn submitted_count(&self) -> usize {
        self.jobs.len() + self.shed.len()
    }

    /// Number of jobs the fleet gave up on.
    pub fn shed_count(&self) -> usize {
        self.shed.len()
    }

    /// Total chip-to-chip re-placements after chip failures.
    pub fn migration_count(&self) -> u64 {
        self.migrations
    }

    /// Total transient-fault redrives across completed and shed jobs.
    pub fn retry_count(&self) -> u64 {
        let attempts = self.jobs.iter().map(|j| j.attempts);
        let attempts = attempts.chain(self.shed.iter().map(|s| s.attempts));
        attempts.map(|a| u64::from(a.saturating_sub(1))).sum()
    }

    /// Shed jobs that carried a deadline: each one missed it.
    fn shed_with_deadline(&self) -> usize {
        let shed = self.shed.iter();
        shed.filter(|s| s.deadline_seconds.is_some()).count()
    }

    /// Deadline-bearing jobs that missed: completed too late, or shed
    /// before completion.
    pub fn deadline_missed_count(&self) -> usize {
        let jobs = &self.jobs;
        let late = jobs.iter().filter(|j| j.deadline_met() == Some(false));
        late.count() + self.shed_with_deadline()
    }

    /// Fraction of deadline-bearing submitted jobs that finished on time.
    /// A run with no deadlines vacuously attains its (empty) SLO: 1.0.
    pub fn slo_attainment(&self) -> f64 {
        let jobs = &self.jobs;
        let met = jobs.iter().filter(|j| j.deadline_met() == Some(true));
        let completed = jobs.iter().filter(|j| j.deadline_seconds.is_some());
        let with_deadline = completed.count() + self.shed_with_deadline();
        if with_deadline == 0 {
            1.0
        } else {
            met.count() as f64 / with_deadline as f64
        }
    }

    /// Completed jobs per second over the cluster makespan — the figure
    /// that degrades gracefully (instead of collapsing) when a chip dies.
    /// Shed jobs never count, so under overload goodput saturates while
    /// offered load keeps climbing.
    pub fn goodput_jobs_per_sec(&self) -> f64 {
        self.throughput_jobs_per_sec()
    }

    /// Cluster makespan: the latest chip-local makespan. Chips run
    /// concurrently, so the fleet finishes when its slowest chip does.
    pub fn makespan_seconds(&self) -> f64 {
        self.chips
            .iter()
            .map(|c| c.report.makespan_seconds)
            .fold(0.0f64, f64::max)
    }

    /// Served jobs per second over the cluster makespan.
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        self.per_second(self.jobs.len() as f64)
    }

    /// `amount` per second of cluster makespan; 0 for a run with none.
    fn per_second(&self, amount: f64) -> f64 {
        let makespan = self.makespan_seconds();
        if makespan <= 0.0 {
            0.0
        } else {
            amount / makespan
        }
    }

    /// Sustained amortized mult-slot throughput across the fleet: the sum of
    /// every chip's refreshed slot-levels over the cluster makespan.
    pub fn mult_slots_per_sec(&self) -> f64 {
        let jobs = self.chips.iter().flat_map(|c| c.report.jobs.iter());
        self.per_second(jobs.map(|j| j.refreshed_slot_levels).sum())
    }

    /// Total bytes the interconnect moved (zero on a single-chip spec:
    /// everything is already resident).
    pub fn interconnect_bytes(&self) -> u64 {
        self.chips.iter().map(|c| c.interconnect_bytes).sum()
    }

    /// Total interconnect seconds charged across the fleet.
    pub fn interconnect_seconds(&self) -> f64 {
        self.chips.iter().map(|c| c.interconnect_seconds).sum()
    }

    /// Mean end-to-end latency from original arrivals. Returns 0 for an
    /// empty batch.
    pub fn mean_latency_seconds(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(ClusterJobOutcome::latency_seconds)
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Latency at percentile `p` over fleet-level latencies (nearest rank
    /// via the shared [`bts_telemetry::percentile_nearest_rank`], `p` in
    /// `[0, 100]`). Returns 0 for an empty batch.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let latencies: Vec<f64> = self
            .jobs
            .iter()
            .map(ClusterJobOutcome::latency_seconds)
            .collect();
        bts_telemetry::percentile_nearest_rank(&latencies, p)
    }

    /// Jain's fairness index ([`bts_telemetry::jain_index`]) over
    /// per-tenant mean *cluster* latency — measured from original arrivals,
    /// so a tenant parked behind a slow interconnect counts as unfairly
    /// treated even if its chip was fast.
    pub fn tenant_fairness(&self) -> f64 {
        bts_telemetry::jain_index(self.jobs.iter().map(|j| (j.tenant, j.latency_seconds())))
    }

    /// Fraction of chips that served at least one job.
    pub fn chips_used(&self) -> usize {
        self.chips
            .iter()
            .filter(|c| !c.report.jobs.is_empty())
            .count()
    }

    /// Renders the headline fleet figures plus one line per chip.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} x{} | placement {} | {} jobs | makespan {:.2} ms | {:.1} jobs/s | {:.3e} mult slots/s",
            self.label,
            self.chip_count(),
            self.placement,
            self.job_count(),
            self.makespan_seconds() * 1e3,
            self.throughput_jobs_per_sec(),
            self.mult_slots_per_sec(),
        );
        let _ = writeln!(
            out,
            "latency p50 {:.2} ms p99 {:.2} ms | fairness {:.3} | interconnect {:.1} MiB ({:.3} ms)",
            self.latency_percentile(50.0) * 1e3,
            self.latency_percentile(99.0) * 1e3,
            self.tenant_fairness(),
            self.interconnect_bytes() as f64 / (1 << 20) as f64,
            self.interconnect_seconds() * 1e3,
        );
        if !self.failed_chips.is_empty() || !self.shed.is_empty() || self.migration_count() > 0 {
            let failed: Vec<String> = self
                .failed_chips
                .iter()
                .map(|f| format!("chip {} @ {:.2} ms", f.chip, f.at_seconds * 1e3))
                .collect();
            let _ = writeln!(
                out,
                "resilience: failed [{}] | shed {} | migrated {} | retried {} | deadline missed {} | SLO {:.1}%",
                failed.join(", "),
                self.shed_count(),
                self.migration_count(),
                self.retry_count(),
                self.deadline_missed_count(),
                self.slo_attainment() * 100.0,
            );
        }
        for c in &self.chips {
            let _ = writeln!(
                out,
                "  chip {}: {} jobs | makespan {:.2} ms | HBM util {:.0}% | {:.1} MiB in",
                c.chip,
                c.report.job_count(),
                c.report.makespan_seconds * 1e3,
                c.report.utilizations[bts_sched::FuKind::Hbm.index()] * 100.0,
                c.interconnect_bytes as f64 / (1 << 20) as f64,
            );
        }
        out
    }
}
