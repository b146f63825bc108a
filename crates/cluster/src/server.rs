//! The cluster engine: placement in front of one [`BtsServer`] admission
//! loop per chip, with failover when the fault plan kills chips mid-run.
//!
//! # Execution model
//!
//! 1. `ClusterServer::validate` — the spec, the fault plan, the per-chip
//!    serving options and the batch are validated before any chip is
//!    touched.
//! 2. [`BtsServer::prepare`] — every unique `(workload, instance)` pair is
//!    prepared once for the fleet's one chip design (plan, online cost
//!    estimate, ciphertext-input and evaluation-key bytes); placement,
//!    charging and every chip read this one [`PreparedBatch`].
//! 3. `Fleet::place` — the [`PlacementPolicy`] shards the stream in arrival
//!    order, one chip per job.
//! 4. `Fleet::charge` — with more than one chip, each dispatch is charged
//!    interconnect time before its chip can see the job: its ciphertext
//!    inputs always move, and its tenant's evaluation-key set moves the
//!    first time (per chip) it is needed — keys then stay resident, so
//!    pinning a tenant to one chip (tenant affinity) pays the key transfer
//!    once. Link-degradation windows in the fault plan divide the bandwidth
//!    while they are active. A single-chip spec charges exactly zero and
//!    reproduces [`bts_serve::serve`] bit for bit.
//! 5. `Fleet::serve_chip` — chips are served one at a time **in failure
//!    order** (earliest death first, immortal chips last), each exactly once
//!    through its own admission loop ([`PreparedBatch::serve`]) with its
//!    failure time from the plan, if any. Chips do not otherwise interact,
//!    so the fleet's makespan is the slowest chip's.
//! 6. `Fleet::replace` — jobs a failed chip interrupted are re-placed, in
//!    job-id order, onto the least-loaded chip still alive when they become
//!    ready (failure plus capped exponential backoff), paying the wire again
//!    for their ciphertexts and any keys not resident there. That target
//!    dies strictly later (or never), so it has not been served yet: the
//!    refugee joins its shard, and one pass settles every job — no chip is
//!    re-run, however many failures a job outlives. Chips dying at the same
//!    instant are served as one batch before their union is re-placed. A
//!    job whose dispatches exhaust the retry budget is shed; one with no
//!    surviving chip is a [`ClusterError::ChipUnavailable`].
//!
//! `Fleet::report` merges the chip reports. A failed chip's report is the
//! run that chip actually had: jobs it shed before dying stay shed, the
//! jobs it was about to lose held their queue slots and channels until the
//! failure and are listed under its `interrupted`. Every dispatch is
//! therefore accounted for by exactly one chip report.
//!
//! Everything is deterministic: one `(jobs, options)` pair — fault plan
//! included — always produces the same [`ClusterReport`].

use std::collections::HashMap;

use bts_fault::FaultError;
use bts_serve::{
    validate_batch, BtsServer, FaultPlan, JobRequest, PreparedBatch, PreparedPair, QueuePolicy,
    RetryPolicy, ServeError, ServeOptions, ShedJob, ShedReason,
};
use bts_workloads::{standard_registry, WorkloadRegistry};

use crate::error::ClusterError;
use crate::placement::{PlacementJob, PlacementPolicy};
use crate::report::{ChipOutcome, ClusterJobOutcome, ClusterReport};
use crate::spec::ChipSpec;

/// Knobs of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// The fleet: chip design point, chip count, interconnect.
    pub spec: ChipSpec,
    /// How jobs are sharded across chips.
    pub placement: PlacementPolicy,
    /// Per-chip queueing policy in front of each accelerator.
    pub policy: QueuePolicy,
    /// Per-chip concurrency limit (jobs co-resident on one accelerator).
    pub max_in_flight: usize,
    /// Bound on each chip's waiting queue (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// Retry budget shared by transient-fault redrives (within a chip) and
    /// chip-failure re-placements (across chips): a job may be dispatched at
    /// most `max_attempts` times.
    pub retry: RetryPolicy,
    /// What goes wrong during the run: chip failures, transient job faults,
    /// interconnect degradation windows.
    pub fault: FaultPlan,
}

impl ClusterOptions {
    /// Round-robin placement, FIFO chips, two jobs in flight per chip, no
    /// faults.
    pub fn new(spec: ChipSpec) -> Self {
        Self {
            spec,
            placement: PlacementPolicy::RoundRobin,
            policy: QueuePolicy::Fifo,
            max_in_flight: 2,
            queue_capacity: None,
            retry: RetryPolicy::default(),
            fault: FaultPlan::none(),
        }
    }

    /// Returns a copy with a different placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with a different per-chip queueing policy.
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different per-chip concurrency limit.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Returns a copy with bounded per-chip waiting queues.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Returns a copy with a different retry budget/backoff.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns a copy with a fault plan.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// A job's current shipment to a chip: the original placement, or its latest
/// re-placement after a chip failure.
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    chip: usize,
    /// When the job is ready to leave for the chip: its arrival for the
    /// first dispatch; failure time + backoff for re-placements.
    ready_seconds: f64,
    /// Wire time of this shipment, known once its chip has been charged.
    transfer_seconds: f64,
    /// Dispatches the job has used, this one included.
    number: u32,
}

/// A multi-tenant batch server over a fleet of simulated accelerators.
///
/// The fleet is homogeneous, so one inner [`BtsServer`] — one (config,
/// policy, capacity, registry) tuple — prepares the batch once and every
/// chip's shard is served from that one [`PreparedBatch`]; a chip's failure
/// time is layered on per chip.
#[derive(Debug)]
pub struct ClusterServer {
    server: BtsServer,
    options: ClusterOptions,
}

impl ClusterServer {
    /// A cluster over the five standard paper workloads.
    pub fn new(options: ClusterOptions) -> Self {
        Self::with_registry(options, standard_registry())
    }

    /// A cluster over a custom workload registry.
    pub fn with_registry(options: ClusterOptions, registry: WorkloadRegistry) -> Self {
        let mut base = ServeOptions::new(options.max_in_flight)
            .with_config(options.spec.config.clone())
            .with_policy(options.policy)
            .with_retry(options.retry)
            .with_fault_plan(options.fault.clone());
        if let Some(capacity) = options.queue_capacity {
            base = base.with_queue_capacity(capacity);
        }
        let server = BtsServer::with_registry(base, registry);
        Self { server, options }
    }

    /// The run's knobs.
    pub fn options(&self) -> &ClusterOptions {
        &self.options
    }

    /// Shards a batch across the fleet, fails over around dead chips, and
    /// merges the per-chip reports.
    ///
    /// # Errors
    ///
    /// Fails fast on an invalid spec ([`ClusterError::NoChips`],
    /// [`ClusterError::Config`], [`ClusterError::Interconnect`]), an
    /// invalid fault plan ([`ClusterError::ChipUnavailable`] with
    /// `job: None` for an out-of-range chip, [`ClusterError::Fault`]
    /// otherwise), invalid per-chip options or an invalid batch
    /// ([`ClusterError::Serve`] with `chip: None`: zero capacity or retry
    /// budget, bad backoff, unknown workload, bad arrival or deadline,
    /// duplicate id, unbuildable circuit). Mid-run,
    /// [`ClusterError::ChipUnavailable`] with `job: Some(id)` means a job
    /// had no surviving chip left to migrate to. A per-chip serving failure
    /// — which validation should have ruled out — surfaces as
    /// [`ClusterError::Serve`] with the chip index.
    pub fn serve(&self, jobs: &[JobRequest]) -> Result<ClusterReport, ClusterError> {
        let index_of = self.validate(jobs)?;
        let batch = self.server.prepare(jobs).map_err(admission)?;
        let fail_at: Vec<Option<f64>> = (0..self.options.spec.chip_count)
            .map(|c| self.options.fault.failure_of(c))
            .collect();
        let mut fleet = Fleet::place(self, jobs, &batch, &fail_at)?;

        // One pass over the chips in failure order (module doc, steps 5–6):
        // a refugee's target is alive when the refugee is ready, which is no
        // earlier than the failure that displaced it, so the target belongs
        // to a later batch and its shard is still open.
        let mut failure_order: Vec<usize> = (0..fail_at.len()).collect();
        let at = |c: usize| fail_at[c].unwrap_or(f64::INFINITY);
        // Stable, so chips that die together (or never) stay in index order.
        failure_order.sort_by(|&a, &b| at(a).total_cmp(&at(b)));
        for dying in failure_order.chunk_by(|&a, &b| fail_at[a] == fail_at[b]) {
            // Jobs this batch's failure cut (submit indices).
            let mut cut: Vec<usize> = Vec::new();
            for &chip in dying {
                let outcome = fleet.serve_chip(chip)?;
                let interrupted = &outcome.report.interrupted;
                cut.extend(interrupted.iter().map(|i| index_of[&i.id]));
                fleet.chips[chip] = Some(outcome);
            }
            fleet.replace(cut)?;
        }
        Ok(fleet.report(&index_of))
    }

    /// Step 1: everything a run depends on, before any chip is touched.
    /// Returns each job id's submit index.
    fn validate(&self, jobs: &[JobRequest]) -> Result<HashMap<u64, usize>, ClusterError> {
        self.options.spec.validate()?;
        let plan = self.options.fault.validate(self.options.spec.chip_count);
        plan.map_err(|e| match e {
            FaultError::ChipOutOfRange { chip, .. } => {
                ClusterError::ChipUnavailable { chip, job: None }
            }
            other => ClusterError::Fault(other),
        })?;
        self.server.options().validate().map_err(admission)?;
        validate_batch(jobs).map_err(admission)
    }
}

/// One cluster run in progress (module doc, steps 3–6): where every job is
/// headed, what each chip has been sent, and what the fleet has settled.
struct Fleet<'a> {
    options: &'a ClusterOptions,
    /// The per-chip serving options, before a chip's failure time.
    base: &'a ServeOptions,
    jobs: &'a [JobRequest],
    batch: &'a PreparedBatch,
    /// Each job's prepared pair, by submit index.
    pairs: Vec<&'a PreparedPair>,
    /// Each chip's failure time, if the plan kills it.
    fail_at: &'a [Option<f64>],
    /// Each job's latest shipment, by submit index.
    dispatch: Vec<Dispatch>,
    /// Per chip: the jobs shipped to it so far (submit indices).
    shards: Vec<Vec<usize>>,
    /// Per chip: the estimated seconds of work shipped to it.
    load: Vec<f64>,
    /// Per chip: its outcome, once served.
    chips: Vec<Option<ChipOutcome>>,
    /// Jobs the cluster shed itself (dispatch budget spent), by submit index.
    shed: HashMap<usize, ShedJob>,
    migrations: u64,
}

impl<'a> Fleet<'a> {
    /// Step 3: placement over the stream in arrival order (submission order
    /// on ties), exactly as the chips will see it.
    fn place(
        cluster: &'a ClusterServer,
        jobs: &'a [JobRequest],
        batch: &'a PreparedBatch,
        fail_at: &'a [Option<f64>],
    ) -> Result<Self, ClusterError> {
        let options = &cluster.options;
        let chip_count = options.spec.chip_count;
        let pairs = batch.pairs(jobs).map_err(admission)?;
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_seconds
                .partial_cmp(&jobs[b].arrival_seconds)
                .expect("validated arrivals")
                .then(a.cmp(&b))
        });
        let placement_jobs: Vec<PlacementJob> = order
            .iter()
            .map(|&j| PlacementJob {
                tenant: jobs[j].tenant,
                arrival_seconds: jobs[j].arrival_seconds,
                estimate_seconds: pairs[j].estimate_seconds,
                evk_set_bytes: pairs[j].evk_set_bytes,
            })
            .collect();
        let placed = options.placement.place(&placement_jobs, chip_count);
        let mut dispatch: Vec<Dispatch> = jobs
            .iter()
            .map(|job| Dispatch {
                chip: 0,
                ready_seconds: job.arrival_seconds,
                transfer_seconds: 0.0,
                number: 1,
            })
            .collect();
        for (pos, &j) in order.iter().enumerate() {
            dispatch[j].chip = placed[pos];
        }
        if bts_telemetry::enabled() {
            use bts_telemetry::ArgValue;
            let _scope = bts_telemetry::scope("cluster");
            for &j in &order {
                bts_telemetry::emit_instant(
                    "placement",
                    &jobs[j].workload,
                    jobs[j].arrival_seconds,
                    &[
                        ("job", ArgValue::U64(jobs[j].id)),
                        ("tenant", ArgValue::U64(u64::from(jobs[j].tenant))),
                        ("chip", ArgValue::U64(dispatch[j].chip as u64)),
                    ],
                );
            }
            for f in &options.fault.chip_failures {
                bts_telemetry::emit_instant(
                    "faults",
                    "chip-failure",
                    f.at_seconds,
                    &[("chip", ArgValue::U64(f.chip as u64))],
                );
            }
        }
        let mut shards: Vec<Vec<usize>> = vec![Vec::new(); chip_count];
        let mut load = vec![0.0f64; chip_count];
        for (j, d) in dispatch.iter().enumerate() {
            shards[d.chip].push(j);
            load[d.chip] += pairs[j].estimate_seconds;
        }
        Ok(Self {
            options,
            base: cluster.server.options(),
            jobs,
            batch,
            pairs,
            fail_at,
            dispatch,
            shards,
            load,
            chips: vec![None; chip_count],
            shed: HashMap::new(),
            migrations: 0,
        })
    }

    /// Step 4: interconnect charging of `shard`'s shipments to `chip`, in
    /// shipment order (ready time, submission order on ties — the sort is
    /// stable): ciphertext inputs move on every dispatch; a tenant's evk set
    /// moves only when the dispatch grows the tenant's resident key
    /// footprint on this chip. Link-degradation windows stretch the
    /// streaming part. One chip means everything is already resident — zero
    /// charge by construction. Fills in each dispatch's transfer time and
    /// returns the chip's (bytes, seconds).
    fn charge(&mut self, chip: usize, shard: &[usize]) -> (u64, f64) {
        if self.options.spec.chip_count == 1 {
            return (0, 0.0);
        }
        let (mut interconnect_bytes, mut interconnect_seconds) = (0u64, 0.0f64);
        let link = self.options.spec.interconnect;
        let plan = &self.options.fault;
        let _scope = bts_telemetry::scope("cluster");
        let mut shipments = shard.to_vec();
        shipments.sort_by(|&a, &b| {
            self.dispatch[a]
                .ready_seconds
                .partial_cmp(&self.dispatch[b].ready_seconds)
                .expect("ready times are finite")
        });
        let mut resident_evk: HashMap<u32, u64> = HashMap::new();
        for j in shipments {
            let (job, pair) = (&self.jobs[j], self.pairs[j]);
            let d = &mut self.dispatch[j];
            let resident = resident_evk.entry(job.tenant).or_insert(0);
            let evk_delta = pair.evk_set_bytes.saturating_sub(*resident);
            *resident = (*resident).max(pair.evk_set_bytes);
            let bytes = pair.input_ct_bytes + evk_delta;
            let factor = plan.bandwidth_factor_at(d.ready_seconds);
            // The factor-1.0 branch keeps the fault-free path bitwise
            // identical to the plain interconnect model.
            let seconds = if factor == 1.0 {
                link.transfer_seconds(bytes)
            } else {
                link.latency_seconds + bytes as f64 / (link.bytes_per_sec * factor)
            };
            interconnect_bytes += bytes;
            interconnect_seconds += seconds;
            d.transfer_seconds = seconds;
            if bts_telemetry::enabled() && bytes > 0 {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_complete(
                    "interconnect",
                    "transfer",
                    d.ready_seconds,
                    seconds,
                    &[
                        ("job", ArgValue::U64(job.id)),
                        ("chip", ArgValue::U64(chip as u64)),
                        ("bytes", ArgValue::U64(bytes)),
                        ("ct_bytes", ArgValue::U64(pair.input_ct_bytes)),
                        ("evk_bytes", ArgValue::U64(evk_delta)),
                        ("bw_factor", ArgValue::F64(factor)),
                    ],
                );
            }
        }
        (interconnect_bytes, interconnect_seconds)
    }

    /// Step 5: charges the wire for every job shipped to `chip` (step 4),
    /// then serves them from the fleet's one preparation with the chip's
    /// failure time layered on. The shard is final: every chip that could
    /// still send this one a refugee has already been served.
    fn serve_chip(&mut self, chip: usize) -> Result<ChipOutcome, ClusterError> {
        let mut shard = std::mem::take(&mut self.shards[chip]);
        // The chip breaks its ties in submission order.
        shard.sort_unstable();
        let (interconnect_bytes, interconnect_seconds) = self.charge(chip, &shard);
        let shipped: Vec<JobRequest> = shard
            .iter()
            .map(|&j| {
                let d = self.dispatch[j];
                let mut job = self.jobs[j].clone();
                job.arrival_seconds = d.ready_seconds + d.transfer_seconds;
                job
            })
            .collect();
        let mut chip_options = self.base.clone();
        if let Some(t) = self.fail_at[chip] {
            chip_options = chip_options.with_failure_at(t);
        }
        // Everything this chip's admission loop and scheduler emit lands
        // in a per-chip telemetry process (`chip0`, `chip1`, …).
        let _chip_scope =
            bts_telemetry::enabled().then(|| bts_telemetry::scope(format!("chip{chip}")));
        let report = (self.batch)
            .serve(&shipped, &chip_options)
            .map_err(|source| ClusterError::Serve {
                chip: Some(chip),
                source,
            })?;
        Ok(ChipOutcome {
            chip,
            report,
            interconnect_bytes,
            interconnect_seconds,
        })
    }

    /// Step 6: re-places the jobs one failure time cut, in job-id order,
    /// onto the least-loaded chip still alive when they are ready — or sheds
    /// them once their dispatch budget is spent.
    fn replace(&mut self, mut cut: Vec<usize>) -> Result<(), ClusterError> {
        cut.sort_by_key(|&j| self.jobs[j].id);
        let _scope = bts_telemetry::scope("cluster");
        let retry = self.options.retry;
        for j in cut {
            let Dispatch {
                chip, number: used, ..
            } = self.dispatch[j];
            let failed_at = self.fail_at[chip].expect("only a failed chip interrupts jobs");
            let job = &self.jobs[j];
            if used >= retry.max_attempts {
                let shed = ShedJob::new(job, failed_at, ShedReason::RetryBudgetExhausted, used);
                shed.emit();
                self.shed.insert(j, shed);
                continue;
            }
            let ready = job
                .arrival_seconds
                .max(failed_at + retry.backoff_seconds(used));
            let target = (0..self.load.len())
                .filter(|&c| self.fail_at[c].is_none_or(|t| t > ready))
                .min_by(|&a, &b| {
                    self.load[a]
                        .partial_cmp(&self.load[b])
                        .expect("loads are finite")
                        .then(a.cmp(&b))
                });
            let Some(to) = target else {
                return Err(ClusterError::ChipUnavailable {
                    chip,
                    job: Some(job.id),
                });
            };
            let estimate = self.pairs[j].estimate_seconds;
            self.load[chip] -= estimate;
            self.load[to] += estimate;
            self.dispatch[j] = Dispatch {
                chip: to,
                ready_seconds: ready,
                transfer_seconds: 0.0,
                number: used + 1,
            };
            debug_assert!(
                self.chips[to].is_none(),
                "refugees go forward in failure order"
            );
            self.shards[to].push(j);
            self.migrations += 1;
            if bts_telemetry::enabled() {
                use bts_telemetry::ArgValue;
                bts_telemetry::emit_instant(
                    "faults",
                    "migrate",
                    ready,
                    &[
                        ("job", ArgValue::U64(job.id)),
                        ("from", ArgValue::U64(chip as u64)),
                        ("to", ArgValue::U64(to as u64)),
                        ("dispatch", ArgValue::U64(u64::from(used) + 1)),
                    ],
                );
            }
        }
        Ok(())
    }

    /// Merges the chip reports. Fleet-level outcomes keep the original
    /// arrivals: the wire time a job spent getting to its chip counts
    /// against its cluster latency. Shed jobs — whether a chip or the
    /// cluster dropped them — are collected separately, with their original
    /// arrivals too.
    fn report(mut self, index_of: &HashMap<u64, usize>) -> ClusterReport {
        let chips: Vec<ChipOutcome> = (self.chips.into_iter())
            .map(|c| c.expect("the failure order covers every chip"))
            .collect();
        let mut shed: Vec<ShedJob> = Vec::new();
        let mut outcomes = Vec::new();
        // Where each job sits in its final chip's report: `Ok(i)` for
        // `.jobs[i]` if it was served, `Err(i)` for `.shed[i]` if dropped.
        let mut found: Vec<Option<Result<usize, usize>>> = vec![None; self.jobs.len()];
        for report in chips.iter().map(|c| &c.report) {
            for (i, o) in report.jobs.iter().enumerate() {
                found[index_of[&o.id]] = Some(Ok(i));
            }
            for (i, s) in report.shed.iter().enumerate() {
                found[index_of[&s.id]] = Some(Err(i));
            }
        }
        for (j, job) in self.jobs.iter().enumerate() {
            let (d, found) = (self.dispatch[j], found[j]);
            let report = &chips[d.chip].report;
            if let Some(s) = self.shed.remove(&j) {
                shed.push(s);
            } else if let Some(Ok(i)) = found {
                let served = &report.jobs[i];
                outcomes.push(ClusterJobOutcome {
                    id: job.id,
                    tenant: job.tenant,
                    chip: d.chip,
                    workload: job.workload.clone(),
                    arrival_seconds: job.arrival_seconds,
                    transfer_seconds: d.transfer_seconds,
                    admitted_seconds: served.admitted_seconds,
                    finish_seconds: served.finish_seconds,
                    migrations: d.number - 1,
                    attempts: served.attempts,
                    deadline_seconds: job.deadline_seconds,
                });
            } else {
                let i = found.and_then(Result::err);
                let i = i.expect("a dispatched, unshed, uncompleted job was shed by its chip");
                let mut s = report.shed[i].clone();
                s.arrival_seconds = job.arrival_seconds;
                shed.push(s);
            }
        }
        ClusterReport {
            label: self.options.spec.label.clone(),
            placement: self.options.placement,
            chips,
            jobs: outcomes,
            shed,
            migrations: self.migrations,
            failed_chips: self.options.fault.chip_failures.clone(),
        }
    }
}

/// A serving-layer error raised before any chip was involved.
fn admission(source: ServeError) -> ClusterError {
    ClusterError::Serve { chip: None, source }
}

/// One-call convenience: serve `jobs` over the standard registry.
///
/// # Errors
///
/// Propagates [`ClusterServer::serve`] failures.
pub fn serve_cluster(
    jobs: &[JobRequest],
    options: ClusterOptions,
) -> Result<ClusterReport, ClusterError> {
    ClusterServer::new(options).serve(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Interconnect;
    use bts_params::CkksInstance;
    use bts_serve::{serve, SyntheticArrivals};
    use bts_sim::ArchPreset;

    #[test]
    fn single_chip_cluster_reproduces_plain_serving() {
        let ins = CkksInstance::ins1();
        let jobs = SyntheticArrivals::burst(&ins, "bootstrap", 3);
        let cluster = serve_cluster(
            &jobs,
            ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 1)),
        )
        .unwrap();
        let plain = serve(
            &jobs,
            ServeOptions::new(2).with_config(ArchPreset::Bts.config()),
        )
        .unwrap();
        assert_eq!(cluster.chip_count(), 1);
        assert_eq!(cluster.interconnect_bytes(), 0);
        assert!((cluster.makespan_seconds() - plain.makespan_seconds).abs() < 1e-15);
        for (c, p) in cluster.jobs.iter().zip(&plain.jobs) {
            assert_eq!(c.id, p.id);
            assert_eq!(c.chip, 0);
            assert!((c.finish_seconds - p.finish_seconds).abs() < 1e-15);
            assert!(c.transfer_seconds == 0.0);
            assert_eq!(c.migrations, 0);
        }
    }

    /// The scaling-sweep stream: `count` bootstrap jobs at t = 0 from a pool
    /// of `tenants` tenants.
    fn bootstrap_stream(count: u64, tenants: u32) -> Vec<JobRequest> {
        let ins = CkksInstance::ins1();
        (0..count)
            .map(|i| {
                JobRequest::new(
                    i,
                    (i % tenants as u64) as u32,
                    "bootstrap",
                    ins.clone(),
                    0.0,
                )
            })
            .collect()
    }

    /// Tenant-affinity placement over an accelerator fabric: the
    /// configuration the scaling curve is measured with (a bootstrap evk set
    /// is ~10 GiB at INS-1, so keys must be pinned and the link must be
    /// fabric-class for scale-out to pay off).
    fn scaling_options(preset: ArchPreset, chips: usize) -> ClusterOptions {
        let spec = ChipSpec::preset(preset, chips).with_interconnect(Interconnect::nvlink_class());
        ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity)
    }

    #[test]
    fn more_chips_raise_throughput_on_a_burst() {
        let jobs = bootstrap_stream(16, 4);
        let one = serve_cluster(&jobs, scaling_options(ArchPreset::Bts, 1)).unwrap();
        let four = serve_cluster(&jobs, scaling_options(ArchPreset::Bts, 4)).unwrap();
        assert!(
            four.throughput_jobs_per_sec() > 2.0 * one.throughput_jobs_per_sec(),
            "4 chips {} jobs/s vs 1 chip {} jobs/s",
            four.throughput_jobs_per_sec(),
            one.throughput_jobs_per_sec()
        );
        assert!(four.interconnect_bytes() > 0);
        assert_eq!(four.chips_used(), 4);
    }

    #[test]
    fn tenant_affinity_moves_fewer_key_bytes_than_round_robin() {
        // 2 tenants x 4 consecutive jobs each on 2 chips: round-robin lands
        // every tenant on both chips (keys shipped twice per tenant);
        // affinity pins each tenant's keys to one chip (shipped once).
        let ins = CkksInstance::ins1();
        let jobs: Vec<JobRequest> = (0..8)
            .map(|i| JobRequest::new(i, (i / 4) as u32, "bootstrap", ins.clone(), 0.0))
            .collect();
        let spec = ChipSpec::preset(ArchPreset::Bts, 2);
        let rr = serve_cluster(&jobs, ClusterOptions::new(spec.clone())).unwrap();
        let affinity = serve_cluster(
            &jobs,
            ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity),
        )
        .unwrap();
        assert!(
            affinity.interconnect_bytes() < rr.interconnect_bytes(),
            "affinity {} B vs round-robin {} B",
            affinity.interconnect_bytes(),
            rr.interconnect_bytes()
        );
        // Both placements still serve every job exactly once.
        assert_eq!(rr.job_count(), 8);
        assert_eq!(affinity.job_count(), 8);
    }

    #[test]
    fn invalid_specs_and_batches_fail_fast() {
        let ins = CkksInstance::ins1();
        let jobs = vec![JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0)];
        assert!(matches!(
            serve_cluster(
                &jobs,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 0))
            ),
            Err(ClusterError::NoChips)
        ));
        assert!(matches!(
            serve_cluster(
                &jobs,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2)).with_max_in_flight(0)
            ),
            Err(ClusterError::Serve {
                chip: None,
                source: ServeError::NoCapacity
            })
        ));
        // A retry budget or backoff no chip could honour is refused once, up
        // front, before any chip is served.
        let no_budget = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let nan_backoff = RetryPolicy {
            backoff_base_seconds: f64::NAN,
            ..RetryPolicy::default()
        };
        for retry in [no_budget, nan_backoff] {
            assert!(matches!(
                serve_cluster(
                    &jobs,
                    ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2)).with_retry(retry)
                ),
                Err(ClusterError::Serve { chip: None, .. })
            ));
        }
        let unknown = vec![JobRequest::new(0, 0, "nope", ins.clone(), 0.0)];
        assert!(matches!(
            serve_cluster(
                &unknown,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2))
            ),
            Err(ClusterError::Serve {
                chip: None,
                source: ServeError::UnknownWorkload { .. }
            })
        ));
        let dup = vec![
            JobRequest::new(0, 0, "bootstrap", ins.clone(), 0.0),
            JobRequest::new(0, 1, "bootstrap", ins.clone(), 0.0),
        ];
        assert!(matches!(
            serve_cluster(
                &dup,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2))
            ),
            Err(ClusterError::Serve {
                chip: None,
                source: ServeError::DuplicateJobId { .. }
            })
        ));
        // A fault plan naming a chip the fleet does not have is rejected
        // before any chip is touched.
        assert!(matches!(
            serve_cluster(
                &jobs,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2))
                    .with_fault_plan(FaultPlan::none().with_chip_failure(5, 1.0))
            ),
            Err(ClusterError::ChipUnavailable { chip: 5, job: None })
        ));
        // A malformed fault plan (bad rate) is a Fault error.
        assert!(matches!(
            serve_cluster(
                &jobs,
                ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2))
                    .with_fault_plan(FaultPlan::none().with_transient_rate(2.0))
            ),
            Err(ClusterError::Fault(_))
        ));
    }

    #[test]
    fn a_chip_failure_migrates_work_to_survivors() {
        let jobs = bootstrap_stream(12, 4);
        let healthy = serve_cluster(&jobs, scaling_options(ArchPreset::Bts, 4)).unwrap();
        assert_eq!(healthy.job_count(), 12);
        // Kill chip 1 halfway through the healthy makespan: its unfinished
        // jobs migrate to the three survivors and everything completes.
        let kill_at = healthy.makespan_seconds() * 0.5;
        let report = serve_cluster(
            &jobs,
            scaling_options(ArchPreset::Bts, 4)
                .with_fault_plan(FaultPlan::none().with_chip_failure(1, kill_at)),
        )
        .unwrap();
        assert_eq!(report.submitted_count(), 12);
        assert_eq!(report.job_count(), 12, "no job is lost to the failure");
        assert_eq!(report.failed_chips.len(), 1);
        assert!(
            report.migration_count() > 0,
            "the dead chip had queued work"
        );
        for j in &report.jobs {
            if j.migrations > 0 {
                assert_ne!(j.chip, 1, "migrated jobs land on survivors");
                assert!(j.finish_seconds > kill_at);
            }
        }
        // Jobs that stayed on chip 1 finished before it died.
        for j in report.jobs.iter().filter(|j| j.chip == 1) {
            assert!(j.finish_seconds <= kill_at + 1e-15);
        }
        // Graceful degradation, not collapse: the wounded fleet still beats
        // a healthy fleet of half the size, and pays more interconnect for
        // the re-shipments.
        let two = serve_cluster(&jobs, scaling_options(ArchPreset::Bts, 2)).unwrap();
        assert!(report.makespan_seconds() < two.makespan_seconds());
        assert!(report.interconnect_bytes() > healthy.interconnect_bytes());
    }

    #[test]
    fn failover_is_deterministic() {
        let jobs = bootstrap_stream(10, 3);
        let opts = || {
            scaling_options(ArchPreset::Bts, 3)
                .with_fault_plan(FaultPlan::none().with_chip_failure(0, 0.05))
        };
        let a = serve_cluster(&jobs, opts()).unwrap();
        let b = serve_cluster(&jobs, opts()).unwrap();
        assert_eq!(a.job_count(), b.job_count());
        assert_eq!(a.migration_count(), b.migration_count());
        assert_eq!(
            a.makespan_seconds().to_bits(),
            b.makespan_seconds().to_bits()
        );
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.chip, y.chip);
            assert_eq!(x.finish_seconds.to_bits(), y.finish_seconds.to_bits());
        }
    }

    #[test]
    fn a_fleet_with_no_survivors_is_a_typed_error() {
        let jobs = bootstrap_stream(2, 1);
        let err = serve_cluster(
            &jobs,
            ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 1))
                .with_fault_plan(FaultPlan::none().with_chip_failure(0, 0.0)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ClusterError::ChipUnavailable {
                chip: 0,
                job: Some(_)
            }
        ));
    }

    #[test]
    fn migration_budget_exhaustion_sheds_instead_of_looping() {
        // One retry attempt total: a job interrupted once has no budget
        // left to be re-placed, so the failure sheds everything chip 0
        // could not finish — but the survivors' jobs still complete.
        let jobs = bootstrap_stream(8, 4);
        let report = serve_cluster(
            &jobs,
            scaling_options(ArchPreset::Bts, 2)
                .with_retry(RetryPolicy::no_retries())
                .with_fault_plan(FaultPlan::none().with_chip_failure(0, 1e-3)),
        )
        .unwrap();
        assert_eq!(report.submitted_count(), 8);
        assert!(report.shed_count() > 0);
        assert_eq!(report.migration_count(), 0);
        for s in &report.shed {
            assert_eq!(s.reason, ShedReason::RetryBudgetExhausted);
        }
        assert!(report.job_count() > 0, "the surviving chip still serves");
    }

    #[test]
    fn link_degradation_slows_transfers_in_its_window() {
        let jobs = bootstrap_stream(8, 4);
        let base = ClusterOptions::new(
            ChipSpec::preset(ArchPreset::Bts, 2).with_interconnect(Interconnect::pcie_gen5()),
        );
        let clean = serve_cluster(&jobs, base.clone()).unwrap();
        let degraded = serve_cluster(
            &jobs,
            base.with_fault_plan(FaultPlan::none().with_link_degradation(0.0, 1e3, 0.25)),
        )
        .unwrap();
        assert_eq!(degraded.job_count(), 8);
        assert!(
            degraded.interconnect_seconds() > 3.0 * clean.interconnect_seconds(),
            "quartered bandwidth must roughly quadruple streaming time: {} vs {}",
            degraded.interconnect_seconds(),
            clean.interconnect_seconds()
        );
        assert_eq!(degraded.interconnect_bytes(), clean.interconnect_bytes());
    }

    #[test]
    fn cluster_deadlines_and_queue_bounds_flow_through_to_chips() {
        let ins = CkksInstance::ins1();
        // 6 simultaneous jobs on 2 chips with per-chip queue bound 1 and
        // concurrency 1: a chip's queue fills with one job before any
        // same-instant admission, so of each chip's three arrivals one is
        // queued (then served) and two are shed at arrival.
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| JobRequest::new(i, i as u32, "bootstrap", ins.clone(), 0.0))
            .collect();
        let report = serve_cluster(
            &jobs,
            ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2))
                .with_max_in_flight(1)
                .with_queue_capacity(1),
        )
        .unwrap();
        assert_eq!(report.submitted_count(), 6);
        assert_eq!(report.shed_count(), 4);
        assert_eq!(report.job_count(), 2);
        for s in &report.shed {
            assert_eq!(s.reason, ShedReason::QueueFull);
        }
        // Deadlines pass through absolutely; an impossible one is missed.
        let strict: Vec<JobRequest> = (0..2)
            .map(|i| {
                JobRequest::new(i, i as u32, "bootstrap", ins.clone(), 0.0).with_deadline(1e-9)
            })
            .collect();
        let missed = serve_cluster(
            &strict,
            ClusterOptions::new(ChipSpec::preset(ArchPreset::Bts, 2)),
        )
        .unwrap();
        assert!((missed.slo_attainment() - 0.0).abs() < 1e-15);
        assert_eq!(missed.deadline_missed_count(), 2);
    }
}
