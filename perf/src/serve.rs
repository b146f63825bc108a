//! `serve_steady` and `serve_overload`: one `BtsServer::serve` call over a
//! seeded arrival stream. Steady runs below saturation with two distinct
//! (workload, instance) pairs, so the admission loop and the multi-job
//! scheduler are all of the time; overload adds deadlines, a bounded queue,
//! retries, SJF and twelve distinct pairs.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use bts::circuit::{compile, TraceBackend};
use bts::fault::{FaultPlan, RetryPolicy};
use bts::params::CkksInstance;
use bts::sched::{schedule_jobs, MachineModel};
use bts::serve::{
    BtsServer, JobRequest, QueuePolicy, ServeOptions, ServeReport, SyntheticArrivals,
};
use bts::sim::{OpTiming, OpTrace, Simulator};
use bts::workloads::standard_registry;

use crate::host;
use crate::runner::{design_point, Bench, Checks, Metrics, Rep, Size, Warm};
use crate::spans::Recorder;

/// Jobs co-resident on the accelerator, in both serve workloads.
const MAX_IN_FLIGHT: usize = 4;

/// Mean gap of each of overload's three per-instance streams. Frozen after
/// one calibration pass: together the streams offer about 1.3x what the
/// accelerator completes, and between 0.15 and 0.5 of the jobs are shed.
const OVERLOAD_STREAM_GAP_SECONDS: f64 = 50e-3;
const OVERLOAD_SLACK_SECONDS: f64 = 0.25;
const OVERLOAD_QUEUE_CAPACITY: usize = 64;
const OVERLOAD_TRANSIENT_RATE: f64 = 0.05;

fn weights(mix: &[(&str, f64)]) -> Vec<(String, f64)> {
    mix.iter().map(|&(name, w)| (name.to_string(), w)).collect()
}

/// `serve_steady`'s stream; `cluster_failover` reuses the generator with its
/// own gap and tenant count.
pub fn bootstrap_heavy_stream(seed: u64, gap: f64, tenants: u32, count: usize) -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), seed)
        .mean_interarrival_seconds(gap)
        .tenants(tenants)
        .mix(weights(&[("bootstrap", 3.0), ("amortized-mult", 1.0)]))
        .generate(count)
}

fn overload_stream(seed: u64, count: usize) -> Vec<JobRequest> {
    let instances = CkksInstance::evaluation_set();
    let per_stream = count / instances.len();
    let mut jobs: Vec<JobRequest> = Vec::with_capacity(count);
    for (i, ins) in instances.into_iter().enumerate() {
        jobs.extend(
            SyntheticArrivals::new(ins, seed.wrapping_mul(3).wrapping_add(i as u64))
                .mean_interarrival_seconds(OVERLOAD_STREAM_GAP_SECONDS)
                .tenants(16)
                .mix(weights(&[
                    ("bootstrap", 6.0),
                    ("amortized-mult", 3.0),
                    ("helr", 0.05),
                    ("resnet20", 0.02),
                ]))
                .generate(per_stream),
        );
    }
    jobs.sort_by(|a, b| {
        a.arrival_seconds
            .partial_cmp(&b.arrival_seconds)
            .expect("finite arrivals")
    });
    jobs.into_iter()
        .enumerate()
        .map(|(id, mut job)| {
            job.id = id as u64;
            let deadline = job.arrival_seconds + OVERLOAD_SLACK_SECONDS;
            job.with_deadline(deadline)
        })
        .collect()
}

/// Folds every per-job simulated outcome of a report into a few words, so a
/// repetition can be held bit-identical to the first without keeping both.
pub fn report_bits(report: &ServeReport) -> Vec<u64> {
    let fold = |acc: u64, bits: u64| acc.rotate_left(5) ^ bits;
    let finishes = report
        .jobs
        .iter()
        .fold(0, |acc, j| fold(acc, j.finish_seconds.to_bits()));
    let sheds = report
        .shed
        .iter()
        .fold(0, |acc, s| fold(acc, s.shed_seconds.to_bits() ^ s.id));
    vec![
        report.makespan_seconds.to_bits(),
        report.jobs.len() as u64,
        report.shed.len() as u64,
        report.interrupted.len() as u64,
        finishes,
        sheds,
    ]
}

pub struct Serve<const OVERLOAD: bool> {
    seed: u64,
    jobs: Vec<JobRequest>,
    server: BtsServer,
    last: Option<ServeReport>,
}

pub type Steady = Serve<false>;
pub type Overload = Serve<true>;

fn options(overload: bool, seed: u64) -> ServeOptions {
    let options = ServeOptions::new(MAX_IN_FLIGHT).with_config(design_point(seed));
    if overload {
        options
            .with_policy(QueuePolicy::ShortestJobFirst)
            .with_queue_capacity(OVERLOAD_QUEUE_CAPACITY)
            .with_retry(RetryPolicy::default())
            .with_fault_plan(
                FaultPlan::none()
                    .with_seed(seed)
                    .with_transient_rate(OVERLOAD_TRANSIENT_RATE),
            )
    } else {
        options.with_policy(QueuePolicy::Fifo)
    }
}

fn stream(overload: bool, seed: u64, size: Size) -> Vec<JobRequest> {
    match (overload, size) {
        (false, Size::Full) => bootstrap_heavy_stream(seed, 18e-3, 8, 10_000),
        (false, Size::Smoke) => bootstrap_heavy_stream(seed, 18e-3, 8, 200),
        (true, Size::Full) => overload_stream(seed, 12_000),
        (true, Size::Smoke) => overload_stream(seed, 600),
    }
}

impl<const OVERLOAD: bool> Bench for Serve<OVERLOAD> {
    fn setup(seed: u64, size: Size, _checks: &mut Checks) -> Self {
        Self {
            seed,
            jobs: stream(OVERLOAD, seed, size),
            server: BtsServer::new(options(OVERLOAD, seed)),
            last: None,
        }
    }

    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks, _cold: bool) -> Rep {
        let served = rec.span("serve.call", |_| self.server.serve(&self.jobs));
        let Some(report) = checks.ok(served, "BtsServer::serve") else {
            return Rep {
                units: 0,
                sim_bits: Vec::new(),
            };
        };
        let submitted = self.jobs.len();
        checks.check(report.submitted_count() == submitted, || {
            format!(
                "completed {} + shed {} + interrupted {} != submitted {submitted}",
                report.jobs.len(),
                report.shed.len(),
                report.interrupted.len()
            )
        });
        let shed_share = report.shed.len() as f64 / submitted as f64;
        if OVERLOAD {
            checks.check((0.15..=0.5).contains(&shed_share), || {
                format!(
                    "overload sheds {shed_share:.3} of its jobs, outside the calibrated 0.15..=0.5"
                )
            });
        } else {
            checks.check(
                report.shed.is_empty() && report.interrupted.is_empty(),
                || format!("steady serving shed {} jobs", report.shed.len()),
            );
        }
        let rep = Rep {
            units: submitted as u64,
            sim_bits: report_bits(&report),
        };
        self.last = Some(report);
        rep
    }

    fn simulated(&self) -> (f64, f64) {
        let report = self
            .last
            .as_ref()
            .expect("simulated() follows a repetition");
        let hbm_bytes = report.aggregate.as_ref().map_or(0, |a| a.hbm_bytes);
        (report.makespan_seconds, hbm_bytes as f64 / 1e9)
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        checks: &mut Checks,
        size: Size,
        warm: &Warm,
        out: &mut Metrics,
    ) {
        let Some(report) = self.last.take() else {
            return;
        };
        let call_ms = host::mean(&rec.per_rep_ms("serve.call")) * warm.factor;
        out.insert("serve.call_ms", call_ms);
        out.insert("serve.us_per_job", call_ms * 1e3 / self.jobs.len() as f64);
        out.insert("serve.completed", report.jobs.len() as f64);
        out.insert("serve.shed", report.shed.len() as f64);
        out.insert("serve.retried", report.retry_count() as f64);
        out.insert(
            "serve.deadline_missed",
            report.deadline_missed_count() as f64,
        );
        out.insert(
            "serve.sim_goodput_jobs_per_s",
            report.goodput_jobs_per_sec(),
        );
        out.insert("serve.sim_p99_latency_s", report.latency_percentile(99.0));
        out.insert("serve.sim_slo_attainment", report.slo_attainment());

        // The probes below run back to back; one calibration factor over
        // their whole period turns their raw seconds into calibrated ones.
        let probes = rec.mark();

        // Probe: what serve's prepare step costs — one lowering and one
        // timing sweep per distinct (workload, instance) pair.
        let config = self.server.options().config.clone();
        let registry = standard_registry();
        let mut pairs: BTreeMap<(String, String), (OpTrace, Vec<OpTiming>)> = BTreeMap::new();
        let ((), prepare_s) = rec.timed(|| {
            for job in &self.jobs {
                let key = (job.workload.clone(), job.instance.name().to_string());
                if pairs.contains_key(&key) {
                    continue;
                }
                let workload = registry
                    .get(&job.workload)
                    .expect("streams draw registry names");
                // compile() keeps instruction order, so this is the trace
                // the server's tree-walking lowering produces.
                let lowered = workload
                    .build(&job.instance)
                    .and_then(|circuit| compile(&circuit))
                    .and_then(|compiled| TraceBackend::new().lower_compiled(&compiled));
                let Some(lowered) = checks.ok(lowered, "prepare probe: lowering") else {
                    continue;
                };
                let simulator = Simulator::new(config.clone(), job.instance.clone());
                let timings = simulator.op_timings(&lowered.trace);
                let Some(timings) = checks.ok(timings, "prepare probe: timings") else {
                    continue;
                };
                pairs.insert(key, (lowered.trace, timings));
            }
        });
        out.insert("serve.distinct_pairs", pairs.len() as f64);

        if OVERLOAD {
            let plan = &self.server.options().fault;
            let draws = if size == Size::Full {
                1_000_000u64
            } else {
                10_000
            };
            let (faults, draw_s) = rec.timed(|| {
                (0..draws)
                    .filter(|&job| plan.transient_faults(job, 1))
                    .count()
            });
            std::hint::black_box(faults);
            let factor = rec.factor_since(probes);
            out.insert("serve.prepare_ms", prepare_s * 1e3 * factor);
            out.insert(
                "fault.transient_draw_ns",
                draw_s * 1e9 * factor / draws as f64,
            );
            return;
        }

        // Probe: the multi-job scheduler alone on the same job set, in
        // windows of as many jobs as serve keeps in flight (all 10^4 at once
        // would make every placement scan 10^4 candidates — not what serve
        // asks of it).
        let machine = MachineModel::from_config(&config);
        let (reservations, multi_s) = rec.timed(|| {
            let mut reservations = 0usize;
            for (w, window) in self.jobs.chunks(MAX_IN_FLIGHT).enumerate() {
                let admitted: Vec<(u32, &OpTrace, &[OpTiming], f64)> = window
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        let (trace, timings) =
                            &pairs[&(job.workload.clone(), job.instance.name().to_string())];
                        let tag = (w * MAX_IN_FLIGHT + i) as u32;
                        (tag, trace, timings.as_slice(), job.arrival_seconds)
                    })
                    .collect();
                let schedule = schedule_jobs(machine, &admitted);
                reservations += schedule.busy.iter().map(Vec::len).sum::<usize>();
            }
            reservations
        });

        // Probe: how serve's time grows from a tenth of the stream to all of it.
        let tenth = &self.jobs[..self.jobs.len() / 10];
        let tenth_s: Vec<f64> = (0..3)
            .map(|_| {
                let (served, seconds) = rec.timed(|| self.server.serve(tenth));
                checks.ok(served, "serve on a tenth of the stream");
                seconds
            })
            .collect();

        let factor = rec.factor_since(probes);
        let prepare_ms = prepare_s * 1e3 * factor;
        let multi_ms = multi_s * 1e3 * factor;
        out.insert("serve.prepare_ms", prepare_ms);
        out.insert("sched.multi_ms", multi_ms);
        out.insert(
            "sched.multi_reservations_per_s",
            reservations as f64 / (multi_ms / 1e3),
        );
        out.insert("serve.self_ms", call_ms - prepare_ms - multi_ms);
        out.insert(
            "serve.scaling_exponent",
            (call_ms / (host::mean(&tenth_s) * 1e3 * factor)).log10(),
        );
        out.insert(
            "serve.cold_first_ms",
            rec.cold_ms("serve.call") * warm.factor,
        );
        out.insert("sched.coscheduling_speedup", report.coscheduling_speedup());

        if size == Size::Full {
            let on = probe_child(self.seed, "1", checks);
            let off = probe_child(self.seed, "0", checks);
            if let (Some(on), Some(off)) = (on, off) {
                out.insert("telemetry.on_wall_ratio", on / off);
            }
        }
    }
}

/// Jobs of the steady stream a telemetry probe child serves: enough to time,
/// few enough that two children fit a traced run.
const PROBE_JOBS: usize = 2_000;

/// `--probe serve-rep`: serves the head of the steady stream once cold and
/// three times warm, and prints the calibrated warm mean in seconds. The parent runs
/// it with `BTS_TELEMETRY` on and off — the environment is the only way the
/// benchmark touches the program's own collector.
pub fn probe(name: &str, seed: u64) -> ExitCode {
    if name != "serve-rep" {
        eprintln!("unknown probe {name}");
        return ExitCode::from(2);
    }
    let jobs = bootstrap_heavy_stream(seed, 18e-3, 8, PROBE_JOBS);
    let server = BtsServer::new(options(false, seed));
    let mut rec = Recorder::new();
    let mut seconds = Vec::new();
    let mut mark = rec.mark();
    for rep in 0..4 {
        let (served, elapsed) = rec.timed(|| server.serve(&jobs));
        if let Err(e) = served {
            eprintln!("probe serve failed: {e}");
            return ExitCode::FAILURE;
        }
        if rep == 0 {
            mark = rec.mark();
        } else {
            seconds.push(elapsed);
        }
    }
    println!("{}", host::mean(&seconds) * rec.factor_since(mark));
    ExitCode::SUCCESS
}

fn probe_child(seed: u64, telemetry: &str, checks: &mut Checks) -> Option<f64> {
    let exe = checks.ok(std::env::current_exe(), "current_exe")?;
    let output = Command::new(exe)
        .args(["--probe", "serve-rep", "--seed", &seed.to_string()])
        .env("BTS_TELEMETRY", telemetry)
        .output();
    let output = checks.ok(output, "telemetry probe child")?;
    let seconds = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse::<f64>();
    checks.check(output.status.success(), || {
        "telemetry probe child failed".to_string()
    });
    checks.ok(seconds, "telemetry probe child output")
}
