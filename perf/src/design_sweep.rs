//! `design_sweep`: the architect's loop behind every figure — each registry
//! workload on each Table 4 instance, built, optimized, compiled, lowered,
//! simulated under LRU and Belady eviction and list-scheduled. `circuit`,
//! `sim` and `sched` do the work; the simulated scratchpad starts empty at
//! every point.

use std::process::Command;

use bts::circuit::{compile, PassPipeline, TraceBackend, WorkloadRegistry};
use bts::params::CkksInstance;
use bts::sched::ScheduleExt;
use bts::sim::{BtsConfig, Simulator};
use bts::workloads::{standard_registry, AmortizedMultWorkload, BootstrapWorkload};

use crate::host;
use crate::json::{self, Value};
use crate::runner::{design_point, Bench, Checks, Metrics, Rep, Size, Warm};
use crate::spans::Recorder;

/// What one (workload, instance) point of the sweep produced.
#[derive(Debug, Clone, PartialEq)]
struct Point {
    workload: String,
    instance: String,
    instrs_in: usize,
    instrs_out: usize,
    trace_ops: usize,
    key_switches: usize,
    bootstraps: usize,
    serial_seconds: f64,
    scheduled_seconds: f64,
    critical_path_seconds: f64,
    hbm_bytes: u64,
    belady_hbm_bytes: u64,
    /// `(hits, misses)` under LRU and under Belady.
    lru: (usize, usize),
    belady: (usize, usize),
}

/// A `compile` row of the committed `BENCH_FIGURES.json`.
struct Reference {
    workload: String,
    instance: String,
    ops_after: f64,
    key_switches_after: f64,
    serial_seconds_after: f64,
}

pub struct DesignSweep {
    registry: WorkloadRegistry,
    pipeline: PassPipeline,
    instances: Vec<CkksInstance>,
    /// The seeded design point warm repetitions simulate.
    seeded: BtsConfig,
    reference: Vec<Reference>,
    last: Vec<Point>,
}

fn read_reference(checks: &mut Checks) -> Vec<Reference> {
    let text = std::fs::read_to_string("BENCH_FIGURES.json");
    let Some(doc) = checks.ok(text, "BENCH_FIGURES.json").and_then(|t| {
        json::parse(&t)
            .map_err(|e| eprintln!("BENCH_FIGURES.json: {e}"))
            .ok()
    }) else {
        return Vec::new();
    };
    let rows = doc.get("compile").and_then(Value::as_array).unwrap_or(&[]);
    rows.iter()
        .filter_map(|row| {
            Some(Reference {
                workload: row.get("workload")?.as_str()?.to_string(),
                instance: row.get("instance")?.as_str()?.to_string(),
                ops_after: row.get("ops_after")?.as_f64()?,
                key_switches_after: row.get("key_switches_after")?.as_f64()?,
                serial_seconds_after: row.get("serial_seconds_after")?.as_f64()?,
            })
        })
        .collect()
}

impl DesignSweep {
    fn sweep(&self, config: &BtsConfig, rec: &mut Recorder, checks: &mut Checks) -> Vec<Point> {
        let mut points = Vec::new();
        for ins in &self.instances {
            let simulator = Simulator::new(config.clone(), ins.clone());
            for (name, workload) in self.registry.iter() {
                let what = format!("{name} on {}", ins.name());
                let built = rec.span("workloads.build", |_| workload.build(ins));
                let Some(circuit) = checks.ok(built, &what) else {
                    continue;
                };
                let optimized = rec.span("circuit.passes", |_| self.pipeline.optimize(&circuit));
                let Some(optimized) = checks.ok(optimized, &what) else {
                    continue;
                };
                let compiled = rec.span("circuit.compile", |_| compile(&optimized));
                let Some(compiled) = checks.ok(compiled, &what) else {
                    continue;
                };
                let lowered = rec.span("circuit.lower", |_| {
                    TraceBackend::new().lower_compiled(&compiled)
                });
                let Some(lowered) = checks.ok(lowered, &what) else {
                    continue;
                };
                let trace = &lowered.trace;
                let lru = rec.span("sim.try_run", |_| simulator.try_run(trace));
                let Some(lru) = checks.ok(lru, &what) else {
                    continue;
                };
                let belady = rec.span("sim.belady", |_| simulator.try_run_belady(trace));
                let Some(belady) = checks.ok(belady, &what) else {
                    continue;
                };
                let scheduled = rec.span("sched.run_scheduled", |_| simulator.run_scheduled(trace));
                let schedule = &scheduled.schedule;
                let point = Point {
                    workload: name.to_string(),
                    instance: ins.name().to_string(),
                    instrs_in: circuit.len(),
                    instrs_out: optimized.len(),
                    trace_ops: trace.len(),
                    key_switches: trace.key_switch_count(),
                    bootstraps: lowered.bootstrap_count,
                    serial_seconds: lru.total_seconds,
                    scheduled_seconds: schedule.makespan_seconds,
                    critical_path_seconds: schedule.critical_path_seconds,
                    hbm_bytes: lru.hbm_bytes,
                    belady_hbm_bytes: belady.hbm_bytes,
                    lru: (lru.cache_hits, lru.cache_misses),
                    belady: (belady.cache_hits, belady.cache_misses),
                };
                // The tolerance absorbs summation-order rounding only.
                let slack = 1.0 + 1e-9;
                checks.check(
                    point.critical_path_seconds <= point.scheduled_seconds * slack
                        && point.scheduled_seconds <= point.serial_seconds * slack,
                    || {
                        format!(
                            "{what}: critical path <= scheduled <= serial does not hold: {point:?}"
                        )
                    },
                );
                checks.check(point.belady_hbm_bytes <= point.hbm_bytes, || {
                    format!("{what}: Belady moved more HBM bytes than LRU: {point:?}")
                });
                checks.check(
                    scheduled.report.total_seconds.to_bits() == point.serial_seconds.to_bits(),
                    || format!("{what}: run_scheduled's serial charge differs from try_run's"),
                );
                points.push(point);
            }
        }
        points
    }

    /// The rows of a sweep at the paper's design point must be the committed
    /// `compile` section of `BENCH_FIGURES.json`.
    fn check_against_reference(&self, points: &[Point], checks: &mut Checks) {
        for point in points {
            let row = self
                .reference
                .iter()
                .find(|r| r.workload == point.workload && r.instance == point.instance);
            checks.check(
                row.is_some_and(|r| {
                    r.ops_after == point.trace_ops as f64
                        && r.key_switches_after == point.key_switches as f64
                        && (r.serial_seconds_after / point.serial_seconds - 1.0).abs() < 1e-6
                }),
                || format!("sweep row differs from BENCH_FIGURES.json: {point:?}"),
            );
        }
    }
}

impl Bench for DesignSweep {
    fn setup(seed: u64, size: Size, checks: &mut Checks) -> Self {
        let mut instances = CkksInstance::evaluation_set();
        if size == Size::Smoke {
            instances.truncate(1);
        }
        let registry = match size {
            Size::Full => standard_registry(),
            // Sorting alone is two thirds of the sweep's instructions.
            Size::Smoke => {
                let mut small = WorkloadRegistry::new();
                small.register(Box::new(BootstrapWorkload));
                small.register(Box::new(AmortizedMultWorkload));
                small
            }
        };
        Self {
            registry,
            pipeline: PassPipeline::standard(),
            instances,
            seeded: design_point(seed),
            reference: read_reference(checks),
            last: Vec::new(),
        }
    }

    fn rep(&mut self, rec: &mut Recorder, checks: &mut Checks, cold: bool) -> Rep {
        // The cold repetition runs the paper's exact design point, which is
        // what the committed reference rows were produced at; warm ones run
        // the seeded point. The work is the same either way.
        let points = if cold {
            let points = self.sweep(&BtsConfig::bts_default(), rec, checks);
            self.check_against_reference(&points, checks);
            points
        } else {
            self.sweep(&self.seeded.clone(), rec, checks)
        };
        let rep = Rep {
            // Three engine passes per traced op: LRU, Belady, scheduled.
            units: 3 * points.iter().map(|p| p.trace_ops as u64).sum::<u64>(),
            sim_bits: points
                .iter()
                .flat_map(|p| {
                    [
                        p.serial_seconds.to_bits(),
                        p.scheduled_seconds.to_bits(),
                        p.critical_path_seconds.to_bits(),
                        p.hbm_bytes,
                        p.belady_hbm_bytes,
                    ]
                })
                .collect(),
        };
        self.last = points;
        rep
    }

    fn simulated(&self) -> (f64, f64) {
        (
            self.last.iter().map(|p| p.serial_seconds).sum(),
            self.last.iter().map(|p| p.hbm_bytes as f64 / 1e9).sum(),
        )
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        checks: &mut Checks,
        size: Size,
        warm: &Warm,
        out: &mut Metrics,
    ) {
        let per_rep = |name: &str| host::mean(&rec.per_rep_ms(name)) * warm.factor;
        out.insert("workloads.build_ms", per_rep("workloads.build"));
        out.insert("circuit.passes_ms", per_rep("circuit.passes"));
        out.insert("circuit.compile_ms", per_rep("circuit.compile"));
        out.insert("circuit.lower_ms", per_rep("circuit.lower"));
        out.insert("sim.try_run_ms", per_rep("sim.try_run"));
        out.insert("sim.belady_ms", per_rep("sim.belady"));
        out.insert("sched.run_scheduled_ms", per_rep("sched.run_scheduled"));
        out.insert(
            "circuit.passes_max_point_ms",
            host::mean(&rec.per_rep_max_ms("circuit.passes")) * warm.factor,
        );

        let sum = |f: fn(&Point) -> usize| self.last.iter().map(f).sum::<usize>() as f64;
        let trace_ops = sum(|p| p.trace_ops);
        out.insert("circuit.instrs_in", sum(|p| p.instrs_in));
        out.insert("circuit.instrs_out", sum(|p| p.instrs_out));
        out.insert("circuit.trace_ops", trace_ops);
        out.insert("circuit.key_switches", sum(|p| p.key_switches));
        out.insert("circuit.bootstraps", sum(|p| p.bootstraps));
        out.insert("sim.ns_per_op", per_rep("sim.try_run") * 1e6 / trace_ops);
        let rate = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        out.insert(
            "sim.cache_hit_rate",
            rate(sum(|p| p.lru.0), sum(|p| p.lru.1)),
        );
        out.insert(
            "sim.belady_hit_rate",
            rate(sum(|p| p.belady.0), sum(|p| p.belady.1)),
        );
        let gb = |f: fn(&Point) -> u64| self.last.iter().map(|p| f(p) as f64 / 1e9).sum::<f64>();
        out.insert("sim.hbm_gb", gb(|p| p.hbm_bytes));
        out.insert("sim.belady_hbm_gb", gb(|p| p.belady_hbm_bytes));

        if size == Size::Full {
            probe_figures(rec, checks, out);
        }
    }
}

/// Builds the repo's `figures` binary, regenerates `BENCH_FIGURES.json` in a
/// scratch directory and compares it byte for byte with the committed file.
fn probe_figures(rec: &mut Recorder, checks: &mut Checks, out: &mut Metrics) {
    let built = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "bts-bench",
            "--bin",
            "figures",
        ])
        .status();
    if !checks
        .ok(built, "building figures")
        .is_some_and(|s| s.success())
    {
        checks.check(false, || {
            "cargo could not build the figures binary".to_string()
        });
        return;
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let Some(binary) = checks.ok(
        std::fs::canonicalize(format!("{target}/release/figures")),
        "the built figures binary",
    ) else {
        return;
    };
    let scratch = std::path::Path::new("perf/out/figures");
    if checks
        .ok(std::fs::create_dir_all(scratch), "perf/out/figures")
        .is_none()
    {
        return;
    }
    let mark = rec.mark();
    let (ran, seconds) = rec.timed(|| {
        Command::new(binary)
            .arg("--json")
            .current_dir(scratch)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
    });
    out.insert("bench.figures_json_s", seconds * rec.factor_since(mark));
    let identical = checks
        .ok(ran, "figures --json")
        .is_some_and(|s| s.success())
        && std::fs::read(scratch.join("BENCH_FIGURES.json")).ok()
            == std::fs::read("BENCH_FIGURES.json").ok();
    checks.check(identical, || {
        "figures --json no longer regenerates the committed BENCH_FIGURES.json".to_string()
    });
    out.insert("bench.figures_identical", f64::from(u8::from(identical)));
}
