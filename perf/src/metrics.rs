//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `BENCHMARK.json` at the repo root is this table
//! printed by `--manifest`; `--smoke` fails when the two disagree.

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["perf"];
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fhe_exec",
        "HELR-mini + ResNet-mini compiled circuits on real RNS ciphertexts: math and ckks do over 90 % of the work, circuit's register file the rest; sim, sched, serve and cluster are idle",
    ),
    (
        "design_sweep",
        "the 5 registry workloads x INS-1/2/3 through build, passes, compile, lower, LRU and Belady simulation and the single-trace scheduler: circuit, sim and sched work; ckks, serve and cluster are idle",
    ),
    (
        "serve_steady",
        "BtsServer::serve of 10^4 jobs at rho 0.8 with only 2 distinct (workload, instance) pairs, nothing shed: the serve admission loop and sched::multi are all of the time",
    ),
    (
        "serve_overload",
        "BtsServer::serve of 12000 SJF jobs at 1.3x capacity with deadlines, a bounded queue, retries and 12 distinct pairs: the shed, deadline, retry and prepare paths steady serving never takes",
    ),
    (
        "cluster_failover",
        "the same 10^4-job stream on a healthy then a wounded 4-chip fleet (two chip deaths, a degraded link, transient faults): cluster and fault do the work and failover itself is priced",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    // Host clock. Every bound is at least three times the widest spread
    // (IQR / median over ten seeds) seen on the noisy sandbox; BASELINE.md
    // has the spreads.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_unit",
        unit: "1/unit",
        better: "lower",
        bound: 0.04,
    },
    // Simulated clock. The bounds cover the seed-to-seed spread of the
    // arrival streams; for a fixed seed both repeat exactly, and the
    // design_sweep rows are held to BENCH_FIGURES.json by an output check.
    EndToEnd {
        name: "sim_seconds",
        unit: "s",
        better: "lower",
        bound: 0.08,
    },
    EndToEnd {
        name: "sim_hbm_gb",
        unit: "GB",
        better: "lower",
        bound: 0.08,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric (and workload) this one is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("math.ntt_forward_us", "us", "lower", "wall_s@fhe_exec"),
    layer("math.ntt_inverse_us", "us", "lower", "wall_s@fhe_exec"),
    layer("math.bconv_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.key_switch_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.hmult_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.hrot_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.rescale_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.pmult_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.hadd_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.encrypt_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.decrypt_decode_us", "us", "lower", "wall_s@fhe_exec"),
    layer("ckks.keygen_ms", "ms", "lower", "setup_s@fhe_exec"),
    layer("circuit.exec_ms", "ms", "lower", "wall_s@fhe_exec"),
    layer("circuit.exec_hi_ms", "ms", "lower", "wall_s@fhe_exec"),
    layer(
        "circuit.exec_overhead_share",
        "share",
        "lower",
        "wall_s@fhe_exec",
    ),
    layer(
        "circuit.exec_allocs_per_op",
        "1/op",
        "lower",
        "allocs_per_unit@fhe_exec",
    ),
    layer("circuit.passes_ms", "ms", "lower", "wall_s@design_sweep"),
    layer(
        "circuit.passes_max_point_ms",
        "ms",
        "lower",
        "wall_s@design_sweep",
    ),
    layer("circuit.compile_ms", "ms", "lower", "wall_s@design_sweep"),
    layer("circuit.lower_ms", "ms", "lower", "wall_s@design_sweep"),
    layer(
        "circuit.instrs_in",
        "count",
        "lower",
        "sim_seconds@design_sweep",
    ),
    layer(
        "circuit.instrs_out",
        "count",
        "lower",
        "sim_seconds@design_sweep",
    ),
    layer(
        "circuit.trace_ops",
        "count",
        "lower",
        "sim_seconds@design_sweep, wall_s@design_sweep",
    ),
    layer(
        "circuit.key_switches",
        "count",
        "lower",
        "sim_seconds@design_sweep",
    ),
    layer(
        "circuit.bootstraps",
        "count",
        "lower",
        "sim_seconds@design_sweep",
    ),
    layer("workloads.build_ms", "ms", "lower", "wall_s@design_sweep"),
    layer("sim.try_run_ms", "ms", "lower", "wall_s@design_sweep"),
    layer("sim.belady_ms", "ms", "lower", "wall_s@design_sweep"),
    layer("sim.ns_per_op", "ns", "lower", "wall_s@design_sweep"),
    layer(
        "sim.cache_hit_rate",
        "share",
        "higher",
        "sim_hbm_gb@design_sweep, sim_seconds@design_sweep",
    ),
    layer(
        "sim.belady_hit_rate",
        "share",
        "higher",
        "sim_hbm_gb@design_sweep (the bound a policy can reach)",
    ),
    layer("sim.hbm_gb", "GB", "lower", "sim_hbm_gb@design_sweep"),
    layer(
        "sim.belady_hbm_gb",
        "GB",
        "lower",
        "sim_hbm_gb@design_sweep (the bound a policy can reach)",
    ),
    layer(
        "sched.run_scheduled_ms",
        "ms",
        "lower",
        "wall_s@design_sweep",
    ),
    layer("sched.multi_ms", "ms", "lower", "wall_s@serve_steady"),
    layer(
        "sched.multi_reservations_per_s",
        "1/s",
        "higher",
        "wall_s@serve_steady",
    ),
    layer(
        "sched.coscheduling_speedup",
        "ratio",
        "higher",
        "sim_seconds@serve_steady",
    ),
    layer(
        "serve.call_ms",
        "ms",
        "lower",
        "wall_s@serve_steady, wall_s@serve_overload",
    ),
    layer("serve.prepare_ms", "ms", "lower", "wall_s@serve_overload"),
    layer(
        "serve.self_ms",
        "ms",
        "lower",
        "wall_s@serve_steady, wall_s@serve_overload",
    ),
    layer(
        "serve.us_per_job",
        "us",
        "lower",
        "wall_s@serve_steady, wall_s@serve_overload",
    ),
    layer(
        "serve.scaling_exponent",
        "ratio",
        "lower",
        "wall_s@serve_steady",
    ),
    layer(
        "serve.cold_first_ms",
        "ms",
        "lower",
        "peak_rss_mb@serve_steady",
    ),
    layer(
        "serve.completed",
        "count",
        "higher",
        "serve.sim_goodput_jobs_per_s@serve_overload",
    ),
    layer(
        "serve.shed",
        "count",
        "lower",
        "serve.sim_slo_attainment@serve_overload",
    ),
    layer(
        "serve.retried",
        "count",
        "lower",
        "serve.sim_goodput_jobs_per_s@serve_overload",
    ),
    layer(
        "serve.deadline_missed",
        "count",
        "lower",
        "serve.sim_slo_attainment@serve_overload",
    ),
    layer(
        "serve.distinct_pairs",
        "count",
        "lower",
        "wall_s@serve_overload (prepare share)",
    ),
    layer(
        "serve.sim_goodput_jobs_per_s",
        "1/s",
        "higher",
        "sim_seconds@serve_steady, sim_seconds@serve_overload",
    ),
    layer(
        "serve.sim_p99_latency_s",
        "s",
        "lower",
        "sim_seconds@serve_steady, sim_seconds@serve_overload",
    ),
    layer(
        "serve.sim_slo_attainment",
        "share",
        "higher",
        "sim_seconds@serve_overload",
    ),
    layer(
        "cluster.healthy_ms",
        "ms",
        "lower",
        "wall_s@cluster_failover",
    ),
    layer(
        "cluster.wounded_ms",
        "ms",
        "lower",
        "wall_s@cluster_failover",
    ),
    layer(
        "cluster.failover_cost_ratio",
        "ratio",
        "lower",
        "wall_s@cluster_failover",
    ),
    layer(
        "cluster.place_us_per_job",
        "us",
        "lower",
        "wall_s@cluster_failover",
    ),
    layer(
        "cluster.migrated",
        "count",
        "lower",
        "cluster.sim_goodput_jobs_per_s@cluster_failover",
    ),
    layer(
        "cluster.shed",
        "count",
        "lower",
        "cluster.sim_slo_attainment@cluster_failover",
    ),
    layer(
        "cluster.retried",
        "count",
        "lower",
        "cluster.sim_goodput_jobs_per_s@cluster_failover",
    ),
    layer(
        "cluster.interconnect_gb",
        "GB",
        "lower",
        "sim_seconds@cluster_failover",
    ),
    layer(
        "cluster.sim_goodput_jobs_per_s",
        "1/s",
        "higher",
        "sim_seconds@cluster_failover",
    ),
    layer(
        "cluster.sim_p99_latency_s",
        "s",
        "lower",
        "sim_seconds@cluster_failover",
    ),
    layer(
        "cluster.sim_slo_attainment",
        "share",
        "higher",
        "sim_seconds@cluster_failover",
    ),
    layer(
        "fault.transient_draw_ns",
        "ns",
        "lower",
        "wall_s@serve_overload",
    ),
    layer(
        "telemetry.on_wall_ratio",
        "ratio",
        "lower",
        "wall_s@serve_steady (the disabled path must stay free)",
    ),
    layer(
        "bench.trace_overhead_ratio",
        "ratio",
        "lower",
        "none (the recorder's own cost)",
    ),
    layer(
        "bench.figures_json_s",
        "s",
        "lower",
        "none (figures --json end to end)",
    ),
    layer(
        "bench.figures_identical",
        "bool",
        "higher",
        "none (BENCH_FIGURES.json regenerates byte-identical)",
    ),
    layer(
        "host.rep_spread",
        "share",
        "lower",
        "none (raw IQR / median of the warm repetitions: the noise the run saw)",
    ),
    layer(
        "host.calibration_slowdown",
        "ratio",
        "lower",
        "none (mean calibration-kernel time over its reference: what calibration corrected)",
    ),
];

fn quoted(items: &[&str]) -> String {
    let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    items.join(", ")
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
