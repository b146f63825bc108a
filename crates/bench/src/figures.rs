//! One function per table/figure of the paper's evaluation. Every function is
//! deterministic and returns the rendered rows as a `String`, so the `figures`
//! binary, the integration tests and EXPERIMENTS.md all share the same source
//! of truth.

use std::fmt::Write as _;
use std::sync::Arc;

use bts_circuit::{
    compile as compile_bytecode, BootstrapPlan, PassPipeline, TraceBackend, Workload,
};
use bts_cluster::{
    serve_cluster, ChipSpec, ClusterOptions, ClusterReport, FaultPlan, Interconnect,
    PlacementPolicy,
};
use bts_params::{
    hmult_complexity, min_nttu_count, sweep_dnum, BandwidthModel, CkksInstance, Decomposition,
    MinBoundModel, L_BOOT,
};
use bts_sched::{FuKind, JobPlan, MultiScheduler, ScheduleExt};
use bts_serve::{
    serve as serve_jobs, JobRequest, QueuePolicy, ServeOptions, ServeReport, SyntheticArrivals,
};
use bts_sim::{hmult_timeline, ArchPreset, AreaPowerModel, BtsConfig, SimReport, Simulator};
use bts_telemetry::{json::JsonWriter, TimelineSegment};
use bts_workloads::{
    amortized_mult_per_slot, amortized_seconds_per_slot, standard_registry, AmortizedMultWorkload,
    BaselineSet, HelrConfig, HelrWorkload, ResNetWorkload, SortingWorkload, UNENCRYPTED_HELR_MS,
    UNENCRYPTED_RESNET_S,
};

use crate::sweep::{GridConfig, SweepGrid};

fn header(title: &str) -> String {
    format!("==== {title} ====\n")
}

/// One line per reservation: unit, label, start – end.
fn write_timeline(out: &mut String, indent: &str, segments: Vec<TimelineSegment>) {
    for s in segments {
        let (unit, label) = (s.unit, s.label);
        let _ = writeln!(
            out,
            "{indent}{unit:<16} {label:<22} {:>10.1} – {:>10.1} ns",
            s.start_ns, s.end_ns
        );
    }
}

/// Table 1: platform comparison (N, bootstrappability, refreshed slots, FHE
/// mult throughput). BTS's row is measured with the simulator.
pub fn table1() -> String {
    let mut out = header("Table 1: prior HE acceleration works vs BTS");
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>6} {:>8} {:>16} {:>18}",
        "Platform", "Type", "logN", "Boot", "slots/bootstrap", "mult thruput (1/s)"
    );
    let or_dash = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
    for b in BaselineSet::paper().all() {
        let thruput = b
            .tmult_a_slot_us
            .map(|t| format!("{:.0}", 1.0 / (t * 1e-6)));
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>6} {:>8} {:>16} {:>18}",
            b.name,
            b.platform,
            b.log_n,
            if b.bootstrappable { "yes" } else { "limited" },
            or_dash(b.slots_per_bootstrap.map(|s| s.to_string())),
            or_dash(thruput)
        );
    }
    let ins = CkksInstance::ins2();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let (t, _) = amortized_mult_per_slot(&sim);
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>6} {:>8} {:>16} {:>18.0}",
        "BTS (ours)",
        "ASIC model",
        ins.log_n(),
        "yes",
        ins.slots(),
        1.0 / t
    );
    out
}

/// Fig. 1: maximum level L and single-evk size versus (normalized) dnum for
/// N = 2^15..2^18 at the 128-bit security target.
pub fn fig1() -> String {
    let mut out = header("Fig 1: L and evk size vs dnum (λ ≥ 128)");
    for log_n in [15u32, 16, 17, 18] {
        let points = sweep_dnum(log_n, 128.0, 60, 51);
        let _ = writeln!(out, "N = 2^{log_n} (max dnum = {})", points.len());
        for p in points.iter().step_by((points.len() / 8).max(1)) {
            let _ = writeln!(
                out,
                "  dnum {:>3} (norm {:.2}): L = {:>3}, evk = {:.2} GB",
                p.dnum,
                p.normalized_dnum,
                p.max_level,
                p.evk_bytes as f64 / 1e9
            );
        }
    }
    out
}

/// Fig. 2: security level λ versus the minimum-bound T_mult,a/slot across
/// (N, dnum) combinations at 1 TB/s.
pub fn fig2() -> String {
    let mut out = header("Fig 2: λ vs min-bound T_mult,a/slot (1 TB/s HBM)");
    let plan = BootstrapPlan::paper_default();
    for log_n in [15u32, 16, 17, 18] {
        for dnum in [1usize, 2, 3, 6, 14] {
            let Some(ins) = bts_params::instance_at_security(log_n, dnum, 128.0, 60, 51, 55) else {
                continue;
            };
            if ins.max_level() <= L_BOOT {
                let _ = writeln!(
                    out,
                    "  N=2^{log_n} dnum={dnum}: L={} cannot bootstrap",
                    ins.max_level()
                );
                continue;
            }
            let model = MinBoundModel::new(ins.clone(), BandwidthModel::hbm_1tb());
            let hist = plan.keyswitch_histogram(&ins);
            let t = model.amortized_mult_per_slot_from_trace(&hist);
            let _ = writeln!(
                out,
                "  N=2^{log_n} dnum={dnum}: L={:>3} λ={:>6.1} T_mult,a/slot = {:>8.1} ns",
                ins.max_level(),
                ins.security_level(),
                t * 1e9
            );
        }
    }
    let _ = writeln!(
        out,
        "  (Eq.10 minNTTU for INS-1 at 1.2 GHz / 1 TB/s: {:.0})",
        min_nttu_count(&CkksInstance::ins1(), 1.2e9, BandwidthModel::hbm_1tb())
    );
    out
}

/// Fig. 3(b): relative complexity of BConv/NTT/iNTT/others in HMult for
/// λ-matched instances with different dnum.
pub fn fig3b() -> String {
    let mut out = header("Fig 3b: HMult complexity breakdown vs dnum (N = 2^17)");
    let configs = [
        ("dnum=1 (L=27)", 27usize, 1usize),
        ("dnum=2 (L=39)", 39, 2),
        ("dnum=3 (L=44)", 44, 3),
        ("dnum=6 (L=49)", 49, 6),
        ("dnum=max (L=60)", 60, 61),
    ];
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>8} {:>8}",
        "config", "BConv%", "NTT%", "iNTT%", "others%"
    );
    for (name, level, dnum) in configs {
        let decomposition = Decomposition::new(level, dnum).expect("1 <= dnum <= L + 1");
        let c = hmult_complexity(1 << 17, level, decomposition);
        let (bconv, ntt, intt, others) = c.fractions();
        let _ = writeln!(
            out,
            "{:<18} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            name,
            bconv * 100.0,
            ntt * 100.0,
            intt * 100.0,
            others * 100.0
        );
    }
    out
}

/// Table 3: area and peak power of the BTS components.
pub fn table3() -> String {
    let mut out = header("Table 3: area and peak power of BTS components");
    let model = AreaPowerModel::bts_default();
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>10}",
        "Component", "Area (mm²)", "Power (W)"
    );
    for c in model.table3() {
        let _ = writeln!(
            out,
            "{:<22} {:>12.2} {:>10.2}",
            c.name, c.area_mm2, c.power_w
        );
    }
    out
}

/// Table 4: the evaluation CKKS instances.
pub fn table4() -> String {
    let mut out = header("Table 4: CKKS instances used for evaluation");
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>4} {:>5} {:>8} {:>7} {:>12}",
        "Instance", "N", "L", "dnum", "log PQ", "λ", "temp (paper)"
    );
    for ins in CkksInstance::evaluation_set() {
        let _ = writeln!(
            out,
            "{:<8} 2^{:<4} {:>4} {:>5} {:>8.0} {:>7.1} {:>9} MB",
            ins.name(),
            ins.log_n(),
            ins.max_level(),
            ins.dnum(),
            ins.log_pq(),
            ins.security_level(),
            ins.reported_temp_bytes()
                .map(|b| b / 1_000_000)
                .unwrap_or(0),
        );
    }
    out
}

/// Fig. 6: amortized mult time per slot of the baselines and BTS (INS-1/2/3).
pub fn fig6() -> String {
    let mut out = header("Fig 6: T_mult,a/slot — baselines vs BTS");
    let baselines = BaselineSet::paper();
    for b in baselines.all() {
        if let Some(t) = b.tmult_a_slot_us {
            let _ = writeln!(out, "{:<10} {:>12.3} µs", b.name, t);
        }
    }
    let mut best = f64::MAX;
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let (t, _) = amortized_mult_per_slot(&sim);
        best = best.min(t);
        let _ = writeln!(
            out,
            "BTS {:<6} {:>12.3} µs  ({:.1} ns)",
            ins.name(),
            t * 1e6,
            t * 1e9
        );
    }
    if let Some(lattigo) = baselines.get("Lattigo").and_then(|b| b.tmult_a_slot_us) {
        let _ = writeln!(
            out,
            "speedup of best BTS instance over Lattigo: {:.0}× (paper: 2,237×)",
            lattigo * 1e-6 / best
        );
    }
    out
}

/// Fig. 7(a): minimum-bound vs measured T_mult,a/slot with 512 MiB and 2 GiB
/// scratchpads.
pub fn fig7a() -> String {
    let mut out = header("Fig 7a: T_mult,a/slot — minimum bound vs 512 MiB vs 2 GiB scratchpad");
    let plan = BootstrapPlan::paper_default();
    let _ = writeln!(
        out,
        "{:<8} {:>14} {:>14} {:>14}",
        "Instance", "min bound (ns)", "512 MiB (ns)", "2 GiB (ns)"
    );
    for ins in CkksInstance::evaluation_set() {
        let minb = MinBoundModel::new(ins.clone(), BandwidthModel::hbm_1tb())
            .amortized_mult_per_slot_from_trace(&plan.keyswitch_histogram(&ins));
        let t512 =
            amortized_mult_per_slot(&Simulator::new(BtsConfig::bts_default(), ins.clone())).0;
        let t2g = amortized_mult_per_slot(&Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(2 * 1024 * 1024 * 1024),
            ins.clone(),
        ))
        .0;
        let _ = writeln!(
            out,
            "{:<8} {:>14.1} {:>14.1} {:>14.1}",
            ins.name(),
            minb * 1e9,
            t512 * 1e9,
            t2g * 1e9
        );
    }
    out
}

/// Fig. 7(b): fraction of execution time spent bootstrapping per application
/// on INS-1.
pub fn fig7b() -> String {
    let mut out = header("Fig 7b: bootstrapping share of execution time (INS-1)");
    let ins = CkksInstance::ins1();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    for (name, workload) in [
        ("Amortized mult", &AmortizedMultWorkload as &dyn Workload),
        ("HELR", &HelrWorkload::default()),
        ("ResNet-20", &ResNetWorkload::default()),
        ("Sorting", &SortingWorkload::default()),
    ] {
        let report = sim.run(&workload.lower(&ins).expect("bootstrappable").trace);
        let _ = writeln!(
            out,
            "{:<16} bootstrapping {:>5.1}% | others {:>5.1}%",
            name,
            report.bootstrap_fraction() * 100.0,
            (1.0 - report.bootstrap_fraction()) * 100.0
        );
    }
    out
}

/// Table 5: HELR training time per iteration, baselines vs BTS.
pub fn table5() -> String {
    let mut out = header("Table 5: HELR logistic-regression training time per iteration");
    let baselines = BaselineSet::paper();
    let lattigo = baselines.get("Lattigo").and_then(|b| b.helr_ms_per_iter);
    for b in baselines.all() {
        if let Some(ms) = b.helr_ms_per_iter {
            let _ = writeln!(
                out,
                "{:<10} {:>10.1} ms/iter  (speedup over Lattigo: {:>6.0}×)",
                b.name,
                ms,
                lattigo.unwrap_or(ms) / ms
            );
        }
    }
    for ins in CkksInstance::evaluation_set() {
        let lowered = HelrWorkload::default().lower(&ins).expect("helr");
        let report = Simulator::new(BtsConfig::bts_default(), ins.clone()).run(&lowered.trace);
        let ms = report.total_seconds * 1e3 / 30.0;
        let _ = writeln!(
            out,
            "BTS {:<6} {:>10.1} ms/iter  (speedup over Lattigo: {:>6.0}×, {} bootstraps)",
            ins.name(),
            ms,
            lattigo.unwrap_or(ms) / ms,
            lowered.bootstrap_count
        );
    }
    out
}

/// Table 6: ResNet-20 and sorting latency plus bootstrap counts.
pub fn table6() -> String {
    let mut out = header("Table 6: ResNet-20 inference and sorting");
    let baselines = BaselineSet::paper();
    let lattigo = baselines.get("Lattigo");
    let cpu_resnet = lattigo.and_then(|b| b.resnet20_s).unwrap_or(10_602.0);
    let cpu_sort = lattigo.and_then(|b| b.sorting_s).unwrap_or(23_066.0);
    let _ = writeln!(
        out,
        "CPU [59] ResNet-20: {cpu_resnet:.0} s; CPU [42] sorting: {cpu_sort:.0} s"
    );
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let resnet = ResNetWorkload::default().lower(&ins).expect("resnet");
        let rr = sim.run(&resnet.trace);
        let sort = SortingWorkload::default().lower(&ins).expect("sorting");
        let sr = sim.run(&sort.trace);
        let _ = writeln!(
            out,
            "BTS {:<6} ResNet-20 {:>6.2} s ({:>5.0}×, {:>3} boots) | sorting {:>7.1} s ({:>5.0}×, {:>3} boots)",
            ins.name(),
            rr.total_seconds,
            cpu_resnet / rr.total_seconds,
            resnet.bootstrap_count,
            sr.total_seconds,
            cpu_sort / sr.total_seconds,
            sort.bootstrap_count
        );
    }
    out
}

/// Fig. 8: HMult timeline on INS-1 plus scratchpad statistics.
pub fn fig8() -> String {
    let mut out = header("Fig 8: HMult timeline on INS-1 (top level)");
    let cfg = BtsConfig::bts_default();
    let ins = CkksInstance::ins1();
    write_timeline(&mut out, "", hmult_timeline(&cfg, &ins, ins.max_level()));
    let sim = Simulator::new(cfg, ins.clone());
    let (_, report) = amortized_mult_per_slot(&sim);
    let _ = writeln!(
        out,
        "utilization over the amortized-mult run: NTTU {:.0}%, BConvU {:.0}%, HBM {:.0}%; peak scratchpad demand {} MiB",
        report.ntt_utilization * 100.0,
        report.bconv_utilization * 100.0,
        report.hbm_utilization * 100.0,
        report.scratchpad_peak_bytes / (1024 * 1024)
    );
    out
}

/// Fig. 9: ablation study of T_mult,a/slot.
pub fn fig9() -> String {
    let mut out = header("Fig 9: ablation — cumulative speedup of T_mult,a/slot over Lattigo");
    let lattigo_us = BaselineSet::paper()
        .get("Lattigo")
        .and_then(|b| b.tmult_a_slot_us)
        .unwrap_or(101.8);
    let lattigo = lattigo_us * 1e-6;
    let lattigo_like = CkksInstance::lattigo_preset();
    let ins1 = CkksInstance::ins1();
    let temp = |ins: &CkksInstance| {
        let decomposition = ins.decomposition();
        (decomposition.dnum() as u64 + 2)
            * (decomposition.special_primes() + ins.max_level() + 1) as u64
            * ins.limb_bytes()
    };
    let configs: Vec<(&str, BtsConfig, CkksInstance)> = vec![
        (
            "small BTS (INS-Lattigo)",
            BtsConfig::small_bts(temp(&lattigo_like)),
            lattigo_like.clone(),
        ),
        (
            "small BTS (INS-1)",
            BtsConfig::small_bts(temp(&ins1)),
            ins1.clone(),
        ),
        (
            "BTS w/o BConvU overlap (INS-1)",
            BtsConfig::bts_default().with_overlap(false),
            ins1.clone(),
        ),
        ("BTS (INS-1)", BtsConfig::bts_default(), ins1.clone()),
        (
            "BTS w/ 2 TB/s HBM (INS-1)",
            BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb()),
            ins1,
        ),
    ];
    for (name, cfg, ins) in configs {
        let sim = Simulator::new(cfg, ins);
        let (t, _) = amortized_mult_per_slot(&sim);
        let _ = writeln!(
            out,
            "{:<34} {:>10.2} µs  speedup {:>7.0}×",
            name,
            t * 1e6,
            lattigo / t
        );
    }
    out
}

/// Fig. 10: bootstrapping time breakdown and EDAP versus scratchpad size.
pub fn fig10() -> String {
    let mut out = header("Fig 10: bootstrapping time and EDAP vs scratchpad size (INS-1)");
    let ins = CkksInstance::ins1();
    let trace = BootstrapPlan::paper_default().trace(&ins);
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>14} {:>16} {:>14}",
        "MiB", "boot time (ms)", "HMult/HRot %", "energy (J)", "EDAP (J·s·mm²)"
    );
    let mut sizes: Vec<u64> = (0..14).map(|i| (192 + 64 * i) * 1024 * 1024).collect();
    sizes.push(1024 * 1024 * 1024);
    sizes.dedup();
    for bytes in sizes {
        let cfg = BtsConfig::bts_default().with_scratchpad_bytes(bytes);
        let report = Simulator::new(cfg, ins.clone()).run(&trace);
        let ks_seconds: f64 = report
            .per_op
            .iter()
            .filter(|(op, _)| op.is_key_switching())
            .map(|(_, s)| s.seconds)
            .sum();
        let _ = writeln!(
            out,
            "{:>10} {:>14.2} {:>13.1}% {:>16.3} {:>14.4}",
            bytes / (1024 * 1024),
            report.total_seconds * 1e3,
            ks_seconds / report.total_seconds * 100.0,
            report.energy_j,
            report.edap()
        );
    }
    out
}

/// §6.3 "Slowdown of FHE": FHE-on-BTS versus unencrypted CPU execution.
pub fn slowdown() -> String {
    let mut out = header("Slowdown of FHE vs unencrypted execution");
    let ins = CkksInstance::ins2();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let helr = sim.run(&HelrWorkload::default().lower(&ins).expect("helr").trace);
    let helr_ms = helr.total_seconds * 1e3 / 30.0;
    let _ = writeln!(
        out,
        "HELR: {:.1} ms/iter encrypted vs {:.2} ms unencrypted → {:.0}× slowdown (paper: 141×)",
        helr_ms,
        UNENCRYPTED_HELR_MS,
        helr_ms / UNENCRYPTED_HELR_MS
    );
    let ins1 = CkksInstance::ins1();
    let resnet = Simulator::new(BtsConfig::bts_default(), ins1.clone()).run(
        &ResNetWorkload::default()
            .lower(&ins1)
            .expect("resnet")
            .trace,
    );
    let _ = writeln!(
        out,
        "ResNet-20: {:.2} s encrypted vs {:.4} s unencrypted → {:.0}× slowdown (paper: 440×)",
        resnet.total_seconds,
        UNENCRYPTED_RESNET_S,
        resnet.total_seconds / UNENCRYPTED_RESNET_S
    );
    out
}

/// Machine-readable results, one section per sweep, each row written from
/// the same rows the section's text figure reads: `results` ([`sched`]),
/// `serve` ([`serve`]), `compile` ([`compiler`]), `cluster` ([`cluster`])
/// and `resilience` ([`resilience`]), then `fidelity`, the `results` rows
/// held to the paper's own numbers. `figures -- --json` writes it to
/// `BENCH_FIGURES.json`, so the perf trajectory of the repo is diffable
/// across PRs; this module's tests gate the rows.
pub fn workloads_json() -> String {
    let grid = SweepGrid::paper_default();
    let results = result_rows(&grid);
    let mut w = JsonWriter::default();
    w.object(|w| {
        w.field("schema", 10u32).key("configs").object(|w| {
            for c in grid.configs() {
                w.field(&c.name, c.description.as_str());
            }
        });
        section(w, "results", &results, result_fields);
        section(w, "serve", &serve_rows(&grid), serve_fields);
        section(w, "compile", &compile_rows(), compile_fields);
        section(w, "cluster", &cluster_rows(), cluster_fields);
        section(w, "resilience", &resilience_rows(), resilience_fields);
        section(w, "fidelity", &fidelity_rows(&results), fidelity_fields);
    });
    w.finish()
}

/// Writes one section: an array of rows, each an object of its fields.
fn section<R>(w: &mut JsonWriter, name: &str, rows: &[R], fields: fn(&R, &mut JsonWriter)) {
    w.key(name).array(|w| {
        for row in rows {
            w.object(|w| fields(row, w));
        }
    });
}

/// One `results` row: a registry workload lowered on one instance, run
/// through the scheduler under the scratchpad's reuse-code policy, and
/// replayed under the paper's LRU. Only the trace's counts and the
/// schedule's busy fractions are kept (the whole grid's traces and
/// schedules hold ~200 MB).
struct ResultRow {
    workload: String,
    config: GridConfig,
    instance: CkksInstance,
    ops: usize,
    key_switches: usize,
    rotation_keys: usize,
    bootstraps: usize,
    run: SimReport,
    utilization: [f64; FuKind::COUNT],
    lru: SimReport,
}

/// The `results` sweep: grid configs × instances × registry workloads.
fn result_rows(grid: &SweepGrid) -> Vec<ResultRow> {
    let registry = standard_registry();
    let mut rows = Vec::new();
    for config in grid.configs() {
        for ins in grid.instances() {
            let sim = Simulator::new(config.config.clone(), ins.clone());
            for (name, workload) in registry.iter() {
                let lowered = workload
                    .lower(ins)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", ins.name()));
                let trace = &lowered.trace;
                let run = sim.run_scheduled(trace);
                rows.push(ResultRow {
                    workload: name.to_string(),
                    config: config.clone(),
                    instance: ins.clone(),
                    ops: trace.len(),
                    key_switches: trace.key_switch_count(),
                    rotation_keys: trace.rotation_keys(),
                    bootstraps: lowered.bootstrap_count,
                    run: run.report,
                    utilization: run.schedule.utilizations,
                    lru: sim.try_run_lru(trace).expect("lowered traces validate"),
                });
            }
        }
    }
    rows
}

fn result_fields(row: &ResultRow, w: &mut JsonWriter) {
    let run = &row.run;
    let scheduled = |v: Option<f64>| v.expect("a scheduled run");
    w.field("workload", row.workload.as_str())
        .field("instance", row.instance.name())
        .field("config", row.config.name.as_str())
        .field("ops", row.ops)
        .field("key_switches", row.key_switches)
        .field("rotation_keys", row.rotation_keys)
        .field("bootstraps", row.bootstraps)
        .exp("serial_seconds", run.total_seconds, 6)
        .exp("scheduled_seconds", scheduled(run.scheduled_seconds), 6)
        .exp(
            "critical_path_seconds",
            scheduled(run.critical_path_seconds),
            6,
        )
        .fixed("parallel_speedup", scheduled(run.parallel_speedup()), 4)
        .fixed("bootstrap_fraction", run.bootstrap_fraction(), 4)
        .fixed("hbm_gbytes", run.hbm_bytes as f64 / 1e9, 3)
        .fixed("cache_hit_rate", run.cache_hit_rate(), 4)
        .fixed("lru_cache_hit_rate", row.lru.cache_hit_rate(), 4)
        .fixed("lru_hbm_gbytes", row.lru.hbm_bytes as f64 / 1e9, 3)
        .exp("lru_serial_seconds", row.lru.total_seconds, 6)
        .fixed("energy_j", run.energy_j, 4)
        .exp("edap", run.edap(), 6);
}

/// The configuration the paper's BTS numbers are reported at: 512 MiB of
/// scratchpad, 1 TB/s of HBM.
const DESIGN_POINT: &str = "bts-1tb";

/// One `fidelity` row: a quantity the paper reports for BTS on one
/// instance, beside ours under the reuse-code policy and under LRU. The
/// `tmult_a_slot_ns_vs_min_bound` rows hold ours against §3's minimum bound
/// instead of a published number: it is the floor the simulated time must
/// stay above.
struct FidelityRow {
    quantity: &'static str,
    instance: String,
    paper: f64,
    ours: f64,
    ours_lru: f64,
}

impl FidelityRow {
    /// Ours over the paper's (or the bound's) number.
    fn ratio(&self) -> f64 {
        self.ours / self.paper
    }
}

/// The `fidelity` sweep: the design point's `results` rows (no second
/// lowering) against [`BaselineSet::paper`]'s BTS numbers, one row per
/// (quantity, instance) the paper gives a number for, then per instance
/// T_mult,a/slot against the minimum bound.
fn fidelity_rows(results: &[ResultRow]) -> Vec<FidelityRow> {
    let baselines = BaselineSet::paper();
    let lattigo_ns = baselines
        .get("Lattigo")
        .and_then(|b| b.tmult_a_slot_us)
        .expect("Fig. 6 reports Lattigo's T_mult,a/slot")
        * 1e3;
    let iterations = HelrConfig::default().iterations as f64;
    let plan = BootstrapPlan::paper_default();
    let (mut rows, mut bound_rows) = (Vec::new(), Vec::new());
    for ins in CkksInstance::evaluation_set() {
        // One quantity of the design point's `workload` row, under the
        // policy and under LRU.
        let measured = |workload: &str, of: &dyn Fn(&ResultRow, &SimReport) -> f64| {
            let row = results
                .iter()
                .find(|r| {
                    r.config.name == DESIGN_POINT && r.workload == workload && r.instance == ins
                })
                .unwrap_or_else(|| panic!("{workload} on {} at {DESIGN_POINT}", ins.name()));
            (of(row, &row.run), of(row, &row.lru))
        };
        let tmult = measured("amortized-mult", &|_, r| {
            amortized_seconds_per_slot(&ins, r) * 1e9
        });
        let seconds = |_: &ResultRow, r: &SimReport| r.total_seconds;
        let bootstraps = |row: &ResultRow, _: &SimReport| row.bootstraps as f64;
        let count = |c: Option<usize>| c.map(|c| c as f64);
        let bts = baselines
            .bts(ins.name())
            .expect("the paper reports BTS on every Table 4 instance");
        let quantities = [
            (
                "tmult_a_slot_ns",
                bts.tmult_a_slot_us.map(|us| us * 1e3),
                tmult,
            ),
            (
                "speedup_over_lattigo",
                bts.tmult_a_slot_us.map(|us| lattigo_ns / (us * 1e3)),
                (lattigo_ns / tmult.0, lattigo_ns / tmult.1),
            ),
            (
                "helr_ms_per_iter",
                bts.helr_ms_per_iter,
                measured("helr", &|_, r| r.total_seconds * 1e3 / iterations),
            ),
            ("resnet20_s", bts.resnet20_s, measured("resnet20", &seconds)),
            ("sorting_s", bts.sorting_s, measured("sorting", &seconds)),
            (
                "resnet20_bootstraps",
                count(bts.resnet20_bootstraps),
                measured("resnet20", &bootstraps),
            ),
            (
                "sorting_bootstraps",
                count(bts.sorting_bootstraps),
                measured("sorting", &bootstraps),
            ),
        ];
        let instance = ins.name().to_string();
        for (quantity, paper, (ours, ours_lru)) in quantities {
            if let Some(paper) = paper {
                rows.push(FidelityRow {
                    quantity,
                    instance: instance.clone(),
                    paper,
                    ours,
                    ours_lru,
                });
            }
        }
        let bound = MinBoundModel::new(ins.clone(), BandwidthModel::hbm_1tb())
            .amortized_mult_per_slot_from_trace(&plan.keyswitch_histogram(&ins));
        bound_rows.push(FidelityRow {
            quantity: "tmult_a_slot_ns_vs_min_bound",
            instance,
            paper: bound * 1e9,
            ours: tmult.0,
            ours_lru: tmult.1,
        });
    }
    rows.extend(bound_rows);
    rows
}

fn fidelity_fields(row: &FidelityRow, w: &mut JsonWriter) {
    w.field("quantity", row.quantity)
        .field("instance", row.instance.as_str())
        .exp("paper", row.paper, 6)
        .exp("ours", row.ours, 6)
        .exp("ours_lru", row.ours_lru, 6)
        .fixed("ratio", row.ratio(), 4);
}

/// Serial vs scheduled execution per workload (INS-1): the `bts-sched`
/// subsystem's headline comparison, from the INS-1 rows of the `results`
/// sweep. At the paper's 1 TB/s design point the machine is evk-streaming
/// bound, so the schedule only recovers the slack of compute-bound ops; the
/// Fig. 9 2 TB/s ablation makes the overlap visible.
pub fn sched() -> String {
    let mut out = header("Scheduled vs serial execution (bts-sched, INS-1)");
    let grid = SweepGrid::paper_default();
    let rows = result_rows(&grid);
    let scheduled = |v: Option<f64>| v.expect("a scheduled run");
    for grid_config in grid.configs() {
        let _ = writeln!(out, "{}: {}", grid_config.name, grid_config.description);
        let _ = writeln!(
            out,
            "  {:<15} {:>11} {:>11} {:>11} {:>8} {:>23}",
            "workload", "serial", "scheduled", "crit path", "speedup", "util NTTU/BConv/HBM"
        );
        for row in rows
            .iter()
            .filter(|row| row.instance.name() == "INS-1" && row.config.name == grid_config.name)
        {
            let util = row.utilization;
            let _ = writeln!(
                out,
                "  {:<15} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>7.3}x {:>7.0}%{:>6.0}%{:>6.0}%",
                row.workload,
                row.run.total_seconds * 1e3,
                scheduled(row.run.scheduled_seconds) * 1e3,
                scheduled(row.run.critical_path_seconds) * 1e3,
                scheduled(row.run.parallel_speedup()),
                util[FuKind::Nttu.index()] * 100.0,
                util[FuKind::BConvU.index()] * 100.0,
                util[FuKind::Hbm.index()] * 100.0,
            );
        }
    }
    let ins = CkksInstance::ins1();
    let lowered = bts_workloads::BootstrapWorkload
        .lower(&ins)
        .expect("bootstrappable");
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    // A scheduled run keeps no timeline; the scheduler keeps one for its
    // plan, admitted alone at 0.
    let (plan, _) = JobPlan::from_trace(&sim, &lowered.trace).expect("lowered traces validate");
    let mut scheduler = MultiScheduler::new(*plan.machine());
    scheduler
        .add_planned(0, Arc::new(plan), 0.0)
        .expect("a fresh scheduler admits a plan for its own machine at 0");
    let _ = writeln!(out, "bootstrap timeline (first reservations per unit):");
    write_timeline(&mut out, "  ", scheduler.finish().timeline(3));
    out
}

/// The offered loads (burst sizes = concurrency) of the `serve` sweep.
const SERVE_LOADS: [usize; 3] = [1, 2, 4];

/// One `serve` row: a FIFO burst of `load` bootstrap jobs on one grid point.
struct ServeRow {
    config: GridConfig,
    instance: CkksInstance,
    load: usize,
    report: ServeReport,
}

/// The `serve` sweep: grid configs × instances × offered loads.
fn serve_rows(grid: &SweepGrid) -> Vec<ServeRow> {
    let mut rows = Vec::new();
    for config in grid.configs() {
        for instance in grid.instances() {
            for &load in &SERVE_LOADS {
                let jobs = SyntheticArrivals::burst(instance, "bootstrap", load);
                let report = serve_jobs(
                    &jobs,
                    ServeOptions::new(load).with_config(config.config.clone()),
                )
                .expect("bootstrap serves on every paper instance");
                rows.push(ServeRow {
                    config: config.clone(),
                    instance: instance.clone(),
                    load,
                    report,
                });
            }
        }
    }
    rows
}

fn serve_fields(row: &ServeRow, w: &mut JsonWriter) {
    let r = &row.report;
    w.field("workload", "bootstrap")
        .field("instance", row.instance.name())
        .field("config", row.config.name.as_str())
        .field("policy", r.policy.label())
        .field("jobs", r.job_count())
        .field("concurrency", r.max_in_flight)
        .exp("makespan_seconds", r.makespan_seconds, 6)
        .exp("sum_serial_seconds", r.sum_serial_seconds(), 6)
        .fixed("throughput_jobs_per_sec", r.throughput_jobs_per_sec(), 4)
        .fixed(
            "serial_throughput_jobs_per_sec",
            r.serial_throughput_jobs_per_sec(),
            4,
        )
        .fixed("coscheduling_speedup", r.coscheduling_speedup(), 4)
        .exp("p50_latency_seconds", r.latency_percentile(50.0), 6)
        .exp("p99_latency_seconds", r.latency_percentile(99.0), 6)
        .exp("mult_slots_per_sec", r.mult_slots_per_sec(), 6)
        .fixed("tenant_fairness", r.tenant_fairness(), 4);
}

/// The serving layer (`bts-serve`): co-scheduled throughput and latency vs
/// offered load on the bootstrap workload (the INS-1 rows of the `serve`
/// sweep), then a queueing-policy comparison under a seeded multi-tenant
/// mixed stream. At 1 TB/s the machine is evk-streaming bound and
/// co-scheduling only recovers compute slack; at 2 TB/s ops from different
/// tenants genuinely interleave and aggregate throughput beats
/// one-at-a-time service.
pub fn serve() -> String {
    let mut out = header("Serving layer: throughput and latency vs offered load (bts-serve)");
    let grid = SweepGrid::paper_default();
    let rows = serve_rows(&grid);
    let ins1 = |row: &&ServeRow| row.instance.name() == "INS-1";
    for config in grid.configs() {
        let _ = writeln!(
            out,
            "{}: {} (INS-1, bootstrap burst)",
            config.name, config.description
        );
        let _ = writeln!(
            out,
            "  {:<5} {:>12} {:>12} {:>14} {:>9} {:>10} {:>10}",
            "jobs", "makespan", "jobs/s", "serial jobs/s", "speedup", "p50 (ms)", "p99 (ms)"
        );
        for row in rows
            .iter()
            .filter(ins1)
            .filter(|row| row.config.name == config.name)
        {
            let report = &row.report;
            let _ = writeln!(
                out,
                "  {:<5} {:>10.2}ms {:>12.1} {:>14.1} {:>8.3}x {:>10.2} {:>10.2}",
                row.load,
                report.makespan_seconds * 1e3,
                report.throughput_jobs_per_sec(),
                report.serial_throughput_jobs_per_sec(),
                report.coscheduling_speedup(),
                report.latency_percentile(50.0) * 1e3,
                report.latency_percentile(99.0) * 1e3,
            );
        }
    }
    // Queueing policies under one seeded three-tenant stream mixing long and
    // short jobs, on the grid's bandwidth point where overlap is visible.
    let two_job_2tb = rows
        .iter()
        .filter(ins1)
        .find(|row| row.config.name == "bts-2tb" && row.load == 2)
        .expect("the sweep covers the 2 TB/s two-job point");
    let stream = SyntheticArrivals::new(CkksInstance::ins1(), 2024)
        .mean_interarrival_seconds(2e-3)
        .tenants(3)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(9);
    let _ = writeln!(
        out,
        "policy comparison: 9 mixed jobs, 3 tenants, 2 ms mean interarrival, concurrency 3, 2 TB/s"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>11} {:>10} {:>10} {:>9}",
        "policy", "makespan", "mean lat", "p99 lat", "queue p99", "fairness"
    );
    for policy in QueuePolicy::ALL {
        let report = serve_jobs(
            &stream,
            ServeOptions::new(3)
                .with_policy(policy)
                .with_config(two_job_2tb.config.config.clone()),
        )
        .expect("mixed stream serves on INS-1");
        let max_queue = report
            .jobs
            .iter()
            .map(|j| j.queue_seconds())
            .fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "  {:<12} {:>10.2}ms {:>9.2}ms {:>8.2}ms {:>8.2}ms {:>9.3}",
            policy.label(),
            report.makespan_seconds * 1e3,
            report.mean_latency_seconds() * 1e3,
            report.latency_percentile(99.0) * 1e3,
            max_queue * 1e3,
            report.tenant_fairness(),
        );
    }
    let report = &two_job_2tb.report;
    let _ = writeln!(
        out,
        "two-job burst at 2 TB/s: makespan {:.2} ms vs serial {:.2} ms ({:.3}x), sustained {:.2e} mult slots/s",
        report.makespan_seconds * 1e3,
        report.sum_serial_seconds() * 1e3,
        report.coscheduling_speedup(),
        report.mult_slots_per_sec(),
    );
    out
}

/// Per-workload compiler outcome on one instance: the raw builder circuit
/// compiled and lowered as is versus the same circuit run through
/// [`PassPipeline::standard`] first.
struct CompileOutcome {
    workload: String,
    instance: String,
    ops_before: usize,
    ops_after: usize,
    key_switches_before: usize,
    key_switches_after: usize,
    bootstraps_before: usize,
    bootstraps_after: usize,
    registers: u32,
    serial_before: f64,
    serial_after: f64,
}

/// The `compile` sweep: the optimizer + compiler over every registry
/// workload on every Table 4 instance, both forms simulated serially at the
/// paper's 1 TB/s design point. Key-switch counts are taken from the lowered
/// traces, so bootstrap expansions are included — removing one refresh
/// shows up as hundreds of key-switches saved, exactly as it does in
/// simulated time.
fn compile_rows() -> Vec<CompileOutcome> {
    let registry = standard_registry();
    let pipeline = PassPipeline::standard();
    let mut out = Vec::new();
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for (name, workload) in registry.iter() {
            let circuit = workload
                .build(&ins)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", ins.name()));
            let optimized = pipeline
                .optimize(&circuit)
                .unwrap_or_else(|e| panic!("pipeline on {name}: {e}"));
            let compiled =
                compile_bytecode(&optimized).unwrap_or_else(|e| panic!("compile {name}: {e}"));
            let before = TraceBackend::new()
                .execute(&circuit)
                .expect("raw circuits lower");
            let after = TraceBackend::new()
                .lower_compiled(&compiled)
                .expect("bytecode lowers");
            let rb = sim.run(&before.trace);
            let ra = sim.run(&after.trace);
            out.push(CompileOutcome {
                workload: name.to_string(),
                instance: ins.name().to_string(),
                ops_before: before.trace.len(),
                ops_after: after.trace.len(),
                key_switches_before: before.trace.key_switch_count(),
                key_switches_after: after.trace.key_switch_count(),
                bootstraps_before: before.bootstrap_count,
                bootstraps_after: after.bootstrap_count,
                registers: compiled.reg_count,
                serial_before: rb.total_seconds,
                serial_after: ra.total_seconds,
            });
        }
    }
    out
}

fn compile_fields(row: &CompileOutcome, w: &mut JsonWriter) {
    w.field("workload", row.workload.as_str())
        .field("instance", row.instance.as_str())
        .field("config", "bts-1tb")
        .field("ops_before", row.ops_before)
        .field("ops_after", row.ops_after)
        .field("key_switches_before", row.key_switches_before)
        .field("key_switches_after", row.key_switches_after)
        .field("bootstraps_before", row.bootstraps_before)
        .field("bootstraps_after", row.bootstraps_after)
        .field("registers", row.registers)
        .exp("serial_seconds_before", row.serial_before, 6)
        .exp("serial_seconds_after", row.serial_after, 6);
}

/// The circuit compiler: per-workload effect of the standard pass pipeline
/// (rotation/square CSE, mask-hoisting rescale scheduling, bootstrap
/// placement, dead-value pruning) plus the bytecode register footprint, on
/// INS-1 at 1 TB/s (the INS-1 rows of the `compile` sweep).
pub fn compiler() -> String {
    let mut out = header("Circuit compiler: standard pass pipeline + bytecode (INS-1, 1 TB/s)");
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>6} {:>10} {:>10}",
        "workload",
        "ops",
        "ops'",
        "keysw",
        "keysw'",
        "boots",
        "boots'",
        "regs",
        "serial",
        "serial'"
    );
    for o in compile_rows().iter().filter(|o| o.instance == "INS-1") {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7} {:>6} {:>8.2}ms {:>8.2}ms",
            o.workload,
            o.ops_before,
            o.ops_after,
            o.key_switches_before,
            o.key_switches_after,
            o.bootstraps_before,
            o.bootstraps_after,
            o.registers,
            o.serial_before * 1e3,
            o.serial_after * 1e3,
        );
    }
    let _ = writeln!(
        out,
        "(primed columns are post-pipeline; both forms are compiled to flat bytecode\n\
         and lowered from there, op for op in circuit order, so the before/after\n\
         delta is purely the pass pipeline's)"
    );
    out
}

/// Chip counts of the cluster scaling sweep.
const CLUSTER_CHIP_COUNTS: [usize; 3] = [1, 2, 4];

/// Job count of the cluster sweep's bootstrap stream.
const CLUSTER_JOBS: u64 = 16;

/// Tenant pool of the cluster sweep's bootstrap stream.
const CLUSTER_TENANTS: u64 = 4;

/// The cluster sweep's job stream: [`CLUSTER_JOBS`] bootstrap jobs at t = 0
/// on INS-1, job `i` from tenant `tenant_of(i)`. The sweep interleaves a
/// pool of [`CLUSTER_TENANTS`] tenants: a bootstrap evk set is ~10 GiB at
/// INS-1, so the interconnect charge amortizes over each tenant's jobs
/// rather than being paid per job.
fn cluster_stream(tenant_of: fn(u64) -> u64) -> Vec<JobRequest> {
    let ins = CkksInstance::ins1();
    (0..CLUSTER_JOBS)
        .map(|i| JobRequest::new(i, tenant_of(i) as u32, "bootstrap", ins.clone(), 0.0))
        .collect()
}

/// One `cluster` row: the bootstrap stream ([`cluster_stream`]) on `chips`
/// chips of one architecture preset, with tenant-affinity placement (keys
/// cross the interconnect once per tenant) over an NVLink-class fabric.
struct ClusterRow {
    preset: ArchPreset,
    chips: usize,
    report: ClusterReport,
}

/// The `cluster` sweep: architecture presets × chip counts.
fn cluster_rows() -> Vec<ClusterRow> {
    let jobs = cluster_stream(|i| i % CLUSTER_TENANTS);
    let mut rows = Vec::new();
    for preset in ArchPreset::ALL {
        for &chips in &CLUSTER_CHIP_COUNTS {
            let spec =
                ChipSpec::preset(preset, chips).with_interconnect(Interconnect::nvlink_class());
            let options = ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity);
            let report =
                serve_cluster(&jobs, options).expect("the sweep stream serves on every preset");
            rows.push(ClusterRow {
                preset,
                chips,
                report,
            });
        }
    }
    rows
}

fn cluster_fields(row: &ClusterRow, w: &mut JsonWriter) {
    let r = &row.report;
    w.field("preset", r.label.as_str())
        .field("chips", row.chips)
        .field("placement", r.placement.label())
        .field("workload", "bootstrap")
        .field("instance", "INS-1")
        .field("jobs", r.job_count())
        .field("chips_used", r.chips_used())
        .exp("makespan_seconds", r.makespan_seconds(), 6)
        .fixed("throughput_jobs_per_sec", r.throughput_jobs_per_sec(), 4)
        .exp("mult_slots_per_sec", r.mult_slots_per_sec(), 6)
        .exp("p50_latency_seconds", r.latency_percentile(50.0), 6)
        .exp("p99_latency_seconds", r.latency_percentile(99.0), 6)
        .fixed("tenant_fairness", r.tenant_fairness(), 4)
        .field("interconnect_bytes", r.interconnect_bytes())
        .exp("interconnect_seconds", r.interconnect_seconds(), 6);
}

/// The cluster layer (`bts-cluster`): throughput scaling of the bootstrap
/// stream across architecture presets × chip counts (the `cluster` sweep's
/// rows), plus a placement-policy comparison on the BTS ×4 fleet.
/// Single-chip rows charge zero interconnect and match `bts-serve` exactly;
/// multi-chip rows pay ciphertext and evaluation-key movement over the
/// fabric.
pub fn cluster() -> String {
    let mut out = header("Cluster layer: architecture x chip-count scaling (bts-cluster)");
    let _ = writeln!(
        out,
        "{} bootstrap jobs, {} tenants, INS-1, tenant-affinity placement, NVLink-class fabric",
        CLUSTER_JOBS, CLUSTER_TENANTS
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>12} {:>10} {:>10} {:>10} {:>12} {:>9}",
        "preset", "chips", "makespan", "jobs/s", "scaling", "p99 (ms)", "moved (GiB)", "fairness"
    );
    // Each preset's rows are consecutive, its single-chip row first.
    for preset_rows in cluster_rows().chunks(CLUSTER_CHIP_COUNTS.len()) {
        let base = preset_rows[0].report.throughput_jobs_per_sec();
        for row in preset_rows {
            let report = &row.report;
            let throughput = report.throughput_jobs_per_sec();
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>10.2}ms {:>10.1} {:>9.2}x {:>10.2} {:>12.2} {:>9.3}",
                row.preset.name(),
                row.chips,
                report.makespan_seconds() * 1e3,
                throughput,
                throughput / base,
                report.latency_percentile(99.0) * 1e3,
                report.interconnect_bytes() as f64 / (1u64 << 30) as f64,
                report.tenant_fairness(),
            );
        }
    }
    // Interleaved tenants (i % 4) on 4 chips make round-robin accidentally
    // tenant-aligned; the placement comparison uses *blocked* tenants
    // (4 consecutive jobs each) so the policies genuinely diverge.
    let blocked = cluster_stream(|i| i / CLUSTER_TENANTS);
    let _ = writeln!(
        out,
        "placement comparison on BTS x4, blocked tenants, PCIe 5.0 (key movement hurts):"
    );
    let pcie = ChipSpec::preset(ArchPreset::Bts, 4);
    for placement in PlacementPolicy::ALL {
        let report = serve_cluster(
            &blocked,
            ClusterOptions::new(pcie.clone()).with_placement(placement),
        )
        .expect("the sweep stream serves under every placement");
        let _ = writeln!(
            out,
            "  {:<16} {:>10.1} jobs/s | moved {:>7.2} GiB | wire {:>8.2} ms | fairness {:.3}",
            placement.label(),
            report.throughput_jobs_per_sec(),
            report.interconnect_bytes() as f64 / (1u64 << 30) as f64,
            report.interconnect_seconds() * 1e3,
            report.tenant_fairness(),
        );
    }
    out
}

/// Offered-load points of the resilience sweep: mean interarrival seconds of
/// the seeded job stream, from comfortably under the 4-chip fleet's service
/// rate to deep overload.
const RESILIENCE_INTERARRIVALS: [f64; 3] = [8e-3, 2e-3, 0.5e-3];

/// Job count of the resilience sweep's stream.
const RESILIENCE_JOBS: usize = 48;

/// Per-job deadline slack of the resilience sweep: deadline = arrival + slack.
const RESILIENCE_SLACK_SECONDS: f64 = 0.08;

/// Bounded per-chip admission queue of the resilience sweep; overflow is shed
/// at arrival instead of queueing without bound.
const RESILIENCE_QUEUE_CAPACITY: usize = 4;

/// Which chip the wounded runs of the resilience sweep kill.
const RESILIENCE_KILLED_CHIP: usize = 1;

/// The resilience sweep's job stream at one offered load: a seeded
/// multi-tenant bootstrap-heavy mix on INS-1 where every job carries a
/// deadline of arrival + [`RESILIENCE_SLACK_SECONDS`].
fn resilience_stream(mean_interarrival: f64) -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), 2024)
        .mean_interarrival_seconds(mean_interarrival)
        .tenants(4)
        .mix(vec![
            ("bootstrap".to_string(), 3.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(RESILIENCE_JOBS)
        .into_iter()
        .map(|j| {
            let deadline = j.arrival_seconds + RESILIENCE_SLACK_SECONDS;
            j.with_deadline(deadline)
        })
        .collect()
}

/// One `resilience` row: the fleet under one queue policy at one offered
/// load, healthy (`failed_chips` 0) or losing one chip mid-run.
struct ResilienceRow {
    policy: QueuePolicy,
    mean_interarrival: f64,
    failed_chips: usize,
    report: ClusterReport,
}

/// Runs the resilience sweep: queue policy × offered load × {healthy fleet,
/// fleet losing chip [`RESILIENCE_KILLED_CHIP`] halfway through the healthy
/// makespan}, on a 4-chip BTS NVLink fleet with tenant-affinity placement,
/// bounded queues and per-job deadlines.
fn resilience_rows() -> Vec<ResilienceRow> {
    let spec = ChipSpec::preset(ArchPreset::Bts, 4).with_interconnect(Interconnect::nvlink_class());
    let options = |policy: QueuePolicy| {
        ClusterOptions::new(spec.clone())
            .with_placement(PlacementPolicy::TenantAffinity)
            .with_policy(policy)
            .with_queue_capacity(RESILIENCE_QUEUE_CAPACITY)
    };
    let mut points = Vec::new();
    for policy in QueuePolicy::ALL {
        for &mean_interarrival in &RESILIENCE_INTERARRIVALS {
            let jobs = resilience_stream(mean_interarrival);
            let healthy = serve_cluster(&jobs, options(policy))
                .expect("the resilience stream serves on the healthy fleet");
            let kill_at = healthy.makespan_seconds() * 0.5;
            let wounded = serve_cluster(
                &jobs,
                options(policy).with_fault_plan(
                    FaultPlan::none().with_chip_failure(RESILIENCE_KILLED_CHIP, kill_at),
                ),
            )
            .expect("the wounded fleet still serves");
            for (failed_chips, report) in [(0, healthy), (1, wounded)] {
                points.push(ResilienceRow {
                    policy,
                    mean_interarrival,
                    failed_chips,
                    report,
                });
            }
        }
    }
    points
}

fn resilience_fields(row: &ResilienceRow, w: &mut JsonWriter) {
    let r = &row.report;
    w.field("policy", row.policy.label())
        .exp("mean_interarrival_seconds", row.mean_interarrival, 6)
        .fixed("offered_jobs_per_sec", 1.0 / row.mean_interarrival, 4)
        .field("failed_chips", row.failed_chips)
        .field("jobs", r.submitted_count())
        .field("completed", r.jobs.len())
        .field("shed", r.shed_count())
        .field("migrated", r.migration_count())
        .field("retried", r.retry_count())
        .field("deadline_missed", r.deadline_missed_count())
        .fixed("goodput_jobs_per_sec", r.goodput_jobs_per_sec(), 4)
        .fixed("slo_attainment", r.slo_attainment(), 4)
        .exp("makespan_seconds", r.makespan_seconds(), 6);
}

/// Resilience under overload and chip failure (`bts-fault` + `bts-serve` +
/// `bts-cluster`): goodput and SLO attainment vs offered load per queue
/// policy, with and without losing one chip of four mid-run. Load shedding
/// (bounded queues) keeps goodput from collapsing past saturation, and
/// failover re-places a dead chip's work on the survivors, so the wounded
/// fleet degrades toward a 3-chip fleet instead of losing the run.
pub fn resilience() -> String {
    let mut out = header("Resilience: goodput and SLO vs offered load, healthy vs one dead chip");
    let _ = writeln!(
        out,
        "{} jobs, 4 tenants, INS-1, BTS x4 NVLink, deadline = arrival + {:.0} ms, queue cap {}",
        RESILIENCE_JOBS,
        RESILIENCE_SLACK_SECONDS * 1e3,
        RESILIENCE_QUEUE_CAPACITY
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>6} {:>10} {:>8} {:>6} {:>9} {:>7} {:>7}",
        "policy", "offered/s", "chips", "goodput/s", "SLO", "shed", "migrated", "missed", "retried"
    );
    for p in resilience_rows() {
        let _ = writeln!(
            out,
            "{:<12} {:>10.0} {:>6} {:>10.1} {:>7.1}% {:>6} {:>9} {:>7} {:>7}",
            p.policy.label(),
            1.0 / p.mean_interarrival,
            if p.failed_chips == 0 { "4" } else { "4-1" },
            p.report.goodput_jobs_per_sec(),
            p.report.slo_attainment() * 100.0,
            p.report.shed_count(),
            p.report.migration_count(),
            p.report.deadline_missed_count(),
            p.report.retry_count(),
        );
    }
    out
}

/// Scratchpad replacement on HELR and ResNet-20, two columns a row: §5.3's
/// LRU as the paper publishes it and the compiler's 2-bit reuse code (the
/// policy every other figure runs) — hit rate, HBM traffic and serial
/// seconds each. A synthetic `divergent` row shows where recency and
/// liveness disagree.
pub fn hints() -> String {
    let mut out = header("Scratchpad replacement: LRU -> 2-bit reuse code");
    let _ = writeln!(
        out,
        "{:<21} | {:^15} | {:^19} | {:^19}",
        "", "hit rate (%)", "HBM traffic (GB)", "serial time (ms)"
    );
    let labels = |width: usize| format!("{:>width$} {:>width$}", "LRU", "code");
    let _ = writeln!(
        out,
        "{:<10} {:<10} | {} | {} | {}",
        "workload",
        "instance",
        labels(7),
        labels(9),
        labels(9)
    );
    let mut row = |workload: &str, instance: &str, sim: &Simulator, trace: &bts_sim::OpTrace| {
        let code = sim.run(trace);
        let lru = sim.try_run_lru(trace).expect("the run above validated it");
        let columns = |f: fn(&bts_sim::SimReport) -> f64, width: usize, precision: usize| {
            [&lru, &code]
                .map(|r| format!("{:>width$.precision$}", f(r)))
                .join(" ")
        };
        let _ = writeln!(
            out,
            "{:<10} {:<10} | {} | {} | {}",
            workload,
            instance,
            columns(|r| r.cache_hit_rate() * 100.0, 7, 2),
            columns(|r| r.hbm_bytes as f64 / 1e9, 9, 3),
            columns(|r| r.total_seconds * 1e3, 9, 3),
        );
    };
    for ins in CkksInstance::evaluation_set() {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for workload in [
            &HelrWorkload::default() as &dyn Workload,
            &ResNetWorkload::default(),
        ] {
            let lowered = workload.lower(&ins).expect("paper instances");
            row(workload.name(), ins.name(), &sim, &lowered.trace);
        }
    }
    // Values that die while recent push a live-but-old operand out under
    // LRU (the `bts-sim` engine test's shape).
    let ins = CkksInstance::ins1();
    let mut b = bts_sim::TraceBuilder::new(&ins);
    let hot = b.fresh_ct(27);
    for k in 0..12 {
        let t = b.fresh_ct(27);
        let p = b.hmult_at(t, t, 27);
        let q = b.hmult_at(p, p, 27);
        if k % 2 == 0 {
            b.hmult_at(q, hot, 27);
        }
    }
    let sim = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(384 * 1024 * 1024),
        ins,
    );
    row("divergent", "INS-1/384M", &sim, &b.build());
    let _ = writeln!(
        out,
        "(LRU is the policy the paper publishes (5.3) and is kept as a baseline\n\
         only; `code` is what the scratchpad runs: the compiler marks every operand\n\
         access and op output `next`, `later` or `never` — a pure function of the\n\
         trace — and the cache evicts dead values first, never the operand the\n\
         next op reads, and among the rest the youngest, bypassing a newcomer that\n\
         is itself the youngest. The registry keeps at most three ciphertexts live,\n\
         so the whole LRU gap is dead values kept because they are recent (INS-2)\n\
         plus thrash that only bypass stops (INS-3), and on every row above the code\n\
         moves exactly the HBM bytes of the exact offline optimum; INS-1's cache is\n\
         ample and both agree.)"
    );
    out
}

/// Every figure/table by its `figures` target name, in the order [`all`]
/// prints them.
#[allow(clippy::type_complexity)] // (target name, renderer): a table, not an abstraction
pub const FIGURES: &[(&str, fn() -> String)] = &[
    ("table1", table1),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3b", fig3b),
    ("table3", table3),
    ("table4", table4),
    ("fig6", fig6),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("table5", table5),
    ("table6", table6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("sched", sched),
    ("serve", serve),
    ("cluster", cluster),
    ("resilience", resilience),
    ("hints", hints),
    ("compile", compiler),
    ("slowdown", slowdown),
];

/// Every figure/table in order, concatenated.
pub fn all() -> String {
    FIGURES
        .iter()
        .map(|(_, figure)| figure())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bts_telemetry::json::{parse, JsonValue};
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    /// Each sweep takes seconds in a debug build and several tests read its
    /// rows, so each runs once.
    macro_rules! swept {
        ($($name:ident: $row:ty = $sweep:expr;)*) => {$(
            fn $name() -> &'static [$row] {
                static ROWS: OnceLock<Vec<$row>> = OnceLock::new();
                ROWS.get_or_init(|| $sweep)
            }
        )*};
    }

    swept! {
        swept_results: ResultRow = result_rows(&SweepGrid::paper_default());
        swept_serve: ServeRow = serve_rows(&SweepGrid::paper_default());
        swept_compile: CompileOutcome = compile_rows();
        swept_cluster: ClusterRow = cluster_rows();
        swept_resilience: ResilienceRow = resilience_rows();
    }

    fn cached_json() -> &'static str {
        static JSON: OnceLock<String> = OnceLock::new();
        JSON.get_or_init(workloads_json)
    }

    #[test]
    fn every_figure_renders_nonempty() {
        for (name, text) in [
            ("table1", table1()),
            ("fig1", fig1()),
            ("fig3b", fig3b()),
            ("table3", table3()),
            ("table4", table4()),
            ("fig8", fig8()),
        ] {
            assert!(text.lines().count() > 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn figure_targets_are_unique() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        assert_eq!(names.len(), FIGURES.len());
        assert!(!names.contains("all") && !names.contains("--json"));
    }

    #[test]
    fn workloads_json_covers_every_workload_and_instance() {
        let json = cached_json();
        let doc = parse(json).expect("the writer emits well-formed JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_number), Some(10.0));
        let covered = |f: fn(&ResultRow) -> &str| -> Vec<&str> {
            let set: BTreeSet<&str> = swept_results().iter().map(f).collect();
            set.into_iter().collect()
        };
        assert_eq!(
            covered(|r| &r.workload),
            ["amortized-mult", "bootstrap", "helr", "resnet20", "sorting"]
        );
        assert_eq!(covered(|r| r.instance.name()), ["INS-1", "INS-2", "INS-3"]);
        assert_eq!(covered(|r| &r.config.name), ["bts-1tb", "bts-2tb"]);
        for (section, rows, expected) in [
            // 5 workloads × 3 instances × 2 configs.
            ("results", swept_results().len(), 30),
            // 3 instances × 2 configs × 3 offered loads.
            ("serve", swept_serve().len(), 18),
            // 5 workloads × 3 instances.
            ("compile", swept_compile().len(), 15),
            // 4 architecture presets × 3 chip counts.
            ("cluster", swept_cluster().len(), 12),
            // 3 policies × 3 offered loads × {0, 1} failed chips.
            ("resilience", swept_resilience().len(), 18),
            // 13 published (quantity, instance) numbers + 3 minimum bounds.
            ("fidelity", fidelity_rows(swept_results()).len(), 16),
        ] {
            let written = doc.get(section).and_then(JsonValue::as_array);
            assert_eq!(written.map(<[_]>::len), Some(rows), "{section}");
            assert_eq!(rows, expected, "{section}");
        }
        // Every number is finite: the writer turns NaN and infinities into
        // `null`, which no row may contain.
        assert!(!json.contains("null"));
    }

    #[test]
    fn every_section_pins_its_first_row() {
        let json = cached_json();
        for (section, row) in [
            (
                "results",
                r#"    {"workload": "amortized-mult", "instance": "INS-1", "config": "bts-1tb", "ops": 409, "key_switches": 131, "rotation_keys": 91, "bootstraps": 1, "serial_seconds": 1.569181e-2, "scheduled_seconds": 1.567024e-2, "critical_path_seconds": 5.065542e-3, "parallel_speedup": 1.0014, "bootstrap_fraction": 0.9616, "hbm_gbytes": 15.288, "cache_hit_rate": 0.9968, "lru_cache_hit_rate": 0.9968, "lru_hbm_gbytes": 15.288, "lru_serial_seconds": 1.569181e-2, "energy_j": 1.6223, "edap": 9.511504e0},"#,
            ),
            (
                "serve",
                r#"    {"workload": "bootstrap", "instance": "INS-1", "config": "bts-1tb", "policy": "fifo", "jobs": 1, "concurrency": 1, "makespan_seconds": 1.506784e-2, "sum_serial_seconds": 1.508941e-2, "throughput_jobs_per_sec": 66.3665, "serial_throughput_jobs_per_sec": 66.2716, "coscheduling_speedup": 1.0014, "p50_latency_seconds": 1.506784e-2, "p99_latency_seconds": 1.506784e-2, "mult_slots_per_sec": 3.479516e7, "tenant_fairness": 1.0000},"#,
            ),
            (
                "compile",
                r#"    {"workload": "amortized-mult", "instance": "INS-1", "config": "bts-1tb", "ops_before": 409, "ops_after": 409, "key_switches_before": 131, "key_switches_after": 131, "bootstraps_before": 1, "bootstraps_after": 1, "registers": 1, "serial_seconds_before": 1.569181e-2, "serial_seconds_after": 1.569181e-2},"#,
            ),
            (
                "cluster",
                r#"    {"preset": "bts", "chips": 1, "placement": "tenant-affinity", "workload": "bootstrap", "instance": "INS-1", "jobs": 16, "chips_used": 1, "makespan_seconds": 2.359349e-1, "throughput_jobs_per_sec": 67.8153, "mult_slots_per_sec": 3.555476e7, "p50_latency_seconds": 1.204306e-1, "p99_latency_seconds": 2.359349e-1, "tenant_fairness": 0.9841, "interconnect_bytes": 0, "interconnect_seconds": 0.000000e0},"#,
            ),
            (
                "resilience",
                r#"    {"policy": "fifo", "mean_interarrival_seconds": 8.000000e-3, "offered_jobs_per_sec": 125.0000, "failed_chips": 0, "jobs": 48, "completed": 48, "shed": 0, "migrated": 0, "retried": 0, "deadline_missed": 0, "goodput_jobs_per_sec": 121.1517, "slo_attainment": 1.0000, "makespan_seconds": 3.961974e-1},"#,
            ),
            (
                "fidelity",
                r#"    {"quantity": "helr_ms_per_iter", "instance": "INS-1", "paper": 3.990000e1, "ours": 3.216332e1, "ours_lru": 3.216332e1, "ratio": 0.8061},"#,
            ),
        ] {
            let mut lines = json
                .lines()
                .skip_while(|l| *l != format!("  \"{section}\": ["));
            assert_eq!(lines.nth(1), Some(row), "{section}");
        }
    }

    #[test]
    fn serve_rows_gate_coscheduled_throughput() {
        let rows = swept_serve();
        for row in rows {
            let r = &row.report;
            // Burst arrivals at t = 0: the merged makespan can never exceed
            // the serial sum (a structural guarantee of the multi-DAG
            // scheduler), and percentiles are ordered.
            assert!(
                r.coscheduling_speedup() >= 1.0 - 1e-9,
                "co-scheduling slower than serial: {}",
                r.coscheduling_speedup()
            );
            assert!(r.latency_percentile(99.0) >= r.latency_percentile(50.0));
            assert!(r.tenant_fairness() > 0.3, "fairness collapsed");
            // Each job's latency is bounded below by its critical path, so
            // the sustained mult-slot rate is finite and positive.
            assert!(r.mult_slots_per_sec() > 0.0);
        }
        // The acceptance gate: at 2 TB/s, offered load ≥ 2 co-scheduled
        // bootstrap jobs must beat one-at-a-time throughput on every
        // instance, and by a real margin where compute matters (INS-2/3 stay
        // closer to evk-streaming bound, so their gain is genuine but small).
        let gated: Vec<&ServeRow> = rows
            .iter()
            .filter(|row| row.config.name == "bts-2tb" && row.report.max_in_flight >= 2)
            .collect();
        assert!(!gated.is_empty());
        let mut best = 0.0f64;
        for row in gated {
            let r = &row.report;
            assert!(
                r.throughput_jobs_per_sec() > r.serial_throughput_jobs_per_sec() * 1.005,
                "co-scheduling failed to beat serial service at 2 TB/s: {} x{}",
                row.instance.name(),
                row.load
            );
            best = best.max(r.coscheduling_speedup());
        }
        assert!(
            best > 1.05,
            "no instance shows substantial co-scheduling gain at 2 TB/s: {best}"
        );
    }

    #[test]
    fn cluster_rows_gate_the_scaling_curve() {
        // At least three architecture presets, zero interconnect traffic on
        // single-chip rows, and the 4-chip BTS fleet at least doubling
        // single-chip throughput on the bootstrap stream at 1 TB/s.
        let rows = swept_cluster();
        let presets: BTreeSet<&str> = rows.iter().map(|row| row.preset.name()).collect();
        assert!(presets.len() >= 3, "presets covered: {presets:?}");
        let throughput_of = |preset: &str, chips: usize| -> f64 {
            rows.iter()
                .find(|row| row.preset.name() == preset && row.chips == chips)
                .unwrap_or_else(|| panic!("no row for {preset} x{chips}"))
                .report
                .throughput_jobs_per_sec()
        };
        for row in rows {
            let r = &row.report;
            let what = format!("{} x{}", row.preset.name(), row.chips);
            assert!(
                r.tenant_fairness() > 0.3 && r.tenant_fairness() <= 1.0 + 1e-9,
                "fairness: {what}"
            );
            assert!(r.throughput_jobs_per_sec() > 0.0, "idle: {what}");
            assert!(r.chips_used() <= row.chips, "{what}");
            assert_eq!(
                row.chips == 1,
                r.interconnect_bytes() == 0,
                "exactly the single-chip rows move no bytes: {what}"
            );
        }
        for preset in &presets {
            assert!(
                throughput_of(preset, 4) > throughput_of(preset, 1),
                "{preset}: 4 chips not faster than 1"
            );
        }
        // The acceptance gate: BTS at the paper's 1 TB/s design point scales
        // to ≥ 2× on 4 chips.
        assert!(
            throughput_of("bts", 4) >= 2.0 * throughput_of("bts", 1),
            "bts 4-chip throughput below 2x single chip"
        );
    }

    #[test]
    fn resilience_rows_gate_graceful_degradation() {
        // SLO attainment must be monotone non-increasing in offered load for
        // every (policy, failed-chip) curve, and losing one chip of four must
        // keep at least 60% of the healthy fleet's goodput at every load —
        // degradation, not collapse.
        let rows = swept_resilience();
        for p in rows {
            let r = &p.report;
            let what = format!(
                "{}@{}/{}",
                p.policy.label(),
                p.mean_interarrival,
                p.failed_chips
            );
            assert_eq!(
                r.jobs.len() + r.shed_count(),
                r.submitted_count(),
                "jobs unaccounted for: {what}"
            );
            assert!(r.goodput_jobs_per_sec() > 0.0, "idle fleet: {what}");
            assert!((0.0..=1.0).contains(&r.slo_attainment()), "SLO: {what}");
            if p.failed_chips == 1 {
                assert!(r.migration_count() > 0, "no migrations: {what}");
            }
        }
        let policies: BTreeSet<&str> = rows.iter().map(|p| p.policy.label()).collect();
        assert!(policies.len() >= 3, "queue policies covered: {policies:?}");
        let at = |policy: QueuePolicy, failed: usize, load: f64| {
            &rows
                .iter()
                .find(|p| {
                    p.policy == policy && p.failed_chips == failed && p.mean_interarrival == load
                })
                .unwrap_or_else(|| panic!("no row for {policy}@{load}/{failed}"))
                .report
        };
        for policy in QueuePolicy::ALL {
            for failed in [0, 1] {
                // Offered load rises as the mean interarrival falls.
                let curve: Vec<f64> = RESILIENCE_INTERARRIVALS
                    .iter()
                    .map(|&load| at(policy, failed, load).slo_attainment())
                    .collect();
                for pair in curve.windows(2) {
                    assert!(
                        pair[1] <= pair[0] + 1e-9,
                        "{policy} (failed={failed}): SLO rose with offered load: {curve:?}"
                    );
                }
            }
            // Graceful degradation: at every offered load, the wounded fleet
            // keeps ≥ 60% of healthy goodput (≈ a 3-of-4-chip fleet).
            for &load in &RESILIENCE_INTERARRIVALS {
                assert!(
                    at(policy, 1, load).goodput_jobs_per_sec()
                        >= 0.6 * at(policy, 0, load).goodput_jobs_per_sec(),
                    "{policy}@{load}: one dead chip collapsed goodput"
                );
            }
        }
    }

    #[test]
    fn resilience_figure_reports_every_policy_and_fleet_state() {
        let text = resilience();
        for policy in ["fifo", "sjf", "round-robin"] {
            assert!(text.contains(policy), "{policy} missing:\n{text}");
        }
        assert!(text.contains("4-1"), "wounded rows missing:\n{text}");
        assert!(text.lines().count() > 20);
    }

    #[test]
    fn cluster_figure_reports_every_preset_and_placement() {
        let text = cluster();
        for preset in ["bts", "fab", "basalisc", "fpt"] {
            assert!(text.contains(preset), "{preset} missing:\n{text}");
        }
        for placement in ["round-robin", "least-loaded", "tenant-affinity"] {
            assert!(text.contains(placement), "{placement} missing:\n{text}");
        }
        assert!(text.lines().count() > 15);
    }

    #[test]
    fn serve_figure_reports_the_policy_comparison() {
        let text = serve();
        for policy in ["fifo", "sjf", "round-robin"] {
            assert!(text.contains(policy), "{policy} missing:\n{text}");
        }
        assert!(text.contains("bts-2tb"));
        assert!(text.lines().count() > 10);
    }

    #[test]
    fn workloads_json_schedules_never_slower_than_serial() {
        // Compare the raw seconds, not the clamped parallel_speedup ratio, so
        // a real makespan > serial regression cannot hide behind the clamp.
        let rows = swept_results();
        for row in rows {
            let what = format!("{} on {}", row.workload, row.instance.name());
            let run = &row.run;
            let serial = run.total_seconds;
            let scheduled = run.scheduled_seconds.expect("a scheduled run");
            let critical_path = run.critical_path_seconds.expect("a scheduled run");
            assert!(
                scheduled <= serial * (1.0 + 1e-9),
                "schedule slower than serial: {what}"
            );
            assert!(
                critical_path <= scheduled * (1.0 + 1e-9),
                "critical path exceeds makespan: {what}"
            );
            assert!(run.parallel_speedup() >= Some(1.0), "{what}");
        }
        // The Fig. 9 ablation rows show measurable overlap on the
        // bootstrap-heavy workloads (acceptance: > 1.05 on bootstrap or
        // ResNet-20).
        let best = rows
            .iter()
            .filter(|row| ["bootstrap", "resnet20"].contains(&row.workload.as_str()))
            .filter_map(|row| row.run.parallel_speedup())
            .fold(0.0f64, f64::max);
        assert!(best > 1.05, "no measurable overlap: {best}");
    }

    #[test]
    fn results_rows_never_let_lru_beat_the_policy() {
        // The compiler's 2-bit reuse code is the scratchpad policy and the
        // paper's LRU the labelled baseline: LRU never hits more often, nor
        // moves fewer HBM bytes, on any row. (That the policy moves exactly
        // the exact optimum's bytes on these traces is
        // `tests/scratchpad_policy.rs`.)
        for row in swept_results() {
            let what = format!(
                "{} on {} ({})",
                row.workload,
                row.instance.name(),
                row.config.name
            );
            let lru = row.lru.cache_hit_rate();
            let policy = row.run.cache_hit_rate();
            assert!(lru <= policy, "{what}: LRU {lru} / policy {policy}");
            assert!(row.run.hbm_bytes <= row.lru.hbm_bytes, "{what}");
        }
    }

    #[test]
    fn fidelity_rows_hold_todays_ratio_to_the_paper() {
        // Ours over the paper's number, as recorded when the ledger was
        // written; a row may drift by 10 % either way before this fails, so
        // every move of the model against the paper is seen and explained.
        // The minimum-bound rows must also stay above the bound.
        const RECORDED: [(&str, &str, f64); 16] = [
            ("helr_ms_per_iter", "INS-1", 0.8061),
            ("resnet20_s", "INS-1", 0.4261),
            ("sorting_s", "INS-1", 0.7045),
            ("resnet20_bootstraps", "INS-1", 0.9057),
            ("sorting_bootstraps", "INS-1", 1.3512),
            ("tmult_a_slot_ns", "INS-2", 0.5486),
            ("speedup_over_lattigo", "INS-2", 1.8227),
            ("helr_ms_per_iter", "INS-2", 0.6223),
            ("resnet20_bootstraps", "INS-2", 0.7727),
            ("sorting_bootstraps", "INS-2", 0.8464),
            ("helr_ms_per_iter", "INS-3", 0.4121),
            ("resnet20_bootstraps", "INS-3", 0.7368),
            ("sorting_bootstraps", "INS-3", 0.8952),
            ("tmult_a_slot_ns_vs_min_bound", "INS-1", 1.2108),
            ("tmult_a_slot_ns_vs_min_bound", "INS-2", 1.1575),
            ("tmult_a_slot_ns_vs_min_bound", "INS-3", 1.2735),
        ];
        let rows = fidelity_rows(swept_results());
        assert_eq!(rows.len(), RECORDED.len());
        for (row, (quantity, instance, recorded)) in rows.iter().zip(RECORDED) {
            let what = format!("{quantity} on {instance}");
            assert_eq!((row.quantity, row.instance.as_str()), (quantity, instance));
            let ratio = row.ratio();
            assert!(
                (0.9 * recorded..=1.1 * recorded).contains(&ratio),
                "{what}: ours / paper = {ratio}, recorded {recorded}"
            );
            if quantity == "tmult_a_slot_ns_vs_min_bound" {
                assert!(ratio >= 1.0, "{what}: below the minimum bound ({ratio})");
            }
        }
    }

    #[test]
    fn compile_rows_gate_key_switch_reduction() {
        // The pass pipeline must never grow a workload's key-switch count or
        // serial time, and must strictly reduce key-switches on at least two
        // workloads.
        let mut strictly_reduced = BTreeSet::new();
        for o in swept_compile() {
            let what = format!("{} on {}", o.workload, o.instance);
            assert!(
                o.key_switches_after <= o.key_switches_before,
                "pipeline grew key-switches: {what}"
            );
            assert!(
                o.serial_after <= o.serial_before * (1.0 + 1e-9),
                "pipeline slowed a workload down: {what}"
            );
            assert!(o.ops_after <= o.ops_before, "{what}");
            assert!(o.registers >= 1, "{what}");
            if o.key_switches_after < o.key_switches_before {
                strictly_reduced.insert(o.workload.as_str());
            }
        }
        assert!(
            strictly_reduced.len() >= 2,
            "expected strict key-switch reduction on ≥ 2 workloads, got {strictly_reduced:?}"
        );
    }

    #[test]
    fn fig6_reports_large_speedup_over_lattigo() {
        let text = fig6();
        assert!(text.contains("speedup of best BTS instance over Lattigo"));
        // Extract the speedup number and require at least three orders of
        // magnitude (the paper reports 2,237×).
        let line = text
            .lines()
            .find(|l| l.contains("speedup of best"))
            .unwrap();
        let value: f64 = line
            .split(':')
            .nth(1)
            .unwrap()
            .trim()
            .split('×')
            .next()
            .unwrap()
            .replace(',', "")
            .parse()
            .unwrap();
        assert!(value > 500.0, "speedup {value} too small");
    }
}
