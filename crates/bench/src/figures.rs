//! One function per table/figure of the paper's evaluation. Every function is
//! deterministic and returns the rendered rows as a `String`, so the `figures`
//! binary, the integration tests and EXPERIMENTS.md all share the same source
//! of truth.

use std::fmt::Write as _;

use bts_circuit::{
    compile as compile_bytecode, BootstrapPlan, PassPipeline, TraceBackend, Workload,
};
use bts_ckks::hmult_complexity;
use bts_cluster::{
    serve_cluster, ChipSpec, ClusterOptions, ClusterReport, FaultPlan, Interconnect,
    PlacementPolicy,
};
use bts_params::{min_nttu_count, sweep_dnum, BandwidthModel, CkksInstance, MinBoundModel, L_BOOT};
use bts_sched::{FuKind, ScheduleExt};
use bts_serve::{serve as serve_jobs, JobRequest, QueuePolicy, ServeOptions, SyntheticArrivals};
use bts_sim::{hmult_timeline, ArchPreset, AreaPowerModel, BtsConfig, Simulator};
use bts_workloads::{
    amortized_mult_per_slot, standard_registry, AmortizedMultWorkload, BaselineSet, HelrWorkload,
    ResNetWorkload, SortingWorkload, UNENCRYPTED_HELR_MS, UNENCRYPTED_RESNET_S,
};

use crate::sweep::SweepGrid;

fn header(title: &str) -> String {
    format!("==== {title} ====\n")
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
    for b in BaselineSet::paper().all() {
        let thruput = b
            .tmult_a_slot_us
            .map(|t| format!("{:.0}", 1.0 / (t * 1e-6)))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>6} {:>8} {:>16} {:>18}",
            b.name,
            b.platform,
            b.log_n,
            if b.bootstrappable { "yes" } else { "limited" },
            b.slots_per_bootstrap
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string()),
            thruput
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
        ("dnum=1 (L=27)", 27usize, 28usize, 1usize),
        ("dnum=2 (L=39)", 39, 20, 2),
        ("dnum=3 (L=44)", 44, 15, 3),
        ("dnum=6 (L=49)", 49, 9, 6),
        ("dnum=max (L=60)", 60, 1, 61),
    ];
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>8} {:>8}",
        "config", "BConv%", "NTT%", "iNTT%", "others%"
    );
    for (name, level, k, dnum) in configs {
        let c = hmult_complexity(1 << 17, level, k, dnum);
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
    let entries = [
        (
            "Amortized mult",
            AmortizedMultWorkload.lower(&ins).expect("bootstrappable"),
        ),
        ("HELR", HelrWorkload::default().lower(&ins).expect("helr")),
        (
            "ResNet-20",
            ResNetWorkload::default().lower(&ins).expect("resnet"),
        ),
        (
            "Sorting",
            SortingWorkload::default().lower(&ins).expect("sorting"),
        ),
    ];
    for (name, lowered) in entries {
        let report = sim.run(&lowered.trace);
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
    let cpu_resnet = baselines
        .get("Lattigo")
        .and_then(|b| b.resnet20_s)
        .unwrap_or(10_602.0);
    let cpu_sort = baselines
        .get("Lattigo")
        .and_then(|b| b.sorting_s)
        .unwrap_or(23_066.0);
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
    for seg in hmult_timeline(&cfg, &ins, ins.max_level()) {
        let _ = writeln!(
            out,
            "{:<16} {:<22} {:>10.1} – {:>10.1} ns",
            seg.unit, seg.label, seg.start_ns, seg.end_ns
        );
    }
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
        (ins.dnum() as u64 + 2)
            * (ins.num_special() + ins.max_level() + 1) as u64
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

/// Runs the optimizer + compiler over every registry workload on the given
/// instances and simulates both forms serially at the paper's 1 TB/s design
/// point. Key-switch counts are taken from the lowered traces, so bootstrap
/// expansions are included — removing one refresh shows up as hundreds of
/// key-switches saved, exactly as it does in simulated time.
fn compile_outcomes(instances: &[CkksInstance]) -> Vec<CompileOutcome> {
    let registry = standard_registry();
    let pipeline = PassPipeline::standard();
    let mut out = Vec::new();
    for ins in instances {
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        for (name, workload) in registry.iter() {
            let circuit = workload
                .build(ins)
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

/// The circuit compiler: per-workload effect of the standard pass pipeline
/// (rotation/square CSE, mask-hoisting rescale scheduling, bootstrap
/// placement, dead-value pruning) plus the bytecode register footprint, on
/// INS-1 at 1 TB/s.
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
    for o in compile_outcomes(&[CkksInstance::ins1()]) {
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

/// The `compile` section of [`workloads_json`]: one row per registry workload
/// × Table 4 instance at the bts-1tb design point.
fn compile_json_rows() -> Vec<String> {
    compile_outcomes(&CkksInstance::evaluation_set())
        .into_iter()
        .map(|o| {
            format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"instance\": \"{}\", \"config\": \"bts-1tb\", ",
                    "\"ops_before\": {}, \"ops_after\": {}, ",
                    "\"key_switches_before\": {}, \"key_switches_after\": {}, ",
                    "\"bootstraps_before\": {}, \"bootstraps_after\": {}, ",
                    "\"registers\": {}, ",
                    "\"serial_seconds_before\": {:.6e}, \"serial_seconds_after\": {:.6e}}}"
                ),
                o.workload,
                o.instance,
                o.ops_before,
                o.ops_after,
                o.key_switches_before,
                o.key_switches_after,
                o.bootstraps_before,
                o.bootstraps_after,
                o.registers,
                o.serial_before,
                o.serial_after,
            )
        })
        .collect()
}

/// The offered loads (burst sizes = concurrency) of the `serve` sweep.
const SERVE_LOADS: [usize; 3] = [1, 2, 4];

/// Machine-readable per-workload simulation results: every workload of
/// [`bts_workloads::standard_registry`] lowered, simulated serially *and*
/// through the `bts-sched` dependency-aware scheduler on every point of
/// [`SweepGrid::paper_default`] (Table 4 instances × {1, 2} TB/s HBM) under
/// the scratchpad's reuse-code policy, with its exact-next-use bound
/// (`belady_*`) and the paper's §5.3 LRU (`lru_*`, the labelled departure)
/// beside it on every row, plus the `serve` section — the `bts-serve`
/// co-scheduling sweep of the bootstrap workload at offered loads of 1, 2
/// and 4 concurrent jobs — the
/// `compile` section, the circuit compiler's before/after ledger per
/// workload and instance — the `cluster` section, the `bts-cluster`
/// scaling curve (architecture presets × chip counts on the bootstrap
/// stream) — and the `resilience` section, the fault-injection sweep
/// (queue policy × offered load × {0, 1} failed chips on the 4-chip BTS
/// fleet). The CI smoke step writes this to `BENCH_FIGURES.json` (and fails
/// if any workload schedules slower than serial, if the scratchpad policy
/// leaves its LRU ≤ policy ≤ bound corridor, if co-scheduled bootstrap
/// throughput at 2 TB/s fails to beat one-at-a-time service, if the pass
/// pipeline grows any workload's key-switch count, if the 4-chip BTS
/// fleet fails to double single-chip throughput, if SLO attainment ever
/// *rises* with offered load, or if losing one chip of four costs more than
/// 40% of healthy goodput), so the perf trajectory of the repo is diffable
/// across PRs without parsing the human tables.
pub fn workloads_json() -> String {
    let registry = standard_registry();
    let grid = SweepGrid::paper_default();
    let mut rows = Vec::new();
    for point in grid.points() {
        let ins = &point.instance;
        let sim = Simulator::new(point.config.config.clone(), ins.clone());
        for (name, workload) in registry.iter() {
            let lowered = workload
                .lower(ins)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", ins.name()));
            let run = sim.run_scheduled(&lowered.trace);
            let belady = sim
                .try_run_belady(&lowered.trace)
                .expect("lowered traces validate");
            let lru = sim
                .try_run_lru(&lowered.trace)
                .expect("lowered traces validate");
            let report = &run.report;
            rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"instance\": \"{}\", \"config\": \"{}\", ",
                    "\"ops\": {}, \"key_switches\": {}, \"rotation_keys\": {}, ",
                    "\"bootstraps\": {}, \"serial_seconds\": {:.6e}, ",
                    "\"scheduled_seconds\": {:.6e}, \"critical_path_seconds\": {:.6e}, ",
                    "\"parallel_speedup\": {:.4}, ",
                    "\"bootstrap_fraction\": {:.4}, \"hbm_gbytes\": {:.3}, ",
                    "\"cache_hit_rate\": {:.4}, \"belady_cache_hit_rate\": {:.4}, ",
                    "\"lru_cache_hit_rate\": {:.4}, \"lru_hbm_gbytes\": {:.3}, ",
                    "\"lru_serial_seconds\": {:.6e}, ",
                    "\"energy_j\": {:.4}, \"edap\": {:.6e}}}"
                ),
                name,
                ins.name(),
                point.config.name,
                lowered.trace.len(),
                lowered.trace.key_switch_count(),
                lowered.trace.rotation_keys,
                lowered.bootstrap_count,
                report.total_seconds,
                report.scheduled_seconds.expect("scheduled run"),
                report.critical_path_seconds.expect("scheduled run"),
                report.parallel_speedup().expect("scheduled run"),
                report.bootstrap_fraction(),
                report.hbm_bytes as f64 / 1e9,
                report.cache_hit_rate(),
                belady.cache_hit_rate(),
                lru.cache_hit_rate(),
                lru.hbm_bytes as f64 / 1e9,
                lru.total_seconds,
                report.energy_j,
                report.edap(),
            ));
        }
    }
    let configs = grid
        .configs()
        .iter()
        .map(|c| format!("\"{}\": \"{}\"", c.name, c.description))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"schema\": 9,\n  \"configs\": {{{}}},\n  \"results\": [\n{}\n  ],\n  \"serve\": [\n{}\n  ],\n  \"compile\": [\n{}\n  ],\n  \"cluster\": [\n{}\n  ],\n  \"resilience\": [\n{}\n  ]\n}}\n",
        configs,
        rows.join(",\n"),
        serve_json_rows(&grid).join(",\n"),
        compile_json_rows().join(",\n"),
        cluster_json_rows().join(",\n"),
        resilience_json_rows().join(",\n")
    )
}

/// The `serve` section of [`workloads_json`]: FIFO bursts of the bootstrap
/// workload at each offered load, one row per grid point × load.
fn serve_json_rows(grid: &SweepGrid) -> Vec<String> {
    let mut rows = Vec::new();
    for config in grid.configs() {
        for ins in grid.instances() {
            for &load in &SERVE_LOADS {
                let jobs = SyntheticArrivals::burst(ins, "bootstrap", load);
                let report = serve_jobs(
                    &jobs,
                    ServeOptions::new(load).with_config(config.config.clone()),
                )
                .expect("bootstrap serves on every paper instance");
                rows.push(format!(
                    concat!(
                        "    {{\"workload\": \"bootstrap\", \"instance\": \"{}\", ",
                        "\"config\": \"{}\", \"policy\": \"{}\", \"jobs\": {}, ",
                        "\"concurrency\": {}, \"makespan_seconds\": {:.6e}, ",
                        "\"sum_serial_seconds\": {:.6e}, ",
                        "\"throughput_jobs_per_sec\": {:.4}, ",
                        "\"serial_throughput_jobs_per_sec\": {:.4}, ",
                        "\"coscheduling_speedup\": {:.4}, ",
                        "\"p50_latency_seconds\": {:.6e}, \"p99_latency_seconds\": {:.6e}, ",
                        "\"mult_slots_per_sec\": {:.6e}, \"tenant_fairness\": {:.4}}}"
                    ),
                    ins.name(),
                    config.name,
                    report.policy,
                    report.job_count(),
                    report.max_in_flight,
                    report.makespan_seconds,
                    report.sum_serial_seconds(),
                    report.throughput_jobs_per_sec(),
                    report.serial_throughput_jobs_per_sec(),
                    report.coscheduling_speedup(),
                    report.latency_percentile(50.0),
                    report.latency_percentile(99.0),
                    report.mult_slots_per_sec(),
                    report.tenant_fairness(),
                ));
            }
        }
    }
    rows
}

/// The serving layer (`bts-serve`): co-scheduled throughput and latency vs
/// offered load on the bootstrap workload, then a queueing-policy comparison
/// under a seeded multi-tenant mixed stream. At 1 TB/s the machine is
/// evk-streaming bound and co-scheduling only recovers compute slack; at
/// 2 TB/s ops from different tenants genuinely interleave and aggregate
/// throughput beats one-at-a-time service.
pub fn serve() -> String {
    let mut out = header("Serving layer: throughput and latency vs offered load (bts-serve)");
    let grid = SweepGrid::paper_default();
    let ins = CkksInstance::ins1();
    // The 2 TB/s two-job point doubles as the closing summary line.
    let mut two_job_2tb = None;
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
        for &load in &SERVE_LOADS {
            let jobs = SyntheticArrivals::burst(&ins, "bootstrap", load);
            let report = serve_jobs(
                &jobs,
                ServeOptions::new(load).with_config(config.config.clone()),
            )
            .expect("bootstrap serves on INS-1");
            let _ = writeln!(
                out,
                "  {:<5} {:>10.2}ms {:>12.1} {:>14.1} {:>8.3}x {:>10.2} {:>10.2}",
                load,
                report.makespan_seconds * 1e3,
                report.throughput_jobs_per_sec(),
                report.serial_throughput_jobs_per_sec(),
                report.coscheduling_speedup(),
                report.latency_percentile(50.0) * 1e3,
                report.latency_percentile(99.0) * 1e3,
            );
            if config.name == "bts-2tb" && load == 2 {
                two_job_2tb = Some(report);
            }
        }
    }
    // Queueing policies under one seeded three-tenant stream mixing long and
    // short jobs, on the grid's bandwidth point where overlap is visible.
    let config = grid
        .configs()
        .into_iter()
        .find(|c| c.name == "bts-2tb")
        .expect("the default grid carries the 2 TB/s ablation")
        .config;
    let stream = SyntheticArrivals::new(ins, 2024)
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
                .with_config(config.clone()),
        )
        .expect("mixed stream serves on INS-1");
        let mut queue_delays: Vec<f64> = report.jobs.iter().map(|j| j.queue_seconds()).collect();
        queue_delays.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let _ = writeln!(
            out,
            "  {:<12} {:>10.2}ms {:>9.2}ms {:>8.2}ms {:>8.2}ms {:>9.3}",
            policy.label(),
            report.makespan_seconds * 1e3,
            report.mean_latency_seconds() * 1e3,
            report.latency_percentile(99.0) * 1e3,
            queue_delays.last().copied().unwrap_or(0.0) * 1e3,
            report.tenant_fairness(),
        );
    }
    let report = two_job_2tb.expect("the sweep covers the 2 TB/s two-job point");
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

/// Chip counts of the cluster scaling sweep.
const CLUSTER_CHIP_COUNTS: [usize; 3] = [1, 2, 4];

/// Job count of the cluster sweep's bootstrap stream.
const CLUSTER_JOBS: u64 = 16;

/// Tenant pool of the cluster sweep's bootstrap stream.
const CLUSTER_TENANTS: u32 = 4;

/// The cluster sweep's job stream: [`CLUSTER_JOBS`] bootstrap jobs at t = 0
/// from a pool of [`CLUSTER_TENANTS`] tenants on INS-1. The tenant pool is
/// what makes scale-out pay: a bootstrap evk set is ~10 GiB at INS-1, so the
/// interconnect charge amortizes over each tenant's jobs rather than being
/// paid per job.
fn cluster_stream() -> Vec<JobRequest> {
    let ins = CkksInstance::ins1();
    (0..CLUSTER_JOBS)
        .map(|i| {
            JobRequest::new(
                i,
                (i % CLUSTER_TENANTS as u64) as u32,
                "bootstrap",
                ins.clone(),
                0.0,
            )
        })
        .collect()
}

/// The cluster sweep's knobs for one (architecture, chip count) point:
/// tenant-affinity placement (keys cross the interconnect once per tenant)
/// over an NVLink-class accelerator fabric.
fn cluster_sweep_options(preset: ArchPreset, chips: usize) -> ClusterOptions {
    ClusterOptions::new(
        ChipSpec::preset(preset, chips).with_interconnect(Interconnect::nvlink_class()),
    )
    .with_placement(PlacementPolicy::TenantAffinity)
}

/// The cluster layer (`bts-cluster`): throughput scaling of the bootstrap
/// stream across architecture presets × chip counts, plus a placement-policy
/// comparison on the BTS ×4 fleet. Single-chip rows charge zero interconnect
/// and match `bts-serve` exactly; multi-chip rows pay ciphertext and
/// evaluation-key movement over the fabric.
pub fn cluster() -> String {
    let mut out = header("Cluster layer: architecture x chip-count scaling (bts-cluster)");
    let jobs = cluster_stream();
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
    for preset in ArchPreset::ALL {
        let mut base = None;
        for &chips in &CLUSTER_CHIP_COUNTS {
            let report = serve_cluster(&jobs, cluster_sweep_options(preset, chips))
                .expect("the sweep stream serves on every preset");
            let throughput = report.throughput_jobs_per_sec();
            let base_throughput = *base.get_or_insert(throughput);
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>10.2}ms {:>10.1} {:>9.2}x {:>10.2} {:>12.2} {:>9.3}",
                preset.name(),
                chips,
                report.makespan_seconds() * 1e3,
                throughput,
                throughput / base_throughput,
                report.latency_percentile(99.0) * 1e3,
                report.interconnect_bytes() as f64 / (1u64 << 30) as f64,
                report.tenant_fairness(),
            );
        }
    }
    // Interleaved tenants (i % 4) on 4 chips make round-robin accidentally
    // tenant-aligned; the placement comparison uses *blocked* tenants
    // (4 consecutive jobs each) so the policies genuinely diverge.
    let ins = CkksInstance::ins1();
    let blocked: Vec<JobRequest> = (0..CLUSTER_JOBS)
        .map(|i| {
            JobRequest::new(
                i,
                (i / CLUSTER_TENANTS as u64) as u32,
                "bootstrap",
                ins.clone(),
                0.0,
            )
        })
        .collect();
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

/// The `cluster` section of [`workloads_json`]: one row per architecture
/// preset × chip count on the bootstrap stream ([`cluster_stream`]).
fn cluster_json_rows() -> Vec<String> {
    let jobs = cluster_stream();
    let mut rows = Vec::new();
    for preset in ArchPreset::ALL {
        for &chips in &CLUSTER_CHIP_COUNTS {
            let report = serve_cluster(&jobs, cluster_sweep_options(preset, chips))
                .expect("the sweep stream serves on every preset");
            rows.push(format!(
                concat!(
                    "    {{\"preset\": \"{}\", \"chips\": {}, \"placement\": \"{}\", ",
                    "\"workload\": \"bootstrap\", \"instance\": \"INS-1\", \"jobs\": {}, ",
                    "\"chips_used\": {}, \"makespan_seconds\": {:.6e}, ",
                    "\"throughput_jobs_per_sec\": {:.4}, \"mult_slots_per_sec\": {:.6e}, ",
                    "\"p50_latency_seconds\": {:.6e}, \"p99_latency_seconds\": {:.6e}, ",
                    "\"tenant_fairness\": {:.4}, ",
                    "\"interconnect_bytes\": {}, \"interconnect_seconds\": {:.6e}}}"
                ),
                report.label,
                chips,
                report.placement,
                report.job_count(),
                report.chips_used(),
                report.makespan_seconds(),
                report.throughput_jobs_per_sec(),
                report.mult_slots_per_sec(),
                report.latency_percentile(50.0),
                report.latency_percentile(99.0),
                report.tenant_fairness(),
                report.interconnect_bytes(),
                report.interconnect_seconds(),
            ));
        }
    }
    rows
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

/// One measured point of the resilience sweep.
struct ResiliencePoint {
    policy: QueuePolicy,
    mean_interarrival: f64,
    failed_chips: usize,
    report: ClusterReport,
}

/// Runs the resilience sweep: queue policy × offered load × {healthy fleet,
/// fleet losing chip [`RESILIENCE_KILLED_CHIP`] halfway through the healthy
/// makespan}, on a 4-chip BTS NVLink fleet with tenant-affinity placement,
/// bounded queues and per-job deadlines.
fn resilience_points() -> Vec<ResiliencePoint> {
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
            points.push(ResiliencePoint {
                policy,
                mean_interarrival,
                failed_chips: 0,
                report: healthy,
            });
            points.push(ResiliencePoint {
                policy,
                mean_interarrival,
                failed_chips: 1,
                report: wounded,
            });
        }
    }
    points
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
    for p in resilience_points() {
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

/// The `resilience` section of [`workloads_json`]: one row per queue policy ×
/// offered load × {0, 1} failed chips from [`resilience_points`].
fn resilience_json_rows() -> Vec<String> {
    resilience_points()
        .into_iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\"policy\": \"{}\", \"mean_interarrival_seconds\": {:.6e}, ",
                    "\"offered_jobs_per_sec\": {:.4}, \"failed_chips\": {}, ",
                    "\"jobs\": {}, \"completed\": {}, \"shed\": {}, \"migrated\": {}, ",
                    "\"retried\": {}, \"deadline_missed\": {}, ",
                    "\"goodput_jobs_per_sec\": {:.4}, \"slo_attainment\": {:.4}, ",
                    "\"makespan_seconds\": {:.6e}}}"
                ),
                p.policy.label(),
                p.mean_interarrival,
                1.0 / p.mean_interarrival,
                p.failed_chips,
                p.report.submitted_count(),
                p.report.jobs.len(),
                p.report.shed_count(),
                p.report.migration_count(),
                p.report.retry_count(),
                p.report.deadline_missed_count(),
                p.report.goodput_jobs_per_sec(),
                p.report.slo_attainment(),
                p.report.makespan_seconds(),
            )
        })
        .collect()
}

/// Serial vs scheduled execution per workload (INS-1): the `bts-sched`
/// subsystem's headline comparison. At the paper's 1 TB/s design point the
/// machine is evk-streaming bound, so the schedule only recovers the slack of
/// compute-bound ops; the Fig. 9 2 TB/s ablation makes the overlap visible.
pub fn sched() -> String {
    let mut out = header("Scheduled vs serial execution (bts-sched, INS-1)");
    let ins = CkksInstance::ins1();
    let registry = standard_registry();
    for grid_config in SweepGrid::paper_default().configs() {
        let _ = writeln!(out, "{}: {}", grid_config.name, grid_config.description);
        let _ = writeln!(
            out,
            "  {:<15} {:>11} {:>11} {:>11} {:>8} {:>23}",
            "workload", "serial", "scheduled", "crit path", "speedup", "util NTTU/BConv/HBM"
        );
        let sim = Simulator::new(grid_config.config, ins.clone());
        for (name, workload) in registry.iter() {
            let lowered = workload.lower(&ins).expect("INS-1 runs every workload");
            let run = sim.run_scheduled(&lowered.trace);
            let util = run.schedule.utilizations();
            let _ = writeln!(
                out,
                "  {:<15} {:>9.2}ms {:>9.2}ms {:>9.2}ms {:>7.3}x {:>7.0}%{:>6.0}%{:>6.0}%",
                name,
                run.report.total_seconds * 1e3,
                run.schedule.makespan_seconds * 1e3,
                run.schedule.critical_path_seconds * 1e3,
                run.schedule.parallel_speedup(),
                util[FuKind::Nttu.index()] * 100.0,
                util[FuKind::BConvU.index()] * 100.0,
                util[FuKind::Hbm.index()] * 100.0,
            );
        }
    }
    let lowered = bts_workloads::BootstrapWorkload
        .lower(&ins)
        .expect("bootstrappable");
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    let run = sim.run_scheduled(&lowered.trace);
    let _ = writeln!(out, "bootstrap timeline (first reservations per unit):");
    for seg in run.schedule.timeline(3) {
        let _ = writeln!(
            out,
            "  {:<16} {:<22} {:>10.1} – {:>10.1} ns",
            seg.unit, seg.label, seg.start_ns, seg.end_ns
        );
    }
    out
}

/// Scratchpad replacement on HELR and ResNet-20, three columns a row: §5.3's
/// LRU as the paper publishes it, the compiler's 2-bit reuse code (the policy
/// every other figure runs) and exact next-use positions (its bound) — hit
/// rate, HBM traffic and serial seconds each. Two synthetic rows bracket the
/// registry: `divergent`, where recency and liveness disagree, and `pool`,
/// a live set far larger than the cache — the one place code < bound.
pub fn hints() -> String {
    let mut out = header("Scratchpad replacement: LRU -> 2-bit reuse code -> exact next use");
    let _ = writeln!(
        out,
        "{:<21} | {:^23} | {:^29} | {:^29}",
        "", "hit rate (%)", "HBM traffic (GB)", "serial time (ms)"
    );
    let labels = |width: usize| format!("{:>width$} {:>width$} {:>width$}", "LRU", "code", "bound");
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
        let bound = sim
            .try_run_belady(trace)
            .expect("the run above validated it");
        let columns = |f: fn(&bts_sim::SimReport) -> f64, width: usize, precision: usize| {
            [&lru, &code, &bound]
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
        ins.clone(),
    );
    row("divergent", "INS-1/384M", &sim, &b.build());
    // Eight top-level ciphertexts read pairwise round-robin: a live set the
    // registry never produces, and the only row where distances matter.
    let mut b = bts_sim::TraceBuilder::new(&ins);
    let pool: Vec<_> = (0..8).map(|_| b.fresh_ct(27)).collect();
    for _ in 0..6 {
        for pair in pool.windows(2) {
            b.hmult_at(pair[0], pair[1], 27);
        }
    }
    let sim = Simulator::new(BtsConfig::bts_default(), ins);
    row("pool", "INS-1", &sim, &b.build());
    let _ = writeln!(
        out,
        "(LRU is the policy the paper publishes (5.3) and is kept as a baseline\n\
         only; `code` is what the scratchpad runs: the compiler marks every operand\n\
         access and op output `next`, `later` or `never` — a pure function of the\n\
         trace — and the cache evicts dead values first, never the operand the\n\
         next op reads, and among the rest the youngest, bypassing a newcomer that\n\
         is itself the youngest. `bound` is the same cache on exact next-use\n\
         positions. The registry keeps at most three ciphertexts live, so the whole\n\
         LRU gap is dead values kept because they are recent (INS-2) plus thrash\n\
         that only bypass stops (INS-3), and the code sits on the bound on every\n\
         registry row; INS-1's cache is ample and all three agree. `pool` is the\n\
         recorded case for a wider code: with eight live values, distances start\n\
         to matter (dead bit alone 60.71 %, log2 buckets of 2+ bits = bound).)"
    );
    out
}

/// Every figure/table in order, concatenated.
pub fn all() -> String {
    [
        table1(),
        fig1(),
        fig2(),
        fig3b(),
        table3(),
        table4(),
        fig6(),
        fig7a(),
        fig7b(),
        table5(),
        table6(),
        fig8(),
        fig9(),
        fig10(),
        sched(),
        serve(),
        cluster(),
        resilience(),
        hints(),
        compiler(),
        slowdown(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// `workloads_json` regenerates the full sweep (scheduler, serve and
    /// compiler sections); several tests assert on it, so build it once.
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
    fn workloads_json_covers_every_workload_and_instance() {
        let json = cached_json();
        assert!(json.contains("\"schema\": 9"));
        for name in ["amortized-mult", "bootstrap", "helr", "resnet20", "sorting"] {
            assert!(
                json.contains(&format!("\"workload\": \"{name}\"")),
                "{name}"
            );
        }
        for ins in ["INS-1", "INS-2", "INS-3"] {
            assert!(json.contains(&format!("\"instance\": \"{ins}\"")), "{ins}");
        }
        for cfg in ["bts-1tb", "bts-2tb"] {
            assert!(json.contains(&format!("\"config\": \"{cfg}\"")), "{cfg}");
        }
        // Results: 5 workloads × 3 instances × 2 configs.
        assert_eq!(json.matches("\"parallel_speedup\"").count(), 30);
        // Serve sweep: 3 instances × 2 configs × 3 offered loads.
        assert_eq!(json.matches("\"coscheduling_speedup\"").count(), 18);
        // Compiler ledger: 5 workloads × 3 instances.
        assert_eq!(json.matches("\"key_switches_before\"").count(), 15);
        // Cluster scaling curve: 4 architecture presets × 3 chip counts.
        assert_eq!(json.matches("\"chips_used\"").count(), 12);
        // Resilience sweep: 3 policies × 3 offered loads × {0, 1} failed chips.
        assert_eq!(json.matches("\"failed_chips\"").count(), 18);
        // Structurally balanced (cheap well-formedness check without a JSON
        // parser dependency).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn serve_rows_gate_coscheduled_throughput() {
        // The CI smoke step enforces the same bounds on the committed file.
        let json = cached_json();
        let field = |line: &str, name: &str| -> f64 {
            let tail = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
            tail.split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"coscheduling_speedup\""))
            .collect();
        assert_eq!(rows.len(), 18);
        for row in &rows {
            let speedup = field(row, "coscheduling_speedup");
            let p50 = field(row, "p50_latency_seconds");
            let p99 = field(row, "p99_latency_seconds");
            // Burst arrivals at t = 0: the merged makespan can never exceed
            // the serial sum (a structural guarantee of the multi-DAG
            // scheduler), and percentiles are ordered.
            assert!(
                speedup >= 1.0 - 1e-9,
                "co-scheduling slower than serial: {row}"
            );
            assert!(p99 >= p50 - 1e-18, "percentiles out of order: {row}");
            assert!(
                field(row, "tenant_fairness") > 0.3,
                "fairness collapsed: {row}"
            );
            // Each job's latency is bounded below by its critical path, so
            // the sustained mult-slot rate is finite and positive.
            assert!(field(row, "mult_slots_per_sec") > 0.0);
        }
        // The acceptance gate: at 2 TB/s, offered load ≥ 2 co-scheduled
        // bootstrap jobs must beat one-at-a-time throughput on every
        // instance, and by a real margin where compute matters (INS-2/3 stay
        // closer to evk-streaming bound, so their gain is genuine but small).
        let gated: Vec<&&str> = rows
            .iter()
            .filter(|l| l.contains("\"config\": \"bts-2tb\"") && field(l, "concurrency") >= 2.0)
            .collect();
        assert!(!gated.is_empty());
        let mut best = 0.0f64;
        for row in gated {
            assert!(
                field(row, "throughput_jobs_per_sec")
                    > field(row, "serial_throughput_jobs_per_sec") * 1.005,
                "co-scheduling failed to beat serial service at 2 TB/s: {row}"
            );
            best = best.max(field(row, "coscheduling_speedup"));
        }
        assert!(
            best > 1.05,
            "no instance shows substantial co-scheduling gain at 2 TB/s: {best}"
        );
    }

    #[test]
    fn cluster_rows_gate_the_scaling_curve() {
        // The CI smoke step enforces the same bounds on the committed file:
        // at least three architecture presets, zero interconnect traffic on
        // single-chip rows, and the 4-chip BTS fleet at least doubling
        // single-chip throughput on the bootstrap stream at 1 TB/s.
        let json = cached_json();
        let field = |line: &str, name: &str| -> f64 {
            let tail = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
            tail.split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"chips_used\""))
            .collect();
        assert_eq!(rows.len(), 12);
        let presets: std::collections::BTreeSet<&str> = rows
            .iter()
            .map(|l| {
                l.split("\"preset\": \"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        assert!(presets.len() >= 3, "presets covered: {presets:?}");
        let throughput_of = |preset: &str, chips: f64| -> f64 {
            let row = rows
                .iter()
                .find(|l| {
                    l.contains(&format!("\"preset\": \"{preset}\"")) && field(l, "chips") == chips
                })
                .unwrap_or_else(|| panic!("no row for {preset} x{chips}"));
            field(row, "throughput_jobs_per_sec")
        };
        for row in &rows {
            assert!(field(row, "tenant_fairness") > 0.3, "fairness: {row}");
            assert!(field(row, "throughput_jobs_per_sec") > 0.0, "idle: {row}");
            if field(row, "chips") == 1.0 {
                assert_eq!(
                    field(row, "interconnect_bytes"),
                    0.0,
                    "single chip moved bytes: {row}"
                );
            } else {
                assert!(
                    field(row, "interconnect_bytes") > 0.0,
                    "multi-chip moved nothing: {row}"
                );
            }
        }
        for preset in &presets {
            assert!(
                throughput_of(preset, 4.0) > throughput_of(preset, 1.0),
                "{preset}: 4 chips not faster than 1"
            );
        }
        // The acceptance gate: BTS at the paper's 1 TB/s design point scales
        // to ≥ 2× on 4 chips.
        assert!(
            throughput_of("bts", 4.0) >= 2.0 * throughput_of("bts", 1.0),
            "bts 4-chip throughput below 2x single chip"
        );
    }

    #[test]
    fn resilience_rows_gate_graceful_degradation() {
        // The CI smoke step enforces the same bounds on the committed file:
        // SLO attainment must be monotone non-increasing in offered load for
        // every (policy, failed-chip) curve, and losing one chip of four must
        // keep at least 60% of the healthy fleet's goodput at every load —
        // degradation, not collapse.
        let json = cached_json();
        let field = |line: &str, name: &str| -> f64 {
            let tail = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
            tail.split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let policy_of = |line: &str| -> String {
            line.split("\"policy\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string()
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"failed_chips\""))
            .collect();
        assert_eq!(rows.len(), 18);
        for row in &rows {
            let jobs = field(row, "jobs");
            let completed = field(row, "completed");
            let shed = field(row, "shed");
            assert_eq!(completed + shed, jobs, "jobs unaccounted for: {row}");
            assert!(
                field(row, "goodput_jobs_per_sec") > 0.0,
                "idle fleet: {row}"
            );
            let slo = field(row, "slo_attainment");
            assert!((0.0..=1.0).contains(&slo), "SLO out of range: {row}");
            if field(row, "failed_chips") == 1.0 {
                assert!(
                    field(row, "migrated") > 0.0,
                    "chip failure with no migrations: {row}"
                );
            }
        }
        for policy in ["fifo", "sjf", "round-robin"] {
            for failed in [0.0, 1.0] {
                let mut curve: Vec<(f64, f64)> = rows
                    .iter()
                    .filter(|l| policy_of(l) == policy && field(l, "failed_chips") == failed)
                    .map(|l| (field(l, "offered_jobs_per_sec"), field(l, "slo_attainment")))
                    .collect();
                assert_eq!(curve.len(), 3, "{policy}/{failed}");
                curve.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for pair in curve.windows(2) {
                    assert!(
                        pair[1].1 <= pair[0].1 + 1e-9,
                        "{policy} (failed={failed}): SLO rose with offered load: {curve:?}"
                    );
                }
            }
            // Graceful degradation: at every offered load, the wounded fleet
            // keeps ≥ 60% of healthy goodput (≈ a 3-of-4-chip fleet).
            for &load in &RESILIENCE_INTERARRIVALS {
                let goodput_at = |failed: f64| -> f64 {
                    let row = rows
                        .iter()
                        .find(|l| {
                            policy_of(l) == policy
                                && field(l, "failed_chips") == failed
                                && (field(l, "mean_interarrival_seconds") - load).abs()
                                    < load * 1e-6
                        })
                        .unwrap_or_else(|| panic!("no row for {policy}@{load}/{failed}"));
                    field(row, "goodput_jobs_per_sec")
                };
                assert!(
                    goodput_at(1.0) >= 0.6 * goodput_at(0.0),
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
        // The CI smoke step enforces the same bound on the committed file;
        // this keeps the invariant testable without regenerating it. Compare
        // the raw seconds, not the clamped parallel_speedup ratio, so a real
        // makespan > serial regression cannot hide behind the clamp.
        let json = cached_json();
        let field = |line: &str, name: &str| -> f64 {
            let tail = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
            tail.split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"parallel_speedup\""))
            .collect();
        assert_eq!(rows.len(), 30);
        let mut max_speedup = 0.0f64;
        for row in rows {
            let serial = field(row, "serial_seconds");
            let scheduled = field(row, "scheduled_seconds");
            let cp = field(row, "critical_path_seconds");
            assert!(
                scheduled <= serial * (1.0 + 1e-9),
                "schedule slower than serial: {row}"
            );
            assert!(
                cp <= scheduled * (1.0 + 1e-9),
                "critical path exceeds makespan: {row}"
            );
            max_speedup = max_speedup.max(field(row, "parallel_speedup"));
        }
        // The Fig. 9 ablation rows show measurable overlap on the
        // bootstrap-heavy workloads (acceptance: > 1.05 on bootstrap or
        // ResNet-20).
        assert!(
            max_speedup > 1.05,
            "no workload shows measurable overlap: {max_speedup}"
        );
    }

    #[test]
    fn compile_rows_gate_key_switch_reduction() {
        // The CI smoke step enforces the same bounds on the committed file:
        // the pass pipeline must never grow a workload's key-switch count or
        // serial time, and must strictly reduce key-switches on at least two
        // workloads.
        let json = cached_json();
        let field = |line: &str, name: &str| -> f64 {
            let tail = line.split(&format!("\"{name}\": ")).nth(1).unwrap();
            tail.split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"key_switches_before\""))
            .collect();
        assert_eq!(rows.len(), 15);
        let mut strictly_reduced = std::collections::BTreeSet::new();
        for row in &rows {
            let before = field(row, "key_switches_before");
            let after = field(row, "key_switches_after");
            assert!(after <= before, "pipeline grew key-switches: {row}");
            assert!(
                field(row, "serial_seconds_after")
                    <= field(row, "serial_seconds_before") * (1.0 + 1e-9),
                "pipeline slowed a workload down: {row}"
            );
            assert!(field(row, "ops_after") <= field(row, "ops_before"));
            assert!(field(row, "registers") >= 1.0);
            if after < before {
                let workload = row
                    .split("\"workload\": \"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap();
                strictly_reduced.insert(workload.to_string());
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
