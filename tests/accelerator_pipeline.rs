//! Cross-crate integration tests of the parameter-analysis → workload →
//! simulator pipeline: the paper's headline comparisons must hold in shape.

use bts::circuit::{BootstrapPlan, PassPipeline, Workload};
use bts::params::{BandwidthModel, CkksInstance, MinBoundModel};
use bts::sim::{BtsConfig, HeOp, Simulator};
use bts::workloads::{
    amortized_mult_per_slot, standard_registry, BaselineSet, HelrWorkload, ResNetWorkload,
    SortingWorkload,
};

#[test]
fn bts_beats_every_reported_baseline_on_amortized_mult() {
    // Fig. 6: BTS (INS-2) improves on Lattigo by >1000x, on 100x-GPU by >10x,
    // and on F1/F1+ when bootstrapping is accounted for.
    let sim = Simulator::new(BtsConfig::bts_default(), CkksInstance::ins2());
    let (t_bts, _) = amortized_mult_per_slot(&sim);
    let baselines = BaselineSet::paper();
    for (name, min_speedup) in [
        ("Lattigo", 500.0),
        ("100x", 5.0),
        ("F1", 1000.0),
        ("F1+", 100.0),
    ] {
        let reported = baselines.get(name).unwrap().tmult_a_slot_us.unwrap() * 1e-6;
        let speedup = reported / t_bts;
        assert!(
            speedup > min_speedup,
            "{name}: speedup {speedup:.0}x below expected floor {min_speedup}"
        );
    }
}

#[test]
fn simulated_time_never_beats_the_minimum_bound() {
    // The §3.3 minimum bound (evk streaming only, perfect caching) must lower
    // bound the full simulation for every instance.
    let plan = BootstrapPlan::paper_default();
    for ins in CkksInstance::evaluation_set() {
        let hist = plan.keyswitch_histogram(&ins);
        let bound = MinBoundModel::new(ins.clone(), BandwidthModel::hbm_1tb())
            .amortized_mult_per_slot_from_trace(&hist);
        let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
        let (measured, _) = amortized_mult_per_slot(&sim);
        assert!(
            measured >= bound * 0.99,
            "{}: measured {measured} below bound {bound}",
            ins.name()
        );
        // And with a (impractically large) 8 GiB scratchpad it approaches it.
        let big = Simulator::new(
            BtsConfig::bts_default().with_scratchpad_bytes(8 * 1024 * 1024 * 1024),
            ins.clone(),
        );
        let (near, _) = amortized_mult_per_slot(&big);
        assert!(near <= measured);
        assert!(
            near < bound * 3.0,
            "{}: {near} vs bound {bound}",
            ins.name()
        );
    }
}

#[test]
fn bootstrap_dominates_bootstrap_heavy_workloads() {
    // Fig. 7b: bootstrapping accounts for the majority of HELR and sorting
    // time, and a smaller share of ResNet-20.
    let ins = CkksInstance::ins1();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let helr = sim.run(&HelrWorkload::default().lower(&ins).unwrap().trace);
    let sorting = sim.run(&SortingWorkload::default().lower(&ins).unwrap().trace);
    let resnet = sim.run(&ResNetWorkload::default().lower(&ins).unwrap().trace);
    assert!(
        helr.bootstrap_fraction() > 0.4,
        "HELR {}",
        helr.bootstrap_fraction()
    );
    assert!(
        sorting.bootstrap_fraction() > 0.5,
        "sorting {}",
        sorting.bootstrap_fraction()
    );
    assert!(
        resnet.bootstrap_fraction() < sorting.bootstrap_fraction(),
        "ResNet should be less bootstrap-bound than sorting"
    );
}

#[test]
fn evk_streaming_dominates_hbm_traffic_during_bootstrap() {
    // §3.3: evks dominate off-chip traffic for key-switching-heavy phases.
    let ins = CkksInstance::ins2();
    let trace = BootstrapPlan::paper_default().trace(&ins);
    let report = Simulator::new(BtsConfig::bts_default(), ins).run(&trace);
    assert!(report.evk_bytes > report.ct_miss_bytes);
    assert!(report.hbm_utilization > 0.3);
}

#[test]
fn hmult_and_hrot_account_for_most_bootstrap_time() {
    // §2.4: HMult and HRot account for more than ~77% of bootstrapping time.
    let ins = CkksInstance::ins1();
    let trace = BootstrapPlan::paper_default().trace(&ins);
    let report = Simulator::new(BtsConfig::bts_default(), ins).run(&trace);
    let ks: f64 = report
        .per_op
        .iter()
        .filter(|(op, _)| op.is_key_switching())
        .map(|(_, s)| s.seconds)
        .sum();
    assert!(
        ks / report.total_seconds > 0.6,
        "key-switch share = {}",
        ks / report.total_seconds
    );
    assert!(report.per_op.contains_key(&HeOp::HRot));
    assert!(report.per_op.contains_key(&HeOp::HMult));
}

#[test]
fn ablation_ordering_matches_fig9() {
    // Fig. 9: each added feature improves T_mult,a/slot: small-BTS < +INS-1
    // parameters < +512 MiB scratchpad (overlap) < +2 TB/s HBM.
    let ins1 = CkksInstance::ins1();
    // "Small BTS" has just enough scratchpad for the temporary data of the HE
    // op on the instance it runs (no ciphertext caching), like Fig. 9's first
    // two configurations.
    let temp = |ins: &CkksInstance| {
        (ins.dnum() as u64 + 2)
            * (ins.num_special() + ins.max_level() + 1) as u64
            * ins.limb_bytes()
    };
    let t = |cfg: BtsConfig, ins: &CkksInstance| {
        amortized_mult_per_slot(&Simulator::new(cfg, ins.clone())).0
    };
    let lattigo_like = CkksInstance::lattigo_preset();
    let small_lattigo = t(BtsConfig::small_bts(temp(&lattigo_like)), &lattigo_like);
    let small_ins1 = t(BtsConfig::small_bts(temp(&ins1)), &ins1);
    let full = t(BtsConfig::bts_default(), &ins1);
    let fast_hbm = t(
        BtsConfig::bts_default().with_hbm(BandwidthModel::hbm_2tb()),
        &ins1,
    );
    assert!(small_ins1 < small_lattigo, "INS-1 parameters should help");
    assert!(full <= small_ins1, "512 MiB scratchpad should help");
    assert!(fast_hbm < full, "2 TB/s HBM should help");
    // And the final configuration is a large multiple better than the start.
    assert!(small_lattigo / fast_hbm > 2.0);
}

#[test]
fn table6_bootstrap_counts_follow_level_budgets() {
    let counts: Vec<(usize, usize)> = CkksInstance::evaluation_set()
        .iter()
        .map(|ins| {
            (
                ResNetWorkload::default()
                    .lower(ins)
                    .unwrap()
                    .bootstrap_count,
                SortingWorkload::default()
                    .lower(ins)
                    .unwrap()
                    .bootstrap_count,
            )
        })
        .collect();
    // INS-1 (8 usable levels) needs the most bootstraps for both workloads.
    assert!(counts[0].0 > counts[1].0 && counts[1].0 >= counts[2].0);
    assert!(counts[0].1 > counts[1].1 && counts[1].1 > counts[2].1);
    // Sorting needs far more bootstraps than ResNet (Table 6: 521 vs 53).
    assert!(counts[0].1 > 4 * counts[0].0);
}

#[test]
fn figures_binary_paths_render() {
    // The figure-regeneration library must produce non-trivial output for the
    // cheap figures (the expensive ones are covered by the bench harness).
    for text in [
        bts_bench::figures::table3(),
        bts_bench::figures::table4(),
        bts_bench::figures::fig3b(),
        bts_bench::figures::fig8(),
    ] {
        assert!(text.lines().count() > 3);
    }
}

#[test]
fn registry_circuits_lower_through_the_backend_pipeline() {
    // CkksInstance -> Workload -> HeCircuit -> passes -> TraceBackend ->
    // Simulator: the whole evaluation pipeline, for every registered
    // workload; `Workload::lower` lowers the optimized circuit.
    let ins = CkksInstance::ins2();
    let sim = Simulator::new(BtsConfig::bts_default(), ins.clone());
    let registry = standard_registry();
    assert_eq!(registry.len(), 5);
    for (name, workload) in registry.iter() {
        let circuit = PassPipeline::standard()
            .optimize(&workload.build(&ins).unwrap())
            .unwrap();
        let lowered = workload.lower(&ins).unwrap();
        assert_eq!(
            circuit.bootstrap_count(),
            lowered.bootstrap_count,
            "{name}: marker and expansion counts must agree"
        );
        let report = sim.run(&lowered.trace);
        assert!(report.total_seconds > 0.0, "{name}");
        // Non-bootstrap instruction classes survive lowering one-to-one.
        for (op, count) in circuit.op_counts() {
            assert!(
                lowered.trace.count(op) >= count,
                "{name}: lost {op:?} ops in lowering"
            );
        }
    }
}
