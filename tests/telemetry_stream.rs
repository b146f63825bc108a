//! Integration tests of the unified telemetry stream: figures derived from
//! the event stream match `ServeReport` bitwise, identical runs emit
//! identical streams, concurrent captures never mix, a failover stream names
//! every migration and every completion exactly once, the scratchpad's
//! instants name every eviction and bypass with its reason, and the RAII
//! span layer leaves every span closed and properly nested after a real
//! functional run — pool workers included.
//!
//! The stream is the only record of a run, so every count a report holds has
//! an event twin held equal to it here: the engine events' cache args sum to
//! the `SimReport`'s, and a serve run's `jobs` events, `shed`, `retry`,
//! `fault` and `deadline-miss` instants count its completions, sheds, retries
//! and late jobs. The `queue` lane counts only jobs that have arrived.
//!
//! Every run records into its own `telemetry::capture()`, which returns that
//! run's events and nothing else, so the tests share no state.

use std::collections::HashSet;
use std::sync::Barrier;

use bts::ckks::{CkksContext, Complex};
use bts::cluster::{
    serve_cluster, ChipSpec, ClusterOptions, FaultPlan, Interconnect, PlacementPolicy,
};
use bts::params::CkksInstance;
use bts::serve::{
    serve, DerivedServeFigures, JobRequest, ServeOptions, ServeReport, ShedReason,
    SyntheticArrivals,
};
use bts::sim::{ArchPreset, BtsConfig, OpTrace, Simulator, TraceBuilder};
use bts::telemetry::{self, ArgValue, Collector, Event};
use rand::SeedableRng;

/// One seeded three-tenant stream.
fn stream() -> Vec<JobRequest> {
    SyntheticArrivals::new(CkksInstance::ins1(), 2024)
        .mean_interarrival_seconds(3e-3)
        .tenants(3)
        .mix(vec![
            ("bootstrap".to_string(), 2.0),
            ("amortized-mult".to_string(), 1.0),
        ])
        .generate(6)
}

/// The simulated-time events of a finished capture (wall-clock spans live on
/// the separate `realtime` process and differ run to run by construction).
fn simulated(run: Collector) -> Vec<Event> {
    assert_eq!(run.dropped, 0, "stream must be complete");
    let events = run.events.into_iter().filter(|e| e.process != "realtime");
    events.collect()
}

/// Serves the stream inside its own capture.
fn serve_captured(config: &BtsConfig) -> (ServeReport, Vec<Event>) {
    let run = telemetry::capture();
    let report =
        serve(&stream(), ServeOptions::new(3).with_config(config.clone())).expect("stream serves");
    (report, simulated(run.finish()))
}

/// `ServeReport`'s utilization and latency figures recomputed purely from
/// the event stream match the report bitwise: the events carry the exact
/// floats, and the derivation performs the same additions in the same order.
#[test]
fn derived_figures_match_the_report_bitwise() {
    let config = BtsConfig::bts_default();
    let (report, events) = serve_captured(&config);
    assert!(!events.is_empty());

    let derived = DerivedServeFigures::from_events(&events);
    assert_eq!(derived.job_count, report.job_count());
    assert_eq!(
        derived.makespan_seconds.to_bits(),
        report.makespan_seconds.to_bits(),
        "derived makespan {} != report makespan {}",
        derived.makespan_seconds,
        report.makespan_seconds
    );
    for (kind_index, (d, r)) in derived
        .utilizations
        .iter()
        .zip(report.utilizations.iter())
        .enumerate()
    {
        assert_eq!(
            d.to_bits(),
            r.to_bits(),
            "unit class {kind_index}: derived utilization {d} != report {r}"
        );
    }
    assert!(derived.utilizations.iter().any(|&u| u > 0.0));
    assert_eq!(
        derived.latency_p50_seconds.to_bits(),
        report.latency_percentile(50.0).to_bits()
    );
    assert_eq!(
        derived.latency_p99_seconds.to_bits(),
        report.latency_percentile(99.0).to_bits()
    );
}

/// Same seed, same config, same options: the two runs' event streams are
/// identical, event by event, args and all.
#[test]
fn identical_runs_emit_identical_streams() {
    let config = BtsConfig::bts_default();
    let (report_a, a) = serve_captured(&config);
    let (report_b, b) = serve_captured(&config);
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len());
    for (i, (ea, eb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ea, eb, "event {i} differs between identical runs");
    }
    assert_eq!(report_a.makespan_seconds, report_b.makespan_seconds);
}

/// The faulted serve of `property_fault`: transient faults, retries and a
/// bounded queue that sheds.
fn faulted_serve() -> ServeReport {
    serve(
        &stream(),
        ServeOptions::new(2)
            .with_queue_capacity(2)
            .with_fault_plan(FaultPlan::none().with_seed(7).with_transient_rate(0.5)),
    )
    .expect("faulted stream serves")
}

/// How many events of `events` are named `name`.
fn named(events: &[Event], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

/// A faulted run's counts are its events: one `jobs` event per completion,
/// one `shed` instant per shed job, one `retry` instant per redriven
/// execution and one `fault` instant per faulted one (each retry, plus the
/// last attempt of a job whose budget ran out).
#[test]
fn serve_counts_equal_their_event_twins() {
    let run = telemetry::capture();
    let report = faulted_serve();
    let events = simulated(run.finish());
    assert!(report.job_count() > 0 && report.shed_count() > 0 && report.retry_count() > 0);

    let completions = events.iter().filter(|e| e.track == "jobs").count();
    assert_eq!(completions, report.job_count());
    assert_eq!(named(&events, "shed"), report.shed_count());
    assert_eq!(named(&events, "retry") as u64, report.retry_count());
    let out_of_retries = (report.shed.iter())
        .filter(|s| s.reason == ShedReason::RetryBudgetExhausted)
        .count() as u64;
    assert_eq!(
        named(&events, "fault") as u64,
        report.retry_count() + out_of_retries
    );
}

/// Deadlines shorter than any job's service time: every job admitted before
/// its deadline completes late, and each late completion is one
/// `deadline-miss` instant.
#[test]
fn deadline_miss_instants_count_the_late_completions() {
    let jobs: Vec<JobRequest> = (stream().into_iter())
        .map(|job| {
            let deadline = job.arrival_seconds + 1e-4;
            job.with_deadline(deadline)
        })
        .collect();
    let run = telemetry::capture();
    let report = serve(&jobs, ServeOptions::new(2)).expect("stream serves");
    let events = simulated(run.finish());
    let late = (report.jobs.iter())
        .filter(|j| j.deadline_met() == Some(false))
        .count();
    assert!(late > 0, "some job was admitted before its deadline");
    assert_eq!(named(&events, "deadline-miss"), late);
}

/// Jobs one second apart, each done long before the next arrives: no job
/// ever waits, so every `queue` sample reads `waiting: 0` — jobs that have
/// not arrived yet are not in the queue.
#[test]
fn the_queue_lane_counts_only_arrived_jobs() {
    let ins = CkksInstance::ins1();
    let jobs: Vec<JobRequest> = (0..4)
        .map(|i| JobRequest::new(i, 0, "bootstrap", ins.clone(), i as f64))
        .collect();
    let run = telemetry::capture();
    let report = serve(&jobs, ServeOptions::new(1)).expect("stream serves");
    let events = simulated(run.finish());
    assert_eq!(report.job_count(), jobs.len());
    assert!(report.jobs.iter().all(|j| j.queue_seconds() == 0.0));
    let samples: Vec<&Event> = events.iter().filter(|e| e.track == "queue").collect();
    assert_eq!(
        samples.len(),
        2 * jobs.len(),
        "one per admission and completion"
    );
    for sample in samples {
        let waiting = sample
            .arg_f64("waiting")
            .expect("queue samples carry waiting");
        assert_eq!(waiting, 0.0, "queue sample at {} ns", sample.ts_ns);
    }
}

/// Twelve bootstrap jobs at t = 0 from four tenants.
fn burst() -> Vec<JobRequest> {
    let ins = CkksInstance::ins1();
    (0..12)
        .map(|i| JobRequest::new(i, (i % 4) as u32, "bootstrap", ins.clone(), 0.0))
        .collect()
}

/// A 4-chip fleet whose chip 1 dies halfway through the healthy makespan:
/// its queued and in-flight jobs migrate to the three survivors.
fn wounded_fleet(jobs: &[JobRequest]) -> ClusterOptions {
    let spec = ChipSpec::preset(ArchPreset::Bts, 4).with_interconnect(Interconnect::nvlink_class());
    let options = ClusterOptions::new(spec).with_placement(PlacementPolicy::TenantAffinity);
    let healthy = serve_cluster(jobs, options.clone()).expect("healthy fleet serves");
    options
        .with_fault_plan(FaultPlan::none().with_chip_failure(1, healthy.makespan_seconds() * 0.5))
}

/// Runs `run` inside a fresh capture. With a barrier, the run starts only
/// once every party has installed its sink and the capture ends only once
/// every party is done — each run then executes wholly inside the others'
/// capture windows, whatever the OS scheduler does.
fn captured(barrier: Option<&Barrier>, run: impl FnOnce()) -> Vec<Event> {
    let wait = || {
        if let Some(barrier) = barrier {
            barrier.wait();
        }
    };
    let capture = telemetry::capture();
    wait();
    run();
    wait();
    simulated(capture.finish())
}

/// Three runs at once on three threads — a captured faulted serve, a captured
/// cluster failover and an uncaptured serve: each capture equals, event for
/// event, the same run captured alone, so neither lost events to nor gained
/// events from the other two threads.
#[test]
fn concurrent_captures_hold_exactly_their_own_runs() {
    let jobs = burst();
    let fleet = wounded_fleet(&jobs);
    let wounded_serve = || {
        serve_cluster(&jobs, fleet.clone()).expect("wounded fleet serves");
    };
    let run_faulted = || {
        faulted_serve();
    };
    let faulted_alone = captured(None, run_faulted);
    let wounded_alone = captured(None, wounded_serve);
    assert!(faulted_alone.iter().any(|e| e.name == "retry"));
    assert!(wounded_alone.iter().any(|e| e.name == "migrate"));

    let barrier = Barrier::new(3);
    let (faulted_together, wounded_together) = std::thread::scope(|s| {
        let faulted = s.spawn(|| captured(Some(&barrier), run_faulted));
        let wounded = s.spawn(|| captured(Some(&barrier), wounded_serve));
        s.spawn(|| {
            barrier.wait();
            serve(&stream(), ServeOptions::new(3)).expect("stream serves");
            barrier.wait();
        });
        (faulted.join().unwrap(), wounded.join().unwrap())
    });
    assert_eq!(faulted_together.len(), faulted_alone.len());
    assert_eq!(wounded_together.len(), wounded_alone.len());
    assert!(faulted_together == faulted_alone, "faulted stream changed");
    assert!(wounded_together == wounded_alone, "failover stream changed");
}

/// Failover serves every chip exactly once — the dead chip with the jobs it
/// was about to lose, each survivor after its refugees joined its shard — so
/// the stream names every migration exactly once, every job completion in it
/// is one the final report holds (and vice versa: a chip served twice would
/// complete its jobs twice), and the report itself does not depend on a
/// capture being installed.
#[test]
fn failover_stream_names_every_migration_and_completion_once() {
    let jobs = burst();
    let fleet = wounded_fleet(&jobs);
    let bare = serve_cluster(&jobs, fleet.clone()).expect("wounded fleet serves");
    let run = telemetry::capture();
    let report = serve_cluster(&jobs, fleet).expect("wounded fleet serves");
    let events = simulated(run.finish());
    assert_eq!(
        format!("{report:?}"),
        format!("{bare:?}"),
        "telemetry is an observer"
    );
    assert!(
        report.migration_count() > 0,
        "the dead chip had queued work"
    );
    assert!(report.shed.is_empty());

    // Each job's `migrate` instants number its dispatches minus one.
    let migrates = events.iter().filter(|e| e.name == "migrate");
    assert_eq!(migrates.clone().count() as u64, report.migration_count());
    for job in &report.jobs {
        let mine = migrates
            .clone()
            .filter(|e| e.arg_u64("job") == Some(job.id));
        assert_eq!(mine.count() as u32, job.migrations, "job {}", job.id);
    }

    let mut streamed: Vec<(u64, String, u64)> = events
        .iter()
        .filter(|e| e.track == "jobs")
        .map(|e| {
            let finish = e.arg_f64("finish_s").expect("completions carry finish_s");
            let job = e.arg_u64("job").expect("completions carry the job id");
            (job, e.process.clone(), finish.to_bits())
        })
        .collect();
    let mut reported: Vec<(u64, String, u64)> = report
        .jobs
        .iter()
        .map(|j| (j.id, format!("chip{}", j.chip), j.finish_seconds.to_bits()))
        .collect();
    streamed.sort();
    reported.sort();
    assert_eq!(streamed, reported);
}

/// A seven-op trace on a cache of two top-level ciphertexts: the five
/// inputs `a, b, c, d, e` and the seven (dead) products, as ids.
fn two_ciphertext_cache() -> (Simulator, OpTrace, [u64; 5], [u64; 7]) {
    let ins = CkksInstance::ins1();
    let top = ins.max_level();
    let mut b = TraceBuilder::new(&ins);
    let [a, bb, c, d, e] = [(); 5].map(|()| b.fresh_ct(top));
    let outputs = [
        b.hmult_at(a, bb, top), // both load; the dead product is not cached
        b.hmult_at(bb, c, top), // b died at this read: c takes its place
        b.hmult_at(a, d, top),  // op 3 reads d, c waits for op 3 too: c goes
        b.hmult_at(d, c, top),  // c reloads over d, dead since this read
        b.hmult_at(a, e, top),  // e, needed after a and c, stays outside
        b.hmult_at(a, c, top),
        b.hmult_at(e, e, top), // e loads at last, over the dead c
    ];
    let trace = b.build();
    // 300 MiB less INS-1's key-switch temporaries: room for two ciphertexts.
    let sim = Simulator::new(
        BtsConfig::bts_default().with_scratchpad_bytes(300 * 1024 * 1024),
        ins.clone(),
    );
    assert_eq!(sim.cache_capacity() / ins.ct_bytes(top), 2);
    (sim, trace, [a, bb, c, d, e], outputs)
}

/// The `scratchpad` instants of a stream as `(name, op, ct, reason)`.
fn scratchpad_instants(events: &[Event]) -> Vec<(&str, u64, u64, Option<&str>)> {
    let instants = events.iter().filter(|ev| ev.track == "scratchpad");
    instants
        .map(|ev| {
            let reason = match ev.arg("reason") {
                Some(ArgValue::Str(reason)) => Some(reason.as_str()),
                _ => None,
            };
            let (op, ct) = (ev.arg_u64("op"), ev.arg_u64("ct"));
            (ev.name.as_str(), op.unwrap(), ct.unwrap(), reason)
        })
        .collect()
}

/// "Why did this op miss" from the stream alone: a seven-op trace on a cache
/// of two ciphertexts provokes a dead victim, a live victim and both kinds
/// of bypass, and the `scratchpad` instants tell each one — which
/// ciphertext, at which op, why — one instant per counted event.
#[test]
fn scratchpad_instants_explain_every_eviction_and_bypass() {
    let (sim, trace, [_, bb, c, d, e], outputs) = two_ciphertext_cache();
    let run = telemetry::capture();
    let report = sim.run(&trace);
    let run = run.finish();
    let instants = scratchpad_instants(&run.events);
    let [o0, o1, o2, o3, o4, o5, o6] = outputs;
    assert_eq!(
        instants,
        vec![
            ("bypass", 0, o0, None),
            ("evict", 1, bb, Some("never")),
            ("bypass", 1, o1, None),
            ("evict", 2, c, Some("later")),
            ("bypass", 2, o2, None),
            ("evict", 3, d, Some("never")),
            ("bypass", 3, o3, None),
            ("bypass", 4, e, None),
            ("bypass", 4, o4, None),
            ("bypass", 5, o5, None),
            ("evict", 6, c, Some("never")),
            ("bypass", 6, o6, None),
        ]
    );
    // The per-op engine events carry the op's counts: they sum to the
    // report's, and to one instant per eviction and bypass.
    let engine = run.events.iter().filter(|ev| ev.track == "engine");
    let sum = |arg: &str| -> u64 {
        let counts = engine
            .clone()
            .map(|ev| ev.arg_u64(arg).expect("engine events count"));
        counts.sum()
    };
    assert_eq!(engine.clone().count(), trace.len());
    assert_eq!(sum("cache_hits"), report.cache_hits as u64);
    assert_eq!(sum("cache_misses"), report.cache_misses as u64);
    let count = |name: &str| instants.iter().filter(|i| i.0 == name).count() as u64;
    assert_eq!(count("evict"), sum("evictions"));
    assert_eq!(count("bypass"), sum("bypasses"));
    // Five first touches, and the two reloads the stream explains: c after
    // its eviction at op 2, e after its bypass at op 4.
    assert_eq!(report.cache_misses, 7);
    assert_eq!(report.cache_hits, 7);
}

/// The paper's LRU baseline on the same trace and cache: every eviction is
/// labelled `lru`, the victim is always the least recently touched
/// resident, and nothing that fits is bypassed — dead products included.
#[test]
fn lru_instants_evict_the_least_recently_used_first() {
    let (sim, trace, [a, bb, c, d, e], outputs) = two_ciphertext_cache();
    let run = telemetry::capture();
    let report = sim.try_run_lru(&trace).unwrap();
    let run = run.finish();
    let instants = scratchpad_instants(&run.events);
    assert!(
        instants
            .iter()
            .all(|i| i.0 == "evict" && i.3 == Some("lru")),
        "{instants:?}"
    );
    let evicted: Vec<(u64, u64)> = instants.iter().map(|i| (i.1, i.2)).collect();
    // Recency after each op, least recent first, touches in operand order
    // and the product last.
    let [o0, o1, o2, o3, o4, o5, _] = outputs;
    assert_eq!(
        evicted,
        vec![
            (0, a), // [b, o0]
            (1, o0),
            (1, bb), // b hits; [c, o1]
            (2, c),
            (2, o1),
            (2, a), // [d, o2]
            (3, o2),
            (3, d), // d hits; [c, o3]
            (4, c),
            (4, o3),
            (4, a), // [e, o4]
            (5, e),
            (5, o4),
            (5, a), // [c, o5]
            (6, c),
            (6, o5), // e's second read hits; [e, o6]
        ]
    );
    // Three hits (b at op 1, d at op 3, e's second read at op 6) of 14.
    assert_eq!((report.cache_hits, report.cache_misses), (3, 11));
}

/// One encrypted `mul_rescale` (NTTs, BConv, key-switch) inside a capture;
/// returns the wall-clock spans it recorded.
fn functional_run_spans() -> Vec<Event> {
    let run = telemetry::capture();
    assert_eq!(telemetry::active_span_depth(), 0);

    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let ctx = CkksContext::new_toy(1 << 11, 4, 2).expect("toy context");
    let (sk, keys) = ctx.generate_keys(&mut rng).expect("keys");
    let eval = ctx.evaluator(&keys);
    let x: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(0.25 + (i % 5) as f64 * 0.1, 0.0))
        .collect();
    let ct = ctx
        .encrypt(&ctx.encode(&x).expect("encode"), &sk, &mut rng)
        .expect("encrypt");
    let prod = eval
        .mul_rescale(&ct, &ct)
        .expect("mult triggers key-switch");
    let decoded = ctx
        .decode(&ctx.decrypt(&prod, &sk).expect("decrypt"))
        .expect("decode");
    assert!((decoded[0].re - x[0].re * x[0].re).abs() < 1e-2);

    assert_eq!(telemetry::active_span_depth(), 0, "all spans must close");
    let spans = run.finish().events.into_iter();
    spans.filter(|ev| ev.process == "realtime").collect()
}

/// A real functional CKKS run leaves the span machinery clean: depth back to
/// zero, every Complete interval properly nested per track, and every
/// non-root span's parent id pointing at a recorded span.
#[test]
fn spans_close_and_nest_over_a_functional_run() {
    let spans = functional_run_spans();
    assert!(spans.iter().any(|ev| ev.name == "ckks.key_switch"));
    assert!(spans.iter().any(|ev| ev.name == "ntt.forward"));
    telemetry::check_proper_nesting(&spans).expect("spans nest per track");

    let span_ids: HashSet<u64> = spans
        .iter()
        .filter_map(|ev| ev.arg_u64("span_id"))
        .collect();
    assert_eq!(span_ids.len(), spans.len(), "span ids are unique");
    for ev in &spans {
        let parent = ev
            .arg_u64("parent_span_id")
            .expect("every span records its parent");
        assert!(
            parent == 0 || span_ids.contains(&parent),
            "span {:?} has dangling parent {parent}",
            ev.name
        );
    }
}
