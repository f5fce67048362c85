//! The DES workloads: `cup-des` + `cup-simnet` over `cup-overlay`.
//!
//! A run repeats whole rounds; each round builds a fresh network from the
//! same fixed scenario (set-up, timed apart) and runs its event loop to
//! the end of the drain (the measured phase). The benchmark drives the
//! public pieces `run_experiment` is made of, so set-up and event loop
//! are timed separately; the traced run checks that these pieces
//! reproduce `run_experiment`'s counters exactly.

use std::time::Instant;

use cup_core::stats::NodeStats;
use cup_core::NodeConfig;
use cup_des::{DetRng, Engine, KeyId, NodeId, SimDuration, SimTime};
use cup_overlay::{AnyOverlay, Overlay, OverlayKind};
use cup_simnet::{run_experiment, Ev, ExperimentConfig, ExperimentResult, Network};
use cup_workload::query::BurstConfig;
use cup_workload::replica::ReplicaPlan;
use cup_workload::scenario::KeyDistribution;
use cup_workload::{KeySelector, QueryGen, Scenario};

use crate::probe::{cpu_now, AllocSnap, SelfTime, SpanLog};
use crate::{live, median, Checks, Metric, Outcome, RunArgs};

/// Scenario seed of both DES workloads. Fixed on purpose: which client
/// queries the expired-first-update fault strands depends on the
/// scenario seed, and the failed share must not (see README.md).
pub const SCENARIO_SEED: u64 = 42;

/// `des-can-100k`: the paper's favourable flash-crowd conditions at
/// 100k nodes on CAN.
pub fn can_100k() -> ExperimentConfig {
    let mut config = ExperimentConfig::cup(Scenario::large_scale(100_000, 10_000, SCENARIO_SEED));
    config.overlay = OverlayKind::Can;
    config
}

/// `des-chord-writes-10k`: many short-lived, dying replicas under a
/// steady Zipf query stream on Chord, with §3.1 justification tracking.
pub fn chord_writes_10k() -> ExperimentConfig {
    let scenario = Scenario {
        nodes: 10_000,
        keys: 512,
        replicas_per_key: 4,
        entry_lifetime: SimDuration::from_secs(60),
        replica_mean_life: Some(SimDuration::from_secs(600)),
        query_rate: 50.0,
        query_start: SimTime::from_secs(300),
        query_end: SimTime::from_secs(1_300),
        sim_end: SimTime::from_secs(2_000),
        key_distribution: KeyDistribution::Zipf { exponent: 0.9 },
        seed: SCENARIO_SEED,
        ..Scenario::default()
    };
    let mut config = ExperimentConfig::cup(scenario);
    config.overlay = OverlayKind::Chord;
    config.track_justification = true;
    config
}

/// Event kinds the traced run counts and times separately.
const KINDS: [&str; 4] = ["deliver", "post_query", "next_query", "replica"];

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::Deliver { .. } => 0,
        Ev::PostQuery { .. } => 1,
        Ev::NextQuery => 2,
        Ev::Replica(_) => 3,
        // The benchmark's scenarios schedule no capacity, churn or
        // fault events; `check_round` would catch one through the
        // per-kind sum.
        _ => usize::MAX,
    }
}

/// What the traced run records per round on top of the plain run.
#[derive(Debug, Default)]
pub struct LayerRecord {
    pub overlay_build_s: f64,
    pub overlay_live_bytes: i64,
    pub arena_init_s: f64,
    pub arena_live_bytes: i64,
    pub events: [u64; 4],
    pub dispatch: [SelfTime; 4],
    pub loop_alloc: AllocSnap,
}

/// One finished round. `*_cpu` fields are CPU seconds of the process
/// (see `probe::cpu_now`), `loop_s` is wall seconds.
struct Round {
    result: ExperimentResult,
    setup_cpu: f64,
    loop_s: f64,
    loop_cpu: f64,
    replica_events: u64,
    peak_rss_mib: f64,
    waiting_clients: u64,
    orphaned_waiters: u64,
    layer: Option<LayerRecord>,
}

/// Builds the network and schedules the workload exactly as
/// `run_experiment` does for a scenario without capacity, churn or
/// fault scripts.
fn setup(
    config: &ExperimentConfig,
    mut spans: Option<&mut SpanLog>,
    layer: Option<&mut LayerRecord>,
) -> (Engine<Network, Ev>, SimTime) {
    let scenario = &config.scenario;
    let root = DetRng::seed_from(scenario.seed);
    let mut overlay_rng = root.derive(1);
    let workload_rng = root.derive(2);
    let mut replica_rng = root.derive(3);
    let latency_rng = root.derive(4);

    let a0 = AllocSnap::now();
    let t0 = Instant::now();
    if let Some(s) = spans.as_deref_mut() {
        s.enter("overlay.build");
    }
    let overlay = AnyOverlay::build(config.overlay, scenario.nodes, &mut overlay_rng)
        .expect("overlay construction");
    let build_s = t0.elapsed().as_secs_f64();
    let a1 = AllocSnap::now();
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
        s.enter("simnet.new");
    }
    let t1 = Instant::now();
    let mut net = Network::new(
        overlay,
        config.node_config,
        config.latency.clone(),
        latency_rng,
    );
    let arena_s = t1.elapsed().as_secs_f64();
    let a2 = AllocSnap::now();
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
        s.enter("workload.plans");
    }
    if config.track_justification {
        net.justify = Some(cup_core::JustificationTracker::new());
    }
    let selector = match scenario.key_distribution {
        KeyDistribution::Uniform => KeySelector::uniform(scenario.keys),
        KeyDistribution::Zipf { exponent } => KeySelector::zipf(scenario.keys, exponent),
    };
    net.query_gen = Some(QueryGen::bursty(
        scenario.query_rate,
        selector,
        scenario.nodes,
        scenario.query_start,
        scenario.query_end,
        workload_rng,
        BurstConfig {
            size: scenario.burst_size,
            spread: scenario.burst_spread,
        },
    ));
    let plan = ReplicaPlan::build(scenario, &mut replica_rng);
    let births = plan.births();
    net.replica_plan = Some(plan);
    let mut engine = Engine::new(net);
    for birth in births {
        engine.schedule(birth.at, Ev::Replica(birth));
    }
    engine.schedule(scenario.query_start, Ev::NextQuery);
    if let Some(s) = spans {
        s.exit();
    }
    if let Some(l) = layer {
        l.overlay_build_s = build_s;
        l.overlay_live_bytes = a1.since(a0).live;
        l.arena_init_s = arena_s;
        l.arena_live_bytes = a2.since(a1).live;
    }
    let stop = scenario.query_end + config.drain;
    (engine, stop.min(scenario.sim_end))
}

/// The counters `run_experiment` returns, read off a finished network.
pub fn result_of_net(net: &Network, events: u64, node_count: usize) -> ExperimentResult {
    let (justified, tracked) = net
        .justify
        .as_ref()
        .map_or((0, 0), |j| (j.justified(), j.total()));
    ExperimentResult {
        net: net.metrics,
        nodes: net.aggregate_stats(),
        justified_updates: justified,
        tracked_updates: tracked,
        node_count,
        events,
    }
}

/// Runs the event loop to `stop`; with a layer record, times and counts
/// every dispatch by event kind. Returns the loop's wall seconds and
/// the replica events dispatched.
pub fn drive(
    engine: &mut Engine<Network, Ev>,
    stop: SimTime,
    layer: Option<&mut LayerRecord>,
) -> (f64, u64) {
    let mut replica_events = 0u64;
    let t0 = Instant::now();
    match layer {
        None => {
            engine.run_until(stop, |net, queue, now, ev| {
                replica_events += u64::from(matches!(ev, Ev::Replica(_)));
                net.dispatch(queue, now, ev);
            });
        }
        Some(l) => {
            let a0 = AllocSnap::now();
            engine.run_until(stop, |net, queue, now, ev| {
                let kind = kind_of(&ev);
                let t = Instant::now();
                net.dispatch(queue, now, ev);
                if let Some(slot) = l.dispatch.get_mut(kind) {
                    slot.add_since(t);
                    l.events[kind] += 1;
                }
            });
            l.loop_alloc = AllocSnap::now().since(a0);
            replica_events = l.events[3];
        }
    }
    (t0.elapsed().as_secs_f64(), replica_events)
}

/// Client queries still waiting at a node whose pending-first-update
/// flag is set: the queries no answer will ever reach.
fn stranded_waiters(net: &Network, keys: u32) -> (u64, u64) {
    let mut waiting = 0;
    let mut waiting_without_pfu = 0;
    for id in net.overlay.nodes() {
        let Some(node) = net.node(id) else { continue };
        for k in 0..keys {
            if let Some(st) = node.key_state(KeyId(k)) {
                let n = st.waiting_clients.len() as u64;
                waiting += n;
                if !st.pending_first_update {
                    waiting_without_pfu += n;
                }
            }
        }
    }
    (waiting, waiting_without_pfu)
}

fn run_round(config: &ExperimentConfig, traced: Option<&mut SpanLog>) -> Round {
    let node_count = config.scenario.nodes;
    let mut layer = traced.as_ref().map(|_| LayerRecord::default());
    let mut spans = traced;
    if let Some(s) = spans.as_deref_mut() {
        s.enter("des.round");
        s.enter("des.setup");
    }
    let cpu0 = cpu_now();
    let (mut engine, stop) = setup(config, spans.as_deref_mut(), layer.as_mut());
    let setup_cpu = cpu_now() - cpu0;
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
        s.enter("des.engine.run_until");
    }
    let cpu1 = cpu_now();
    let (loop_s, replica_events) = drive(&mut engine, stop, layer.as_mut());
    let loop_cpu = cpu_now() - cpu1;
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
    }
    let peak_rss_mib = crate::probe::peak_rss_mib().expect("/proc/self/status is readable");
    let events = engine.processed();
    let net = engine.into_state();
    let result = result_of_net(&net, events, node_count);
    let (waiting_clients, orphaned_waiters) = stranded_waiters(&net, config.scenario.keys);
    drop(net);
    if let Some(s) = spans {
        s.exit();
    }
    Round {
        result,
        setup_cpu,
        loop_s,
        loop_cpu,
        replica_events,
        peak_rss_mib,
        waiting_clients,
        orphaned_waiters,
        layer,
    }
}

/// Client queries posted and never answered in one round.
fn failed_of(r: &ExperimentResult) -> u64 {
    r.nodes.client_queries - r.net.client_responses
}

/// Checks one round against independent counts and required properties.
fn check_round(round: &Round, checks: &mut Checks) {
    let r = &round.result;
    let m = &r.net;
    let n = &r.nodes;
    let per_kind = m.query_hops
        + m.first_time_hops
        + m.refresh_hops
        + m.delete_hops
        + m.append_hops
        + m.clear_bit_hops;
    checks.eq(
        "per-kind hops sum to the §3.3 total",
        per_kind,
        m.total_cost(),
    );
    checks.eq(
        "query hops = queries received by nodes",
        m.query_hops,
        n.neighbor_queries,
    );
    checks.eq(
        "update hops = updates received by nodes",
        m.first_time_hops + m.refresh_hops + m.delete_hops + m.append_hops,
        n.updates_received,
    );
    checks.eq(
        "clear-bit hops = clear-bits received",
        m.clear_bit_hops,
        n.clear_bits_received,
    );
    checks.eq(
        "latency samples = answers",
        m.query_latency.count(),
        m.client_responses,
    );
    checks.eq(
        "every unanswered query waits on a pending first update",
        failed_of(r),
        round.waiting_clients,
    );
    checks.eq(
        "no waiting client outside a pending first update",
        round.orphaned_waiters,
        0,
    );
    checks.truth(
        "queries fail only where an update expired in flight",
        failed_of(r) == 0 || n.updates_expired_on_arrival > 0,
    );
    checks.truth("no message dropped", m.dropped_messages == 0);
    checks.truth("no fault plane", m.faults == Default::default());
    if let Some(l) = &round.layer {
        checks.eq(
            "deliver events = §3.3 hop total",
            l.events[0],
            m.total_cost() + m.audit_hops,
        );
        checks.eq(
            "events per kind sum to the engine's count",
            l.events.iter().sum::<u64>(),
            r.events,
        );
    }
}

/// Runs one DES workload for `args.seconds` of event loop.
pub fn run(config: &ExperimentConfig, args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let traced = args.trace;

    // Traced mode: one plain round first, the base of the overhead ratio.
    let plain = traced.then(|| run_round(config, None));
    if traced {
        crate::probe::count_allocations(true);
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds || rounds.len() < 2 {
        let round = run_round(config, traced.then_some(&mut spans));
        measured += round.loop_s;
        check_round(&round, &mut checks);
        if let Some(first) = rounds.first() {
            checks.truth(
                "every round repeats the first round's counters",
                first.result == round.result,
            );
        }
        rounds.push(round);
    }
    crate::probe::count_allocations(false);
    let first = &rounds[0].result;
    if let Some(p) = &plain {
        checks.truth("tracing changes no counter", p.result == *first);
    }

    // Outside the timed region: the paper's headline against the
    // standard-caching baseline on the same scenario, and (traced) the
    // pieces against `run_experiment` itself.
    let baseline = run_experiment(&ExperimentConfig {
        node_config: NodeConfig::standard_caching(),
        ..config.clone()
    });
    checks.truth(
        "standard caching has a higher miss latency than CUP",
        baseline.miss_latency() > first.miss_latency(),
    );
    eprintln!(
        "miss latency: CUP {:.3} hops/miss, standard caching {:.3}",
        first.miss_latency(),
        baseline.miss_latency()
    );
    if traced {
        let reference = run_experiment(config);
        checks.truth(
            "the driven pieces reproduce run_experiment",
            reference == *first,
        );
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let attempted = first.nodes.client_queries * rounds.len() as u64;
    let failed = failed_of(first) * rounds.len() as u64;
    let mut metrics = Vec::new();
    if !traced {
        metrics = vec![
            Metric::new("setup_s", per_round(&|r| r.setup_cpu), "s"),
            Metric::new(
                "events_per_cpu_s",
                per_round(&|r| r.result.events as f64 / r.loop_cpu),
                "1/s",
            ),
            Metric::new(
                "queries_per_cpu_s",
                per_round(&|r| r.result.net.client_responses as f64 / r.loop_cpu),
                "1/s",
            ),
            Metric::new(
                "updates_per_cpu_s",
                per_round(&|r| r.replica_events as f64 / r.loop_cpu),
                "1/s",
            ),
            Metric::new("total_cost_hops", first.total_cost() as f64, "hops"),
            Metric::new("miss_latency_hops", first.miss_latency(), "hops/miss"),
            // One network's life: later rounds only add allocator
            // fragmentation from re-creating networks.
            Metric::new("peak_rss_mb", rounds[0].peak_rss_mib, "MiB"),
        ];
    } else {
        let plain = plain.expect("traced mode ran a plain round");
        layer_metrics(
            config,
            &rounds,
            &plain,
            args,
            &mut spans,
            &mut metrics,
            &mut checks,
        )?;
    }
    crate::write_spans(args, &spans)?;
    Ok(Outcome {
        attempted,
        failed,
        checks,
        metrics,
    })
}

/// Times `Overlay::route` on a seeded sample of (node, key) pairs.
pub fn route_sample(overlay: &AnyOverlay, keys: u32, seed: u64) -> (f64, f64) {
    let nodes = overlay.nodes();
    let mut rng = DetRng::seed_from(seed ^ 0x0005_EED0_F200);
    let pairs: Vec<(NodeId, KeyId)> = (0..20_000)
        .map(|_| {
            let node = nodes[rng.choose_index(nodes.len())];
            (node, KeyId(rng.next_below(u64::from(keys)) as u32))
        })
        .collect();
    let t0 = Instant::now();
    let mut hops = 0usize;
    for &(node, key) in &pairs {
        let path = overlay
            .route(node, key)
            .expect("routing on a static overlay");
        hops += std::hint::black_box(path).len().saturating_sub(1);
    }
    let ns = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;
    (ns, hops as f64 / pairs.len() as f64)
}

/// Per-layer metrics of the DES workload's traced rounds, plus the live
/// runtime's layer measured on the same population.
fn layer_metrics(
    config: &ExperimentConfig,
    rounds: &[Round],
    plain: &Round,
    args: &RunArgs,
    spans: &mut SpanLog,
    out: &mut Vec<Metric>,
    checks: &mut Checks,
) -> Result<(), String> {
    let samples: Vec<(&LayerRecord, f64)> = rounds
        .iter()
        .filter_map(|r| Some((r.layer.as_ref()?, r.loop_s)))
        .collect();
    let mut rng = DetRng::seed_from(config.scenario.seed).derive(1);
    let overlay =
        AnyOverlay::build(config.overlay, config.scenario.nodes, &mut rng).expect("overlay");
    let route = route_sample(&overlay, config.scenario.keys, args.seed);
    drop(overlay);
    let result = &rounds[0].result;
    push_layer_metrics(&samples, result, config.scenario.nodes, route, out);
    push_core_metrics(result, out);
    let events = result.events as f64;
    let allocs = median(
        samples
            .iter()
            .map(|(l, _)| l.loop_alloc.calls as f64)
            .collect(),
    );
    let bytes = median(
        samples
            .iter()
            .map(|(l, _)| l.loop_alloc.bytes as f64)
            .collect(),
    );
    out.push(Metric::new("alloc.per_event", allocs / events, "count"));
    out.push(Metric::new("alloc.bytes_per_event", bytes / events, "B"));
    let per_round = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    out.push(Metric::new(
        "wall.events_per_s",
        per_round(&|r| r.result.events as f64 / r.loop_s),
        "1/s",
    ));
    out.push(Metric::new(
        "wall.queries_per_s",
        per_round(&|r| r.result.net.client_responses as f64 / r.loop_s),
        "1/s",
    ));
    out.push(Metric::new(
        "wall.updates_per_s",
        per_round(&|r| r.replica_events as f64 / r.loop_s),
        "1/s",
    ));
    let traced_rate = per_round(&|r| r.result.events as f64 / r.loop_cpu);
    let plain_rate = plain.result.events as f64 / plain.loop_cpu;
    out.push(Metric::new(
        "trace.overhead_ratio",
        traced_rate / plain_rate,
        "ratio",
    ));

    // The live runtime on this workload's population: a short live
    // script, so the runtime layer is measured on every workload.
    live::probe(
        config.overlay,
        config.scenario.nodes,
        args.seed,
        spans,
        checks,
    )?
    .push_runtime_metrics(out);
    Ok(())
}

/// The overlay, simnet, engine and allocation metrics of traced DES
/// loops (`samples` holds each loop's record and wall seconds).
pub fn push_layer_metrics(
    samples: &[(&LayerRecord, f64)],
    result: &ExperimentResult,
    nodes: usize,
    (route_ns, route_hops): (f64, f64),
    out: &mut Vec<Metric>,
) {
    let med = |f: &dyn Fn(&LayerRecord, f64) -> f64| {
        median(samples.iter().map(|(l, s)| f(l, *s)).collect())
    };
    let first = samples[0].0;
    let nodes = nodes as f64;
    let events = result.events as f64;
    out.push(Metric::new(
        "overlay.build_s",
        med(&|l, _| l.overlay_build_s),
        "s",
    ));
    out.push(Metric::new(
        "overlay.bytes_per_node",
        first.overlay_live_bytes as f64 / nodes,
        "B",
    ));
    out.push(Metric::new("overlay.route_ns", route_ns, "ns"));
    out.push(Metric::new("overlay.route_hops_mean", route_hops, "hops"));
    out.push(Metric::new(
        "simnet.arena_init_s",
        med(&|l, _| l.arena_init_s),
        "s",
    ));
    out.push(Metric::new(
        "simnet.bytes_per_node",
        first.arena_live_bytes as f64 / nodes,
        "B",
    ));
    for (i, kind) in KINDS.iter().enumerate() {
        if *kind != "next_query" {
            out.push(Metric::new(
                format!("simnet.{kind}_ns"),
                med(&|l, _| l.dispatch[i].mean_ns()),
                "ns",
            ));
        }
        out.push(Metric::new(
            format!("simnet.events.{kind}"),
            first.events[i] as f64,
            "count",
        ));
    }
    out.push(Metric::new(
        "des.engine_ns_per_event",
        med(&|l, loop_s| {
            let dispatch: u64 = l.dispatch.iter().map(|d| d.ns).sum();
            (loop_s * 1e9 - dispatch as f64) / events
        }),
        "ns",
    ));
    let latency = &result.net.query_latency;
    out.push(Metric::new(
        "des.query_p50_sim_us",
        latency.quantile(500) as f64,
        "sim_us",
    ));
    out.push(Metric::new(
        "des.query_p99_sim_us",
        latency.quantile(990) as f64,
        "sim_us",
    ));
}

/// The cup-core per-kind and per-node counters of one result.
pub fn push_core_metrics(r: &ExperimentResult, out: &mut Vec<Metric>) {
    let m = &r.net;
    let n: &NodeStats = &r.nodes;
    out.push(Metric::new("core.query_hops", m.query_hops as f64, "hops"));
    out.push(Metric::new(
        "core.first_time_hops",
        m.first_time_hops as f64,
        "hops",
    ));
    out.push(Metric::new(
        "core.refresh_hops",
        m.refresh_hops as f64,
        "hops",
    ));
    out.push(Metric::new(
        "core.delete_hops",
        m.delete_hops as f64,
        "hops",
    ));
    out.push(Metric::new(
        "core.clear_bit_hops",
        m.clear_bit_hops as f64,
        "hops",
    ));
    out.push(Metric::new("core.cutoffs", n.cutoffs as f64, "count"));
    out.push(Metric::new(
        "core.coalesced_queries",
        n.coalesced_queries as f64,
        "count",
    ));
    out.push(Metric::new(
        "core.updates_expired_on_arrival",
        n.updates_expired_on_arrival as f64,
        "count",
    ));
    let hit_ratio = if n.client_queries == 0 {
        0.0
    } else {
        n.client_hits as f64 / n.client_queries as f64
    };
    out.push(Metric::new("core.hit_ratio", hit_ratio, "ratio"));
    let justified = if r.tracked_updates == 0 {
        0.0
    } else {
        r.justified_updates as f64 / r.tracked_updates as f64
    };
    out.push(Metric::new("core.justified_ratio", justified, "ratio"));
}
