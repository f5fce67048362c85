//! The live workloads: `cup-runtime` on a wall clock, checked against a
//! DES replay of the same script.
//!
//! A run repeats whole blocks. A block starts a fresh network (set-up:
//! start, one replica birth per key, first quiesce), then runs a fixed
//! script of closed-loop rounds (the measured phase) and shuts down.
//! A query round posts one detached query per key, each at a seeded
//! random node, from this one thread, then waits in `quiesce`; a refresh
//! round renews every key's replica once, then waits in `quiesce`.
//! Rounds order each key's traffic, so hop counts and protocol counters
//! do not depend on thread timing and every block repeats the first.

use std::time::Instant;

use cup_core::clock::Clock;
use cup_core::obs::{Hist, TraceKind};
use cup_core::stats::NodeStats;
use cup_core::NodeConfig;
use cup_des::{DetRng, Engine, KeyId, LatencyModel, NodeId, ReplicaId, SimDuration, SimTime};
use cup_faults::FaultCounters;
use cup_overlay::{AnyOverlay, OverlayKind};
use cup_runtime::{LiveNetwork, ShardMapMode};
use cup_simnet::{Ev, Network};
use cup_workload::replica::{ReplicaAction, ReplicaActionKind, ReplicaPlan};
use cup_workload::Scenario;

use crate::des::{self, LayerRecord};
use crate::probe::{cpu_now, AllocSnap, SelfTime, SpanLog};
use crate::{median, Checks, Metric, Outcome, RunArgs};

/// Entry lifetime far beyond any block: nothing expires on the wall
/// clock, so timing cannot change what the protocol does.
const LIFETIME: SimDuration = SimDuration::from_secs(1_000_000);

/// Worker threads; the generating thread is the benchmark's main thread.
const WORKERS: usize = 2;

/// Trace ring capacity of the gated workload (events per block).
const TRACE_CAP: usize = 1 << 21;

/// Query rounds before each refresh round.
const QUERY_ROUNDS_PER_CYCLE: usize = 2;

/// Sim time between replayed rounds: far above one round's cascade
/// (tens of 1 ms hops).
const REPLAY_GAP: SimDuration = SimDuration::from_secs(1);

/// Sim time between the replayed posts of one round. Keys are
/// independent, so spreading a round changes no outcome; it keeps the
/// calendar queue from filing a whole round under one instant.
const REPLAY_SPACING: SimDuration = SimDuration::from_millis(1);

/// One block's script, generated from the run's seed.
#[derive(Debug, Clone)]
pub struct Script {
    kind: OverlayKind,
    nodes: usize,
    keys: u32,
    topology_seed: u64,
    /// One posting node per key, per query round.
    query_rounds: Vec<Vec<NodeId>>,
    gated: bool,
}

impl Script {
    /// The script of a live workload: `cycles` × (2 query rounds, then
    /// one refresh round) over `keys` keys.
    pub fn new(
        kind: OverlayKind,
        nodes: usize,
        keys: u32,
        cycles: usize,
        gated: bool,
        seed: u64,
    ) -> Self {
        let root = DetRng::seed_from(seed);
        let mut rng = root.derive(2);
        let query_rounds = (0..cycles * QUERY_ROUNDS_PER_CYCLE)
            .map(|_| {
                (0..keys)
                    .map(|_| NodeId(rng.choose_index(nodes) as u32))
                    .collect()
            })
            .collect();
        Script {
            kind,
            nodes,
            keys,
            topology_seed: root.derive(1).next(),
            query_rounds,
            gated,
        }
    }

    fn cycles(&self) -> usize {
        self.query_rounds.len() / QUERY_ROUNDS_PER_CYCLE
    }

    /// The replica serving `key` (one per key).
    fn replica(key: u32) -> ReplicaId {
        ReplicaId(key)
    }
}

/// `live-chord-10k` and `live-chord-gated-10k`: 4096 keys, 3 cycles of
/// 2 query rounds and a refresh round per block. Rounds this large keep
/// both workers busy, so the per-round wake-ups are a small share.
pub fn chord_10k(gated: bool, seed: u64) -> Script {
    Script::new(OverlayKind::Chord, 10_000, 4096, 3, gated, seed)
}

/// What one block measured. `*_cpu` fields are CPU seconds of the
/// whole process (see `probe::cpu_now`), `*_wall` fields wall seconds.
#[derive(Debug, Default)]
pub struct Block {
    setup_cpu: f64,
    start_wall: f64,
    query_cpu: f64,
    query_wall: f64,
    refresh_cpu: f64,
    refresh_wall: f64,
    measured_cpu: f64,
    measured_wall: f64,
    /// Peer messages during query rounds (queries up, responses down).
    query_hops: u64,
    /// Peer messages of the measured phase.
    measured_hops: u64,
    /// Peer messages of the whole block.
    hops: u64,
    queries: u64,
    refreshes: u64,
    attempted: u64,
    failed: u64,
    cross_shard: u64,
    batch_flushes: u64,
    batched_envelopes: u64,
    routing_failures: u64,
    faults: FaultCounters,
    justification: (u64, u64),
    latency: Hist,
    trace_events: u64,
    trace_messages: Option<u64>,
    stats: Vec<NodeStats>,
    aggregate: NodeStats,
    post: SelfTime,
    quiesce: SelfTime,
    measured_alloc: AllocSnap,
    peak_rss_mib: f64,
}

fn start(script: &Script) -> LiveNetwork {
    let mut rng = DetRng::seed_from(script.topology_seed);
    LiveNetwork::start_with_map(
        script.kind,
        script.nodes,
        NodeConfig::cup_default(),
        WORKERS,
        ShardMapMode::OverlayAware,
        Clock::wall(),
        &mut rng,
    )
    .expect("the live network starts")
}

/// Wall and CPU clocks read together.
#[derive(Clone, Copy)]
struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    /// (wall, cpu) seconds since this stamp.
    fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_now() - self.cpu)
    }
}

/// Runs one block; with a span log, also times every post and barrier.
fn run_block(script: &Script, mut spans: Option<&mut SpanLog>) -> Result<Block, String> {
    let timed = spans.is_some();
    let mut b = Block::default();
    if let Some(s) = spans.as_deref_mut() {
        s.enter("live.block");
        s.enter("live.setup");
    }
    let t0 = Stamp::now();
    let net = start(script);
    b.start_wall = t0.elapsed().0;
    if script.gated {
        net.enable_faults(script.topology_seed);
        net.track_justification(true);
        net.enable_trace(TRACE_CAP);
    }
    for k in 0..script.keys {
        net.replica_birth(KeyId(k), Script::replica(k), LIFETIME);
    }
    net.quiesce();
    b.setup_cpu = t0.elapsed().1;
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
        s.enter("live.measured");
    }

    let setup_hops = net.hops();
    let alloc0 = AllocSnap::now();
    let measured0 = Stamp::now();
    for cycle in 0..script.cycles() {
        for q in 0..QUERY_ROUNDS_PER_CYCLE {
            let round = &script.query_rounds[cycle * QUERY_ROUNDS_PER_CYCLE + q];
            if let Some(s) = spans.as_deref_mut() {
                s.enter("live.query_round");
            }
            let hops0 = net.hops();
            let t = Stamp::now();
            let mut pending = Vec::with_capacity(round.len());
            for (k, &node) in round.iter().enumerate() {
                let tp = Instant::now();
                let p = net
                    .query_detached(node, KeyId(k as u32))
                    .map_err(|e| format!("query_detached: {e}"))?;
                if timed {
                    b.post.add_since(tp);
                }
                pending.push(p);
            }
            let tq = Instant::now();
            net.quiesce();
            if timed {
                b.quiesce.add_since(tq);
            }
            let (wall, cpu) = t.elapsed();
            b.query_wall += wall;
            b.query_cpu += cpu;
            b.query_hops += net.hops() - hops0;
            b.queries += round.len() as u64;
            for (k, p) in pending.into_iter().enumerate() {
                b.attempted += 1;
                let right = p.try_take().is_some_and(|entries| {
                    entries.len() == 1
                        && entries[0].key == KeyId(k as u32)
                        && entries[0].replica == Script::replica(k as u32)
                });
                b.failed += u64::from(!right);
            }
            if let Some(s) = spans.as_deref_mut() {
                s.exit();
            }
        }
        if let Some(s) = spans.as_deref_mut() {
            s.enter("live.refresh_round");
        }
        let t = Stamp::now();
        for k in 0..script.keys {
            let tp = Instant::now();
            net.replica_refresh(KeyId(k), Script::replica(k), LIFETIME);
            if timed {
                b.post.add_since(tp);
            }
        }
        let tq = Instant::now();
        net.quiesce();
        if timed {
            b.quiesce.add_since(tq);
        }
        let (wall, cpu) = t.elapsed();
        b.refresh_wall += wall;
        b.refresh_cpu += cpu;
        b.refreshes += u64::from(script.keys);
        if let Some(s) = spans.as_deref_mut() {
            s.exit();
        }
    }
    (b.measured_wall, b.measured_cpu) = measured0.elapsed();
    b.measured_alloc = AllocSnap::now().since(alloc0);
    if let Some(s) = spans.as_deref_mut() {
        s.exit();
        s.enter("live.shutdown");
    }

    b.hops = net.hops();
    b.measured_hops = b.hops - setup_hops;
    b.cross_shard = net.cross_shard_messages();
    b.batch_flushes = net.batch_flushes();
    b.batched_envelopes = net.batched_envelopes();
    b.routing_failures = net.routing_failures();
    b.faults = net.fault_counters();
    b.justification = net.justification();
    b.latency = net.query_latency_hist();
    if let Some(trace) = net.take_trace() {
        b.trace_events = trace.len() as u64 + trace.dropped();
        b.trace_messages = (trace.dropped() == 0).then(|| {
            trace
                .sorted()
                .iter()
                .filter(|e| {
                    !matches!(
                        e.kind,
                        TraceKind::ClientQuery
                            | TraceKind::Respond
                            | TraceKind::ReplicaBirth
                            | TraceKind::ReplicaRefresh
                            | TraceKind::ReplicaDeletion
                    )
                })
                .count() as u64
        });
    }
    b.stats = net.shutdown().into_iter().map(|n| n.stats).collect();
    for s in &b.stats {
        b.aggregate.merge(s);
    }
    b.peak_rss_mib = crate::probe::peak_rss_mib()?;
    if let Some(s) = spans {
        s.exit();
        s.exit();
    }
    Ok(b)
}

/// The DES replay of one block: same overlay, same rounds, 1 ms hops.
struct Replay {
    net: Network,
    events: u64,
    loop_s: f64,
    layer: Option<LayerRecord>,
}

fn replay(script: &Script, traced: bool) -> Replay {
    let mut layer = traced.then(LayerRecord::default);
    let a0 = AllocSnap::now();
    let t0 = Instant::now();
    let mut rng = DetRng::seed_from(script.topology_seed);
    let overlay = AnyOverlay::build(script.kind, script.nodes, &mut rng).expect("overlay");
    let build_s = t0.elapsed().as_secs_f64();
    let a1 = AllocSnap::now();
    let t1 = Instant::now();
    let mut net = Network::new(
        overlay,
        NodeConfig::cup_default(),
        LatencyModel::Fixed(SimDuration::from_millis(1)),
        DetRng::seed_from(7),
    );
    if let Some(l) = layer.as_mut() {
        l.overlay_build_s = build_s;
        l.overlay_live_bytes = a1.since(a0).live;
        l.arena_init_s = t1.elapsed().as_secs_f64();
        l.arena_live_bytes = AllocSnap::now().since(a1).live;
    }
    if script.gated {
        net.justify = Some(cup_core::JustificationTracker::new());
    }
    // `Ev::Replica` dispatch reads the plan's lifetime; births and
    // refreshes are scheduled here, in the script's order.
    let plan_scenario = Scenario {
        nodes: script.nodes,
        keys: script.keys,
        entry_lifetime: LIFETIME,
        sim_end: SimTime::from_secs(2_000_000),
        query_end: SimTime::from_secs(1_000),
        ..Scenario::default()
    };
    net.replica_plan = Some(ReplicaPlan::build(
        &plan_scenario,
        &mut DetRng::seed_from(1),
    ));
    let mut engine = Engine::new(net);
    let replica = |at: SimTime, k: u32, kind| {
        Ev::Replica(ReplicaAction {
            at,
            key: KeyId(k),
            replica: Script::replica(k),
            kind,
        })
    };
    let mut t = SimTime::from_secs(1);
    for k in 0..script.keys {
        engine.schedule(t, replica(t, k, ReplicaActionKind::Birth));
    }
    for cycle in 0..script.cycles() {
        for q in 0..QUERY_ROUNDS_PER_CYCLE {
            t += REPLAY_GAP;
            let round = &script.query_rounds[cycle * QUERY_ROUNDS_PER_CYCLE + q];
            for (k, node) in round.iter().enumerate() {
                let ev = Ev::PostQuery {
                    node_index: node.index(),
                    key: KeyId(k as u32),
                };
                engine.schedule(t, ev);
                t += REPLAY_SPACING;
            }
        }
        t += REPLAY_GAP;
        for k in 0..script.keys {
            engine.schedule(t, replica(t, k, ReplicaActionKind::Refresh));
            t += REPLAY_SPACING;
        }
    }
    let stop = t + REPLAY_GAP;
    let (loop_s, _) = des::drive(&mut engine, stop, layer.as_mut());
    Replay {
        events: engine.processed(),
        net: engine.into_state(),
        loop_s,
        layer,
    }
}

/// Checks a block against the DES replay of its script.
fn check_against_replay(script: &Script, b: &Block, r: &Replay, checks: &mut Checks) {
    let m = &r.net.metrics;
    checks.eq(
        "live hops = DES replay hops",
        b.hops,
        m.total_cost() + m.audit_hops,
    );
    checks.eq(
        "live query-round hops = DES miss cost",
        b.query_hops,
        m.miss_cost(),
    );
    checks.eq(
        "live answers = DES replay answers",
        b.attempted - b.failed,
        m.client_responses,
    );
    let same_nodes = b.stats.len() == script.nodes
        && b.stats
            .iter()
            .enumerate()
            .all(|(i, s)| r.net.node(NodeId(i as u32)).is_some_and(|n| n.stats == *s));
    checks.truth("per-node protocol counters = DES replay", same_nodes);
    if script.gated {
        let j = r
            .net
            .justify
            .as_ref()
            .map_or((0, 0), |j| (j.justified(), j.total()));
        checks.truth("live justification = DES replay", b.justification == j);
    }
}

/// Checks one block on its own.
fn check_block(script: &Script, b: &Block, first: Option<&Block>, checks: &mut Checks) {
    checks.eq("no routing failure", b.routing_failures, 0);
    checks.eq(
        "every batched envelope crossed a shard",
        b.batched_envelopes,
        b.cross_shard,
    );
    checks.eq(
        "one latency sample per answer",
        b.latency.count(),
        b.attempted - b.failed,
    );
    if script.gated {
        checks.truth(
            "the armed fault plane dropped nothing",
            b.faults == FaultCounters::default(),
        );
        checks.truth("justification tracked updates", b.justification.1 > 0);
        let replica_events = u64::from(script.keys) * (1 + script.cycles() as u64);
        checks.eq(
            "trace events = messages + queries + answers + replica events",
            b.trace_events,
            b.hops + b.attempted + (b.attempted - b.failed) + replica_events,
        );
        if let Some(messages) = b.trace_messages {
            checks.eq("traced messages = hops", messages, b.hops);
        }
    }
    if let Some(first) = first {
        checks.eq(
            "every block repeats the first block's hops",
            b.hops,
            first.hops,
        );
        checks.truth(
            "every block repeats the first block's counters",
            b.aggregate == first.aggregate,
        );
    }
}

/// Runs one live workload for `args.seconds` of measured rounds.
pub fn run(script: &Script, args: &RunArgs) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut spans = SpanLog::new();
    let traced = args.trace;
    let plain = if traced {
        Some(run_block(script, None)?)
    } else {
        None
    };
    if traced {
        crate::probe::count_allocations(true);
    }
    let mut blocks: Vec<Block> = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds || blocks.len() < 3 {
        let mut b = run_block(script, traced.then_some(&mut spans))?;
        measured += b.measured_wall;
        check_block(script, &b, blocks.first(), &mut checks);
        if !blocks.is_empty() {
            // Only the first block's per-node counters meet the replay.
            b.stats = Vec::new();
        }
        blocks.push(b);
    }

    // Outside the timed region: the DES replay of the same script.
    spans.enter("des.replay");
    let r = replay(script, traced);
    spans.exit();
    crate::probe::count_allocations(false);
    check_against_replay(script, &blocks[0], &r, &mut checks);

    let attempted = blocks.iter().map(|b| b.attempted).sum();
    let failed = blocks.iter().map(|b| b.failed).sum();
    let per_block = |f: &dyn Fn(&Block) -> f64| median(blocks.iter().map(f).collect());
    let first = &blocks[0];
    let mut metrics = Vec::new();
    if !traced {
        metrics = vec![
            Metric::new("setup_s", per_block(&|b| b.setup_cpu), "s"),
            Metric::new(
                "events_per_cpu_s",
                per_block(&|b| b.measured_hops as f64 / b.measured_cpu),
                "1/s",
            ),
            Metric::new(
                "queries_per_cpu_s",
                per_block(&|b| b.queries as f64 / b.query_cpu),
                "1/s",
            ),
            Metric::new(
                "updates_per_cpu_s",
                per_block(&|b| b.refreshes as f64 / b.refresh_cpu),
                "1/s",
            ),
            Metric::new("total_cost_hops", first.hops as f64, "hops"),
            Metric::new(
                "miss_latency_hops",
                first.query_hops as f64 / first.aggregate.client_misses() as f64,
                "hops/miss",
            ),
            // One network's life: later blocks only add allocator
            // fragmentation from re-creating networks.
            Metric::new("peak_rss_mb", first.peak_rss_mib, "MiB"),
        ];
    } else {
        let plain = plain.expect("traced mode ran a plain block");
        let traced_rate = per_block(&|b| b.measured_hops as f64 / b.measured_cpu);
        let plain_rate = plain.measured_hops as f64 / plain.measured_cpu;
        let l = r.layer.as_ref().expect("traced replay");
        let route = {
            let mut rng = DetRng::seed_from(script.topology_seed);
            let overlay = AnyOverlay::build(script.kind, script.nodes, &mut rng).expect("overlay");
            des::route_sample(&overlay, script.keys, args.seed)
        };
        let result = des::result_of_net(&r.net, r.events, script.nodes);
        des::push_layer_metrics(&[(l, r.loop_s)], &result, script.nodes, route, &mut metrics);
        des::push_core_metrics(&result, &mut metrics);
        Probe::of(&blocks).push_runtime_metrics(&mut metrics);
        let events = per_block(&|b| b.measured_hops as f64);
        metrics.push(Metric::new(
            "alloc.per_event",
            per_block(&|b| b.measured_alloc.calls as f64) / events,
            "count",
        ));
        metrics.push(Metric::new(
            "alloc.bytes_per_event",
            per_block(&|b| b.measured_alloc.bytes as f64) / events,
            "B",
        ));
        metrics.push(Metric::new(
            "wall.events_per_s",
            per_block(&|b| b.measured_hops as f64 / b.measured_wall),
            "1/s",
        ));
        metrics.push(Metric::new(
            "wall.queries_per_s",
            per_block(&|b| b.queries as f64 / b.query_wall),
            "1/s",
        ));
        metrics.push(Metric::new(
            "wall.updates_per_s",
            per_block(&|b| b.refreshes as f64 / b.refresh_wall),
            "1/s",
        ));
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            traced_rate / plain_rate,
            "ratio",
        ));
    }
    crate::write_spans(args, &spans)?;
    Ok(Outcome {
        attempted,
        failed,
        checks,
        metrics,
    })
}

/// The runtime layer's per-layer figures over a set of blocks.
pub struct Probe {
    start_s: f64,
    post_ns: f64,
    quiesce_s: f64,
    cross_shard_ratio: f64,
    mean_batch: f64,
    batch_flushes: f64,
    cpu_s: f64,
    cpu_util: f64,
    cpu_us_per_msg: f64,
    latency: Hist,
}

impl Probe {
    fn of(blocks: &[Block]) -> Self {
        let med = |f: &dyn Fn(&Block) -> f64| median(blocks.iter().map(f).collect());
        let mut latency = Hist::new();
        for b in blocks {
            latency.merge(&b.latency);
        }
        Probe {
            start_s: med(&|b| b.start_wall),
            post_ns: med(&|b| b.post.mean_ns()),
            quiesce_s: med(&|b| b.quiesce.ns as f64 / 1e9),
            cross_shard_ratio: med(&|b| b.cross_shard as f64 / b.hops as f64),
            mean_batch: med(&|b| b.batched_envelopes as f64 / b.batch_flushes.max(1) as f64),
            batch_flushes: med(&|b| b.batch_flushes as f64),
            cpu_s: med(&|b| b.measured_cpu),
            cpu_util: med(&|b| b.measured_cpu / b.measured_wall),
            cpu_us_per_msg: med(&|b| b.measured_cpu * 1e6 / b.measured_hops as f64),
            latency,
        }
    }

    /// Pushes the `runtime.*` metrics.
    pub fn push_runtime_metrics(&self, out: &mut Vec<Metric>) {
        out.push(Metric::new("runtime.start_s", self.start_s, "s"));
        out.push(Metric::new("runtime.post_ns", self.post_ns, "ns"));
        out.push(Metric::new("runtime.quiesce_s", self.quiesce_s, "s"));
        out.push(Metric::new(
            "runtime.cross_shard_ratio",
            self.cross_shard_ratio,
            "ratio",
        ));
        out.push(Metric::new("runtime.mean_batch", self.mean_batch, "count"));
        out.push(Metric::new(
            "runtime.batch_flushes",
            self.batch_flushes,
            "count",
        ));
        out.push(Metric::new("runtime.cpu_s", self.cpu_s, "s"));
        out.push(Metric::new("runtime.cpu_util", self.cpu_util, "ratio"));
        out.push(Metric::new(
            "runtime.cpu_us_per_msg",
            self.cpu_us_per_msg,
            "us",
        ));
        out.push(Metric::new(
            "runtime.query_p50_us",
            self.latency.quantile(500) as f64,
            "us",
        ));
        out.push(Metric::new(
            "runtime.query_p99_us",
            self.latency.quantile(990) as f64,
            "us",
        ));
    }
}

/// The live runtime over a DES workload's population: blocks of a short
/// live script (traced mode of the DES workloads only).
pub fn probe(
    kind: OverlayKind,
    nodes: usize,
    seed: u64,
    spans: &mut SpanLog,
    checks: &mut Checks,
) -> Result<Probe, String> {
    let script = Script::new(kind, nodes, 1024, 1, false, seed);
    let mut blocks = Vec::new();
    for _ in 0..3 {
        let b = run_block(&script, Some(spans))?;
        check_block(&script, &b, blocks.first(), checks);
        checks.eq("live probe answers every query", b.failed, 0);
        blocks.push(b);
    }
    Ok(Probe::of(&blocks))
}
