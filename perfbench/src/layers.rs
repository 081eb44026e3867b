//! Per-layer probes for the traced run.
//!
//! Each probe times one layer's public API from outside, with inputs
//! taken from the workload's own market: its overlay and degrees, its
//! spending rates (which set how often each peer buys), its pending
//! event depth, its n and its seed. Costs are means per call over
//! batches large enough that the clock's own cost does not show.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use scrip_core::des::trace::{TraceFrame, TraceHeader, TraceReader, TraceWriter};
use scrip_core::des::{
    FenwickSampler, QueueProfile, Scheduled, SimDuration, SimRng, SimTime, TimingWheel,
};
use scrip_core::econ::incremental::IncrementalGini;
use scrip_core::market::CreditMarket;
use scrip_core::obs::Session;
use scrip_core::topology::churn::ChurnTopology;
use scrip_core::topology::generators::{scale_free, ScaleFreeConfig};
use scrip_core::topology::{Graph, NodeId};
use scrip_core::Ledger;

use crate::jobs::RecordReplay;
use crate::report::Report;
use crate::stats;
use crate::workload::Plan;

/// Per-call costs the attribution sums over the workload's counts.
#[derive(Clone, Debug, Default)]
pub struct Costs {
    /// Seconds per timing-wheel pop + push.
    pub push_pop: f64,
    /// Seconds per seller-sampler rebuild plus one pick.
    pub sampler: f64,
    /// Seconds per ledger transfer (wealth tracking on).
    pub transfer: f64,
    /// Seconds per escrow hold + settle.
    pub escrow: f64,
    /// Seconds per preferential join at the workload's n.
    pub join: f64,
    /// Seconds per leave at the workload's n.
    pub leave: f64,
    /// Seconds per trace event frame encoded.
    pub encode: f64,
    /// Seconds per trace frame decoded.
    pub decode: f64,
    /// Seconds per checkpoint encode.
    pub checkpoint: f64,
}

/// Mean seconds per call of `op` over `calls` calls.
fn per_call(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        op(i);
    }
    start.elapsed().as_secs_f64() / calls.max(1) as f64
}

/// Mean seconds per preferential join, then per leave of a random live
/// node, over up to 200 of each on `graph`.
fn join_leave(churn: &ChurnTopology, mut graph: Graph, rng: &mut SimRng) -> (f64, f64) {
    let k = 200usize.min(graph.node_count() / 4).max(1);
    let join = per_call(k, |_| {
        churn.join(&mut graph, rng);
    });
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let mut leaving: Vec<NodeId> = Vec::with_capacity(k);
    while leaving.len() < k {
        let id = ids[rng.index(ids.len())];
        if !leaving.contains(&id) {
            leaving.push(id);
        }
    }
    let leave = per_call(k, |i| {
        churn
            .leave(&mut graph, leaving[i])
            .expect("live node leaves");
    });
    (join, leave)
}

/// Peers drawn in proportion to their spending rate: the order in which
/// the market's spend loops pick buyers.
fn buyer_mix(market: &CreditMarket, draws: usize, rng: &mut SimRng) -> Vec<NodeId> {
    let rates = market.service_rates();
    let ids: Vec<NodeId> = rates.keys().copied().collect();
    let mut by_rate = FenwickSampler::with_capacity(ids.len());
    for rate in rates.values() {
        by_rate.push(*rate);
    }
    by_rate.build();
    (0..draws)
        .map(|_| ids[by_rate.pick(rng.uniform_f64() * by_rate.total())])
        .collect()
}

/// Probes every layer, records its metrics, and returns the per-call
/// costs.
pub fn probe(
    plan: &Plan,
    seed: u64,
    recorded: &RecordReplay,
    trace_path: &Path,
    report: &mut Report,
) -> Costs {
    let scale = if plan.smoke { 100 } else { 1 };
    let config = plan.config();
    let n = config.n;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut costs = Costs::default();

    // topology::generators + core::market
    let start = Instant::now();
    let graph = scale_free(
        &ScaleFreeConfig::new(n).expect("valid overlay size"),
        &mut SimRng::seed_from_u64(seed),
    )
    .expect("overlay generates");
    report.metric("market.generate_s", start.elapsed().as_secs_f64(), "s");
    let start = Instant::now();
    let market = CreditMarket::build(config.clone(), seed).expect("market builds");
    report.metric("market.build_s", start.elapsed().as_secs_f64(), "s");
    report.check(&graph == market.graph(), || {
        "the market's overlay differs from scale_free on the same seed".into()
    });
    let audit = market.memory_audit();
    report.metric(
        "market.state_bytes_per_peer",
        audit.state_bytes_per_peer() as f64,
        "B",
    );

    // des::wheel, at the depth the workload's queue holds mid-run.
    let depth = recorded.session.stats().events_pending.max(1);
    let QueueProfile::Wheel {
        expected_events,
        typical_delay,
    } = market.queue_profile()
    else {
        unreachable!("markets ask for a timing wheel")
    };
    let mean = typical_delay.as_secs_f64();
    let ops = 2_000_000 / scale;
    let delays: Vec<SimDuration> = (0..ops.max(depth))
        .map(|_| SimDuration::from_secs_f64(-mean * rng.uniform_open01().ln()))
        .collect();
    let mut wheel: TimingWheel<u32> = TimingWheel::new(expected_events, typical_delay);
    for (seq, delay) in delays.iter().take(depth).enumerate() {
        wheel.push(Scheduled {
            time: SimTime::ZERO + *delay,
            seq: seq as u64,
            event: 0,
        });
    }
    let mut seq = depth as u64;
    costs.push_pop = per_call(ops, |i| {
        let next = wheel.pop().expect("wheel holds the workload's depth");
        seq += 1;
        wheel.push(Scheduled {
            time: next.time + delays[i],
            seq,
            event: next.event,
        });
    });
    report.metric("wheel.push_pop_ns", costs.push_pop * 1e9, "ns");
    report.metric("wheel.depth", depth as f64, "count");

    // des::sampler, on the neighbourhoods of buyers drawn by spending
    // rate. Each weight is read from per-peer state indexed by the
    // neighbour's id, as the market reads its activity traces.
    let buyers = buyer_mix(&market, 200_000 / scale, &mut rng);
    let g = market.graph();
    let activity: Vec<f64> = (0..g.next_raw_id())
        .map(|i| 0.01 + (i % 7) as f64)
        .collect();
    let mut sampler = FenwickSampler::new();
    let rebuild_for = |sampler: &mut FenwickSampler, buyer: NodeId| {
        sampler.clear();
        for nb in g.neighbor_slice(buyer).unwrap_or(&[]) {
            sampler.push(activity[nb.raw() as usize]);
        }
        sampler.build();
    };
    let rebuild = per_call(buyers.len(), |i| rebuild_for(&mut sampler, buyers[i]));
    // Time the picks alone: rebuild once per buyer outside the clock.
    let targets: Vec<f64> = (0..64).map(|_| rng.uniform_f64()).collect();
    let mut picked = 0usize;
    let mut pick_time = 0.0;
    let mut pick_calls = 0usize;
    for &b in buyers.iter().take(4096) {
        rebuild_for(&mut sampler, b);
        if sampler.is_empty() {
            continue;
        }
        let total = sampler.total();
        let start = Instant::now();
        for t in &targets {
            picked += black_box(sampler.pick(t * total));
        }
        pick_time += start.elapsed().as_secs_f64();
        pick_calls += targets.len();
    }
    black_box(picked);
    let pick = pick_time / pick_calls.max(1) as f64;
    costs.sampler = rebuild + pick;
    let mean_degree = stats::mean(
        &buyers
            .iter()
            .map(|&b| g.degree(b).unwrap_or(0) as f64)
            .collect::<Vec<_>>(),
    );
    report.metric("sampler.rebuild_ns", rebuild * 1e9, "ns");
    report.metric("sampler.pick_ns", pick * 1e9, "ns");
    report.metric("sampler.buyer_degree", mean_degree, "count");

    // core::credits + econ::incremental, on trades between a buyer
    // drawn by spending rate and one of its neighbours.
    let trades: Vec<(NodeId, NodeId)> = buyers
        .iter()
        .filter_map(|&b| {
            let neighbors = g.neighbor_slice(b)?;
            (!neighbors.is_empty()).then(|| (b, neighbors[rng.index(neighbors.len())]))
        })
        .collect();
    let mut ledger = Ledger::new();
    for id in g.node_ids() {
        ledger.mint(id, config.initial_credits);
    }
    ledger.enable_wealth_tracking();
    let rounds = (2_000_000 / scale).div_ceil(trades.len().max(1));
    costs.transfer = per_call(rounds * trades.len(), |i| {
        let (from, to) = trades[i % trades.len()];
        if ledger.balance(from) > 0 {
            ledger.transfer(from, to, 1).expect("buyer holds a credit");
        }
    });
    costs.escrow = per_call(trades.len(), |i| {
        let (from, to) = trades[i];
        let held = ledger.withhold_to_escrow(from, 1);
        ledger.pay_from_escrow(to, held);
    });
    report.check(ledger.conserved(), || {
        "ledger probe broke conservation".into()
    });
    report.metric("ledger.transfer_ns", costs.transfer * 1e9, "ns");
    report.metric("ledger.escrow_ns", costs.escrow * 1e9, "ns");

    let balances: Vec<u64> = g.node_ids().map(|id| ledger.balance(id)).collect();
    let mut gini = IncrementalGini::new();
    gini.reserve_values(balances.iter().copied().max().unwrap_or(0) + 2);
    for &b in &balances {
        gini.insert(b);
    }
    let mut wealth = balances;
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| (rng.index(wealth.len()), rng.index(wealth.len())))
        .collect();
    let update = per_call(2_000_000 / scale, |i| {
        let (a, b) = pairs[i % pairs.len()];
        if wealth[a] > 0 && a != b {
            gini.update(wealth[a], wealth[a] - 1);
            gini.update(wealth[b], wealth[b] + 1);
            wealth[a] -= 1;
            wealth[b] += 1;
        }
    }) / 2.0;
    let sample = per_call(100_000 / scale, |_| {
        black_box(gini.gini());
    });
    report.metric("gini.update_ns", update * 1e9, "ns");
    report.metric("gini.sample_ns", sample * 1e9, "ns");

    // topology::churn + graph: join and leave at the workload's n and
    // at three sizes for the scaling exponents.
    let attach = config.churn.map_or(20, |c| c.attach_degree);
    let churn = ChurnTopology::new(attach);
    (costs.join, costs.leave) = join_leave(&churn, market.graph().clone(), &mut rng);
    let mut join_points = Vec::new();
    let mut leave_points = Vec::new();
    for &size in &plan.slope_sizes {
        let (join, leave) = if size == n {
            (costs.join, costs.leave)
        } else {
            let graph = scale_free(
                &ScaleFreeConfig::new(size).expect("valid overlay size"),
                &mut SimRng::seed_from_u64(seed),
            )
            .expect("overlay generates");
            join_leave(&churn, graph, &mut rng)
        };
        join_points.push((size as f64, join));
        leave_points.push((size as f64, leave));
    }
    report.metric("graph.join_us", costs.join * 1e6, "us");
    report.metric("graph.leave_us", costs.leave * 1e6, "us");
    report.metric("graph.join_slope", stats::loglog_slope(&join_points), "1");
    report.metric("graph.leave_slope", stats::loglog_slope(&leave_points), "1");

    // des::trace, on the workload's own recorded event stream.
    let bytes = std::fs::read(trace_path).expect("recorded trace reads");
    let file_len = bytes.len();
    let mut reader = TraceReader::from_bytes(bytes).expect("recorded trace parses");
    let consumer = reader.register_consumer();
    let mut frames = Vec::new();
    let start = Instant::now();
    while let Some(frame) = reader.next_frame(consumer).expect("recorded frames decode") {
        frames.push(frame);
    }
    let decode_s = start.elapsed().as_secs_f64();
    let events: Vec<(SimTime, u64, Vec<u8>)> = frames
        .into_iter()
        .filter_map(|f| match f {
            TraceFrame::Event { time, seq, payload } => Some((time, seq, payload)),
            _ => None,
        })
        .collect();
    report.check(events.len() as u64 == recorded.events, || {
        format!(
            "trace holds {} events, the run dispatched {}",
            events.len(),
            recorded.events
        )
    });
    let mut writer = TraceWriter::new(
        Vec::with_capacity(file_len),
        TraceHeader {
            fingerprint: 0,
            seed,
        },
    );
    costs.encode = per_call(events.len(), |i| {
        let (time, seq, payload) = &events[i];
        writer
            .event(*time, *seq, payload)
            .expect("in-memory encode");
    });
    black_box(writer.finish().expect("in-memory trace").len());
    costs.decode = decode_s / events.len().max(1) as f64;
    report.metric("trace.encode_ns", costs.encode * 1e9, "ns");
    report.metric("trace.decode_ns", costs.decode * 1e9, "ns");
    report.metric(
        "trace.bytes_per_event",
        file_len as f64 / events.len().max(1) as f64,
        "B",
    );

    // core::obs checkpoint, of the recorded session at its horizon.
    let start = Instant::now();
    let snapshot = recorded.session.checkpoint().expect("session checkpoints");
    costs.checkpoint = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let resumed = Session::resume(&config, Vec::new(), &snapshot).expect("snapshot resumes");
    let decode = start.elapsed().as_secs_f64();
    report.check(
        resumed.view().state_digest() == recorded.session.view().state_digest(),
        || "resumed snapshot differs from the session it was taken from".into(),
    );
    report.metric("checkpoint.encode_ms", costs.checkpoint * 1e3, "ms");
    report.metric("checkpoint.decode_ms", decode * 1e3, "ms");
    report.metric("checkpoint.bytes", snapshot.len() as f64, "B");

    // bench::scenario, on the workload's scenario text.
    let text = plan.scenario(seed).to_file_string();
    let parse = per_call(2_000 / scale.min(20), |_| {
        black_box(scrip_bench::scenario::Scenario::parse_str(&text).expect("scenario parses"));
    });
    report.metric("scenario.parse_us", parse * 1e6, "us");
    costs
}
