//! The unified observation API: pluggable probes over one `Session`
//! runner that drives *both* market granularities.
//!
//! The paper's evaluation is a family of observations — Gini
//! trajectories, wealth distributions, spending rates, stall rates —
//! over one simulated economy. This module turns "what we measure" into
//! data instead of code:
//!
//! * [`MarketView`] — the read-only facade a probe observes. Both the
//!   queue-level [`CreditMarket`] and the chunk-level
//!   [`StreamingSystem<CreditTradePolicy>`] implement it, so a probe
//!   written once works at either granularity.
//! * [`Probe`] — the observer interface: [`Probe::on_bootstrap`] at the
//!   start of the run, [`Probe::on_settle`] /  [`Probe::on_sample`] at
//!   each sampling boundary, [`Probe::at_horizon`] once at the end.
//! * [`Recorder`] / [`RunRecord`] — the typed-series container probes
//!   write into, keyed by string [`MetricId`]s (well-known ids in
//!   [`ids`]).
//! * [`Session`] — the one entry point that subsumes
//!   [`crate::market::run_market`] and
//!   [`crate::protocol::run_streaming_market`]: build from any
//!   [`MarketConfig`], [`Session::attach`] probes, [`Session::run_until`]
//!   the horizon, [`Session::finish`] into a [`RunRecord`] plus the
//!   finished model.
//!
//! ## Hot-path cost
//!
//! Probe dispatch happens **only at sampling boundaries** (the market's
//! `sample_interval`, plus any extra stop times probes request): the
//! session runs the simulator in uninterrupted spans between stops and
//! never interposes on individual spend/settle events, so the
//! allocation-free spend and chunk-trade hot paths are untouched. With
//! no probes attached the session is a single `run_until` call — zero
//! overhead over the old entry points (measured by the
//! `probe_attached`/`probe_detached` entries of `scrip-sim bench`).
//!
//! ## Example
//!
//! ```
//! use scrip_core::market::MarketConfig;
//! use scrip_core::obs::{probes, Session};
//! use scrip_des::SimTime;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MarketConfig::new(50, 20);
//! let mut session = Session::from_config(&config, 7)?;
//! session.attach(Box::new(probes::PopulationSeriesProbe::new()));
//! session.attach(Box::new(probes::LorenzProbe::new(20)));
//! session.run_until(SimTime::from_secs(500));
//! let (record, _model) = session.finish();
//! let population = record.series(scrip_core::obs::ids::POPULATION_SERIES);
//! assert_eq!(population.first(), Some(&(0.0, 50.0)));
//! assert_eq!(record.counter(scrip_core::obs::ids::PEER_COUNT), 50);
//! # Ok(())
//! # }
//! ```

use std::io::BufWriter;
use std::path::Path;

use scrip_des::stats::TimeSeries;
use scrip_des::{
    RunStats, Scheduled, Scheduler, ShardedSimulation, SimDuration, SimTime, Simulation,
    TraceError, TraceFrame, TraceHeader, TraceReader, TraceWriter,
};
use scrip_streaming::{StreamEvent, StreamingSystem};

use crate::credits::Ledger;
use crate::error::CoreError;
use crate::market::{CreditMarket, FaultStats, MarketConfig, MarketEvent};
use crate::policy::Taxation;
use crate::protocol::{build_streaming_market, CreditTradePolicy};
use crate::sharded::ShardedMarket;
use crate::snapshot;

pub mod probes;

/// Identifies one recorded metric inside a [`RunRecord`]. Plain strings
/// so downstream registries (e.g. the scenario engine's) can mint new
/// metrics without touching this crate.
pub type MetricId = String;

/// Well-known [`MetricId`]s: what the built-in [`probes`] and
/// [`Session::finish`] record.
pub mod ids {
    /// `(t, Gini)` trajectory ([`super::probes::GiniSeriesProbe`]).
    pub const GINI_SERIES: &str = "gini-series";
    /// Final wealth distribution, sorted ascending
    /// ([`super::probes::FinalBalancesProbe`]).
    pub const FINAL_BALANCES: &str = "final-balances";
    /// Per-peer spending rates, sorted ascending
    /// ([`super::probes::SpendingRatesProbe`]).
    pub const SPENDING_RATES: &str = "spending-rates";
    /// Sorted wealth snapshots at requested times
    /// ([`super::probes::SnapshotsProbe`]).
    pub const SNAPSHOTS: &str = "snapshots";
    /// `(t, stall rate)` trajectory; empty for queue-level markets
    /// ([`super::probes::StallSeriesProbe`]).
    pub const STALL_SERIES: &str = "stall-series";
    /// `(t, purchases/sec)` trajectory
    /// ([`super::probes::ThroughputSeriesProbe`]).
    pub const THROUGHPUT_SERIES: &str = "throughput-series";
    /// `(t, live peers)` trajectory
    /// ([`super::probes::PopulationSeriesProbe`]).
    pub const POPULATION_SERIES: &str = "population-series";
    /// Final Lorenz curve `(population share, wealth share)`
    /// ([`super::probes::LorenzProbe`]).
    pub const LORENZ: &str = "lorenz";
    /// Successful purchases (settlements at chunk granularity) —
    /// recorded by [`super::Session::finish`].
    pub const PURCHASES: &str = "purchases";
    /// Purchase attempts refused for lack of credits.
    pub const DENIED: &str = "denied";
    /// Total credits spent by live peers.
    pub const TOTAL_SPENT: &str = "total-spent";
    /// Live peers at the horizon.
    pub const PEER_COUNT: &str = "peer-count";
    /// Gini of the final wealth distribution (absent when the market
    /// has no peers at the horizon).
    pub const WEALTH_GINI: &str = "wealth-gini";
    /// Credits collected by taxation (0 without tax).
    pub const TAX_COLLECTED: &str = "tax-collected";
    /// Credits redistributed by taxation (0 without tax).
    pub const TAX_REDISTRIBUTED: &str = "tax-redistributed";
    /// `(t, cumulative failed delivery attempts)` trajectory
    /// ([`super::probes::FaultSeriesProbe`]); empty with faults off.
    pub const FAULT_SERIES: &str = "fault-series";
    /// `(t, credits withheld in trade escrow)` trajectory
    /// ([`super::probes::FaultSeriesProbe`]); empty with faults off.
    pub const ESCROW_SERIES: &str = "escrow-series";
    /// Trades concluded successfully despite faults.
    pub const FAULT_DELIVERED: &str = "fault-delivered";
    /// Delivery attempts lost in flight.
    pub const FAULT_DROPPED: &str = "fault-dropped";
    /// Delivery attempts where the seller took payment and defected.
    pub const FAULT_DEFECTED: &str = "fault-defected";
    /// Delivery attempts that arrived late (after a delay penalty).
    pub const FAULT_DELAYED: &str = "fault-delayed";
    /// Retries issued after drops/defects.
    pub const FAULT_RETRIES: &str = "fault-retries";
    /// Trades abandoned with the escrow refunded to the buyer.
    pub const FAULT_REFUNDED: &str = "fault-refunded";
    /// Peers removed by injected crashes.
    pub const FAULT_CRASHES: &str = "fault-crashes";
    /// `(attempt, trades concluded at that attempt)` histogram
    /// ([`super::probes::FaultSeriesProbe`]).
    pub const RETRY_DEPTH: &str = "retry-depth";
}

/// One recorded value: every shape the evaluation pipeline aggregates.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An `(x, y)` series — trajectories and curves.
    Series(Vec<(f64, f64)>),
    /// A sorted integer distribution (e.g. final balances).
    SortedU64(Vec<u64>),
    /// A sorted float distribution (e.g. spending rates).
    SortedF64(Vec<f64>),
    /// Sorted wealth snapshots: `(time secs, sorted balances)`.
    Snapshots(Vec<(u64, Vec<u64>)>),
    /// An event count.
    Counter(u64),
    /// A single number.
    Scalar(f64),
}

/// Everything measured in one finished run: `(MetricId, MetricValue)`
/// entries in recording order. The typed accessors return empty/zero
/// defaults for absent or differently-typed ids, so consumers read the
/// metrics they care about without `match` boilerplate; use
/// [`RunRecord::get`] when absence must be distinguished.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    entries: Vec<(MetricId, MetricValue)>,
}

impl RunRecord {
    /// The raw value recorded under `id`, if any.
    pub fn get(&self, id: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(name, _)| name == id)
            .map(|(_, v)| v)
    }

    /// All recorded ids, in recording order.
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(name, _)| name.as_str())
    }

    /// The `(x, y)` series under `id` (empty if absent or not a series).
    pub fn series(&self, id: &str) -> &[(f64, f64)] {
        match self.get(id) {
            Some(MetricValue::Series(points)) => points,
            _ => &[],
        }
    }

    /// The sorted integer distribution under `id` (empty if absent).
    pub fn sorted_u64(&self, id: &str) -> &[u64] {
        match self.get(id) {
            Some(MetricValue::SortedU64(values)) => values,
            _ => &[],
        }
    }

    /// The sorted float distribution under `id` (empty if absent).
    pub fn sorted_f64(&self, id: &str) -> &[f64] {
        match self.get(id) {
            Some(MetricValue::SortedF64(values)) => values,
            _ => &[],
        }
    }

    /// The snapshots under `id` (empty if absent).
    pub fn snapshots(&self, id: &str) -> &[(u64, Vec<u64>)] {
        match self.get(id) {
            Some(MetricValue::Snapshots(taken)) => taken,
            _ => &[],
        }
    }

    /// The counter under `id` (0 if absent).
    pub fn counter(&self, id: &str) -> u64 {
        match self.get(id) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// The scalar under `id` (NaN if absent — check [`RunRecord::get`]
    /// when absence matters).
    pub fn scalar(&self, id: &str) -> f64 {
        match self.get(id) {
            Some(MetricValue::Scalar(x)) => *x,
            _ => f64::NAN,
        }
    }
}

/// The write side of a [`RunRecord`]: handed to [`Probe::at_horizon`] so
/// every probe deposits its measurements under its own ids.
#[derive(Debug, Default)]
pub struct Recorder {
    record: RunRecord,
}

impl Recorder {
    /// Records `value` under `id`.
    ///
    /// # Panics
    /// Panics on a duplicate id — two probes claiming the same metric is
    /// a wiring bug, not a runtime condition.
    pub fn record(&mut self, id: impl Into<MetricId>, value: MetricValue) {
        let id = id.into();
        assert!(
            self.record.get(&id).is_none(),
            "duplicate metric id {id:?} recorded"
        );
        self.record.entries.push((id, value));
    }

    /// Finalizes into the immutable [`RunRecord`].
    pub fn finish(self) -> RunRecord {
        self.record
    }
}

/// Read-only view of a running market, shared by both granularities:
/// the queue-level [`CreditMarket`] and the chunk-level
/// [`StreamingSystem<CreditTradePolicy>`]. Everything a probe can
/// observe goes through this trait, so probes are written once and run
/// against either simulator.
///
/// The counter accessors are O(1); the distribution accessors assemble
/// owned vectors and are intended for sampling boundaries, not hot
/// paths.
pub trait MarketView {
    /// Number of live peers.
    fn peer_count(&self) -> usize;
    /// Successful purchases so far (settlements at chunk granularity).
    fn purchases(&self) -> u64;
    /// Purchase attempts refused for lack of credits.
    fn denied(&self) -> u64;
    /// Total credits spent by live peers (O(1)).
    fn total_spent(&self) -> u64;
    /// The credit ledger.
    fn ledger(&self) -> &Ledger;
    /// Taxation state, when taxation is enabled.
    fn taxation(&self) -> Option<&Taxation>;
    /// Current balances sorted ascending.
    fn balances_sorted(&self) -> Vec<u64>;
    /// Gini of the current wealth distribution (O(1) via the ledger's
    /// online accumulator).
    ///
    /// # Errors
    /// Returns [`CoreError::Econ`] if the market has no peers.
    fn wealth_gini(&self) -> Result<f64, CoreError>;
    /// Per-peer credit spending rates over `[0, now]`, sorted ascending.
    fn spending_rates_sorted(&self, now: SimTime) -> Vec<f64>;
    /// The internally recorded `(t, Gini)` trajectory.
    fn gini_series(&self) -> &TimeSeries;
    /// The `(t, stall rate)` trajectory — [`None`] for queue-level
    /// markets, which have no playback to stall.
    fn stall_series(&self) -> Option<&TimeSeries>;
    /// Fault-injection counters — [`None`] when the market runs without
    /// a fault plan (the default).
    fn fault_stats(&self) -> Option<&FaultStats> {
        None
    }
    /// Credits currently withheld in trade escrow for in-flight
    /// deliveries (0 without faults).
    fn in_flight_escrow(&self) -> u64 {
        0
    }
    /// FNV-1a digest of the market's deterministic state, taken at
    /// sampling boundaries for trace digest frames and golden pins.
    /// The queue-level market overrides this with a fold over the exact
    /// checkpoint byte encoding of its state (RNG streams, graph,
    /// arena, ledger, escrow, pricing, fault plan); the default folds
    /// the observable economy — population, counters, escrow pools, and
    /// the full sorted wealth distribution — for views without a
    /// checkpoint codec.
    fn state_digest(&self) -> u64 {
        let mut w = snapshot::Writer::default();
        w.put_u64(self.peer_count() as u64);
        w.put_u64(self.purchases());
        w.put_u64(self.denied());
        w.put_u64(self.total_spent());
        w.put_u64(self.in_flight_escrow());
        let ledger = self.ledger();
        w.put_u64(ledger.escrow());
        w.put_u64(ledger.minted());
        w.put_u64(ledger.burned());
        for balance in self.balances_sorted() {
            w.put_u64(balance);
        }
        snapshot::fingerprint(w.as_slice())
    }
}

impl MarketView for CreditMarket {
    fn peer_count(&self) -> usize {
        CreditMarket::peer_count(self)
    }
    fn purchases(&self) -> u64 {
        CreditMarket::purchases(self)
    }
    fn denied(&self) -> u64 {
        CreditMarket::denied(self)
    }
    fn total_spent(&self) -> u64 {
        CreditMarket::total_spent(self)
    }
    fn ledger(&self) -> &Ledger {
        CreditMarket::ledger(self)
    }
    fn taxation(&self) -> Option<&Taxation> {
        CreditMarket::taxation(self)
    }
    fn balances_sorted(&self) -> Vec<u64> {
        CreditMarket::balances_sorted(self)
    }
    fn wealth_gini(&self) -> Result<f64, CoreError> {
        CreditMarket::wealth_gini(self)
    }
    fn spending_rates_sorted(&self, now: SimTime) -> Vec<f64> {
        CreditMarket::spending_rates_sorted(self, now)
    }
    fn gini_series(&self) -> &TimeSeries {
        CreditMarket::gini_series(self)
    }
    fn stall_series(&self) -> Option<&TimeSeries> {
        None
    }
    fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults_enabled()
            .then(|| CreditMarket::fault_stats(self))
    }
    fn in_flight_escrow(&self) -> u64 {
        CreditMarket::in_flight_escrow(self)
    }
    fn state_digest(&self) -> u64 {
        CreditMarket::state_digest(self)
    }
}

impl MarketView for StreamingSystem<CreditTradePolicy> {
    fn peer_count(&self) -> usize {
        StreamingSystem::peer_count(self)
    }
    fn purchases(&self) -> u64 {
        self.policy().settlements
    }
    fn denied(&self) -> u64 {
        self.policy().denials
    }
    fn total_spent(&self) -> u64 {
        self.policy().total_spent()
    }
    fn ledger(&self) -> &Ledger {
        self.policy().ledger()
    }
    fn taxation(&self) -> Option<&Taxation> {
        self.policy().taxation()
    }
    fn balances_sorted(&self) -> Vec<u64> {
        self.policy().balances_sorted()
    }
    fn wealth_gini(&self) -> Result<f64, CoreError> {
        self.policy().wealth_gini()
    }
    fn spending_rates_sorted(&self, now: SimTime) -> Vec<f64> {
        self.policy().spending_rates_sorted(now)
    }
    fn gini_series(&self) -> &TimeSeries {
        self.policy().gini_series()
    }
    fn stall_series(&self) -> Option<&TimeSeries> {
        Some(StreamingSystem::stall_series(self))
    }
    fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults_enabled()
            .then(|| StreamingSystem::fault_stats(self))
    }
    // `in_flight_escrow` stays 0: the streaming layer settles on
    // delivery, so no credits sit in trade escrow.
}

/// A pluggable observer over one market run.
///
/// Hooks fire **only at sampling boundaries** (never per simulator
/// event), so attaching probes cannot perturb the spend/trade hot
/// paths; see the [module docs](self) for the cost model. All hooks
/// have empty defaults except [`Probe::at_horizon`], where the probe
/// deposits whatever it measured into the [`Recorder`].
pub trait Probe: Send {
    /// Extra simulated instants (besides the regular sampling grid) at
    /// which this probe needs [`Probe::on_sample`] — e.g. wealth
    /// snapshot times. Queried once at [`Session::attach`].
    fn extra_stops(&self) -> Vec<SimTime> {
        Vec::new()
    }

    /// Called once at the start of the run, after the market has
    /// bootstrapped (time zero events processed).
    fn on_bootstrap(&mut self, view: &dyn MarketView) {
        let _ = view;
    }

    /// Batched settlement notification: how many purchases settled and
    /// how many were denied since the previous sampling boundary.
    /// Delivered immediately before [`Probe::on_sample`] at every stop —
    /// this is how throughput-style probes observe purchase flow without
    /// any per-event dispatch.
    fn on_settle(&mut self, now: SimTime, settled: u64, denied: u64) {
        let _ = (now, settled, denied);
    }

    /// Called at every sampling boundary: the market's
    /// `sample_interval` grid plus any [`Probe::extra_stops`] requested
    /// by an attached probe.
    fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
        let _ = (now, view);
    }

    /// Called once when the session finishes: deposit measurements into
    /// the recorder.
    fn at_horizon(&mut self, now: SimTime, view: &dyn MarketView, rec: &mut Recorder);

    /// Serializes the probe's accumulated state for a
    /// [`Session::checkpoint`]. Stateless probes (the default) return an
    /// empty block; stateful probes must override this *and*
    /// [`Probe::restore_state`] so a resumed run reproduces the
    /// uninterrupted one byte for byte.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`Probe::snapshot_state`] during
    /// [`Session::resume`]. The default accepts only the empty block a
    /// stateless probe writes — resuming a stateful snapshot into a
    /// probe that cannot read it fails loudly.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] when the block cannot be
    /// decoded by this probe.
    fn restore_state(&mut self, state: &[u8]) -> Result<(), CoreError> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Checkpoint(
                "probe has checkpoint state but no restore_state implementation".into(),
            ))
        }
    }
}

/// The simulator behind a session: one of the two market granularities.
enum SessionSim {
    /// The queue-level spend-loop market.
    Queue(Simulation<CreditMarket>),
    /// The queue-level market partitioned over execution shards
    /// (`shards > 1`); output is byte-identical to [`SessionSim::Queue`].
    Sharded(Box<ShardedSimulation<ShardedMarket>>),
    /// The chunk-level streaming market.
    Chunk(Simulation<StreamingSystem<CreditTradePolicy>>),
}

/// The finished model a [`Session`] hands back, for callers that want
/// more than the [`RunRecord`] (e.g. the deprecated `run_market` /
/// `run_streaming_market` wrappers).
pub enum SessionModel {
    /// A finished queue-level market.
    Queue(CreditMarket),
    /// A finished chunk-level streaming market.
    Chunk(StreamingSystem<CreditTradePolicy>),
}

impl SessionModel {
    /// The queue-level market, if that is what ran.
    pub fn queue(self) -> Option<CreditMarket> {
        match self {
            SessionModel::Queue(market) => Some(market),
            SessionModel::Chunk(_) => None,
        }
    }

    /// The chunk-level streaming system, if that is what ran.
    pub fn chunk(self) -> Option<StreamingSystem<CreditTradePolicy>> {
        match self {
            SessionModel::Queue(_) => None,
            SessionModel::Chunk(system) => Some(system),
        }
    }
}

/// The first point where a replayed run departed from its recorded
/// trace — what `scrip-sim replay`/`bisect` report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDivergence {
    /// Instant of the divergence.
    pub time: SimTime,
    /// Global sequence number of the divergent event ([`None`] when a
    /// digest frame at a sampling boundary caught the divergence).
    pub seq: Option<u64>,
    /// What the recorded trace expected (decoded, human-readable).
    pub expected: String,
    /// What the live re-execution produced.
    pub actual: String,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replay diverged at t={}µs", self.time.as_micros())?;
        if let Some(seq) = self.seq {
            write!(f, " seq={seq}")?;
        }
        write!(
            f,
            ": trace recorded {}, live run produced {}",
            self.expected, self.actual
        )
    }
}

fn trace_err(e: TraceError) -> CoreError {
    CoreError::Trace(e.to_string())
}

/// Renders a trace event payload for divergence reports.
fn describe_payload(payload: &[u8]) -> String {
    match MarketEvent::from_trace_payload(payload) {
        Ok(event) => format!("{event:?}"),
        Err(_) => format!("<{} undecodable payload bytes>", payload.len()),
    }
}

/// One sampling-boundary observation, handed to a [`SampleSink`] the
/// moment the boundary's probes have run. This is the incremental
/// (streaming) counterpart of the end-of-run [`RunRecord`]: a scalar
/// summary of the market at one boundary, cheap enough to emit at every
/// tick without touching the probe registry.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveSample {
    /// The sampling-boundary instant.
    pub time: SimTime,
    /// Kernel events dispatched so far.
    pub events_processed: u64,
    /// Live peers at the boundary.
    pub peers: usize,
    /// Cumulative successful purchases.
    pub purchases: u64,
    /// Cumulative denied purchase attempts.
    pub denied: u64,
    /// Cumulative credits spent by live peers.
    pub total_spent: u64,
    /// Wealth Gini at the boundary — [`None`] when the market has no
    /// live peers to measure.
    pub wealth_gini: Option<f64>,
}

/// A consumer of per-boundary [`LiveSample`]s — the live-telemetry
/// counterpart of [`Probe`]. Sinks are transient observers: they carry
/// no checkpointed state, may be attached at any point (including to a
/// [`Session::resume`]d session), and never influence the simulation —
/// a session with a sink produces output byte-identical to one without.
pub trait SampleSink: Send {
    /// Called once per sampling boundary, after every probe has run.
    fn on_sample(&mut self, sample: &LiveSample);
}

impl<F: FnMut(&LiveSample) + Send> SampleSink for F {
    fn on_sample(&mut self, sample: &LiveSample) {
        self(sample)
    }
}

/// Trace state attached to a session: either recording the event
/// stream or verifying a live re-execution against a recorded one.
enum Tracer {
    /// Recording: every applied event becomes a frame, every sampling
    /// boundary a digest frame followed by a flush.
    Record {
        writer: TraceWriter<BufWriter<std::fs::File>>,
        /// Reused per-event encode buffer (no per-event allocation).
        scratch: snapshot::Writer,
        error: Option<TraceError>,
    },
    /// Verifying: each applied event must match the next recorded
    /// event frame, each shared boundary the recorded digest.
    Verify {
        reader: TraceReader,
        consumer: usize,
        scratch: snapshot::Writer,
        divergence: Option<TraceDivergence>,
        error: Option<TraceError>,
    },
}

impl Tracer {
    /// Whether tracing hit a terminal condition (I/O error or replay
    /// divergence) — the session stops running when this turns true.
    fn halted(&self) -> bool {
        match self {
            Tracer::Record { error, .. } => error.is_some(),
            Tracer::Verify {
                divergence, error, ..
            } => divergence.is_some() || error.is_some(),
        }
    }

    /// The per-event kernel tap: returning `false` vetoes the dispatch
    /// and freezes the simulation at the pre-event state.
    fn on_event(&mut self, time: SimTime, seq: u64, event: &MarketEvent) -> bool {
        match self {
            Tracer::Record {
                writer,
                scratch,
                error,
            } => {
                scratch.clear();
                event.encode(scratch);
                if let Err(e) = writer.event(time, seq, scratch.as_slice()) {
                    *error = Some(e);
                    return false;
                }
                true
            }
            Tracer::Verify {
                reader,
                consumer,
                scratch,
                divergence,
                error,
            } => {
                // Digest frames belong to boundaries; any still sitting
                // before the next event frame were taken at stops this
                // session does not share (e.g. probe extra stops during
                // a mid-run bisection) — skip them. Shared boundaries
                // consume their digest strictly in `on_boundary` before
                // the next event is tapped.
                loop {
                    match reader.peek_frame(*consumer) {
                        Ok(Some(TraceFrame::Digest { .. })) => {
                            let _ = reader.next_frame(*consumer);
                        }
                        Ok(_) => break,
                        Err(e) => {
                            *error = Some(e);
                            return false;
                        }
                    }
                }
                let frame = match reader.next_frame(*consumer) {
                    Ok(frame) => frame,
                    Err(e) => {
                        *error = Some(e);
                        return false;
                    }
                };
                scratch.clear();
                event.encode(scratch);
                let actual = format!("{event:?}");
                match frame {
                    Some(TraceFrame::Event {
                        time: rt,
                        seq: rs,
                        payload,
                    }) => {
                        if rt == time && rs == seq && payload.as_slice() == scratch.as_slice() {
                            return true;
                        }
                        *divergence = Some(TraceDivergence {
                            time,
                            seq: Some(seq),
                            expected: format!(
                                "{} at (t={}µs, seq={rs})",
                                describe_payload(&payload),
                                rt.as_micros()
                            ),
                            actual,
                        });
                        false
                    }
                    Some(TraceFrame::Digest { .. }) => unreachable!("digest frames skipped above"),
                    Some(TraceFrame::End { time: rt, .. }) => {
                        *divergence = Some(TraceDivergence {
                            time,
                            seq: Some(seq),
                            expected: format!(
                                "end of trace (recorded run finished at t={}µs)",
                                rt.as_micros()
                            ),
                            actual,
                        });
                        false
                    }
                    None => {
                        *divergence = Some(TraceDivergence {
                            time,
                            seq: Some(seq),
                            expected: "end of trace (recorded run produced no further events)"
                                .into(),
                            actual,
                        });
                        false
                    }
                }
            }
        }
    }

    /// The sampling-boundary hook: record a digest frame and flush, or
    /// strictly verify the recorded digest for this boundary.
    fn on_boundary(&mut self, now: SimTime, events_processed: u64, digest: u64) {
        match self {
            Tracer::Record { writer, error, .. } => {
                if error.is_some() {
                    return;
                }
                let outcome = writer
                    .digest(now, events_processed, digest)
                    .and_then(|()| writer.flush());
                if let Err(e) = outcome {
                    *error = Some(e);
                }
            }
            Tracer::Verify {
                reader,
                consumer,
                divergence,
                error,
                ..
            } => {
                if divergence.is_some() || error.is_some() {
                    return;
                }
                match reader.peek_frame(*consumer) {
                    Err(e) => *error = Some(e),
                    Ok(Some(TraceFrame::Digest {
                        time: rt,
                        events_processed: re,
                        digest: rd,
                    })) if rt == now => {
                        let _ = reader.next_frame(*consumer);
                        if re != events_processed || rd != digest {
                            *divergence = Some(TraceDivergence {
                                time: now,
                                seq: None,
                                expected: format!("digest {rd:#018x} after {re} events"),
                                actual: format!(
                                    "digest {digest:#018x} after {events_processed} events"
                                ),
                            });
                        }
                    }
                    Ok(Some(TraceFrame::Event {
                        time: rt,
                        seq: rs,
                        payload,
                    })) if rt <= now => {
                        // The recorded run applied more events by this
                        // boundary than the live run produced.
                        *divergence = Some(TraceDivergence {
                            time: rt,
                            seq: Some(rs),
                            expected: format!(
                                "{} at (t={}µs, seq={rs})",
                                describe_payload(&payload),
                                rt.as_micros()
                            ),
                            actual: format!(
                                "no further events by the boundary at t={}µs",
                                now.as_micros()
                            ),
                        });
                    }
                    // A boundary the recorded run did not stop at (or
                    // the trace ended at an earlier horizon): nothing
                    // recorded to check against.
                    Ok(_) => {}
                }
            }
        }
    }
}

/// One market run under observation: the unified entry point for both
/// granularities. See the [module docs](self) for the full picture and
/// an example.
pub struct Session {
    sim: SessionSim,
    probes: Vec<Box<dyn Probe>>,
    /// The root seed the market was built from — stored so a
    /// [`Session::checkpoint`] can rebuild the same derived RNG streams
    /// on [`Session::resume`].
    seed: u64,
    /// The sampling-grid spacing (the market's effective
    /// `sample_interval`).
    interval: SimDuration,
    /// Next regular sampling boundary.
    next_tick: SimTime,
    /// Pending extra stops from probes, ascending and deduplicated.
    stops: Vec<SimTime>,
    /// Purchase/denial counts at the previous boundary (for
    /// [`Probe::on_settle`] deltas).
    last_purchases: u64,
    last_denied: u64,
    started: bool,
    /// Attached trace recorder/verifier, if any. Boxed: sessions
    /// without one pay a single pointer of overhead.
    tracer: Option<Box<Tracer>>,
    /// Live telemetry sink, if any; fed one [`LiveSample`] per
    /// sampling boundary. Never checkpointed — sinks are transient
    /// observers re-attached by the caller after a resume.
    sink: Option<Box<dyn SampleSink>>,
}

impl Session {
    /// Builds a session from any market configuration: a config whose
    /// [`MarketConfig::streaming`] is set runs at chunk granularity
    /// through the protocol stack, one with [`MarketConfig::shards`]
    /// `> 1` runs the queue-level market on the sharded kernel
    /// (byte-identical output, sampling boundaries double as window
    /// barriers), everything else runs the queue-level
    /// spend loop. The simulation is pre-sized
    /// (`queue_capacity_hint`) and its bootstrap event scheduled; call
    /// [`Session::attach`] before [`Session::run_until`].
    ///
    /// # Errors
    /// Returns [`CoreError`] for invalid configurations or topology
    /// failures.
    pub fn from_config(config: &MarketConfig, seed: u64) -> Result<Session, CoreError> {
        let (sim, interval) = if config.streaming.is_some() {
            let system = build_streaming_market(config, seed)?;
            let interval = system
                .config()
                .sample_interval
                .unwrap_or(config.sample_interval);
            let profile = system.queue_profile();
            let mut sim = Simulation::with_profile(system, profile);
            sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
            (SessionSim::Chunk(sim), interval)
        } else if config.shards > 1 {
            // Sharded execution: the same market on the windowed
            // kernel, with the sampling grid as the tick-window width
            // so sampling boundaries are shard barriers.
            let market = CreditMarket::build(config.clone(), seed)?;
            let interval = config.sample_interval;
            let profile = market.queue_profile();
            let mut sim = ShardedSimulation::with_profile(
                ShardedMarket::new(market, config.shards),
                interval,
                profile,
            );
            sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
            (SessionSim::Sharded(Box::new(sim)), interval)
        } else {
            let market = CreditMarket::build(config.clone(), seed)?;
            let interval = config.sample_interval;
            let profile = market.queue_profile();
            let mut sim = Simulation::with_profile(market, profile);
            sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
            (SessionSim::Queue(sim), interval)
        };
        Ok(Session {
            sim,
            probes: Vec::new(),
            seed,
            interval,
            next_tick: SimTime::ZERO + interval,
            stops: Vec::new(),
            last_purchases: 0,
            last_denied: 0,
            started: false,
            tracer: None,
            sink: None,
        })
    }

    /// Attaches a live telemetry sink, replacing any previous one: from
    /// here on every sampling boundary hands it a [`LiveSample`] right
    /// after the boundary's probes run. Unlike [`Session::attach`] this
    /// is legal at any point in the run — including on a resumed
    /// session — because sinks observe without participating: the
    /// simulation's output is byte-identical with or without one.
    pub fn stream_samples_to(&mut self, sink: Box<dyn SampleSink>) {
        self.sink = Some(sink);
    }

    /// Attaches a probe. Its [`Probe::extra_stops`] are merged into the
    /// session's stop schedule.
    ///
    /// # Panics
    /// Panics if the session has already started running — probes must
    /// observe the run from the beginning.
    pub fn attach(&mut self, probe: Box<dyn Probe>) {
        assert!(
            !self.started,
            "attach probes before the first run_until call"
        );
        self.stops.extend(probe.extra_stops());
        self.stops.sort_unstable();
        self.stops.dedup();
        self.probes.push(probe);
    }

    /// Number of attached probes.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    /// The current simulation clock.
    pub fn now(&self) -> SimTime {
        match &self.sim {
            SessionSim::Queue(sim) => sim.now(),
            SessionSim::Sharded(sim) => sim.now(),
            SessionSim::Chunk(sim) => sim.now(),
        }
    }

    /// Kernel counters for the run so far (events processed/pending).
    pub fn stats(&self) -> RunStats {
        match &self.sim {
            SessionSim::Queue(sim) => sim.stats(),
            SessionSim::Sharded(sim) => sim.stats(),
            SessionSim::Chunk(sim) => sim.stats(),
        }
    }

    /// The observable market state, at either granularity.
    pub fn view(&self) -> &dyn MarketView {
        match &self.sim {
            SessionSim::Queue(sim) => sim.model(),
            SessionSim::Sharded(sim) => sim.model().market(),
            SessionSim::Chunk(sim) => sim.model(),
        }
    }

    fn sim_run_until(&mut self, t: SimTime) {
        let tracer = self.tracer.as_deref_mut();
        match &mut self.sim {
            SessionSim::Queue(sim) => {
                if let Some(tracer) = tracer {
                    sim.run_until_traced(t, &mut |time, seq, event| {
                        tracer.on_event(time, seq, event)
                    });
                } else {
                    sim.run_until(t);
                }
            }
            SessionSim::Sharded(sim) => {
                if let Some(tracer) = tracer {
                    sim.run_until_traced(t, &mut |time, seq, event| {
                        tracer.on_event(time, seq, event)
                    });
                } else {
                    sim.run_until(t);
                }
            }
            SessionSim::Chunk(sim) => {
                sim.run_until(t);
            }
        }
    }

    /// Whether tracing hit a terminal condition (I/O error or replay
    /// divergence); the session freezes at the pre-event state until
    /// [`Session::finish_trace`] reports the cause.
    fn trace_halted(&self) -> bool {
        self.tracer.as_deref().is_some_and(Tracer::halted)
    }

    /// Emits (or verifies) the state-digest frame for boundary `now`.
    /// No-op without a tracer.
    fn trace_boundary(&mut self, now: SimTime) {
        if self.tracer.is_none() {
            return;
        }
        let digest = self.view().state_digest();
        let events_processed = self.stats().events_processed;
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.on_boundary(now, events_processed, digest);
        }
    }

    /// Delivers `on_settle` + `on_sample` to every probe at boundary
    /// `now`.
    fn dispatch_sample(&mut self, now: SimTime) {
        let events_processed = self.stats().events_processed;
        let view: &dyn MarketView = match &self.sim {
            SessionSim::Queue(sim) => sim.model(),
            SessionSim::Sharded(sim) => sim.model().market(),
            SessionSim::Chunk(sim) => sim.model(),
        };
        let purchases = view.purchases();
        let denied = view.denied();
        let settled_delta = purchases - self.last_purchases;
        let denied_delta = denied - self.last_denied;
        self.last_purchases = purchases;
        self.last_denied = denied;
        for probe in &mut self.probes {
            probe.on_settle(now, settled_delta, denied_delta);
            probe.on_sample(now, view);
        }
        if let Some(sink) = &mut self.sink {
            sink.on_sample(&LiveSample {
                time: now,
                events_processed,
                peers: view.peer_count(),
                purchases,
                denied,
                total_spent: view.total_spent(),
                wealth_gini: view.wealth_gini().ok(),
            });
        }
    }

    /// Processes the time-zero events (bootstrap) and delivers
    /// [`Probe::on_bootstrap`], exactly once.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // No digest frame at time zero: the serial kernel applies the
        // bootstrap event inside this call while the sharded kernel
        // defers it to the first window, so a t = 0 digest would sit at
        // different stream positions per kernel and break cross-shard
        // trace identity. Bisection anchors on a fresh session instead.
        self.sim_run_until(SimTime::ZERO);
        if self.trace_halted() {
            return;
        }
        let view: &dyn MarketView = match &self.sim {
            SessionSim::Queue(sim) => sim.model(),
            SessionSim::Sharded(sim) => sim.model().market(),
            SessionSim::Chunk(sim) => sim.model(),
        };
        self.last_purchases = view.purchases();
        self.last_denied = view.denied();
        for probe in &mut self.probes {
            probe.on_bootstrap(view);
        }
        // Extra stops at time zero (e.g. a snapshot at t = 0) fire right
        // after bootstrap.
        while self.stops.first() == Some(&SimTime::ZERO) {
            self.stops.remove(0);
            self.dispatch_sample(SimTime::ZERO);
        }
    }

    /// Advances the simulation to `horizon` (inclusive), stopping at
    /// every sampling boundary in between to dispatch probe hooks. With
    /// no probes attached this is a single uninterrupted `run_until` —
    /// zero overhead over driving the simulator directly. May be called
    /// repeatedly with increasing horizons.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.probes.is_empty() && self.tracer.is_none() && self.sink.is_none() {
            self.started = true;
            self.sim_run_until(horizon);
            // Keep the sampling grid aligned with the clock: a later
            // consumer (a checkpoint resumed with a sink attached, say)
            // must not observe phantom boundaries the fast path skipped.
            while self.next_tick <= self.now() {
                self.next_tick += self.interval;
            }
            return;
        }
        self.ensure_started();
        while self.now() < horizon && !self.trace_halted() {
            let mut stop = horizon;
            if self.next_tick <= stop {
                stop = self.next_tick;
            }
            if let Some(&extra) = self.stops.first() {
                if extra > self.now() && extra <= stop {
                    stop = extra;
                }
            }
            self.sim_run_until(stop);
            if self.trace_halted() {
                return;
            }
            // Every stop — tick, extra, or horizon — is a sampling
            // boundary, so record/verify its state digest.
            self.trace_boundary(stop);
            if self.trace_halted() {
                return;
            }
            let is_tick = stop == self.next_tick;
            let is_extra = self.stops.first() == Some(&stop);
            if is_tick || is_extra {
                if is_tick {
                    self.next_tick += self.interval;
                }
                if is_extra {
                    self.stops.remove(0);
                }
                self.dispatch_sample(stop);
            }
        }
    }

    /// The configuration fingerprint stored in trace headers. Unlike
    /// the checkpoint fingerprint this normalizes `shards` away: the
    /// event stream is execution-strategy independent (a pinned
    /// invariant), so a trace recorded at any shard count replays at
    /// any other.
    fn trace_config_fingerprint(&self) -> Result<u64, CoreError> {
        let config = match &self.sim {
            SessionSim::Queue(sim) => sim.model().config(),
            SessionSim::Sharded(sim) => sim.model().market().config(),
            SessionSim::Chunk(_) => {
                return Err(CoreError::Trace(
                    "chunk-level (streaming) sessions cannot record or replay event traces".into(),
                ));
            }
        };
        let mut canonical = config.clone();
        canonical.shards = 1;
        Ok(snapshot::fingerprint(format!("{canonical:?}").as_bytes()))
    }

    /// Starts recording this session's event stream to `path` in the
    /// `SCRIPTRC` format ([`scrip_des::trace`]): one frame per applied
    /// event, keyed by its `(time, seq)` identity, plus a state-digest
    /// frame at every sampling boundary. Frames are buffered and
    /// flushed at boundaries; [`Session::finish_trace`] completes the
    /// file. Traces are execution-strategy independent — recording the
    /// same scenario serially or sharded produces byte-identical files.
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] if the session already started, is
    /// chunk-level (streaming), already has a tracer attached, or the
    /// file cannot be created.
    pub fn record_to(&mut self, path: &Path) -> Result<(), CoreError> {
        if self.started {
            return Err(CoreError::Trace(
                "start recording before the first run_until call".into(),
            ));
        }
        if self.tracer.is_some() {
            return Err(CoreError::Trace(
                "session already has a tracer attached".into(),
            ));
        }
        let fingerprint = self.trace_config_fingerprint()?;
        let file = std::fs::File::create(path)
            .map_err(|e| CoreError::Trace(format!("create {}: {e}", path.display())))?;
        let writer = TraceWriter::new(
            BufWriter::new(file),
            TraceHeader {
                fingerprint,
                seed: self.seed,
            },
        );
        self.tracer = Some(Box::new(Tracer::Record {
            writer,
            scratch: snapshot::Writer::default(),
            error: None,
        }));
        Ok(())
    }

    /// Re-executes this session against the trace at `path`,
    /// fail-closed: every applied event must match the recorded frame
    /// byte for byte and every shared sampling boundary the recorded
    /// state digest. On the first mismatch the run freezes at the
    /// pre-event state ([`Session::trace_divergence`] has the details;
    /// [`Session::finish_trace`] returns them as an error).
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] for unreadable/corrupt trace files,
    /// a header (configuration or seed) mismatch, or a session that
    /// already started.
    pub fn replay_from(&mut self, path: &Path) -> Result<(), CoreError> {
        if self.started {
            return Err(CoreError::Trace(
                "attach a replay before the first run_until call".into(),
            ));
        }
        let reader = TraceReader::from_path(path).map_err(trace_err)?;
        self.replay_resume(reader)
    }

    /// Attaches replay verification to a session positioned mid-run —
    /// a [`Session::resume`]d checkpoint during divergence bisection.
    /// Event frames already covered by the session's processed-event
    /// count are skipped, along with digest frames at or before its
    /// clock; every further event is then verified as in
    /// [`Session::replay_from`].
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] on a header mismatch, an already
    /// attached tracer, or a trace shorter than the session's position.
    pub fn replay_resume(&mut self, mut reader: TraceReader) -> Result<(), CoreError> {
        if self.tracer.is_some() {
            return Err(CoreError::Trace(
                "session already has a tracer attached".into(),
            ));
        }
        let fingerprint = self.trace_config_fingerprint()?;
        let header = *reader.header();
        if header.fingerprint != fingerprint {
            return Err(CoreError::Trace(
                "configuration mismatch: trace was recorded under a different scenario".into(),
            ));
        }
        if header.seed != self.seed {
            return Err(CoreError::Trace(format!(
                "seed mismatch: trace was recorded with seed {}, session runs seed {}",
                header.seed, self.seed
            )));
        }
        let consumer = reader.register_consumer();
        let target = self.stats().events_processed;
        let now = self.now();
        let mut skipped = 0u64;
        loop {
            match reader.peek_frame(consumer).map_err(trace_err)? {
                Some(TraceFrame::Event { .. }) if skipped < target => {
                    skipped += 1;
                    reader.next_frame(consumer).map_err(trace_err)?;
                }
                Some(TraceFrame::Digest { time, .. }) if time <= now && skipped < target => {
                    reader.next_frame(consumer).map_err(trace_err)?;
                }
                _ => break,
            }
        }
        if skipped != target {
            return Err(CoreError::Trace(format!(
                "trace too short to verify from here: it holds {skipped} events up to the \
                 session clock, the session has already applied {target}"
            )));
        }
        // Digest frames for boundaries at or before the clock (e.g. the
        // boundary this session checkpointed at) are already covered.
        while let Some(TraceFrame::Digest { time, .. }) =
            reader.peek_frame(consumer).map_err(trace_err)?
        {
            if time > now {
                break;
            }
            reader.next_frame(consumer).map_err(trace_err)?;
        }
        self.tracer = Some(Box::new(Tracer::Verify {
            reader,
            consumer,
            scratch: snapshot::Writer::default(),
            divergence: None,
            error: None,
        }));
        Ok(())
    }

    /// The first divergence a replaying session found, if any. The
    /// simulation is frozen at the pre-event state of the divergent
    /// `(time, seq)`.
    pub fn trace_divergence(&self) -> Option<&TraceDivergence> {
        match self.tracer.as_deref() {
            Some(Tracer::Verify { divergence, .. }) => divergence.as_ref(),
            _ => None,
        }
    }

    /// Completes and detaches the session's trace. A recording is
    /// flushed and closed; a verification must have consumed the whole
    /// recorded event stream without divergence. A session with no
    /// tracer attached returns `Ok(())`.
    ///
    /// # Errors
    /// Returns [`CoreError::Trace`] on recording I/O failure, on the
    /// divergence a replay halted at, or when the recorded run
    /// continued past this one's horizon.
    pub fn finish_trace(&mut self) -> Result<(), CoreError> {
        let close_at = self.now();
        let events_processed = self.stats().events_processed;
        match self.tracer.take().map(|boxed| *boxed) {
            None => Ok(()),
            Some(Tracer::Record {
                mut writer, error, ..
            }) => {
                if let Some(e) = error {
                    return Err(trace_err(e));
                }
                // Close the log with an end frame so tailing consumers
                // can tell "run over" from "writer between flushes".
                writer.end(close_at, events_processed).map_err(trace_err)?;
                writer.finish().map(|_| ()).map_err(trace_err)
            }
            Some(Tracer::Verify {
                mut reader,
                consumer,
                divergence,
                error,
                ..
            }) => {
                if let Some(e) = error {
                    return Err(trace_err(e));
                }
                if let Some(d) = divergence {
                    return Err(CoreError::Trace(d.to_string()));
                }
                // Anything left must be boundary digests from stops
                // this session did not share; leftover event frames
                // mean the recorded run kept going past this one.
                while let Some(frame) = reader.next_frame(consumer).map_err(trace_err)? {
                    if let TraceFrame::Event { time, seq, payload } = frame {
                        return Err(CoreError::Trace(format!(
                            "recorded run continued past this one: next recorded event {} at \
                             (t={}µs, seq={seq})",
                            describe_payload(&payload),
                            time.as_micros()
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Serializes the complete session state — RNG streams, market
    /// (graph, arena, ledger, escrow, pricing, fault plan), every
    /// pending event with its `(time, seq)` identity, the sampling
    /// schedule, and each probe's accumulated state — into one binary
    /// snapshot. Resuming it with [`Session::resume`] and running to the
    /// horizon produces output byte-identical to never having stopped.
    ///
    /// Checkpoint at a quiescent instant: after a [`Session::run_until`]
    /// call, so no event at or before the clock is still pending.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for sharded (`shards > 1`) and
    /// chunk-level (streaming) sessions, which do not support
    /// checkpointing yet.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CoreError> {
        let sim = match &self.sim {
            SessionSim::Queue(sim) => sim,
            SessionSim::Sharded(_) => {
                return Err(CoreError::Checkpoint(
                    "sharded sessions (shards > 1) cannot checkpoint; run with shards = 1".into(),
                ));
            }
            SessionSim::Chunk(_) => {
                return Err(CoreError::Checkpoint(
                    "chunk-level (streaming) sessions cannot checkpoint".into(),
                ));
            }
        };
        let market = sim.model();
        let mut w = snapshot::Writer::with_header();
        let config_repr = format!("{:?}", market.config());
        w.put_u64(snapshot::fingerprint(config_repr.as_bytes()));
        w.put_u64(self.seed);
        w.put_u64(sim.now().as_micros());
        w.put_u64(sim.stats().events_processed);
        let pending = sim.scheduler().snapshot_events();
        w.put_u64(pending.len() as u64);
        for scheduled in &pending {
            w.put_u64(scheduled.time.as_micros());
            w.put_u64(scheduled.seq);
            scheduled.event.encode(&mut w);
        }
        market.write_state(&mut w);
        w.put_u64(self.interval.as_micros());
        w.put_u64(self.next_tick.as_micros());
        w.put_u64(self.stops.len() as u64);
        for stop in &self.stops {
            w.put_u64(stop.as_micros());
        }
        w.put_u64(self.last_purchases);
        w.put_u64(self.last_denied);
        w.put_bool(self.started);
        w.put_u64(self.probes.len() as u64);
        for probe in &self.probes {
            w.put_bytes(&probe.snapshot_state());
        }
        Ok(w.into_bytes())
    }

    /// Rebuilds a session from a [`Session::checkpoint`] snapshot.
    ///
    /// `config` must be the configuration the checkpointed session was
    /// built from (checked against a fingerprint in the snapshot), and
    /// `probes` must be the same probes in the same order — their
    /// accumulated state is restored from the snapshot, so pass freshly
    /// constructed instances. Running the resumed session to the horizon
    /// and finishing it reproduces the uninterrupted run byte for byte.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for corrupt or truncated
    /// snapshots, a configuration or probe-count mismatch, or a snapshot
    /// written by an incompatible format version.
    pub fn resume(
        config: &MarketConfig,
        mut probes: Vec<Box<dyn Probe>>,
        bytes: &[u8],
    ) -> Result<Session, CoreError> {
        let mut r = snapshot::Reader::with_header(bytes)?;
        let stored_fingerprint = r.take_u64()?;
        let config_repr = format!("{config:?}");
        if stored_fingerprint != snapshot::fingerprint(config_repr.as_bytes()) {
            return Err(CoreError::Checkpoint(
                "configuration mismatch: snapshot was taken under a different scenario".into(),
            ));
        }
        let seed = r.take_u64()?;
        let clock = SimTime::from_micros(r.take_u64()?);
        let events_processed = r.take_u64()?;
        // Per event: time, seq, and at least a one-byte event tag.
        let pending_len = r.take_count(17)?;
        let mut pending = Vec::with_capacity(pending_len);
        for _ in 0..pending_len {
            let time = SimTime::from_micros(r.take_u64()?);
            let seq = r.take_u64()?;
            let event = MarketEvent::decode(&mut r)?;
            pending.push(Scheduled { time, seq, event });
        }
        let market = CreditMarket::restore(config.clone(), seed, &mut r)?;
        let interval = SimDuration::from_micros(r.take_u64()?);
        let next_tick = SimTime::from_micros(r.take_u64()?);
        let stops_len = r.take_count(8)?;
        let mut stops = Vec::with_capacity(stops_len);
        for _ in 0..stops_len {
            stops.push(SimTime::from_micros(r.take_u64()?));
        }
        let last_purchases = r.take_u64()?;
        let last_denied = r.take_u64()?;
        let started = r.take_bool()?;
        let probe_count = r.take_u64()?;
        if probe_count != probes.len() as u64 {
            return Err(CoreError::Checkpoint(format!(
                "snapshot has {probe_count} probes, resume was given {}",
                probes.len()
            )));
        }
        for probe in &mut probes {
            let state = r.take_bytes()?;
            probe.restore_state(state)?;
        }
        r.finish()?;
        // A plain heap backend: restored runs pop the identical
        // `(time, seq)` sequence on either backend (a pinned invariant),
        // and the heap needs no cursor advance from time zero.
        let mut scheduler = Scheduler::with_capacity(pending.len() + market.queue_capacity_hint());
        scheduler.restore_clock(clock);
        for scheduled in pending {
            scheduler.enqueue_scheduled(scheduled);
        }
        let sim = Simulation::from_parts(market, scheduler, events_processed);
        Ok(Session {
            sim: SessionSim::Queue(sim),
            probes,
            seed,
            interval,
            next_tick,
            stops,
            last_purchases,
            last_denied,
            started,
            tracer: None,
            sink: None,
        })
    }

    /// Finishes the run: every probe's [`Probe::at_horizon`] deposits
    /// into the record, the session adds the core counters
    /// ([`ids::PURCHASES`], [`ids::DENIED`], [`ids::TOTAL_SPENT`],
    /// [`ids::PEER_COUNT`], [`ids::WEALTH_GINI`] — absent when no peers
    /// remain — [`ids::TAX_COLLECTED`], [`ids::TAX_REDISTRIBUTED`]), and
    /// the finished model is handed back alongside.
    pub fn finish(mut self) -> (RunRecord, SessionModel) {
        let now = self.now();
        let mut recorder = Recorder::default();
        {
            let view: &dyn MarketView = match &self.sim {
                SessionSim::Queue(sim) => sim.model(),
                SessionSim::Sharded(sim) => sim.model().market(),
                SessionSim::Chunk(sim) => sim.model(),
            };
            recorder.record(ids::PURCHASES, MetricValue::Counter(view.purchases()));
            recorder.record(ids::DENIED, MetricValue::Counter(view.denied()));
            recorder.record(ids::TOTAL_SPENT, MetricValue::Counter(view.total_spent()));
            recorder.record(
                ids::PEER_COUNT,
                MetricValue::Counter(view.peer_count() as u64),
            );
            if let Ok(gini) = view.wealth_gini() {
                recorder.record(ids::WEALTH_GINI, MetricValue::Scalar(gini));
            }
            let (collected, redistributed) = view
                .taxation()
                .map_or((0, 0), |t| (t.collected, t.redistributed));
            recorder.record(ids::TAX_COLLECTED, MetricValue::Counter(collected));
            recorder.record(ids::TAX_REDISTRIBUTED, MetricValue::Counter(redistributed));
            for probe in &mut self.probes {
                probe.at_horizon(now, view, &mut recorder);
            }
        }
        let model = match self.sim {
            SessionSim::Queue(sim) => SessionModel::Queue(sim.into_model()),
            SessionSim::Sharded(sim) => SessionModel::Queue(sim.into_model().into_market()),
            SessionSim::Chunk(sim) => SessionModel::Chunk(sim.into_model()),
        };
        (recorder.finish(), model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::run_market;
    use scrip_streaming::StreamingConfig;

    /// A probe exercising every hook: counts dispatches and checks the
    /// view is usable from each.
    struct CountingProbe {
        bootstraps: u32,
        samples: Vec<SimTime>,
        settled_total: u64,
        denied_total: u64,
    }

    impl CountingProbe {
        fn new() -> Self {
            CountingProbe {
                bootstraps: 0,
                samples: Vec::new(),
                settled_total: 0,
                denied_total: 0,
            }
        }
    }

    impl Probe for CountingProbe {
        fn extra_stops(&self) -> Vec<SimTime> {
            vec![SimTime::from_secs(42)]
        }
        fn on_bootstrap(&mut self, view: &dyn MarketView) {
            self.bootstraps += 1;
            assert!(view.peer_count() > 0);
        }
        fn on_settle(&mut self, _now: SimTime, settled: u64, denied: u64) {
            self.settled_total += settled;
            self.denied_total += denied;
        }
        fn on_sample(&mut self, now: SimTime, view: &dyn MarketView) {
            assert!(view.ledger().conserved());
            self.samples.push(now);
        }
        fn at_horizon(&mut self, now: SimTime, view: &dyn MarketView, rec: &mut Recorder) {
            assert_eq!(now, *self.samples.last().expect("sampled"));
            rec.record("bootstraps", MetricValue::Counter(self.bootstraps.into()));
            rec.record("settled", MetricValue::Counter(self.settled_total));
            rec.record(
                "sample-count",
                MetricValue::Counter(self.samples.len() as u64),
            );
            let _ = view;
        }
    }

    #[test]
    fn session_dispatches_hooks_at_boundaries_only() {
        let config = MarketConfig::new(30, 20);
        let mut session = Session::from_config(&config, 5).expect("builds");
        session.attach(Box::new(CountingProbe::new()));
        session.run_until(SimTime::from_secs(500));
        let (record, model) = session.finish();
        assert_eq!(record.counter("bootstraps"), 1);
        // 5 regular ticks (100..=500) + the extra stop at 42.
        assert_eq!(record.counter("sample-count"), 6);
        // The settle deltas sum to the final purchase counter.
        assert_eq!(record.counter("settled"), record.counter(ids::PURCHASES));
        assert!(record.counter(ids::PURCHASES) > 0);
        assert!(model.queue().is_some());
    }

    #[test]
    fn session_reproduces_run_market_exactly() {
        let config = MarketConfig::new(40, 20);
        let horizon = SimTime::from_secs(1_000);
        let direct = run_market(config.clone(), 9, horizon).expect("runs");

        // Detached session.
        let mut session = Session::from_config(&config, 9).expect("builds");
        session.run_until(horizon);
        let (record, model) = session.finish();
        let market = model.queue().expect("queue config");
        assert_eq!(market.balances_sorted(), direct.balances_sorted());
        assert_eq!(record.counter(ids::PURCHASES), direct.purchases());

        // Attached session: probes observe, results stay bit-identical.
        let mut observed = Session::from_config(&config, 9).expect("builds");
        observed.attach(Box::new(CountingProbe::new()));
        observed.run_until(horizon);
        let (orec, omodel) = observed.finish();
        let omarket = omodel.queue().expect("queue config");
        assert_eq!(omarket.balances_sorted(), direct.balances_sorted());
        assert_eq!(omarket.gini_series(), direct.gini_series());
        assert_eq!(orec.counter(ids::PURCHASES), direct.purchases());
    }

    #[test]
    fn sharded_sessions_reproduce_serial_sessions_exactly() {
        let config = MarketConfig::new(40, 20);
        let horizon = SimTime::from_secs(1_000);
        let direct = run_market(config.clone(), 9, horizon).expect("runs");
        for shards in [2, 4] {
            let sharded_config = config.clone().shards(shards);
            // Probe-less session.
            let mut session = Session::from_config(&sharded_config, 9).expect("builds");
            session.run_until(horizon);
            let (record, model) = session.finish();
            let market = model.queue().expect("sharded configs yield queue models");
            assert_eq!(market.balances_sorted(), direct.balances_sorted());
            assert_eq!(market.gini_series(), direct.gini_series());
            assert_eq!(record.counter(ids::PURCHASES), direct.purchases());
            // Probes attached: boundaries are window barriers; results
            // stay bit-identical.
            let mut observed = Session::from_config(&sharded_config, 9).expect("builds");
            observed.attach(Box::new(CountingProbe::new()));
            observed.run_until(horizon);
            let (orec, omodel) = observed.finish();
            let omarket = omodel.queue().expect("queue model");
            assert_eq!(omarket.balances_sorted(), direct.balances_sorted());
            assert_eq!(orec.counter("sample-count"), 11); // 10 ticks + stop at 42
        }
    }

    #[test]
    fn session_runs_chunk_level_configs() {
        let config = MarketConfig::new(30, 40)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(25));
        let mut session = Session::from_config(&config, 21).expect("builds");
        session.attach(Box::new(CountingProbe::new()));
        session.run_until(SimTime::from_secs(150));
        let (record, model) = session.finish();
        let system = model.chunk().expect("chunk config");
        assert!(record.counter(ids::PURCHASES) > 100, "settlements recorded");
        assert_eq!(
            record.counter(ids::PURCHASES),
            system.policy().settlements,
            "view and model agree"
        );
        assert!(system.stall_series().len() >= 6);
        // 150 / 25 = 6 regular ticks + extra stop at 42.
        assert_eq!(record.counter("sample-count"), 7);
    }

    #[test]
    fn finish_skips_wealth_gini_for_empty_markets() {
        // A market whose every peer departs before the horizon.
        use crate::market::{ChurnConfig, TopologyKind};
        let config = MarketConfig::new(4, 5)
            .topology(TopologyKind::Complete)
            .churn(ChurnConfig::new(1e-9, 0.5, 1).expect("valid"))
            .sample_interval(SimDuration::from_secs(10));
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(5_000));
        let (record, _) = session.finish();
        if record.counter(ids::PEER_COUNT) == 0 {
            assert!(record.get(ids::WEALTH_GINI).is_none());
        }
    }

    #[test]
    fn record_accessors_default_on_absence_and_type_mismatch() {
        let mut rec = Recorder::default();
        rec.record("a-series", MetricValue::Series(vec![(1.0, 2.0)]));
        rec.record("a-count", MetricValue::Counter(7));
        let record = rec.finish();
        assert_eq!(record.series("a-series"), &[(1.0, 2.0)]);
        assert_eq!(record.counter("a-count"), 7);
        assert!(record.series("missing").is_empty());
        assert!(record.series("a-count").is_empty(), "type mismatch");
        assert_eq!(record.counter("a-series"), 0, "type mismatch");
        assert!(record.scalar("missing").is_nan());
        assert_eq!(record.ids().collect::<Vec<_>>(), ["a-series", "a-count"]);
    }

    #[test]
    #[should_panic(expected = "duplicate metric id")]
    fn duplicate_metric_ids_panic() {
        let mut rec = Recorder::default();
        rec.record("x", MetricValue::Counter(1));
        rec.record("x", MetricValue::Counter(2));
    }

    #[test]
    #[should_panic(expected = "attach probes before")]
    fn attach_after_start_panics() {
        let config = MarketConfig::new(10, 5);
        let mut session = Session::from_config(&config, 1).expect("builds");
        session.run_until(SimTime::from_secs(10));
        session.attach(Box::new(CountingProbe::new()));
    }

    /// The standard probe set for checkpoint tests — every stateful
    /// built-in probe, so resume must reproduce all their state.
    fn checkpoint_probes() -> Vec<Box<dyn Probe>> {
        vec![
            Box::new(probes::GiniSeriesProbe),
            Box::new(probes::SnapshotsProbe::new(vec![150, 700])),
            Box::new(probes::ThroughputSeriesProbe::new()),
            Box::new(probes::PopulationSeriesProbe::new()),
            Box::new(probes::FaultSeriesProbe::new()),
        ]
    }

    fn straight_run(config: &MarketConfig, seed: u64, horizon: SimTime) -> (RunRecord, Vec<u64>) {
        let mut session = Session::from_config(config, seed).expect("builds");
        for probe in checkpoint_probes() {
            session.attach(probe);
        }
        session.run_until(horizon);
        let (record, model) = session.finish();
        let market = model.queue().expect("queue config");
        (record, market.balances_sorted())
    }

    fn resumed_run(
        config: &MarketConfig,
        seed: u64,
        stop: SimTime,
        horizon: SimTime,
    ) -> (RunRecord, Vec<u64>) {
        let mut session = Session::from_config(config, seed).expect("builds");
        for probe in checkpoint_probes() {
            session.attach(probe);
        }
        session.run_until(stop);
        let bytes = session.checkpoint().expect("checkpoints");
        drop(session);
        let mut resumed = Session::resume(config, checkpoint_probes(), &bytes).expect("resumes");
        // A checkpoint of the freshly resumed session reproduces the
        // original snapshot bit for bit.
        assert_eq!(resumed.checkpoint().expect("re-checkpoints"), bytes);
        resumed.run_until(horizon);
        let (record, model) = resumed.finish();
        let market = model.queue().expect("queue config");
        (record, market.balances_sorted())
    }

    #[test]
    fn resume_is_byte_identical_to_uninterrupted_run() {
        let config = MarketConfig::new(40, 20)
            .churn(crate::market::ChurnConfig::new(0.4, 300.0, 10).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(1_000);
        let (direct, balances) = straight_run(&config, 23, horizon);
        for stop_secs in [100, 450, 1_000] {
            let (resumed, rbalances) =
                resumed_run(&config, 23, SimTime::from_secs(stop_secs), horizon);
            assert_eq!(resumed, direct, "diverged after resume at {stop_secs}s");
            assert_eq!(rbalances, balances);
        }
    }

    #[test]
    fn resume_is_byte_identical_under_an_active_fault_plan() {
        let spec = scrip_des::FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.10,
            onset: SimTime::from_secs(50),
            ..scrip_des::FaultSpec::default()
        };
        let config = MarketConfig::new(50, 30)
            .topology(crate::market::TopologyKind::Complete)
            .faults(spec)
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(1_000);
        let (direct, balances) = straight_run(&config, 77, horizon);
        assert!(
            direct.counter(ids::FAULT_DROPPED) > 0,
            "fault plan was active"
        );
        for stop_secs in [60, 500] {
            let (resumed, rbalances) =
                resumed_run(&config, 77, SimTime::from_secs(stop_secs), horizon);
            assert_eq!(resumed, direct, "diverged after resume at {stop_secs}s");
            assert_eq!(rbalances, balances);
        }
    }

    #[test]
    fn checkpoint_rejects_unsupported_sessions_and_bad_snapshots() {
        // Sharded sessions cannot checkpoint.
        let sharded = MarketConfig::new(20, 10).shards(2);
        let session = Session::from_config(&sharded, 3).expect("builds");
        assert!(matches!(
            session.checkpoint(),
            Err(CoreError::Checkpoint(_))
        ));
        // Streaming sessions cannot checkpoint.
        let streaming = MarketConfig::new(20, 40)
            .streaming_market(scrip_streaming::StreamingConfig::market_paced(1.0));
        let session = Session::from_config(&streaming, 3).expect("builds");
        assert!(matches!(
            session.checkpoint(),
            Err(CoreError::Checkpoint(_))
        ));

        // A valid snapshot fails against a different configuration...
        let config = MarketConfig::new(20, 10);
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(100));
        let bytes = session.checkpoint().expect("checkpoints");
        let other = MarketConfig::new(21, 10);
        assert!(matches!(
            Session::resume(&other, Vec::new(), &bytes),
            Err(CoreError::Checkpoint(_))
        ));
        // ...a probe-count mismatch...
        assert!(matches!(
            Session::resume(
                &config,
                vec![Box::new(probes::GiniSeriesProbe) as _],
                &bytes
            ),
            Err(CoreError::Checkpoint(_))
        ));
        // ...and corrupt bytes fail closed.
        assert!(Session::resume(&config, Vec::new(), &bytes[..bytes.len() - 3]).is_err());
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF;
        assert!(Session::resume(&config, Vec::new(), &garbled).is_err());
        // The pristine snapshot still resumes.
        let resumed = Session::resume(&config, Vec::new(), &bytes).expect("resumes");
        assert_eq!(resumed.now(), SimTime::from_secs(100));
    }

    /// The graph of a queue-level session.
    fn session_graph(session: &Session) -> &scrip_topology::Graph {
        match &session.sim {
            SessionSim::Queue(sim) => sim.model().graph(),
            _ => panic!("queue-level session"),
        }
    }

    /// Restore generates no overlay. For every market family `build`
    /// realises differently, a resumed checkpoint must carry the
    /// straight run's state digest at the checkpoint boundary and at the
    /// horizon.
    #[test]
    fn restore_reproduces_the_state_digest_for_every_built_family() {
        use crate::market::ChurnConfig;
        use crate::policy::TaxConfig;
        use crate::pricing::PricingConfig;
        let base = || MarketConfig::new(60, 20).sample_interval(SimDuration::from_secs(50));
        let faults = scrip_des::FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.10,
            onset: SimTime::from_secs(20),
            ..scrip_des::FaultSpec::default()
        };
        let families = [
            ("near-symmetric rates", base().near_symmetric(0.3)),
            (
                "seller-Poisson pricing",
                base()
                    .asymmetric()
                    .pricing(PricingConfig::SellerPoisson { mean: 2.0 }),
            ),
            (
                "chunk-Poisson pricing",
                base()
                    .asymmetric()
                    .pricing(PricingConfig::ChunkPoisson { mean: 1.0 }),
            ),
            (
                "taxation",
                base()
                    .asymmetric()
                    .tax(TaxConfig::new(0.2, 25).expect("valid tax")),
            ),
            ("faults", base().asymmetric().faults(faults)),
            (
                "churn",
                base().churn(ChurnConfig::new(0.6, 60.0, 8).expect("valid churn")),
            ),
        ];
        let (stop, horizon) = (SimTime::from_secs(300), SimTime::from_secs(500));
        for (family, config) in families {
            let mut straight = Session::from_config(&config, 11).expect("builds");
            straight.run_until(stop);
            let at_stop = straight.view().state_digest();
            let bytes = straight.checkpoint().expect("checkpoints");
            if config.churn.is_some() {
                // Over half the ids ever allocated have left, so the
                // sorted ids compacted at least once; later leaves
                // tombstone again.
                let graph = session_graph(&straight);
                assert!(
                    graph.next_raw_id() > 2 * graph.node_count() as u64,
                    "churn never compacted: {} ids, {} live",
                    graph.next_raw_id(),
                    graph.node_count()
                );
            }
            straight.run_until(horizon);
            let mut resumed = Session::resume(&config, Vec::new(), &bytes).expect("resumes");
            assert_eq!(
                resumed.view().state_digest(),
                at_stop,
                "{family}: restored state differs"
            );
            resumed.run_until(horizon);
            assert_eq!(
                resumed.view().state_digest(),
                straight.view().state_digest(),
                "{family}: diverged after resume"
            );
        }
    }

    /// Every count that sizes an allocation or a loop while resuming —
    /// pending events, live ids, edges, arena slots, ledger entries,
    /// retry depth, sellers, Gini samples, stops and probe series —
    /// fails closed when patched beyond what the bytes left could hold:
    /// `Reader::take_count` refuses it before any `Vec::with_capacity`.
    /// So does an id watermark that is not above every live id or does
    /// not fit the u32 slot space.
    #[test]
    fn resume_fails_closed_on_hostile_counts() {
        let faults = scrip_des::FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            onset: SimTime::from_secs(10),
            ..scrip_des::FaultSpec::default()
        };
        let config = MarketConfig::new(40, 20)
            .asymmetric()
            .pricing(crate::pricing::PricingConfig::SellerPoisson { mean: 2.0 })
            .churn(crate::market::ChurnConfig::new(0.4, 200.0, 6).expect("valid churn"))
            .faults(faults)
            .sample_interval(SimDuration::from_secs(50));
        let mut session = Session::from_config(&config, 9).expect("builds");
        for probe in checkpoint_probes() {
            session.attach(probe);
        }
        session.run_until(SimTime::from_secs(300));
        let bytes = session.checkpoint().expect("checkpoints");
        let resume = |bytes: &[u8]| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Session::resume(&config, checkpoint_probes(), bytes).map(|_| ())
            }))
        };
        let offsets = snapshot::count_offsets(&bytes, |b| {
            resume(b)
                .expect("no panic")
                .expect("the pristine checkpoint resumes")
        });
        // Pending, 7 market counts, stops, and the probes' series (the
        // snapshot probe's nested balance count included).
        assert!(offsets.len() >= 13, "only {} count sites", offsets.len());
        let read_u64 =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        for &at in &offsets {
            let remaining = (bytes.len() - at - 8) as u64;
            for hostile in [u64::MAX / 2, remaining + 1] {
                let mut patched = bytes.clone();
                patched[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                assert!(
                    matches!(resume(&patched), Ok(Err(CoreError::Checkpoint(_)))),
                    "count at offset {at} patched to {hostile} did not fail closed"
                );
            }
        }
        // The watermark sits just before the live-id count (the first
        // market count); the last live id closes that list.
        let live_at = offsets[1];
        let watermark_at = live_at - 8;
        let graph = session_graph(&session);
        assert_eq!(read_u64(watermark_at), graph.next_raw_id());
        assert_eq!(read_u64(live_at), graph.node_count() as u64);
        let last_live = read_u64(live_at + 8 * graph.node_count());
        for hostile in [last_live, u64::from(u32::MAX) + 1, u64::MAX / 2] {
            let mut patched = bytes.clone();
            patched[watermark_at..watermark_at + 8].copy_from_slice(&hostile.to_le_bytes());
            assert!(
                matches!(resume(&patched), Ok(Err(CoreError::Checkpoint(_)))),
                "watermark {hostile} accepted"
            );
        }
    }

    /// A unique temp path for trace tests; removed by `TracePath::drop`.
    struct TracePath(std::path::PathBuf);

    impl TracePath {
        fn new(name: &str) -> Self {
            TracePath(
                std::env::temp_dir().join(format!("scrip_obs_{}_{name}.trc", std::process::id())),
            )
        }
    }

    impl Drop for TracePath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn record_run(config: &MarketConfig, seed: u64, horizon: SimTime, path: &Path) -> RunRecord {
        let mut session = Session::from_config(config, seed).expect("builds");
        session.record_to(path).expect("starts recording");
        session.run_until(horizon);
        session.finish_trace().expect("recording completes");
        session.finish().0
    }

    #[test]
    fn record_replay_round_trip_is_shard_independent() {
        let config = MarketConfig::new(40, 20)
            .churn(crate::market::ChurnConfig::new(0.4, 300.0, 10).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(600);
        let serial = TracePath::new("serial");
        let direct = record_run(&config, 23, horizon, &serial.0);

        // The same scenario recorded sharded produces the identical
        // trace file, byte for byte.
        let sharded_path = TracePath::new("sharded");
        let sharded_record = record_run(&config.clone().shards(2), 23, horizon, &sharded_path.0);
        assert_eq!(sharded_record, direct);
        assert_eq!(
            std::fs::read(&serial.0).expect("serial trace"),
            std::fs::read(&sharded_path.0).expect("sharded trace"),
            "trace bytes differ between serial and sharded recording"
        );

        // The serial trace replays cleanly on both kernels.
        for shards in [1usize, 2, 8] {
            let replay_config = config.clone().shards(shards);
            let mut session = Session::from_config(&replay_config, 23).expect("builds");
            session.replay_from(&serial.0).expect("attaches replay");
            session.run_until(horizon);
            assert!(session.trace_divergence().is_none());
            session.finish_trace().expect("verifies");
            assert_eq!(session.finish().0, direct, "replay at shards={shards}");
        }
    }

    #[test]
    fn replay_pinpoints_a_seeded_divergence() {
        let config = MarketConfig::new(30, 20).sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(400);
        let path = TracePath::new("divergent");
        record_run(&config, 9, horizon, &path.0);

        // Rewrite the recorded seed (header bytes 20..28) so a session
        // seeded differently accepts the trace, then diverges.
        let mut bytes = std::fs::read(&path.0).expect("trace bytes");
        bytes[20..28].copy_from_slice(&11u64.to_le_bytes());
        std::fs::write(&path.0, &bytes).expect("rewrite");

        let mut session = Session::from_config(&config, 11).expect("builds");
        session.replay_from(&path.0).expect("attaches replay");
        session.run_until(horizon);
        let divergence = session
            .trace_divergence()
            .expect("differing seeds must diverge")
            .clone();
        // The run froze at the divergent instant, not the horizon.
        assert!(session.now() <= divergence.time);
        assert!(divergence.time <= horizon);
        let err = session.finish_trace().expect_err("reports divergence");
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn replay_resume_verifies_the_tail_of_a_checkpointed_run() {
        let config = MarketConfig::new(40, 20)
            .churn(crate::market::ChurnConfig::new(0.3, 250.0, 8).expect("valid"))
            .sample_interval(SimDuration::from_secs(100));
        let horizon = SimTime::from_secs(800);
        let stop = SimTime::from_secs(300);
        let path = TracePath::new("resume");

        let mut session = Session::from_config(&config, 41).expect("builds");
        session.record_to(&path.0).expect("starts recording");
        session.run_until(stop);
        let checkpoint = session.checkpoint().expect("checkpoints");
        session.run_until(horizon);
        session.finish_trace().expect("recording completes");
        let direct = session.finish().0;

        let mut resumed = Session::resume(&config, Vec::new(), &checkpoint).expect("resumes");
        let reader = TraceReader::from_path(&path.0).expect("opens trace");
        resumed.replay_resume(reader).expect("attaches mid-stream");
        resumed.run_until(horizon);
        assert!(resumed.trace_divergence().is_none());
        resumed.finish_trace().expect("tail verifies");
        assert_eq!(resumed.finish().0, direct);
    }

    #[test]
    fn trace_attachment_is_fail_closed() {
        // Streaming sessions cannot trace.
        let streaming = MarketConfig::new(20, 40)
            .streaming_market(scrip_streaming::StreamingConfig::market_paced(1.0));
        let mut session = Session::from_config(&streaming, 3).expect("builds");
        let path = TracePath::new("reject");
        assert!(matches!(
            session.record_to(&path.0),
            Err(CoreError::Trace(_))
        ));

        // Recording must start before the run does.
        let config = MarketConfig::new(20, 10);
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.run_until(SimTime::from_secs(100));
        assert!(matches!(
            session.record_to(&path.0),
            Err(CoreError::Trace(_))
        ));

        // A recorded trace refuses to verify a different scenario or
        // seed (fail-closed header checks).
        record_run(&config, 3, SimTime::from_secs(200), &path.0);
        let other = MarketConfig::new(21, 10);
        let mut session = Session::from_config(&other, 3).expect("builds");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
        let mut session = Session::from_config(&config, 4).expect("builds");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
        // A second tracer cannot stack on the first.
        let mut session = Session::from_config(&config, 3).expect("builds");
        session.replay_from(&path.0).expect("attaches");
        assert!(matches!(
            session.replay_from(&path.0),
            Err(CoreError::Trace(_))
        ));
    }

    #[test]
    fn sample_sink_observes_every_boundary_without_perturbing() {
        let config = MarketConfig::new(30, 20);
        let horizon = SimTime::from_secs(500);
        let baseline = {
            let mut s = Session::from_config(&config, 5).expect("builds");
            s.run_until(horizon);
            s.finish().1.queue().expect("queue").balances_sorted()
        };
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tap = samples.clone();
        let mut s = Session::from_config(&config, 5).expect("builds");
        s.stream_samples_to(Box::new(move |sample: &LiveSample| {
            tap.lock().expect("sink lock").push(sample.clone());
        }));
        s.run_until(horizon);
        assert_eq!(
            s.finish().1.queue().expect("queue").balances_sorted(),
            baseline,
            "a sink observes without influencing the run"
        );
        let samples = samples.lock().expect("sink lock");
        // Regular ticks at 100..=500 (default sample interval 100).
        assert_eq!(samples.len(), 5);
        assert!(samples.windows(2).all(|w| w[0].time < w[1].time));
        let last = samples.last().expect("sampled");
        assert_eq!(last.time, horizon);
        assert!(last.purchases > 0);
        assert!(last.peers > 0);
        assert!(last.events_processed > 0);
        assert!(last.wealth_gini.is_some());
    }

    #[test]
    fn sample_sink_attaches_to_resumed_sessions() {
        let config = MarketConfig::new(30, 20);
        let mut s = Session::from_config(&config, 5).expect("builds");
        s.run_until(SimTime::from_secs(200));
        let ckpt = s.checkpoint().expect("checkpoints");
        s.run_until(SimTime::from_secs(500));
        let baseline = s.finish().1.queue().expect("queue").balances_sorted();

        // record_to is unusable on a resumed session (it already
        // started) — stream_samples_to is not.
        let mut resumed = Session::resume(&config, Vec::new(), &ckpt).expect("resumes");
        let times = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tap = times.clone();
        resumed.stream_samples_to(Box::new(move |sample: &LiveSample| {
            tap.lock().expect("sink lock").push(sample.time);
        }));
        resumed.run_until(SimTime::from_secs(500));
        assert_eq!(
            resumed.finish().1.queue().expect("queue").balances_sorted(),
            baseline,
            "resume + sink reproduces the uninterrupted run"
        );
        let times = times.lock().expect("sink lock");
        assert_eq!(
            *times,
            vec![
                SimTime::from_secs(300),
                SimTime::from_secs(400),
                SimTime::from_secs(500)
            ],
            "only post-resume boundaries reach the sink"
        );
    }
}
