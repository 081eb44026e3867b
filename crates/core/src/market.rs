//! The queue-level credit-market simulator.
//!
//! This simulator realizes the paper's model *directly*: each peer
//! attempts purchases at its (possibly wealth-dependent) spending rate,
//! each purchase moves `price` credits to a uniformly chosen neighbor,
//! and a broke peer's purchase simply fails — the queueing-network
//! dynamics of Table I with pricing, taxation, dynamic spending and
//! churn layered on top. It produces the Gini-over-time trajectories of
//! the paper's Figs. 5–11.
//!
//! For the *protocol-level* market — where purchases are real chunk
//! transfers inside a live-streaming swarm (Fig. 1) — see
//! [`crate::protocol`].

use std::collections::BTreeMap;

use scrip_des::stats::TimeSeries;
pub use scrip_des::FaultStats;
use scrip_des::{
    DeliveryOutcome, FaultPlan, FaultSpec, FenwickSampler, Model, QueueProfile, Scheduler,
    SimDuration, SimRng, SimTime,
};
use scrip_econ::gini_u64;
use scrip_topology::churn::ChurnTopology;
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::{Graph, NodeId};

use crate::arena::PeerArena;
use crate::credits::Ledger;
use crate::error::CoreError;
use crate::model::{joiner_spending_rate, spending_rates, UtilizationProfile};
use crate::policy::{SpendingPolicy, TaxConfig, Taxation};
use crate::pricing::{PricingConfig, PricingModel};

/// Churn (peer dynamics) configuration — paper Sec. VI-E.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Poisson arrival rate of new peers (peers/sec).
    pub arrival_rate: f64,
    /// Mean exponential lifespan of a peer (seconds).
    pub mean_lifespan: f64,
    /// Number of neighbors a joiner attaches to.
    pub attach_degree: usize,
}

impl ChurnConfig {
    /// Creates a validated churn configuration.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for non-positive rates or zero
    /// attach degree.
    pub fn new(
        arrival_rate: f64,
        mean_lifespan: f64,
        attach_degree: usize,
    ) -> Result<Self, CoreError> {
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(CoreError::Config(format!(
                "arrival rate must be > 0, got {arrival_rate}"
            )));
        }
        if !(mean_lifespan.is_finite() && mean_lifespan > 0.0) {
            return Err(CoreError::Config(format!(
                "mean lifespan must be > 0, got {mean_lifespan}"
            )));
        }
        if attach_degree == 0 {
            return Err(CoreError::Config("attach degree must be positive".into()));
        }
        Ok(ChurnConfig {
            arrival_rate,
            mean_lifespan,
            attach_degree,
        })
    }

    /// The expected steady-state overlay size, `arrival_rate ×
    /// mean_lifespan` (the paper keeps this at the initial size in
    /// Fig. 11(1)).
    pub fn expected_size(&self) -> f64 {
        self.arrival_rate * self.mean_lifespan
    }
}

/// The overlay family a market runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's default: scale-free, power-law exponent 2.5, ~20
    /// neighbors on average.
    #[default]
    ScaleFree,
    /// Complete graph (the Dandekar-et-al. baseline topology).
    Complete,
    /// Ring (a maximally sparse connected baseline).
    Ring,
    /// Random regular graph of the given degree.
    Regular(usize),
}

/// Full configuration of a credit market.
///
/// Defaults mirror the paper's Sec. VI settings: scale-free overlay,
/// uniform pricing at 1 credit/chunk, fixed spending policy, no tax, no
/// churn, Gini sampled every 100 s.
#[derive(Clone, Debug, PartialEq)]
pub struct MarketConfig {
    /// Initial number of peers.
    pub n: usize,
    /// Initial credits per peer (the paper's average wealth `c`).
    pub initial_credits: u64,
    /// Base credit spending rate `μ_s` (credits/sec).
    pub base_rate: f64,
    /// Utilization regime.
    pub profile: UtilizationProfile,
    /// Chunk pricing scheme.
    pub pricing: PricingConfig,
    /// Spending-rate policy.
    pub spending: SpendingPolicy,
    /// Optional income taxation.
    pub tax: Option<TaxConfig>,
    /// Optional peer churn.
    pub churn: Option<ChurnConfig>,
    /// Overlay family.
    pub topology: TopologyKind,
    /// Interval between Gini samples.
    pub sample_interval: SimDuration,
    /// Availability feedback (paper Sec. III-A): "the poor peers with few
    /// credits … have little content to sell for revenue". When enabled,
    /// a buyer's choice of seller is weighted by the seller's recent
    /// purchase activity (an inventory proxy), so long-broke peers also
    /// stop earning — the protocol-level death spiral, reproduced at the
    /// queue level. Only affects neighbor routing (the asymmetric
    /// profile).
    pub availability_feedback: bool,
    /// When set, the market is realized at *chunk granularity*: the
    /// configured mesh-pull streaming protocol runs on the overlay and
    /// every peer-to-peer chunk transfer is a credit trade through the
    /// shared ledger ([`crate::protocol::run_streaming_market`]). The
    /// topology, credits, pricing, taxation, churn and `sample_interval`
    /// keys apply as usual; `profile`, `spending`, `base_rate` and
    /// `availability_feedback` are queue-level concepts and are ignored
    /// (chunk availability plays their role for real).
    pub streaming: Option<scrip_streaming::StreamingConfig>,
    /// Number of execution shards the run is partitioned into (≥ 1).
    /// With `shards > 1` the run executes on the sharded kernel
    /// ([`crate::sharded`]): the overlay is split into balanced regions,
    /// per-shard event queues advance in lockstep tick windows, and
    /// trades whose buyer and seller live on different shards are
    /// settled through a cross-shard event log at window barriers.
    /// Output is **byte-identical** to `shards = 1` for any value.
    /// Queue-level markets only (rejected with streaming).
    pub shards: usize,
    /// Optional deterministic fault injection with trade recovery
    /// (paper Sec. III-A's unreliable-peer regime, realized as typed
    /// faults: dropped/delayed deliveries, seller defections, peer
    /// crashes). When set — and at least one rate is positive — every
    /// purchase moves its credits into per-trade escrow and settles
    /// only when the delivery completes; failed deliveries retry with
    /// capped exponential backoff against another seller and refund
    /// after [`FaultSpec::max_retries`]. `None` (or an all-zero spec)
    /// leaves the machinery unbuilt: the hot path takes a single extra
    /// branch and every trajectory is byte-identical to a build
    /// without this field.
    pub faults: Option<FaultSpec>,
}

impl MarketConfig {
    /// Paper defaults for `n` peers with `initial_credits` each
    /// (asymmetric utilization; use [`MarketConfig::symmetric`] for the
    /// balanced case).
    pub fn new(n: usize, initial_credits: u64) -> Self {
        MarketConfig {
            n,
            initial_credits,
            base_rate: 1.0,
            profile: UtilizationProfile::Asymmetric,
            pricing: PricingConfig::default(),
            spending: SpendingPolicy::default(),
            tax: None,
            churn: None,
            topology: TopologyKind::default(),
            sample_interval: SimDuration::from_secs(100),
            availability_feedback: false,
            streaming: None,
            shards: 1,
            faults: None,
        }
    }

    /// Enables availability feedback (sellers without recent purchases
    /// attract no buyers).
    pub fn with_availability_feedback(mut self) -> Self {
        self.availability_feedback = true;
        self
    }

    /// Selects symmetric utilization (`u ≡ 1`, complete mixing).
    pub fn symmetric(mut self) -> Self {
        self.profile = UtilizationProfile::Symmetric;
        self
    }

    /// Selects near-symmetric utilization: complete mixing with spending
    /// rates jittered by ±`spread`.
    pub fn near_symmetric(mut self, spread: f64) -> Self {
        self.profile = UtilizationProfile::NearSymmetric { spread };
        self
    }

    /// Selects asymmetric (degree-skewed) utilization.
    pub fn asymmetric(mut self) -> Self {
        self.profile = UtilizationProfile::Asymmetric;
        self
    }

    /// Sets the pricing scheme.
    pub fn pricing(mut self, pricing: PricingConfig) -> Self {
        self.pricing = pricing;
        self
    }

    /// Sets the spending policy.
    pub fn spending(mut self, spending: SpendingPolicy) -> Self {
        self.spending = spending;
        self
    }

    /// Enables income taxation.
    pub fn tax(mut self, tax: TaxConfig) -> Self {
        self.tax = Some(tax);
        self
    }

    /// Enables churn.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Sets the overlay family.
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the base spending rate (credits/sec).
    pub fn base_rate(mut self, rate: f64) -> Self {
        self.base_rate = rate;
        self
    }

    /// Sets the Gini sampling interval.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Partitions the run over `shards` execution shards (see
    /// [`MarketConfig::shards`]); output is byte-identical to serial.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables deterministic fault injection with escrow-backed trade
    /// recovery (see [`MarketConfig::faults`]).
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Realizes this market at chunk granularity: the given mesh-pull
    /// protocol runs on the overlay and chunk trades settle through the
    /// shared ledger (see [`MarketConfig::streaming`]).
    pub fn streaming_market(mut self, streaming: scrip_streaming::StreamingConfig) -> Self {
        self.streaming = Some(streaming);
        self
    }

    /// Checks the scalar parameters (population, rates, intervals,
    /// pricing) without realizing anything.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for out-of-range values.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n < 2 {
            return Err(CoreError::Config(format!(
                "need n >= 2 peers, got {}",
                self.n
            )));
        }
        if !(self.base_rate.is_finite() && self.base_rate > 0.0) {
            return Err(CoreError::Config(format!(
                "base rate must be > 0, got {}",
                self.base_rate
            )));
        }
        if self.sample_interval.is_zero() {
            return Err(CoreError::Config("sample interval must be positive".into()));
        }
        if self.shards == 0 {
            return Err(CoreError::Config("shards must be >= 1".into()));
        }
        if self.shards > 1 && self.streaming.is_some() {
            return Err(CoreError::Config(
                "sharded execution applies to queue-level markets only; \
                 streaming markets run serially (shards = 1)"
                    .into(),
            ));
        }
        self.pricing.validate()?;
        if let Some(faults) = &self.faults {
            faults.validate().map_err(CoreError::Config)?;
        }
        if let Some(streaming) = &self.streaming {
            streaming.validate().map_err(CoreError::Config)?;
        }
        Ok(())
    }

    pub(crate) fn build_graph(&self, rng: &mut SimRng) -> Result<Graph, CoreError> {
        match self.topology {
            TopologyKind::ScaleFree => {
                Ok(generators::scale_free(&ScaleFreeConfig::new(self.n)?, rng)?)
            }
            TopologyKind::Complete => Ok(generators::complete(self.n)),
            TopologyKind::Ring => Ok(generators::ring(self.n)?),
            TopologyKind::Regular(d) => Ok(generators::random_regular(self.n, d, rng)?),
        }
    }
}

/// One settled purchase, as observed by the trade-capture hook (used by
/// the sharded runner to classify trades as shard-local or
/// cross-shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TradeRecord {
    /// The buying peer.
    pub buyer: NodeId,
    /// The selling peer (received the credits).
    pub seller: NodeId,
    /// Credits transferred.
    pub price: u64,
}

/// Events of the market simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum MarketEvent {
    /// Starts all spending loops, sampling, and churn. Schedule once at
    /// the start of the run.
    Bootstrap,
    /// A peer attempts one purchase.
    Spend(NodeId),
    /// Record the Gini index of the current wealth distribution.
    Sample,
    /// A new peer arrives (churn).
    Join,
    /// A peer departs with its credits (churn).
    Leave(NodeId),
    /// An in-flight delivery completes (fault injection only): the
    /// trade escrowed at [`MarketEvent::Spend`] time resolves now —
    /// settle, drop, defect, or delay, per the fault plan.
    Deliver {
        /// The buying peer whose escrow backs the trade.
        buyer: NodeId,
        /// The selling peer expected to deliver.
        seller: NodeId,
        /// Credits escrowed for the trade.
        price: u64,
        /// 1-based delivery attempt number (grows on retries).
        attempt: u32,
    },
    /// A peer crashes abruptly (fault injection only) — an unplanned
    /// departure that exercises the same escrow-refund recovery as a
    /// graceful leave.
    Crash(NodeId),
}

impl MarketEvent {
    /// Serializes the event for a checkpoint's queue section.
    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        match self {
            MarketEvent::Bootstrap => w.put_u8(0),
            MarketEvent::Spend(id) => {
                w.put_u8(1);
                w.put_u64(id.raw());
            }
            MarketEvent::Sample => w.put_u8(2),
            MarketEvent::Join => w.put_u8(3),
            MarketEvent::Leave(id) => {
                w.put_u8(4);
                w.put_u64(id.raw());
            }
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            } => {
                w.put_u8(5);
                w.put_u64(buyer.raw());
                w.put_u64(seller.raw());
                w.put_u64(*price);
                w.put_u32(*attempt);
            }
            MarketEvent::Crash(id) => {
                w.put_u8(6);
                w.put_u64(id.raw());
            }
        }
    }

    /// Decodes an event written by [`MarketEvent::encode`].
    pub(crate) fn decode(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, CoreError> {
        Ok(match r.take_u8()? {
            0 => MarketEvent::Bootstrap,
            1 => MarketEvent::Spend(NodeId::from_raw(r.take_u64()?)),
            2 => MarketEvent::Sample,
            3 => MarketEvent::Join,
            4 => MarketEvent::Leave(NodeId::from_raw(r.take_u64()?)),
            5 => MarketEvent::Deliver {
                buyer: NodeId::from_raw(r.take_u64()?),
                seller: NodeId::from_raw(r.take_u64()?),
                price: r.take_u64()?,
                attempt: r.take_u32()?,
            },
            6 => MarketEvent::Crash(NodeId::from_raw(r.take_u64()?)),
            tag => {
                return Err(CoreError::Checkpoint(format!(
                    "unknown market event tag {tag}"
                )))
            }
        })
    }

    /// Decodes one trace event payload (the bytes a recording
    /// [`crate::obs::Session`] stores per applied event) back into the
    /// event it encodes — the rendering hook for `trace-diff` and
    /// divergence reports.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for truncated payloads, unknown
    /// tags, or trailing bytes.
    pub fn from_trace_payload(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = crate::snapshot::Reader::new(bytes);
        let event = MarketEvent::decode(&mut r)?;
        r.finish()?;
        Ok(event)
    }
}

/// Component-by-component heap accounting for one [`CreditMarket`]
/// (the arena layout audit; see [`CreditMarket::memory_audit`]). All
/// figures are reserved capacities in bytes — the allocator's view, not
/// live lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryAudit {
    /// Live peers the per-peer figures are divided by.
    pub peers: usize,
    /// Slot bookkeeping: the market's `NodeId ↔ slot` arena plus the
    /// graph's slot/sorted-ID maps (not adjacency rows).
    pub arena_bytes: usize,
    /// Ledger wallets: balance slot map + balance vector.
    pub ledger_bytes: usize,
    /// Posted-price storage (0 under uniform pricing).
    pub pricing_bytes: usize,
    /// Spending rates `μ`, spent counters, and activity traces.
    pub rates_bytes: usize,
    /// CSR adjacency rows — degree-proportional (≈ 8 B × degree per
    /// peer), accounted apart from the flat per-peer state.
    pub adjacency_bytes: usize,
    /// Population-independent costs: the Fenwick seller-sampling
    /// scratch (sized by max degree), the wealth-histogram Gini tracker
    /// (sized by max wealth), and the Gini sample series (sized by
    /// horizon).
    pub fixed_bytes: usize,
}

impl MemoryAudit {
    /// Flat per-peer *state* bytes: everything that scales linearly
    /// with the live population (slot maps, wallets, prices, rates,
    /// counters, activity), excluding adjacency and fixed costs. The
    /// ≈100–150 B/peer budget from the performance model applies to
    /// this number.
    pub fn state_bytes_per_peer(&self) -> usize {
        if self.peers == 0 {
            return 0;
        }
        (self.arena_bytes + self.ledger_bytes + self.pricing_bytes + self.rates_bytes) / self.peers
    }

    /// Total audited heap bytes across all components.
    pub fn total_bytes(&self) -> usize {
        self.arena_bytes
            + self.ledger_bytes
            + self.pricing_bytes
            + self.rates_bytes
            + self.adjacency_bytes
            + self.fixed_bytes
    }
}

/// The running credit market: a [`Model`] for the
/// [`scrip_des::Simulation`] kernel.
///
/// All per-peer state is slot-indexed through one [`PeerArena`] (see
/// [`crate::arena`]), the overlay is borrowed as sorted neighbor slices
/// straight from the [`Graph`], and the wealth Gini is maintained online
/// by the ledger — so a spend event is allocation-free and O(1), and a
/// Gini sample is O(1). See the "Performance model" section of
/// `docs/ARCHITECTURE.md`.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct CreditMarket {
    config: MarketConfig,
    graph: Graph,
    ledger: Ledger,
    pricing: PricingModel,
    taxation: Option<Taxation>,
    churn_topology: ChurnTopology,
    rng: SimRng,
    /// Live peers; `arena.ids()` doubles as the dense peer vector for
    /// O(1) complete-mixing sampling. The vectors below are parallel to
    /// it (index = slot).
    arena: PeerArena,
    /// Per-peer maximum spending rates `μ_i`.
    mu: Vec<f64>,
    /// Credits spent so far per peer.
    spent: Vec<u64>,
    /// Σ `spent` over live peers, maintained incrementally (bumped per
    /// purchase, reduced on departure) so [`CreditMarket::total_spent`]
    /// is O(1).
    total_spent: u64,
    /// Exponentially decayed recent-purchase activity per peer (the
    /// inventory proxy for availability feedback): `(value, last bump)`.
    activity: Vec<(f64, SimTime)>,
    /// Reused Fenwick tree for availability-feedback seller sampling
    /// (kept warm across events so the hot path never allocates). The
    /// weights time-decay, so each spend rebuilds in O(deg) and inverts
    /// the draw in O(log deg); the rebuild feeds the same weights in the
    /// same order as the linear walk it replaced, so draws are
    /// bit-identical.
    seller_sampler: FenwickSampler,
    denied: u64,
    purchases: u64,
    gini_series: TimeSeries,
    bootstrapped: bool,
    /// The deterministic fault oracle; present only when
    /// [`MarketConfig::faults`] has at least one positive rate, so the
    /// fault-free hot path pays a single `is_some` branch.
    fault_plan: Option<FaultPlan>,
    /// Credits escrowed for in-flight trades, per live buyer (parallel
    /// to the arena; all zero when faults are off).
    in_flight: Vec<u64>,
    /// Σ `in_flight`, maintained incrementally so the escrow-in-transit
    /// probe read is O(1).
    in_flight_total: u64,
    /// Fault/recovery counters.
    fault_stats: FaultStats,
    /// When present, every settled purchase is appended here (enabled
    /// only by the sharded runner; `None` keeps the serial hot path
    /// free of the recording branch's buffer traffic).
    trade_capture: Option<Vec<TradeRecord>>,
}

impl CreditMarket {
    /// Builds a market from a configuration and an RNG seed.
    ///
    /// # Errors
    /// Returns [`CoreError`] for invalid configurations or topology
    /// failures.
    pub fn build(config: MarketConfig, seed: u64) -> Result<Self, CoreError> {
        let mut market = CreditMarket::unpopulated(config, seed)?;
        let config = &market.config;
        let rng = &mut market.rng;
        let mut graph = config.build_graph(rng)?;
        if config.churn.is_some() {
            // Joins pick through the graph's attachment index; build it
            // here so its O(n) cost counts in setup, not the first join.
            graph.build_attach_index();
        }
        let mut ledger = Ledger::new();
        for id in graph.node_ids() {
            ledger.mint(id, config.initial_credits);
        }
        ledger.enable_wealth_tracking();
        let mu_map = spending_rates(&graph, config.profile, config.base_rate, rng)?;
        let peer_ids: Vec<NodeId> = graph.node_ids().collect();
        market.pricing = PricingModel::realize(config.pricing, &peer_ids, rng)?;
        market.mu = peer_ids.iter().map(|id| mu_map[id]).collect();
        let n = peer_ids.len();
        market.spent = vec![0; n];
        market.activity = vec![(1.0, SimTime::ZERO); n];
        market.in_flight = vec![0; n];
        market.arena = PeerArena::from_ids(&peer_ids);
        market.graph = graph;
        market.ledger = ledger;
        Ok(market)
    }

    /// Rebuilds a market from the state a checkpoint captured with
    /// `CreditMarket::write_state`, without generating an overlay: only
    /// the fields the state does not carry come from `config` and
    /// `seed`, then `read_state` fills in the rest.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for configurations
    /// [`CreditMarket::build`] rejects, and [`CoreError::Checkpoint`]
    /// for truncated or inconsistent state, or state taken under a
    /// different fault or taxation setting.
    pub(crate) fn restore(
        config: MarketConfig,
        seed: u64,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, CoreError> {
        let mut market = CreditMarket::unpopulated(config, seed)?;
        market.read_state(r)?;
        Ok(market)
    }

    /// The market [`CreditMarket::build`] and [`CreditMarket::restore`]
    /// start from: the validated config, the seeded RNG, the fault plan,
    /// taxation, churn topology and sampler scratch, with no peers and
    /// every counter zero.
    fn unpopulated(config: MarketConfig, seed: u64) -> Result<Self, CoreError> {
        config.validate()?;
        if config.streaming.is_some() {
            return Err(CoreError::Config(
                "config selects a chunk-level streaming market; build it with \
                 crate::protocol::run_streaming_market instead"
                    .into(),
            ));
        }
        // An all-zero spec builds no plan at all: the fault stream is
        // never derived and the run is byte-identical to `faults: None`.
        let fault_plan = match &config.faults {
            Some(spec) if spec.any_faults() => {
                Some(FaultPlan::new(*spec, seed).map_err(CoreError::Config)?)
            }
            _ => None,
        };
        let attach = config.churn.map(|c| c.attach_degree).unwrap_or(20);
        Ok(CreditMarket {
            graph: Graph::new(),
            ledger: Ledger::new(),
            pricing: PricingModel::restore_state(config.pricing, &[], 0)?,
            taxation: config.tax.map(Taxation::new),
            churn_topology: ChurnTopology::new(attach),
            rng: SimRng::seed_from_u64(seed),
            arena: PeerArena::new(),
            mu: Vec::new(),
            spent: Vec::new(),
            total_spent: 0,
            activity: Vec::new(),
            seller_sampler: FenwickSampler::new(),
            denied: 0,
            purchases: 0,
            gini_series: TimeSeries::new(),
            bootstrapped: false,
            fault_plan,
            in_flight: Vec::new(),
            in_flight_total: 0,
            fault_stats: FaultStats::default(),
            trade_capture: None,
            config,
        })
    }

    /// The configuration this market was built from.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// The current overlay.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The credit ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The per-peer maximum spending rates `μ_i`, keyed by peer
    /// (assembled on demand; the hot path uses the slot-indexed arena).
    pub fn service_rates(&self) -> BTreeMap<NodeId, f64> {
        self.arena
            .ids()
            .iter()
            .zip(&self.mu)
            .map(|(&id, &rate)| (id, rate))
            .collect()
    }

    /// The realized pricing model.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Taxation state, when taxation is enabled.
    pub fn taxation(&self) -> Option<&Taxation> {
        self.taxation.as_ref()
    }

    /// The recorded Gini-over-time trajectory.
    pub fn gini_series(&self) -> &TimeSeries {
        &self.gini_series
    }

    /// Gini index of the current wealth distribution. O(1): read from
    /// the ledger's online accumulator (bit-compatible with the
    /// [`gini_u64`] oracle).
    ///
    /// # Errors
    /// Returns [`CoreError::Econ`] if the market has no peers.
    pub fn wealth_gini(&self) -> Result<f64, CoreError> {
        match self.ledger.tracked_gini() {
            Some(g) => Ok(g),
            None => Ok(gini_u64(&self.ledger.balances_vec())?),
        }
    }

    /// Current balances sorted ascending (the y-values of the paper's
    /// Figs. 5–6).
    pub fn balances_sorted(&self) -> Vec<u64> {
        let mut v = self.ledger.balances_vec();
        v.sort_unstable();
        v
    }

    /// Credits spent so far, per live peer (assembled on demand; the hot
    /// path uses the slot-indexed arena).
    pub fn spent_per_peer(&self) -> BTreeMap<NodeId, u64> {
        self.arena
            .ids()
            .iter()
            .zip(&self.spent)
            .map(|(&id, &s)| (id, s))
            .collect()
    }

    /// Total credits spent by live peers. O(1): maintained incrementally
    /// alongside the per-peer counters (equal to
    /// `spent_per_peer().values().sum()`, without assembling the map).
    pub fn total_spent(&self) -> u64 {
        self.total_spent
    }

    /// Per-peer credit spending *rates* over `[0, now]`, sorted ascending
    /// — the series plotted in the paper's Fig. 1.
    pub fn spending_rates_sorted(&self, now: SimTime) -> Vec<f64> {
        let elapsed = now.as_secs_f64().max(1e-9);
        let mut rates: Vec<f64> = self.spent.iter().map(|&s| s as f64 / elapsed).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        rates
    }

    /// Fault/recovery counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Credits currently escrowed for in-flight deliveries. O(1).
    pub fn in_flight_escrow(&self) -> u64 {
        self.in_flight_total
    }

    /// Whether a fault plan is active on this market.
    pub fn faults_enabled(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Total purchase attempts refused for lack of credits.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Total successful purchases.
    pub fn purchases(&self) -> u64 {
        self.purchases
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.ledger.accounts()
    }

    /// The steady-state event-queue population this market sustains: one
    /// spend loop per peer, the sampling chain, and (under churn) one
    /// leave timer per peer plus the arrival process. Size the
    /// simulation's queue with this
    /// ([`scrip_des::Simulation::with_capacity`]) to keep scheduling
    /// reallocation-free; [`MarketEvent::Bootstrap`] reserves the same
    /// amount as a fallback for hand-built simulations.
    pub fn queue_capacity_hint(&self) -> usize {
        // Under faults, each peer may add a crash timer plus in-flight
        // delivery completions (short-lived, at most a few per peer).
        let faulted = usize::from(self.fault_plan.is_some());
        self.arena.len() * (1 + usize::from(self.config.churn.is_some()) + 2 * faulted) + 2
    }

    /// The event-queue backend this market wants: a timing wheel sized
    /// for the steady-state population from
    /// [`CreditMarket::queue_capacity_hint`], with the mean
    /// inter-attempt interval (`mean price / base rate`) as the typical
    /// scheduling lookahead. Spend timers land in the wheel's O(1)
    /// buckets; rarer far-future events (churn lifespans, sample
    /// boundaries) take its overflow heap.
    pub fn queue_profile(&self) -> QueueProfile {
        QueueProfile::Wheel {
            expected_events: self.queue_capacity_hint(),
            typical_delay: SimDuration::from_secs_f64(
                self.pricing.mean_price() / self.config.base_rate,
            ),
        }
    }

    /// Accounts the market's heap footprint component by component (the
    /// arena layout audit). Capacities, not lengths — the allocator's
    /// view. [`MemoryAudit::state_bytes_per_peer`] is the headline
    /// number: per-peer *state* (slot maps, balances, rates, spend
    /// counters, activity traces, posted prices), excluding the
    /// degree-proportional adjacency rows and the population-independent
    /// scratch/series/histogram costs, which the audit itemizes
    /// separately.
    pub fn memory_audit(&self) -> MemoryAudit {
        MemoryAudit {
            peers: self.arena.len(),
            arena_bytes: self.arena.heap_bytes() + self.graph.slot_map_heap_bytes(),
            ledger_bytes: self.ledger.heap_bytes(),
            pricing_bytes: self.pricing.heap_bytes(),
            rates_bytes: self.mu.capacity() * std::mem::size_of::<f64>()
                + self.spent.capacity() * std::mem::size_of::<u64>()
                + self.activity.capacity() * std::mem::size_of::<(f64, SimTime)>(),
            adjacency_bytes: self.graph.adjacency_heap_bytes(),
            fixed_bytes: self.seller_sampler.heap_bytes()
                + self.ledger.tracker_heap_bytes()
                + self.gini_series.heap_bytes(),
        }
    }

    /// Turns on trade capture: from now on every settled purchase is
    /// recorded for [`CreditMarket::take_trades`] to drain.
    pub(crate) fn enable_trade_capture(&mut self) {
        if self.trade_capture.is_none() {
            self.trade_capture = Some(Vec::new());
        }
    }

    /// Moves the captured trades into `into` (cleared first), keeping
    /// the capture buffer's capacity warm.
    pub(crate) fn take_trades(&mut self, into: &mut Vec<TradeRecord>) {
        into.clear();
        if let Some(trades) = &mut self.trade_capture {
            std::mem::swap(trades, into);
        }
    }

    /// Serializes every mutable market field into `w` — the model half
    /// of a [`crate::obs::Session`] checkpoint. Immutable inputs
    /// (config, churn topology, fault spec) are rebuilt from
    /// configuration on restore; everything else round-trips exactly,
    /// including slot layouts, so the continuation is byte-identical.
    pub(crate) fn write_state(&self, w: &mut crate::snapshot::Writer) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_bool(self.fault_plan.is_some());
        if let Some(plan) = &self.fault_plan {
            for word in plan.rng_state() {
                w.put_u64(word);
            }
            w.put_u64(plan.outcomes_drawn());
        }
        // Overlay: id watermark, live ids (ascending), edges.
        w.put_u64(self.graph.next_raw_id());
        w.put_u64(self.graph.node_count() as u64);
        for id in self.graph.node_ids() {
            w.put_u64(id.raw());
        }
        w.put_u64(self.graph.edge_count() as u64);
        for (a, b) in self.graph.edges() {
            w.put_u64(a.raw());
            w.put_u64(b.raw());
        }
        // Arena slot order plus every slot-parallel vector. The order
        // matters: swap-removes made it churn-history-dependent, and
        // escrow sweeps iterate it.
        w.put_u64(self.arena.len() as u64);
        for (i, &id) in self.arena.ids().iter().enumerate() {
            w.put_u64(id.raw());
            w.put_f64(self.mu[i]);
            w.put_u64(self.spent[i]);
            w.put_f64(self.activity[i].0);
            w.put_u64(self.activity[i].1.as_micros());
            w.put_u64(self.in_flight[i]);
        }
        // Ledger: slot entries in its own slot order, plus pools.
        let entries: Vec<(NodeId, u64)> = self.ledger.slot_entries().collect();
        w.put_u64(entries.len() as u64);
        for (id, balance) in &entries {
            w.put_u64(id.raw());
            w.put_u64(*balance);
        }
        w.put_u64(self.ledger.escrow());
        w.put_u64(self.ledger.minted());
        w.put_u64(self.ledger.burned());
        // Scalar counters.
        w.put_u64(self.total_spent);
        w.put_u64(self.denied);
        w.put_u64(self.purchases);
        w.put_u64(self.in_flight_total);
        // Fault stats.
        w.put_u64(self.fault_stats.delivered);
        w.put_u64(self.fault_stats.dropped);
        w.put_u64(self.fault_stats.defected);
        w.put_u64(self.fault_stats.delayed);
        w.put_u64(self.fault_stats.retries);
        w.put_u64(self.fault_stats.refunded);
        w.put_u64(self.fault_stats.crashes);
        w.put_u64(self.fault_stats.retry_depth.len() as u64);
        for &d in &self.fault_stats.retry_depth {
            w.put_u64(d);
        }
        // Taxation accumulators.
        w.put_bool(self.taxation.is_some());
        if let Some(tax) = &self.taxation {
            w.put_u64(tax.collected);
            w.put_u64(tax.redistributed);
        }
        // Pricing: slot-ordered posted prices and the chunk-hash seed.
        let (sellers, price_seed) = self.pricing.snapshot_state();
        w.put_u64(sellers.len() as u64);
        for (id, price) in &sellers {
            w.put_u64(id.raw());
            w.put_u64(*price);
        }
        w.put_u64(price_seed);
        // Gini trajectory.
        w.put_u64(self.gini_series.len() as u64);
        for &(t, g) in self.gini_series.samples() {
            w.put_u64(t.as_micros());
            w.put_f64(g);
        }
        w.put_bool(self.bootstrapped);
    }

    /// FNV-1a digest of the complete mutable market state — a fold over
    /// the exact bytes `CreditMarket::write_state` would checkpoint
    /// (RNG streams, fault plan, graph, arena, ledger, escrow, pricing,
    /// Gini trajectory). Two markets with equal digests at a quiescent
    /// boundary are byte-identical for resume purposes; trace digest
    /// frames pin this value at every sampling boundary, and
    /// `tests/fixture_guard.rs` pins it for the golden configurations.
    pub fn state_digest(&self) -> u64 {
        let mut w = crate::snapshot::Writer::digesting();
        self.write_state(&mut w);
        w.digest()
    }

    /// Reads the state captured by [`CreditMarket::write_state`] into
    /// the unpopulated market [`CreditMarket::restore`] made from the
    /// same configuration and seed, overwriting every field the state
    /// carries. Every count read sizes an allocation only after the
    /// bytes left could hold that many items.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for truncated or inconsistent
    /// snapshots.
    fn read_state(&mut self, r: &mut crate::snapshot::Reader<'_>) -> Result<(), CoreError> {
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.take_u64()?;
        }
        self.rng = SimRng::from_state(rng_state);
        let has_plan = r.take_bool()?;
        match (&mut self.fault_plan, has_plan) {
            (Some(plan), true) => {
                let mut state = [0u64; 4];
                for word in &mut state {
                    *word = r.take_u64()?;
                }
                let drawn = r.take_u64()?;
                plan.restore(state, drawn);
            }
            (None, false) => {}
            (plan, _) => {
                return Err(CoreError::Checkpoint(format!(
                    "fault plan mismatch: snapshot has_plan={has_plan}, \
                     configuration builds {}",
                    if plan.is_some() { "one" } else { "none" }
                )));
            }
        }
        // Overlay rebuild through the public graph API: allocate the
        // full id watermark, drop the dead ids, bulk-load the edges. All
        // market-visible graph reads (sorted ids, sorted neighbor
        // slices) are layout-independent, so this reproduces them
        // exactly.
        let watermark = r.take_u64()?;
        let live_count = r.take_count(8)?;
        let mut live: Vec<NodeId> = Vec::with_capacity(live_count);
        for _ in 0..live_count {
            let id = NodeId::from_raw(r.take_u64()?);
            if live.last().is_some_and(|&last| last >= id) {
                return Err(CoreError::Checkpoint(format!(
                    "graph rebuild: live id {id} out of ascending order"
                )));
            }
            live.push(id);
        }
        // Slots are u32s, and every live id was allocated below the
        // watermark; anything else is not a state `write_state` wrote.
        if watermark > u64::from(u32::MAX) || live.last().is_some_and(|id| id.raw() >= watermark) {
            return Err(CoreError::Checkpoint(format!(
                "graph rebuild: id watermark {watermark} is not above every live id \
                 within the u32 slot space"
            )));
        }
        let edge_count = r.take_count(16)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let a = NodeId::from_raw(r.take_u64()?);
            let b = NodeId::from_raw(r.take_u64()?);
            edges.push((a, b));
        }
        let mut graph = Graph::with_nodes(watermark as usize);
        for raw in 0..watermark {
            let id = NodeId::from_raw(raw);
            if live.binary_search(&id).is_err() {
                graph
                    .remove_node(id)
                    .map_err(|e| CoreError::Checkpoint(format!("graph rebuild: {e}")))?;
            }
        }
        graph
            .extend_edges(&edges)
            .map_err(|e| CoreError::Checkpoint(format!("graph rebuild: {e}")))?;
        drop(edges);
        // The attachment index is derived state: rebuilt, not stored.
        if self.config.churn.is_some() {
            graph.build_attach_index();
        }
        self.graph = graph;
        // Arena and slot-parallel vectors, in the captured slot order.
        // Per slot: id, mu, spent, activity (value, time), in-flight.
        let n = r.take_count(48)?;
        let mut ids = Vec::with_capacity(n);
        self.mu = Vec::with_capacity(n);
        self.spent = Vec::with_capacity(n);
        self.activity = Vec::with_capacity(n);
        self.in_flight = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(NodeId::from_raw(r.take_u64()?));
            self.mu.push(r.take_f64()?);
            self.spent.push(r.take_u64()?);
            let value = r.take_f64()?;
            let last = SimTime::from_micros(r.take_u64()?);
            self.activity.push((value, last));
            self.in_flight.push(r.take_u64()?);
        }
        self.arena = PeerArena::from_ids(&ids);
        let entry_count = r.take_count(16)?;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let id = NodeId::from_raw(r.take_u64()?);
            let balance = r.take_u64()?;
            entries.push((id, balance));
        }
        let escrow = r.take_u64()?;
        let minted = r.take_u64()?;
        let burned = r.take_u64()?;
        self.ledger = Ledger::restore(&entries, escrow, minted, burned);
        self.ledger.enable_wealth_tracking();
        self.total_spent = r.take_u64()?;
        self.denied = r.take_u64()?;
        self.purchases = r.take_u64()?;
        self.in_flight_total = r.take_u64()?;
        self.fault_stats.delivered = r.take_u64()?;
        self.fault_stats.dropped = r.take_u64()?;
        self.fault_stats.defected = r.take_u64()?;
        self.fault_stats.delayed = r.take_u64()?;
        self.fault_stats.retries = r.take_u64()?;
        self.fault_stats.refunded = r.take_u64()?;
        self.fault_stats.crashes = r.take_u64()?;
        let depth = r.take_count(8)?;
        self.fault_stats.retry_depth = Vec::with_capacity(depth);
        for _ in 0..depth {
            self.fault_stats.retry_depth.push(r.take_u64()?);
        }
        let has_tax = r.take_bool()?;
        match (&mut self.taxation, has_tax) {
            (Some(tax), true) => {
                tax.collected = r.take_u64()?;
                tax.redistributed = r.take_u64()?;
            }
            (None, false) => {}
            (tax, _) => {
                return Err(CoreError::Checkpoint(format!(
                    "taxation mismatch: snapshot has_tax={has_tax}, \
                     configuration builds {}",
                    if tax.is_some() { "one" } else { "none" }
                )));
            }
        }
        let seller_count = r.take_count(16)?;
        let mut sellers = Vec::with_capacity(seller_count);
        for _ in 0..seller_count {
            let id = NodeId::from_raw(r.take_u64()?);
            let price = r.take_u64()?;
            sellers.push((id, price));
        }
        let price_seed = r.take_u64()?;
        self.pricing = PricingModel::restore_state(self.config.pricing, &sellers, price_seed)?;
        let sample_count = r.take_count(16)?;
        let mut series = TimeSeries::new();
        for _ in 0..sample_count {
            let t = SimTime::from_micros(r.take_u64()?);
            let g = r.take_f64()?;
            series.record(t, g);
        }
        self.gini_series = series;
        self.bootstrapped = r.take_bool()?;
        if !self.ledger.conserved() {
            return Err(CoreError::Checkpoint(
                "restored ledger violates conservation".into(),
            ));
        }
        Ok(())
    }

    fn exp_delay(&mut self, rate: f64) -> SimDuration {
        let u = self.rng.uniform_open01();
        SimDuration::from_secs_f64(-u.ln() / rate.max(1e-12))
    }

    fn schedule_spend(&mut self, id: NodeId, scheduler: &mut Scheduler<MarketEvent>) {
        let base = self
            .arena
            .slot(id)
            .map_or(self.config.base_rate, |s| self.mu[s]);
        let wealth = self.ledger.balance(id);
        let rate = self.config.spending.effective_rate(base, wealth);
        let attempt_rate = rate / self.pricing.mean_price();
        let delay = self.exp_delay(attempt_rate);
        scheduler.schedule_after(delay, MarketEvent::Spend(id));
    }

    /// Time constant (in units of mean inter-purchase intervals) for the
    /// availability-feedback activity decay.
    const ACTIVITY_DECAY_INTERVALS: f64 = 30.0;

    fn activity_time_constant(&self) -> f64 {
        Self::ACTIVITY_DECAY_INTERVALS * self.pricing.mean_price() / self.config.base_rate
    }

    /// Reads a peer's decayed recent-purchase activity. A free function
    /// over the arena-parallel state so the hot loop can hold disjoint
    /// borrows (graph slice + scratch buffer) while it runs.
    #[inline]
    fn activity_weight(
        arena: &PeerArena,
        activity: &[(f64, SimTime)],
        tau: f64,
        id: NodeId,
        now: SimTime,
    ) -> f64 {
        let Some(slot) = arena.slot(id) else {
            return 0.0;
        };
        let (value, last) = activity[slot];
        let dt = now.saturating_duration_since(last).as_secs_f64();
        value * (-dt / tau).exp()
    }

    /// Bumps a peer's activity after a successful purchase.
    fn bump_activity(&mut self, id: NodeId, now: SimTime) {
        let tau = self.activity_time_constant();
        let Some(slot) = self.arena.slot(id) else {
            debug_assert!(false, "activity bump for departed {id}");
            return;
        };
        let entry = &mut self.activity[slot];
        let dt = now.saturating_duration_since(entry.1).as_secs_f64();
        entry.0 = entry.0 * (-dt / tau).exp() + 1.0;
        entry.1 = now;
    }

    /// One purchase attempt — the market hot path. Allocation-free on
    /// the non-tax paths: the seller pick borrows the graph's neighbor
    /// slice (or the arena's dense peer list), availability weights go
    /// through a reused Fenwick sampler (O(log deg) inversion), and all
    /// per-peer state is slot-indexed.
    fn handle_spend(&mut self, id: NodeId, now: SimTime, scheduler: &mut Scheduler<MarketEvent>) {
        if !self.ledger.has_account(id) {
            return; // departed
        }
        let j = if self.config.profile.complete_mixing() {
            // Paper Sec. V-C: p_ij = (1 - p_ii)/(N - 1) over all peers.
            let peers = self.arena.ids();
            if peers.len() < 2 {
                self.schedule_spend(id, scheduler);
                return;
            }
            let mut pick;
            loop {
                pick = peers[self.rng.index(peers.len())];
                if pick != id {
                    break;
                }
            }
            pick
        } else {
            let neighbors = match self.graph.neighbor_slice(id) {
                Some(n) if !n.is_empty() => n,
                _ => {
                    self.schedule_spend(id, scheduler);
                    return;
                }
            };
            if self.config.availability_feedback {
                // Weight sellers by recent purchase activity: a peer that
                // has bought nothing lately has nothing on offer. The
                // sampler accumulates the same left-to-right total the
                // old linear walk did, so the uniform draw (and hence
                // the whole trajectory) is unchanged; only the inversion
                // is O(log deg) instead of O(deg).
                let tau = self.activity_time_constant();
                let mut sampler = std::mem::take(&mut self.seller_sampler);
                sampler.clear();
                for &nb in neighbors {
                    let w = Self::activity_weight(&self.arena, &self.activity, tau, nb, now) + 0.01;
                    sampler.push(w);
                }
                sampler.build();
                let target = self.rng.uniform_f64() * sampler.total();
                let pick = neighbors[sampler.pick(target)];
                self.seller_sampler = sampler;
                pick
            } else {
                neighbors[self.rng.index(neighbors.len())]
            }
        };
        let chunk = self.purchases + self.denied; // synthetic chunk id
        let price = self.pricing.price(j, chunk);
        let wealth = self.ledger.balance(id);
        if wealth >= price {
            if self.fault_plan.is_some() {
                // Recovery contract: the payment moves to per-trade
                // escrow now and settles only when the delivery
                // completes ([`MarketEvent::Deliver`]).
                let delay = self
                    .fault_plan
                    .as_mut()
                    .expect("checked above")
                    .delivery_latency();
                self.begin_trade(id, j, price, 1, delay, scheduler);
            } else {
                self.ledger
                    .transfer(id, j, price)
                    .expect("balance checked above");
                let buyer_slot = self.arena.slot(id).expect("buyer is live");
                self.spent[buyer_slot] += price;
                self.total_spent += price;
                self.purchases += 1;
                if let Some(trades) = &mut self.trade_capture {
                    trades.push(TradeRecord {
                        buyer: id,
                        seller: j,
                        price,
                    });
                }
                if self.config.availability_feedback {
                    self.bump_activity(id, now);
                }
                self.settle_tax(j, price);
            }
        } else {
            self.denied += 1;
        }
        self.schedule_spend(id, scheduler);
    }

    /// Income tax on the seller, if enabled and the seller is wealthy
    /// enough — shared by the direct settle in
    /// [`CreditMarket::handle_spend`] and the escrow settle in
    /// [`CreditMarket::settle_delivery`].
    fn settle_tax(&mut self, seller: NodeId, price: u64) {
        if let Some(tax) = &mut self.taxation {
            let seller_wealth = self.ledger.balance(seller);
            let due = tax.assess(price, seller_wealth, &mut self.rng);
            if due > 0 {
                let withheld = self.ledger.withhold_to_escrow(seller, due);
                tax.record_collection(withheld);
            }
            // Redistribute one credit to every peer whenever the
            // escrow can cover the whole population. The ledger's
            // escrow pool also backs in-flight trades under fault
            // injection; only the tax share (everything beyond
            // `in_flight_total`) may be redistributed, or the payout
            // would raid credits committed to open trades.
            let live = self.ledger.accounts() as u64;
            while live > 0 && self.ledger.escrow() - self.in_flight_total >= live {
                let paid = self.ledger.pay_each_from_escrow(1);
                tax.record_redistribution(paid);
                if paid == 0 {
                    break;
                }
            }
        }
    }

    /// Opens one escrow-backed trade: withholds `price` from the buyer
    /// and schedules the delivery completion after `delay`. `attempt`
    /// is 1 for fresh trades and grows across retries.
    fn begin_trade(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        delay: SimDuration,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        let withheld = self.ledger.withhold_to_escrow(buyer, price);
        debug_assert_eq!(withheld, price, "caller checked the balance");
        let slot = self.arena.slot(buyer).expect("buyer is live");
        self.in_flight[slot] += price;
        self.in_flight_total += price;
        scheduler.schedule_after(
            delay,
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            },
        );
        assert!(
            self.ledger.conserved(),
            "escrow withholding broke conservation (buyer {buyer}, price {price})"
        );
    }

    /// Resolves one in-flight delivery — the fault-path counterpart of
    /// the direct settle in [`CreditMarket::handle_spend`].
    fn handle_deliver(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        now: SimTime,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        if !self.ledger.has_account(buyer) {
            // The buyer departed (or crashed) while the delivery was
            // in transit; its escrow was already refunded at departure
            // and the trade no longer exists. No outcome draw.
            return;
        }
        let outcome = self
            .fault_plan
            .as_mut()
            .expect("Deliver events only exist under a fault plan")
            .delivery_outcome(now);
        let seller_live = self.ledger.has_account(seller);
        match outcome {
            DeliveryOutcome::Delayed => {
                self.fault_stats.delayed += 1;
                let penalty = self
                    .fault_plan
                    .as_mut()
                    .expect("plan present")
                    .delay_penalty();
                // The escrow stays put; the same attempt completes
                // later.
                scheduler.schedule_after(
                    penalty,
                    MarketEvent::Deliver {
                        buyer,
                        seller,
                        price,
                        attempt,
                    },
                );
            }
            DeliveryOutcome::Delivered if seller_live => {
                self.settle_delivery(buyer, seller, price, attempt, now);
            }
            DeliveryOutcome::Defected if seller_live => {
                self.settle_defect(buyer, seller, price, attempt, scheduler);
            }
            _ => {
                // Dropped — or delivered/defected against a seller
                // that departed mid-flight, which the buyer observes
                // as a drop.
                self.fault_stats.dropped += 1;
                self.retry_or_refund(buyer, seller, price, attempt, scheduler);
            }
        }
        assert!(
            self.ledger.conserved(),
            "delivery resolution broke conservation (buyer {buyer}, attempt {attempt})"
        );
    }

    /// Settles a completed escrow trade: pays the seller from escrow
    /// and applies the same side effects as a fault-free purchase.
    fn settle_delivery(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        now: SimTime,
    ) {
        let slot = self.arena.slot(buyer).expect("buyer is live");
        self.in_flight[slot] -= price;
        self.in_flight_total -= price;
        let paid = self.ledger.pay_from_escrow(seller, price);
        debug_assert_eq!(paid, price, "trade escrow fully funds the settle");
        self.spent[slot] += price;
        self.total_spent += price;
        self.purchases += 1;
        self.fault_stats.delivered += 1;
        self.fault_stats.note_conclusion(attempt);
        if let Some(trades) = &mut self.trade_capture {
            trades.push(TradeRecord {
                buyer,
                seller,
                price,
            });
        }
        if self.config.availability_feedback {
            self.bump_activity(buyer, now);
        }
        self.settle_tax(seller, price);
    }

    /// The seller takes the escrowed credits and never delivers. The
    /// lost credits count as spent (they left the buyer's wallet for
    /// good) but not as a purchase, and the trade is not captured for
    /// shard accounting — the buyer got nothing. Within the retry
    /// budget, an affordable buyer immediately buys again from another
    /// seller with fresh credits.
    fn settle_defect(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        let slot = self.arena.slot(buyer).expect("buyer is live");
        self.in_flight[slot] -= price;
        self.in_flight_total -= price;
        let paid = self.ledger.pay_from_escrow(seller, price);
        debug_assert_eq!(paid, price, "trade escrow fully funds the defection");
        self.spent[slot] += price;
        self.total_spent += price;
        self.fault_stats.defected += 1;
        let max_retries = self
            .fault_plan
            .as_ref()
            .expect("plan present")
            .spec()
            .max_retries;
        if attempt > max_retries {
            // Retry budget exhausted: the buyer gives up on the chunk.
            self.fault_stats.note_conclusion(attempt);
        } else if self.ledger.balance(buyer) >= price {
            self.fault_stats.retries += 1;
            let jitter = self.rng.uniform_f64();
            let next_seller = self.pick_retry_seller(buyer, seller);
            let plan = self.fault_plan.as_mut().expect("plan present");
            let delay = plan.backoff(attempt, jitter) + plan.delivery_latency();
            self.begin_trade(buyer, next_seller, price, attempt + 1, delay, scheduler);
        } else {
            // The defection bankrupted the trade: no credits left to
            // re-buy with.
            self.denied += 1;
            self.fault_stats.note_conclusion(attempt);
        }
    }

    /// After a dropped attempt: schedule a retry against another
    /// seller, or refund the buyer's escrow once the retry budget is
    /// exhausted. The escrow stays withheld across retries — the
    /// credits are committed to the trade until it settles or refunds.
    fn retry_or_refund(
        &mut self,
        buyer: NodeId,
        failed_seller: NodeId,
        price: u64,
        attempt: u32,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        let max_retries = self
            .fault_plan
            .as_ref()
            .expect("plan present")
            .spec()
            .max_retries;
        if attempt > max_retries {
            let slot = self.arena.slot(buyer).expect("buyer is live");
            self.in_flight[slot] -= price;
            self.in_flight_total -= price;
            let refunded = self.ledger.pay_from_escrow(buyer, price);
            debug_assert_eq!(refunded, price, "trade escrow funds the refund");
            self.fault_stats.refunded += 1;
            self.fault_stats.note_conclusion(attempt);
        } else {
            self.fault_stats.retries += 1;
            let jitter = self.rng.uniform_f64();
            let next_seller = self.pick_retry_seller(buyer, failed_seller);
            let plan = self.fault_plan.as_mut().expect("plan present");
            let delay = plan.backoff(attempt, jitter) + plan.delivery_latency();
            scheduler.schedule_after(
                delay,
                MarketEvent::Deliver {
                    buyer,
                    seller: next_seller,
                    price,
                    attempt: attempt + 1,
                },
            );
        }
    }

    /// Picks the next-best seller for a retry: the same routing as the
    /// original pick (complete mixing or neighbor-uniform), best-effort
    /// excluding the seller that just failed. Draws come from the
    /// global stream, in event-apply order, like every other model
    /// draw.
    fn pick_retry_seller(&mut self, buyer: NodeId, failed: NodeId) -> NodeId {
        if self.config.profile.complete_mixing() {
            let peers = self.arena.ids();
            // Bounded resampling: fall back to the failed seller when
            // the population offers no alternative (the retry then
            // fails again and eventually refunds).
            let mut pick = failed;
            for _ in 0..8 {
                let candidate = peers[self.rng.index(peers.len())];
                if candidate == buyer {
                    continue;
                }
                pick = candidate;
                if candidate != failed {
                    break;
                }
            }
            pick
        } else {
            let neighbors = match self.graph.neighbor_slice(buyer) {
                Some(n) if !n.is_empty() => n,
                _ => return failed,
            };
            let i = self.rng.index(neighbors.len());
            let pick = neighbors[i];
            if pick == failed && neighbors.len() > 1 {
                // Deterministic skip to the next neighbor.
                neighbors[(i + 1) % neighbors.len()]
            } else {
                pick
            }
        }
    }

    /// An injected crash: an unplanned departure. The crashed peer's
    /// in-flight escrow refunds into its wallet and the departure burn
    /// then takes the whole wallet out of circulation — identical
    /// accounting to a graceful leave, so conservation holds.
    fn handle_crash(&mut self, id: NodeId) {
        if !self.graph.has_node(id) {
            return; // already departed on its own
        }
        self.fault_stats.crashes += 1;
        self.handle_leave(id);
        assert!(
            self.ledger.conserved(),
            "crash recovery broke conservation (peer {id})"
        );
    }

    fn handle_join(&mut self, scheduler: &mut Scheduler<MarketEvent>) {
        let Some(churn) = self.config.churn else {
            return;
        };
        let new = self.churn_topology.join(&mut self.graph, &mut self.rng);
        self.ledger.mint(new, self.config.initial_credits);
        self.pricing.on_join(new, &mut self.rng);
        let rate = joiner_spending_rate(self.config.profile, self.config.base_rate, &mut self.rng);
        self.arena.insert(new);
        self.mu.push(rate);
        self.spent.push(0);
        self.activity.push((1.0, scheduler.now()));
        self.in_flight.push(0);
        self.schedule_spend(new, scheduler);
        let lifespan_delay = self.exp_delay(1.0 / churn.mean_lifespan);
        scheduler.schedule_after(lifespan_delay, MarketEvent::Leave(new));
        let arrival_delay = self.exp_delay(churn.arrival_rate);
        scheduler.schedule_after(arrival_delay, MarketEvent::Join);
        // Under a fault plan, every joiner rolls its crash die once, in
        // join order (event-apply order — deterministic at any shard
        // count).
        if let Some(plan) = self.fault_plan.as_mut() {
            if let Some(d) = plan.crash_delay(scheduler.now()) {
                scheduler.schedule_after(d, MarketEvent::Crash(new));
            }
        }
    }

    fn handle_leave(&mut self, id: NodeId) {
        if !self.graph.has_node(id) {
            return;
        }
        // Refund the departing peer's in-flight escrow into its wallet
        // first, so the departure burn below takes those credits out
        // of circulation instead of leaking them in escrow forever.
        // (Always zero when faults are off.)
        if let Some(slot) = self.arena.slot(id) {
            let holding = self.in_flight[slot];
            if holding > 0 {
                let refunded = self.ledger.pay_from_escrow(id, holding);
                debug_assert_eq!(refunded, holding, "escrow under-funded for {id}");
                self.in_flight[slot] = 0;
                self.in_flight_total -= holding;
                assert!(
                    self.ledger.conserved(),
                    "departure escrow refund broke conservation (peer {id})"
                );
            }
        }
        // The graph unlinks the departing peer from its neighbors
        // incrementally; no neighbor cache to rebuild.
        self.graph.remove_node(id).expect("checked live");
        self.ledger.burn_account(id);
        self.pricing.on_leave(id);
        let removal = self.arena.remove(id).expect("graph and arena agree");
        self.mu.swap_remove(removal.slot);
        // A departing peer takes its spending history with it, exactly
        // as `spent_per_peer()` (live peers only) always reported.
        self.total_spent -= self.spent[removal.slot];
        self.spent.swap_remove(removal.slot);
        self.activity.swap_remove(removal.slot);
        self.in_flight.swap_remove(removal.slot);
    }

    fn handle_sample(&mut self, now: SimTime, scheduler: &mut Scheduler<MarketEvent>) {
        // O(1): the ledger maintains the Gini online. (Kept bit-exact
        // with the sort-based oracle; the golden-trajectory tests pin
        // this, and debug builds re-check each sample.)
        let sampled = match self.ledger.tracked_gini() {
            Some(g) => Some(g),
            None => gini_u64(&self.ledger.balances_vec()).ok(),
        };
        if let Some(g) = sampled {
            debug_assert!(
                gini_u64(&self.ledger.balances_vec())
                    .map(|reference| (g - reference).abs() < 1e-9)
                    .unwrap_or(false),
                "online Gini drifted from the sort-based oracle"
            );
            self.gini_series.record(now, g);
        }
        scheduler.schedule_after(self.config.sample_interval, MarketEvent::Sample);
    }
}

impl Model for CreditMarket {
    type Event = MarketEvent;

    fn handle(&mut self, now: SimTime, event: MarketEvent, scheduler: &mut Scheduler<MarketEvent>) {
        match event {
            MarketEvent::Bootstrap => {
                if self.bootstrapped {
                    return;
                }
                self.bootstrapped = true;
                let ids: Vec<NodeId> = self.graph.node_ids().collect();
                // The queue population is known up front: one spend loop
                // per peer, the sampling chain, and (under churn) one
                // leave timer per peer plus the arrival process. Reserve
                // once so steady-state scheduling never reallocates.
                let churning = self.config.churn.is_some();
                scheduler.reserve(ids.len() * (1 + usize::from(churning)) + 2);
                for id in &ids {
                    self.schedule_spend(*id, scheduler);
                }
                scheduler.schedule_after(self.config.sample_interval, MarketEvent::Sample);
                if let Some(churn) = self.config.churn {
                    for &id in &ids {
                        let d = self.exp_delay(1.0 / churn.mean_lifespan);
                        scheduler.schedule_after(d, MarketEvent::Leave(id));
                    }
                    let d = self.exp_delay(churn.arrival_rate);
                    scheduler.schedule_after(d, MarketEvent::Join);
                }
                // Each initial peer rolls its crash die once, in
                // ascending-id order (the plan's documented bootstrap
                // order).
                if let Some(plan) = self.fault_plan.as_mut() {
                    for &id in &ids {
                        if let Some(d) = plan.crash_delay(now) {
                            scheduler.schedule_after(d, MarketEvent::Crash(id));
                        }
                    }
                }
            }
            MarketEvent::Spend(id) => self.handle_spend(id, now, scheduler),
            MarketEvent::Sample => self.handle_sample(now, scheduler),
            MarketEvent::Join => self.handle_join(scheduler),
            MarketEvent::Leave(id) => self.handle_leave(id),
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            } => self.handle_deliver(buyer, seller, price, attempt, now, scheduler),
            MarketEvent::Crash(id) => self.handle_crash(id),
        }
    }
}

/// Convenience runner: builds the market, simulates until `horizon`, and
/// returns the finished model.
#[doc = "\n\nPrefer [`crate::obs::Session`] for new code: it runs both market \
granularities behind one entry point and supports pluggable \
[`crate::obs::Probe`]s. This function is kept as a thin wrapper over a \
probe-less session (bit-identical results, zero overhead) so existing \
callers keep working."]
///
/// # Errors
/// Returns [`CoreError`] if market construction fails.
pub fn run_market(
    config: MarketConfig,
    seed: u64,
    horizon: SimTime,
) -> Result<CreditMarket, CoreError> {
    if config.streaming.is_some() {
        // Preserve CreditMarket::build's refusal without running the
        // chunk-level stack.
        return Err(CoreError::Config(
            "config selects a chunk-level streaming market; build it with \
             crate::protocol::run_streaming_market instead"
                .into(),
        ));
    }
    let mut session = crate::obs::Session::from_config(&config, seed)?;
    session.run_until(horizon);
    Ok(session
        .finish()
        .1
        .queue()
        .expect("queue-level config yields a queue-level model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrip_des::Simulation;

    fn run(config: MarketConfig, seed: u64, secs: u64) -> CreditMarket {
        run_market(config, seed, SimTime::from_secs(secs)).expect("market runs")
    }

    #[test]
    fn config_validation() {
        assert!(CreditMarket::build(MarketConfig::new(1, 10), 0).is_err());
        assert!(CreditMarket::build(MarketConfig::new(10, 10).base_rate(0.0), 0).is_err());
        assert!(CreditMarket::build(
            MarketConfig::new(10, 10).sample_interval(SimDuration::ZERO),
            0
        )
        .is_err());
        assert!(ChurnConfig::new(0.0, 100.0, 5).is_err());
        assert!(ChurnConfig::new(1.0, 0.0, 5).is_err());
        assert!(ChurnConfig::new(1.0, 100.0, 0).is_err());
        assert!(
            (ChurnConfig::new(2.0, 500.0, 5)
                .expect("valid")
                .expected_size()
                - 1000.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn closed_market_conserves_credits() {
        let config = MarketConfig::new(50, 20).topology(TopologyKind::Complete);
        let market = run(config, 1, 500);
        assert_eq!(market.ledger().total(), 50 * 20);
        assert!(market.ledger().conserved());
        assert!(
            market.purchases() > 1_000,
            "purchases {}",
            market.purchases()
        );
    }

    #[test]
    fn gini_series_is_recorded_and_bounded() {
        let config = MarketConfig::new(40, 10).sample_interval(SimDuration::from_secs(50));
        let market = run(config, 2, 2_000);
        let series = market.gini_series();
        assert!(series.len() >= 30, "samples {}", series.len());
        for &(_, g) in series.samples() {
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn asymmetric_market_is_more_unequal_than_symmetric() {
        // The paper's central qualitative claim at equal average wealth.
        let horizon = 4_000;
        let sym = run(MarketConfig::new(60, 50).symmetric(), 3, horizon);
        let asym = run(MarketConfig::new(60, 50).asymmetric(), 3, horizon);
        let g_sym = sym.gini_series().tail_mean(5).expect("samples");
        let g_asym = asym.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_asym > g_sym,
            "asymmetric Gini {g_asym} should exceed symmetric {g_sym}"
        );
    }

    #[test]
    fn taxation_reduces_inequality() {
        let base = MarketConfig::new(60, 50).asymmetric();
        let taxed = base.clone().tax(TaxConfig::new(0.2, 40).expect("valid"));
        let horizon = 4_000;
        let no_tax = run(base, 4, horizon);
        let with_tax = run(taxed, 4, horizon);
        let g_plain = no_tax.gini_series().tail_mean(5).expect("samples");
        let g_taxed = with_tax.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_taxed < g_plain,
            "taxed Gini {g_taxed} should be below untaxed {g_plain}"
        );
        let tax = with_tax.taxation().expect("enabled");
        assert!(tax.collected > 0, "no tax collected");
        assert!(tax.redistributed <= tax.collected);
        assert!(with_tax.ledger().conserved());
    }

    #[test]
    fn dynamic_spending_reduces_inequality() {
        let base = MarketConfig::new(60, 50).asymmetric();
        let dynamic = base
            .clone()
            .spending(SpendingPolicy::Dynamic { threshold: 50 });
        let horizon = 4_000;
        let fixed = run(base, 5, horizon);
        let dyn_market = run(dynamic, 5, horizon);
        let g_fixed = fixed.gini_series().tail_mean(5).expect("samples");
        let g_dyn = dyn_market.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_dyn < g_fixed,
            "dynamic-spending Gini {g_dyn} should be below fixed {g_fixed}"
        );
    }

    #[test]
    fn churn_market_stays_near_expected_size() {
        let churn = ChurnConfig::new(0.5, 200.0, 8).expect("valid"); // expected size 100
        let config = MarketConfig::new(100, 10)
            .churn(churn)
            .topology(TopologyKind::Complete)
            .sample_interval(SimDuration::from_secs(100));
        let market = run(config, 6, 3_000);
        let n = market.peer_count();
        assert!(
            (40..=220).contains(&n),
            "population drifted to {n}, expected ≈ 100"
        );
        assert!(market.ledger().conserved());
        assert!(market.ledger().burned() > 0, "departures burn credits");
        assert!(market.ledger().minted() > 100 * 10, "joiners mint credits");
    }

    #[test]
    fn spending_rates_sorted_is_monotone() {
        let market = run(MarketConfig::new(30, 10), 7, 1_000);
        let rates = market.spending_rates_sorted(SimTime::from_secs(1_000));
        assert_eq!(rates.len(), 30);
        for w in rates.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(rates.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn broke_market_denies_purchases() {
        // One credit per peer with prices ≥ 1: most attempts fail.
        let market = run(MarketConfig::new(30, 1), 8, 500);
        assert!(market.denied() > 0);
    }

    #[test]
    fn bootstrap_is_idempotent() {
        let market = CreditMarket::build(MarketConfig::new(20, 10), 9).expect("built");
        let mut sim = Simulation::new(market);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(100));
        // Should not double-count: one Sample chain, one spend loop each.
        let samples = sim.model().gini_series().len();
        assert_eq!(samples, 1, "duplicate bootstrap doubled the sampling");
    }

    /// The zero-alloc claim for the spend loop, observed from the
    /// outside: every buffer the hot path touches (event heap, scratch
    /// weights, slot vectors) reaches a fixed capacity during warmup and
    /// never grows again, over tens of thousands of further events.
    /// (The workspace forbids `unsafe`, so a counting global allocator
    /// is out; `docs/ARCHITECTURE.md` documents the per-event allocation
    /// audit.)
    #[test]
    fn spend_loop_buffers_stop_growing_after_warmup() {
        let config = MarketConfig::new(40, 50)
            .asymmetric()
            .with_availability_feedback();
        let market = CreditMarket::build(config, 17).expect("built");
        let mut sim = Simulation::new(market);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(200)); // warmup (~8k events)
        let heap_cap = sim.scheduler().capacity();
        let scratch_cap = sim.model().seller_sampler.capacity();
        let events_before = sim.stats().events_processed;
        sim.run_until(SimTime::from_secs(2_200));
        assert!(
            sim.stats().events_processed > events_before + 50_000,
            "workload too small to be meaningful: {} events",
            sim.stats().events_processed
        );
        assert_eq!(
            sim.scheduler().capacity(),
            heap_cap,
            "event heap grew during steady-state spending"
        );
        assert_eq!(
            sim.model().seller_sampler.capacity(),
            scratch_cap,
            "availability-feedback seller sampler grew during steady state"
        );
        assert!(scratch_cap > 0, "seller sampler was exercised");
    }

    /// The steady-state claim on the timing-wheel backend the runners
    /// select via `queue_profile()`. Exponential spend delays have
    /// unbounded tails, so a bucket vector can always meet a
    /// first-ever occupancy high-water mark — exact capacity equality
    /// (the heap backend's guarantee above) is unattainable. The honest
    /// wheel invariant is that the amortized allocation rate decays to
    /// zero: across tens of thousands of post-warmup events, total
    /// wheel storage grows by at most a few percent, and a second
    /// equally long window grows strictly less than the first.
    #[test]
    fn wheel_backed_spend_loop_stops_growing_after_warmup() {
        let config = MarketConfig::new(40, 50)
            .asymmetric()
            .with_availability_feedback();
        let market = CreditMarket::build(config, 17).expect("built");
        let profile = market.queue_profile();
        assert!(matches!(profile, scrip_des::QueueProfile::Wheel { .. }));
        let mut sim = Simulation::with_profile(market, profile);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(1_200)); // warmup: many wheel revolutions
        let warm_cap = sim.scheduler().capacity();
        let events_before = sim.stats().events_processed;
        sim.run_until(SimTime::from_secs(3_200));
        let mid_cap = sim.scheduler().capacity();
        sim.run_until(SimTime::from_secs(5_200));
        let end_cap = sim.scheduler().capacity();
        assert!(
            sim.stats().events_processed > events_before + 100_000,
            "workload too small to be meaningful: {} events",
            sim.stats().events_processed
        );
        assert!(
            end_cap <= warm_cap + warm_cap / 10,
            "wheel storage grew more than 10% after warmup: {warm_cap} -> {end_cap}"
        );
        assert!(
            end_cap - mid_cap <= mid_cap - warm_cap,
            "wheel allocation rate is not decaying: \
             {warm_cap} -> {mid_cap} -> {end_cap}"
        );
    }

    /// The arena layout audit's budget: flat per-peer market state
    /// (slot maps, wallets, prices, rates, counters, activity traces)
    /// stays within ≈100–150 B/peer at a population large enough that
    /// constant overheads vanish. Adjacency (≈ 8 B × degree) and
    /// population-independent scratch are accounted — and bounded —
    /// separately. A churning market also carries the graph's
    /// attachment index, built with the market: the audit must count
    /// its 16 B per peer, inside the same band.
    #[test]
    fn arena_layout_stays_within_per_peer_budget() {
        let closed = MarketConfig::new(10_000, 50)
            .asymmetric()
            .with_availability_feedback();
        let closed = run(closed, 42, 200).memory_audit();
        let churning = MarketConfig::new(10_000, 50)
            .asymmetric()
            .churn(ChurnConfig::new(20.0, 500.0, 20).expect("valid churn"));
        let churning = CreditMarket::build(churning, 42)
            .expect("built")
            .memory_audit();
        assert!(
            churning.arena_bytes >= closed.arena_bytes + 16 * 10_000,
            "attachment index not counted: {churning:?} vs {closed:?}"
        );
        for (label, audit) in [("closed", closed), ("churning", churning)] {
            assert_eq!(audit.peers, 10_000);
            let per_peer = audit.state_bytes_per_peer();
            assert!(
                (40..=150).contains(&per_peer),
                "{label}: per-peer state out of budget: {per_peer} B/peer ({audit:?})"
            );
            // Adjacency dominates at ~8 B × degree + row headers; make
            // sure nothing quadratic snuck in.
            let adjacency_per_peer = audit.adjacency_bytes / audit.peers;
            assert!(
                adjacency_per_peer <= 16 * 50 + 64,
                "{label}: adjacency out of budget: {adjacency_per_peer} B/peer"
            );
            // Fixed costs (sampler scratch, wealth histogram, sample
            // series) are sized by max degree / max wealth / horizon,
            // not the population — a few MB here regardless of n. An
            // absolute cap catches anything that started scaling with n².
            assert!(
                audit.fixed_bytes < 16 << 20,
                "{label}: fixed costs blew up: {audit:?}"
            );
        }
    }

    /// `restore` refuses what `build` refuses (a streaming config),
    /// with the same error, and state whose fault plan or taxation the
    /// configuration does not build; matching state restores exactly.
    #[test]
    fn restore_rejects_streaming_and_mismatched_state() {
        use crate::snapshot::{Reader, Writer};
        let state = |config: MarketConfig| {
            let market = CreditMarket::build(config, 5).expect("builds");
            let mut w = Writer::default();
            market.write_state(&mut w);
            (w.into_bytes(), market.state_digest())
        };
        let plain = MarketConfig::new(30, 10);
        let spec = FaultSpec {
            drop_rate: 0.1,
            ..FaultSpec::default()
        };
        let faulted = MarketConfig::new(30, 10).faults(spec);
        let taxed = MarketConfig::new(30, 10).tax(TaxConfig::new(0.2, 20).expect("valid tax"));
        let (plain_bytes, plain_digest) = state(plain.clone());
        let streaming = MarketConfig::new(30, 10)
            .streaming_market(scrip_streaming::StreamingConfig::market_paced(1.0));
        assert_eq!(
            CreditMarket::restore(streaming.clone(), 5, &mut Reader::new(&plain_bytes)).map(|_| ()),
            CreditMarket::build(streaming, 5).map(|_| ())
        );
        let mismatch = |config: MarketConfig, bytes: &[u8], what: &str| {
            let restored = CreditMarket::restore(config, 5, &mut Reader::new(bytes));
            match restored {
                Err(CoreError::Checkpoint(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected a {what}, got {:?}", other.map(|_| ())),
            }
        };
        mismatch(faulted.clone(), &plain_bytes, "fault plan mismatch");
        mismatch(plain.clone(), &state(faulted).0, "fault plan mismatch");
        mismatch(taxed.clone(), &plain_bytes, "taxation mismatch");
        mismatch(plain.clone(), &state(taxed).0, "taxation mismatch");
        let mut r = Reader::new(&plain_bytes);
        let restored = CreditMarket::restore(plain, 5, &mut r).expect("restores");
        r.finish().expect("state fully read");
        assert_eq!(restored.state_digest(), plain_digest);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(MarketConfig::new(40, 20), 10, 1_000);
        let b = run(MarketConfig::new(40, 20), 10, 1_000);
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.gini_series(), b.gini_series());
        let c = run(MarketConfig::new(40, 20), 11, 1_000);
        assert_ne!(a.ledger().balances_vec(), c.ledger().balances_vec());
    }

    #[test]
    fn zero_rate_fault_spec_is_byte_identical_to_none() {
        // An all-zero spec must not even build the plan: trajectories
        // match a fault-free run bit for bit.
        let base = MarketConfig::new(40, 20);
        let zeroed = base.clone().faults(FaultSpec::default());
        let a = run(base, 10, 1_000);
        let b = run(zeroed, 10, 1_000);
        assert!(!b.faults_enabled());
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.gini_series(), b.gini_series());
        assert_eq!(a.purchases(), b.purchases());
        assert_eq!(b.fault_stats(), &FaultStats::default());
    }

    #[test]
    fn faulty_market_recovers_and_conserves() {
        let spec = FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.10,
            onset: SimTime::from_secs(50),
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(50, 30)
            .topology(TopologyKind::Complete)
            .faults(spec);
        let market = run(config, 14, 2_000);
        assert!(market.faults_enabled());
        let stats = market.fault_stats();
        assert!(stats.delivered > 100, "delivered {}", stats.delivered);
        assert!(stats.dropped > 0, "no drops injected");
        assert!(stats.defected > 0, "no defections injected");
        assert!(stats.delayed > 0, "no delays injected");
        assert!(stats.retries > 0, "failures never retried");
        assert!(stats.crashes > 0, "no crashes fired");
        assert!(market.ledger().conserved());
        // Per-trade escrow is a sub-pool of the ledger's total escrow
        // (which also holds unredistributed tax).
        assert!(market.in_flight_escrow() <= market.ledger().escrow());
        assert!(
            !stats.retry_depth.is_empty()
                && stats.retry_depth.iter().sum::<u64>() >= stats.delivered,
            "conclusion histogram inconsistent: {:?}",
            stats.retry_depth
        );
        assert_eq!(market.purchases(), stats.delivered);
    }

    #[test]
    fn faults_compose_with_churn_and_tax() {
        let spec = FaultSpec {
            drop_rate: 0.15,
            defect_rate: 0.05,
            crash_fraction: 0.2,
            ..FaultSpec::default()
        };
        let churn = ChurnConfig::new(0.5, 200.0, 8).expect("valid");
        let config = MarketConfig::new(100, 30)
            .churn(churn)
            .tax(TaxConfig::new(0.2, 25).expect("valid"))
            .topology(TopologyKind::Complete)
            .faults(spec);
        let market = run(config, 15, 2_000);
        let stats = market.fault_stats();
        assert!(stats.delivered > 0);
        assert!(stats.crashes > 0, "crash fraction 0.2 never fired");
        assert!(market.ledger().conserved());
        assert!(market.ledger().burned() > 0, "departures burn credits");
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let spec = FaultSpec {
            drop_rate: 0.2,
            defect_rate: 0.1,
            delay_rate: 0.1,
            crash_fraction: 0.1,
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(40, 20).faults(spec);
        let a = run(config.clone(), 16, 1_000);
        let b = run(config.clone(), 16, 1_000);
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert_eq!(a.gini_series(), b.gini_series());
        let c = run(config, 17, 1_000);
        assert_ne!(a.ledger().balances_vec(), c.ledger().balances_vec());
    }

    #[test]
    fn ring_and_regular_topologies_run() {
        let ring = run(
            MarketConfig::new(20, 5).topology(TopologyKind::Ring),
            12,
            200,
        );
        assert_eq!(ring.peer_count(), 20);
        let reg = run(
            MarketConfig::new(20, 5).topology(TopologyKind::Regular(4)),
            13,
            200,
        );
        assert_eq!(reg.peer_count(), 20);
    }
}
