//! Random overlay generators.
//!
//! The paper's default overlay is **scale-free**: node degrees follow
//! `P(D) ~ D^-k` with `k = 2.5` and a mean of 20 neighbors (Sec. VI). The
//! [`scale_free`] generator reproduces this via a configuration model with
//! a bounded power-law degree sequence, then patches connectivity.
//! Alternative families ([`barabasi_albert`], [`erdos_renyi`],
//! [`random_regular`], [`complete`], [`ring`]) support ablations over
//! topology choice.

use std::error::Error;
use std::fmt;

use rand::Rng;
use scrip_des::dist::{DiscretePowerLaw, ParamError};

use crate::graph::{Graph, NodeId};

/// Errors from topology generation.
#[derive(Clone, Debug, PartialEq)]
pub enum GenError {
    /// A configuration parameter was invalid.
    InvalidParam(String),
    /// The underlying degree distribution could not be built.
    Distribution(ParamError),
    /// No graph satisfying the constraints could be realised.
    Infeasible(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::InvalidParam(msg) => write!(f, "invalid generator parameter: {msg}"),
            GenError::Distribution(e) => write!(f, "degree distribution: {e}"),
            GenError::Infeasible(msg) => write!(f, "infeasible topology: {msg}"),
        }
    }
}

impl Error for GenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GenError::Distribution(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for GenError {
    fn from(e: ParamError) -> Self {
        GenError::Distribution(e)
    }
}

/// Configuration for the paper's scale-free overlay.
///
/// Defaults mirror Sec. VI of the paper: power-law exponent `k = 2.5` and
/// an average of roughly 20 neighbors. For a power law with `k = 2.5` the
/// mean is ≈ 3× the minimum degree (continuous approximation
/// `mean = min·(k−1)/(k−2)`), so the default minimum degree is 7, which
/// yields an asymptotic mean of ≈ 19.5.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleFreeConfig {
    /// Number of nodes.
    pub n: usize,
    /// Power-law shape parameter `k` in `P(D) ~ D^-k`.
    pub exponent: f64,
    /// Minimum degree of any node.
    pub min_degree: u64,
    /// Upper truncation of the degree distribution. Always additionally
    /// capped at `n − 1` when sampling.
    pub max_degree: u64,
}

impl ScaleFreeConfig {
    /// Paper defaults for an overlay of `n` nodes.
    ///
    /// # Errors
    /// Returns [`GenError::InvalidParam`] if `n < 2`.
    pub fn new(n: usize) -> Result<Self, GenError> {
        if n < 2 {
            return Err(GenError::InvalidParam(format!(
                "scale-free overlay needs n >= 2, got {n}"
            )));
        }
        Ok(ScaleFreeConfig {
            n,
            exponent: 2.5,
            min_degree: 7,
            max_degree: 4096,
        })
    }

    /// Overrides the power-law exponent.
    pub fn exponent(mut self, k: f64) -> Self {
        self.exponent = k;
        self
    }

    /// Overrides the minimum degree (which for exponent 2.5 sets the mean
    /// degree to roughly 3× this value).
    pub fn min_degree(mut self, min: u64) -> Self {
        self.min_degree = min;
        self
    }

    /// Overrides the degree-distribution truncation point.
    pub fn max_degree(mut self, max: u64) -> Self {
        self.max_degree = max;
        self
    }
}

/// Generates a connected scale-free overlay via the configuration model.
///
/// Draws a degree sequence from the bounded power law `config`
/// describes, pairs stubs uniformly at random (rejecting self-loops and
/// parallel edges), then links any leftover components so the overlay is
/// connected — matching the paper's always-connected streaming swarm.
///
/// Cost is O(E) with sequential memory access: one Fisher–Yates shuffle
/// of the stub list, one [`Graph::extend_edges`] bulk load of the paired
/// stubs (equal to adding them one by one, which never drew from the
/// RNG), and one component scan. The RNG draw sequence is that of the
/// per-edge build, so every seed yields the same overlay.
///
/// # Errors
/// Returns [`GenError`] for invalid parameters or unachievable mean
/// degrees.
pub fn scale_free<R: Rng + ?Sized>(
    config: &ScaleFreeConfig,
    rng: &mut R,
) -> Result<Graph, GenError> {
    if config.n < 2 {
        return Err(GenError::InvalidParam(format!(
            "scale-free overlay needs n >= 2, got {}",
            config.n
        )));
    }
    if config.min_degree as usize >= config.n {
        return Err(GenError::InvalidParam(format!(
            "min degree {} must be below n = {}",
            config.min_degree, config.n
        )));
    }
    let max = config.max_degree.min(config.n as u64 - 1);
    let degree_dist = DiscretePowerLaw::new(config.min_degree, max, config.exponent)?;

    let mut graph = Graph::with_nodes(config.n);
    let ids: Vec<NodeId> = graph.node_ids().collect();

    // Degree sequence, capped at n-1 and with an even stub total.
    let cap = (config.n - 1) as u64;
    let mut degrees: Vec<u64> = (0..config.n)
        .map(|_| degree_dist.sample(rng).min(cap))
        .collect();
    if degrees.iter().sum::<u64>() % 2 == 1 {
        // Flip one unit on a random node to make the stub count even.
        let i = rng.gen_range(0..config.n);
        degrees[i] = if degrees[i] < cap {
            degrees[i] + 1
        } else {
            degrees[i] - 1
        };
    }

    // Stub list: node index repeated degree-many times.
    let mut stubs: Vec<usize> = Vec::with_capacity(degrees.iter().sum::<u64>() as usize);
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat(i).take(d as usize));
    }
    // Fisher–Yates shuffle, then pair adjacent stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    // Self-loops are skipped; parallel edges collapse in the bulk load.
    let edges: Vec<(NodeId, NodeId)> = stubs
        .chunks_exact(2)
        .map(|pair| (ids[pair[0]], ids[pair[1]]))
        .filter(|(a, b)| a != b)
        .collect();
    drop(stubs);
    graph
        .extend_edges(&edges)
        .expect("stubs pair live, distinct nodes");

    connect_components(&mut graph, rng);
    Ok(graph)
}

/// Generates a Barabási–Albert preferential-attachment graph: starts from
/// a small clique and attaches each new node to `m` existing nodes chosen
/// proportionally to degree.
///
/// # Errors
/// Returns [`GenError::InvalidParam`] unless `1 <= m < n`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GenError> {
    if m == 0 || m >= n {
        return Err(GenError::InvalidParam(format!(
            "Barabási–Albert requires 1 <= m < n (m = {m}, n = {n})"
        )));
    }
    let mut graph = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| graph.add_node()).collect();

    // Seed clique over the first m+1 nodes.
    for i in 0..=m {
        for j in (i + 1)..=m {
            graph
                .add_edge(ids[i], ids[j])
                .expect("seed clique edges are valid");
        }
    }

    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<usize> = Vec::new();
    for i in 0..=m {
        endpoints.extend(std::iter::repeat(i).take(m));
    }

    for new in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0usize;
        while targets.len() < m {
            let pick = endpoints[rng.gen_range(0..endpoints.len())];
            if pick != new && !targets.contains(&pick) {
                targets.push(pick);
            }
            guard += 1;
            if guard > 100 * (m + 1) {
                // Fall back to uniform choice to guarantee progress.
                let pick = rng.gen_range(0..new);
                if !targets.contains(&pick) {
                    targets.push(pick);
                }
            }
        }
        for &t in &targets {
            graph
                .add_edge(ids[new], ids[t])
                .expect("preferential edges are valid");
            endpoints.push(t);
            endpoints.push(new);
        }
    }
    Ok(graph)
}

/// Generates an Erdős–Rényi `G(n, p)` graph (not necessarily connected).
///
/// # Errors
/// Returns [`GenError::InvalidParam`] unless `0 <= p <= 1`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GenError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GenError::InvalidParam(format!(
            "edge probability must be in [0, 1], got {p}"
        )));
    }
    let mut graph = Graph::with_nodes(n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                graph.add_edge(ids[i], ids[j]).expect("distinct live nodes");
            }
        }
    }
    Ok(graph)
}

/// Generates a random `d`-regular graph by stub matching with restarts.
///
/// # Errors
/// Returns [`GenError::InvalidParam`] if `n * d` is odd or `d >= n`, and
/// [`GenError::Infeasible`] if no simple matching is found in 100
/// restarts (practically impossible for feasible parameters).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GenError> {
    if n * d % 2 == 1 {
        return Err(GenError::InvalidParam(format!(
            "n*d must be even (n = {n}, d = {d})"
        )));
    }
    if d >= n {
        return Err(GenError::InvalidParam(format!(
            "degree d = {d} must be below n = {n}"
        )));
    }
    'restart: for _ in 0..100 {
        let mut graph = Graph::with_nodes(n);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat(i).take(d)).collect();
        // Pair random stubs, retrying locally on self-loops/parallel edges;
        // restart from scratch only on a genuine dead end.
        while !stubs.is_empty() {
            let mut attempts = 0;
            loop {
                let i = rng.gen_range(0..stubs.len());
                let mut j = rng.gen_range(0..stubs.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (a, b) = (stubs[i], stubs[j]);
                if a != b && !graph.has_edge(ids[a], ids[b]) {
                    graph.add_edge(ids[a], ids[b]).expect("checked simple");
                    let (hi, lo) = (i.max(j), i.min(j));
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    break;
                }
                attempts += 1;
                if attempts > 100 + 10 * stubs.len() {
                    continue 'restart;
                }
            }
        }
        return Ok(graph);
    }
    Err(GenError::Infeasible(format!(
        "no simple {d}-regular graph on {n} nodes found after 100 restarts"
    )))
}

/// Generates the complete graph `K_n` (the topology of Dandekar et al.'s
/// credit-network model, useful for baselines).
pub fn complete(n: usize) -> Graph {
    let mut graph = Graph::with_nodes(n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    for i in 0..n {
        for j in (i + 1)..n {
            graph.add_edge(ids[i], ids[j]).expect("distinct live nodes");
        }
    }
    graph
}

/// Generates a ring (cycle) of `n >= 3` nodes.
///
/// # Errors
/// Returns [`GenError::InvalidParam`] if `n < 3`.
pub fn ring(n: usize) -> Result<Graph, GenError> {
    if n < 3 {
        return Err(GenError::InvalidParam(format!(
            "ring needs n >= 3, got {n}"
        )));
    }
    let mut graph = Graph::with_nodes(n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    for i in 0..n {
        graph
            .add_edge(ids[i], ids[(i + 1) % n])
            .expect("distinct live nodes");
    }
    Ok(graph)
}

/// Links connected components into one by adding one edge between a random
/// member of each subsequent component and a random member of the first.
pub(crate) fn connect_components<R: Rng + ?Sized>(graph: &mut Graph, rng: &mut R) {
    let components = graph.connected_components();
    if components.len() <= 1 {
        return;
    }
    let anchor_component = &components[0];
    for comp in &components[1..] {
        let a = anchor_component[rng.gen_range(0..anchor_component.len())];
        let b = comp[rng.gen_range(0..comp.len())];
        graph.add_edge(a, b).expect("distinct components");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use scrip_des::SimRng;

    #[test]
    fn scale_free_matches_paper_defaults() {
        let mut rng = SimRng::seed_from_u64(1);
        let config = ScaleFreeConfig::new(500).expect("valid");
        assert_eq!(config.exponent, 2.5);
        let g = scale_free(&config, &mut rng).expect("generated");
        assert_eq!(g.node_count(), 500);
        assert!(g.is_connected());
        let mean = metrics::mean_degree(&g);
        // Paper target is ~20 neighbors on average; truncation at n-1 and
        // configuration-model edge collapsing lose some edges.
        assert!((12.0..=22.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn scale_free_is_heavy_tailed() {
        let mut rng = SimRng::seed_from_u64(2);
        let config = ScaleFreeConfig::new(1000).expect("valid");
        let g = scale_free(&config, &mut rng).expect("generated");
        let max = metrics::max_degree(&g);
        let mean = metrics::mean_degree(&g);
        assert!(
            max as f64 > 4.0 * mean,
            "expected hub nodes: max {max}, mean {mean}"
        );
    }

    #[test]
    fn scale_free_rejects_tiny_n() {
        assert!(ScaleFreeConfig::new(1).is_err());
        let mut rng = SimRng::seed_from_u64(3);
        let mut config = ScaleFreeConfig::new(10).expect("valid");
        config.min_degree = 50;
        assert!(scale_free(&config, &mut rng).is_err());
    }

    #[test]
    fn scale_free_builder_overrides() {
        let config = ScaleFreeConfig::new(100)
            .expect("valid")
            .exponent(3.0)
            .min_degree(2)
            .max_degree(64);
        assert_eq!(config.exponent, 3.0);
        assert_eq!(config.min_degree, 2);
        assert_eq!(config.max_degree, 64);
        let mut rng = SimRng::seed_from_u64(4);
        let g = scale_free(&config, &mut rng).expect("generated");
        assert_eq!(g.node_count(), 100);
        assert!(g.is_connected());
    }

    #[test]
    fn barabasi_albert_structure() {
        let mut rng = SimRng::seed_from_u64(5);
        let g = barabasi_albert(200, 3, &mut rng).expect("generated");
        assert_eq!(g.node_count(), 200);
        assert!(g.is_connected());
        // Each non-seed node adds exactly m edges.
        let expected_edges = 3 * 4 / 2 + (200 - 4) * 3;
        assert_eq!(g.edge_count(), expected_edges);
        for id in g.node_ids() {
            assert!(g.degree(id).expect("live") >= 3);
        }
    }

    #[test]
    fn barabasi_albert_rejects_bad_m() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(barabasi_albert(10, 0, &mut rng).is_err());
        assert!(barabasi_albert(10, 10, &mut rng).is_err());
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 300;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng).expect("generated");
        let expected = p * (n * (n - 1) / 2) as f64;
        let actual = g.edge_count() as f64;
        assert!(
            (actual - expected).abs() < 0.15 * expected,
            "edges {actual} vs expected {expected}"
        );
    }

    #[test]
    fn erdos_renyi_extreme_p() {
        let mut rng = SimRng::seed_from_u64(8);
        assert_eq!(erdos_renyi(20, 0.0, &mut rng).expect("ok").edge_count(), 0);
        assert_eq!(
            erdos_renyi(20, 1.0, &mut rng).expect("ok").edge_count(),
            20 * 19 / 2
        );
        assert!(erdos_renyi(20, 1.5, &mut rng).is_err());
        assert!(erdos_renyi(20, -0.1, &mut rng).is_err());
    }

    #[test]
    fn random_regular_has_exact_degrees() {
        let mut rng = SimRng::seed_from_u64(9);
        let g = random_regular(50, 6, &mut rng).expect("generated");
        for id in g.node_ids() {
            assert_eq!(g.degree(id), Some(6));
        }
    }

    #[test]
    fn random_regular_rejects_odd_product_and_big_d() {
        let mut rng = SimRng::seed_from_u64(10);
        assert!(random_regular(5, 3, &mut rng).is_err());
        assert!(random_regular(5, 5, &mut rng).is_err());
    }

    #[test]
    fn complete_graph() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        for id in g.node_ids() {
            assert_eq!(g.degree(id), Some(5));
        }
    }

    #[test]
    fn ring_graph() {
        let g = ring(5).expect("valid");
        assert_eq!(g.edge_count(), 5);
        for id in g.node_ids() {
            assert_eq!(g.degree(id), Some(2));
        }
        assert!(ring(2).is_err());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = ScaleFreeConfig::new(200).expect("valid");
        let g1 = scale_free(&config, &mut SimRng::seed_from_u64(77)).expect("ok");
        let g2 = scale_free(&config, &mut SimRng::seed_from_u64(77)).expect("ok");
        assert_eq!(g1, g2);
        let g3 = scale_free(&config, &mut SimRng::seed_from_u64(78)).expect("ok");
        assert_ne!(g1, g3);
    }

    #[test]
    fn gen_error_display() {
        let e = GenError::InvalidParam("boom".into());
        assert!(e.to_string().contains("boom"));
        let e = GenError::Infeasible("nope".into());
        assert!(e.to_string().contains("nope"));
    }
}
