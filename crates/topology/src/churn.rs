//! Peer churn: join and leave operations on a live overlay.
//!
//! Sec. VI-E of the paper studies *dynamic* overlays where peers arrive as
//! a Poisson process and stay for exponentially distributed lifespans. A
//! joining peer attaches to a bounded number of existing peers; a leaving
//! peer takes its credits away and its edges vanish. These operations keep
//! the overlay usable for the streaming protocol (every node keeps at
//! least one neighbor whenever possible).
//!
//! A join draws its neighbors preferentially, proportionally to
//! `degree + 1`. The draws go through the [`Graph`]'s attachment index: a
//! Fenwick tree with one leaf per sorted-ID position (weight `degree + 1`
//! for a live node, 0 for a removed one) that the graph keeps current on
//! every edge and node mutation in O(log n). A join therefore costs
//! O(log n) per pick plus the sorted inserts into its neighbors' rows, not
//! the O(n) weight walk over the whole population it replaces. The
//! weights are integers, so the descent is exact in `f64` and selects the
//! same node the walk would for the same draw.

use rand::Rng;

use crate::graph::{Graph, GraphError, NodeId};

/// Configuration for churn operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnTopology {
    /// Number of neighbors a joining peer attaches to (capped by the
    /// current overlay size).
    pub attach_degree: usize,
}

impl Default for ChurnTopology {
    fn default() -> Self {
        ChurnTopology { attach_degree: 20 }
    }
}

impl ChurnTopology {
    /// Creates a churn config attaching each joiner to `attach_degree`
    /// neighbors.
    pub fn new(attach_degree: usize) -> Self {
        ChurnTopology { attach_degree }
    }

    /// Adds a node to the overlay and wires it to up to
    /// [`ChurnTopology::attach_degree`] distinct existing nodes, drawn
    /// proportionally to `degree + 1` (preferential attachment, which
    /// keeps the overlay scale-free under churn; the +1 keeps isolated
    /// nodes reachable). Returns the new node's ID.
    ///
    /// Each draw costs O(log n) through the graph's attachment index
    /// ([`Graph::attach_pick`]). All picks see the pre-join weights, and
    /// the joiner is added only after them.
    pub fn join<R: Rng + ?Sized>(&self, graph: &mut Graph, rng: &mut R) -> NodeId {
        let live = graph.node_count();
        if live == 0 {
            return graph.add_node();
        }
        let want = self.attach_degree.min(live).max(1);
        let total = graph.attach_total();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
        let mut guard = 0usize;
        while chosen.len() < want && guard < 1000 * want {
            guard += 1;
            let pick = graph.attach_pick(rng.gen::<f64>() * total);
            if !chosen.contains(&pick) {
                chosen.push(pick);
            }
        }
        let new = graph.add_node();
        for &nb in &chosen {
            graph.add_edge(new, nb).expect("distinct live nodes");
        }
        new
    }

    /// Removes a departing node, returning its former neighbors.
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] if the node is already gone.
    pub fn leave(&self, graph: &mut Graph, id: NodeId) -> Result<Vec<NodeId>, GraphError> {
        graph.remove_node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, ScaleFreeConfig};
    use scrip_des::SimRng;

    #[test]
    fn join_into_empty_graph() {
        let mut g = Graph::new();
        let mut rng = SimRng::seed_from_u64(1);
        let churn = ChurnTopology::new(5);
        let id = churn.join(&mut g, &mut rng);
        assert!(g.has_node(id));
        assert_eq!(g.degree(id), Some(0));
    }

    #[test]
    fn join_attaches_requested_degree() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut g = generators::complete(30);
        let churn = ChurnTopology::new(10);
        let id = churn.join(&mut g, &mut rng);
        assert_eq!(g.degree(id), Some(10));
    }

    #[test]
    fn join_caps_at_overlay_size() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut g = generators::complete(4);
        let churn = ChurnTopology::new(100);
        let id = churn.join(&mut g, &mut rng);
        assert_eq!(g.degree(id), Some(4));
    }

    #[test]
    fn preferential_rule_prefers_hubs() {
        let mut rng = SimRng::seed_from_u64(5);
        // A star graph: node 0 is the hub.
        let mut g = Graph::with_nodes(21);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for &leaf in &ids[1..] {
            g.add_edge(ids[0], leaf).expect("valid");
        }
        let churn = ChurnTopology::new(1);
        let mut hub_hits = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut g2 = g.clone();
            let id = churn.join(&mut g2, &mut rng);
            let nb: Vec<NodeId> = g2.neighbors(id).expect("live").collect();
            if nb == vec![ids[0]] {
                hub_hits += 1;
            }
        }
        // Hub has degree 20 of total degree 40 (+1 smoothing dilutes a bit);
        // uniform choice would hit it ~1/21 of the time.
        assert!(
            hub_hits > trials / 4,
            "hub attached only {hub_hits}/{trials} times"
        );
    }

    #[test]
    fn leave_removes_node_and_reports_neighbors() {
        let mut rng = SimRng::seed_from_u64(6);
        let config = ScaleFreeConfig::new(50).expect("valid");
        let mut g = generators::scale_free(&config, &mut rng).expect("generated");
        let victim = g.node_ids().nth(10).expect("exists");
        let expected: Vec<NodeId> = g.neighbors(victim).expect("live").collect();
        let churn = ChurnTopology::default();
        let got = churn.leave(&mut g, victim).expect("was live");
        assert_eq!(got, expected);
        assert!(!g.has_node(victim));
        assert!(churn.leave(&mut g, victim).is_err());
    }

    #[test]
    fn sustained_churn_keeps_overlay_usable() {
        let mut rng = SimRng::seed_from_u64(7);
        let config = ScaleFreeConfig::new(100).expect("valid");
        let mut g = generators::scale_free(&config, &mut rng).expect("generated");
        let churn = ChurnTopology::new(8);
        for round in 0..300 {
            if round % 2 == 0 {
                churn.join(&mut g, &mut rng);
            } else {
                let ids: Vec<NodeId> = g.node_ids().collect();
                let victim = ids[rng.index(ids.len())];
                churn.leave(&mut g, victim).expect("live");
            }
        }
        assert_eq!(g.node_count(), 100);
        // All surviving joiners should have at least one neighbor unless the
        // overlay collapsed (it should not at this size).
        let isolated = g.node_ids().filter(|&id| g.degree(id) == Some(0)).count();
        assert!(isolated < 5, "{isolated} isolated nodes after churn");
    }
}
