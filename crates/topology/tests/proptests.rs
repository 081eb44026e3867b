//! Property-based tests for overlay graphs and generators.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;
use rand::Rng;
use scrip_des::dist::DiscretePowerLaw;
use scrip_des::SimRng;
use scrip_topology::churn::ChurnTopology;
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::metrics;
use scrip_topology::{Graph, NodeId, Partition};

/// The O(n) preferential walk `ChurnTopology::join` used before the
/// graph's attachment index, verbatim: weights `degree + 1` over the
/// live ids in ascending order, first id whose cumulative weight
/// exceeds the target, last live id when the target is not consumed.
fn walk_pick(graph: &Graph, target: f64) -> NodeId {
    let existing: Vec<NodeId> = graph.node_ids().collect();
    let weights: Vec<f64> = existing
        .iter()
        .map(|&id| (graph.degree(id).unwrap_or(0) + 1) as f64)
        .collect();
    let mut target = target;
    let mut pick = existing[existing.len() - 1];
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            pick = existing[i];
            break;
        }
        target -= w;
    }
    pick
}

/// The walk's total weight: the sequential sum of the same weights.
fn walk_total(graph: &Graph) -> f64 {
    graph
        .node_ids()
        .map(|id| (graph.degree(id).unwrap_or(0) + 1) as f64)
        .sum()
}

/// The pre-index preferential join, verbatim: collect the live ids,
/// add the joiner, draw `want` distinct neighbors by the walk.
fn walk_join(attach_degree: usize, graph: &mut Graph, rng: &mut SimRng) -> NodeId {
    let existing: Vec<NodeId> = graph.node_ids().collect();
    let new = graph.add_node();
    if existing.is_empty() {
        return new;
    }
    let want = attach_degree.min(existing.len()).max(1);
    let weights: Vec<f64> = existing
        .iter()
        .map(|&id| (graph.degree(id).unwrap_or(0) + 1) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
    let mut guard = 0usize;
    while chosen.len() < want && guard < 1000 * want {
        guard += 1;
        let mut target = rng.gen::<f64>() * total;
        let mut pick = existing[existing.len() - 1];
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                pick = existing[i];
                break;
            }
            target -= w;
        }
        if !chosen.contains(&pick) {
            chosen.push(pick);
        }
    }
    for &nb in &chosen {
        graph.add_edge(new, nb).expect("distinct live nodes");
    }
    new
}

/// Checks `attach_pick` against the walk at every integer target (each
/// prefix boundary and both sides of it), at random fractional targets,
/// and past the total, where both fall back to the last live id.
fn assert_picks_match_walk(graph: &mut Graph, rng: &mut SimRng) -> Result<(), TestCaseError> {
    let total = walk_total(graph);
    prop_assert_eq!(graph.attach_total().to_bits(), total.to_bits());
    let fractional: Vec<f64> = (0..16).map(|_| rng.gen::<f64>() * total).collect();
    let integers = (0..=total as u64 + 1).map(|k| k as f64);
    for target in integers.chain(fractional).chain([total * 1.5, f64::MAX]) {
        prop_assert_eq!(
            graph.attach_pick(target),
            walk_pick(graph, target),
            "target {} of total {}",
            target,
            total
        );
    }
    Ok(())
}

/// Rebuilds `graph` the way a checkpoint restore does: allocate the id
/// watermark, drop the dead ids, bulk-load the edges. The result has the
/// same overlay but a different tombstone layout in its sorted ids.
fn rebuild_like_checkpoint(graph: &Graph) -> Graph {
    let live: Vec<NodeId> = graph.node_ids().collect();
    let mut rebuilt = Graph::with_nodes(graph.next_raw_id() as usize);
    for raw in 0..graph.next_raw_id() {
        let id = NodeId::from_raw(raw);
        if live.binary_search(&id).is_err() {
            rebuilt.remove_node(id).expect("allocated id");
        }
    }
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    rebuilt.extend_edges(&edges).expect("live endpoints");
    rebuilt
}

/// `Graph::connected_components` before the flat visited marks,
/// verbatim: BFS from each unvisited id in ascending order, visits
/// marked in a `BTreeSet`.
fn btree_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut components = Vec::new();
    for start in graph.node_ids() {
        if visited.contains(&start) {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::from([start]);
        visited.insert(start);
        while let Some(node) = queue.pop_front() {
            component.push(node);
            if let Some(nbrs) = graph.neighbors(node) {
                for nb in nbrs {
                    if visited.insert(nb) {
                        queue.push_back(nb);
                    }
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// `generators::scale_free` before the bulk load, verbatim: one
/// `add_edge` per paired stub, then components linked through the
/// `BTreeSet` BFS. Returns the overlay and how many components the
/// pairing left.
fn scale_free_by_add_edge(config: &ScaleFreeConfig, rng: &mut SimRng) -> (Graph, usize) {
    let max = config.max_degree.min(config.n as u64 - 1);
    let degree_dist =
        DiscretePowerLaw::new(config.min_degree, max, config.exponent).expect("valid law");
    let mut graph = Graph::with_nodes(config.n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let cap = (config.n - 1) as u64;
    let mut degrees: Vec<u64> = (0..config.n)
        .map(|_| degree_dist.sample(rng).min(cap))
        .collect();
    if degrees.iter().sum::<u64>() % 2 == 1 {
        let i = rng.gen_range(0..config.n);
        degrees[i] = if degrees[i] < cap {
            degrees[i] + 1
        } else {
            degrees[i] - 1
        };
    }
    let mut stubs: Vec<usize> = Vec::with_capacity(degrees.iter().sum::<u64>() as usize);
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat(i).take(d as usize));
    }
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    for pair in stubs.chunks_exact(2) {
        let (a, b) = (ids[pair[0]], ids[pair[1]]);
        if a != b {
            let _ = graph.add_edge(a, b);
        }
    }
    let components = btree_components(&graph);
    if components.len() > 1 {
        let anchor_component = &components[0];
        for comp in &components[1..] {
            let a = anchor_component[rng.gen_range(0..anchor_component.len())];
            let b = comp[rng.gen_range(0..comp.len())];
            graph.add_edge(a, b).expect("distinct components");
        }
    }
    (graph, components.len())
}

/// A graph of `n` nodes with the `base` edges (indices mod `n`, self
/// pairs skipped), then `removals` of random live nodes, which leave
/// tombstones and, past half the ids, compact.
fn tombstoned_graph(n: usize, base: &[(usize, usize)], removals: usize, rng: &mut SimRng) -> Graph {
    let mut g = Graph::with_nodes(n);
    for &(a, b) in base {
        let (a, b) = (
            NodeId::from_raw((a % n) as u64),
            NodeId::from_raw((b % n) as u64),
        );
        if a != b {
            g.add_edge(a, b).expect("live");
        }
    }
    for _ in 0..removals.min(n - 2) {
        let live: Vec<NodeId> = g.node_ids().collect();
        g.remove_node(live[rng.index(live.len())]).expect("live");
    }
    g
}

/// Adds `pairs` one `add_edge` at a time, stopping at the first error —
/// the sequential semantics `Graph::extend_edges` must reproduce.
fn add_each(
    graph: &mut Graph,
    pairs: &[(NodeId, NodeId)],
) -> Result<(), scrip_topology::GraphError> {
    for &(a, b) in pairs {
        graph.add_edge(a, b)?;
    }
    Ok(())
}

#[test]
fn scale_free_equals_its_add_edge_replica() {
    let mut linked = 0;
    for n in [2, 10, 57, 300, 2_000] {
        for min_degree in [1, 7] {
            for seed in 0..4 {
                let Ok(config) = ScaleFreeConfig::new(n) else {
                    continue;
                };
                let config = config.min_degree(min_degree.min(n as u64 - 1));
                let (mut rng, mut replica_rng) =
                    (SimRng::seed_from_u64(seed), SimRng::seed_from_u64(seed));
                let g = generators::scale_free(&config, &mut rng).expect("generated");
                let (replica, components) = scale_free_by_add_edge(&config, &mut replica_rng);
                assert_eq!(g, replica, "n {n} min {min_degree} seed {seed}");
                assert_eq!(
                    rng.gen::<u64>(),
                    replica_rng.gen::<u64>(),
                    "RNG streams diverged at n {n} min {min_degree} seed {seed}"
                );
                linked += usize::from(components > 1);
            }
        }
    }
    assert!(linked > 0, "no case exercised the component linking");
}

proptest! {
    /// The handshake lemma holds under arbitrary edit sequences.
    #[test]
    fn degree_sum_equals_twice_edges(ops in prop::collection::vec((0u8..3, 0usize..20, 0usize..20), 1..200)) {
        let mut g = Graph::with_nodes(20);
        let ids: Vec<_> = g.node_ids().collect();
        for (op, a, b) in ops {
            match op {
                0 => { let _ = g.add_edge(ids[a], ids[b]); }
                1 => { let _ = g.remove_edge(ids[a], ids[b]); }
                _ => {}
            }
        }
        let degree_sum: usize = g.node_ids().filter_map(|id| g.degree(id)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Scale-free overlays are connected with at least the minimum
    /// degree honoured on average.
    #[test]
    fn scale_free_always_connected(n in 10usize..150, seed in 0u64..50) {
        let mut rng = SimRng::seed_from_u64(seed);
        let config = ScaleFreeConfig::new(n).expect("valid");
        let g = generators::scale_free(&config, &mut rng).expect("generated");
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.is_connected());
    }

    /// Random regular graphs have exactly the requested degree.
    #[test]
    fn random_regular_exact(n in 4usize..40, d in 2usize..6, seed in 0u64..20) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).expect("generated");
        for id in g.node_ids() {
            prop_assert_eq!(g.degree(id), Some(d));
        }
    }

    /// Churn preserves graph invariants: no self-loops, symmetric edges,
    /// handshake lemma.
    #[test]
    fn churn_preserves_invariants(rounds in 1usize..100, seed in 0u64..30) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = generators::complete(10);
        let churn = ChurnTopology::new(5);
        for i in 0..rounds {
            if i % 2 == 0 {
                churn.join(&mut g, &mut rng);
            } else if g.node_count() > 2 {
                let ids: Vec<_> = g.node_ids().collect();
                let victim = ids[rng.index(ids.len())];
                churn.leave(&mut g, victim).expect("live");
            }
        }
        let degree_sum: usize = g.node_ids().filter_map(|id| g.degree(id)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for id in g.node_ids() {
            prop_assert!(!g.has_edge(id, id));
        }
    }

    /// The attachment index selects exactly what the O(n) walk it
    /// replaced selects, and a join through it is the old join: the
    /// same overlay and the same RNG stream afterwards. Checked after
    /// every step of random join/leave/edge-edit sequences, through a
    /// forced `sorted_ids` compaction, with trailing tombstones under
    /// the past-the-total fallback, and on a checkpoint-style rebuild.
    #[test]
    fn attach_pick_matches_the_walk(
        n in 10usize..40,
        ops in prop::collection::vec((0u8..5, 0usize..1000, 0usize..1000), 1..60),
        attach in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let config = ScaleFreeConfig::new(n).expect("valid");
        let mut g = generators::scale_free(&config, &mut rng).expect("generated");
        let mut twin = g.clone();
        let churn = ChurnTopology::new(attach);
        let step = |g: &mut Graph, twin: &mut Graph, rng: &mut SimRng, op: u8, a: usize, b: usize| {
            let live: Vec<NodeId> = g.node_ids().collect();
            let x = live[a % live.len()];
            match op {
                0 => {
                    let mut twin_rng = rng.clone();
                    let joined = churn.join(g, rng);
                    let expected = walk_join(attach, twin, &mut twin_rng);
                    assert_eq!(joined, expected);
                    assert_eq!(rng.gen::<u64>(), twin_rng.gen::<u64>(), "RNG streams diverged");
                }
                1 | 2 if live.len() > 2 => {
                    churn.leave(g, x).expect("live");
                    churn.leave(twin, x).expect("live");
                }
                3 => {
                    let y = live[b % live.len()];
                    if x != y {
                        g.add_edge(x, y).expect("live");
                        twin.add_edge(x, y).expect("live");
                    }
                }
                _ => {
                    let row = g.neighbor_slice(x).expect("live").to_vec();
                    if !row.is_empty() {
                        let y = row[b % row.len()];
                        assert!(g.remove_edge(x, y).expect("live"));
                        assert!(twin.remove_edge(x, y).expect("live"));
                    }
                }
            }
        };
        for &(op, a, b) in &ops {
            step(&mut g, &mut twin, &mut rng, op, a, b);
            prop_assert_eq!(&g, &twin);
            assert_picks_match_walk(&mut g, &mut rng)?;
        }
        // Leave down to a third of the peak: more than half the sorted
        // ids die, which forces at least one compaction.
        let floor = (g.node_count() / 3).max(2);
        while g.node_count() > floor {
            let first = g.node_ids().next().expect("live");
            step(&mut g, &mut twin, &mut rng, 1, 0, 0);
            prop_assert!(!g.has_node(first));
            assert_picks_match_walk(&mut g, &mut rng)?;
        }
        // Joins after the compaction rebuild the dropped index.
        for _ in 0..4 {
            step(&mut g, &mut twin, &mut rng, 0, 0, 0);
            prop_assert_eq!(&g, &twin);
            assert_picks_match_walk(&mut g, &mut rng)?;
        }
        // Trailing tombstones: the highest live ids leave, so the
        // past-the-total clamp lands on a dead position and must step
        // back to the last live id.
        for _ in 0..2 {
            if g.node_count() > 2 {
                let last = g.node_ids().last().expect("live");
                churn.leave(&mut g, last).expect("live");
                churn.leave(&mut twin, last).expect("live");
                assert_picks_match_walk(&mut g, &mut rng)?;
            }
        }
        let mut rebuilt = rebuild_like_checkpoint(&g);
        prop_assert_eq!(&rebuilt, &g);
        assert_picks_match_walk(&mut rebuilt, &mut rng)?;
        let mut rng_a = rng.clone();
        let joined = churn.join(&mut rebuilt, &mut rng);
        prop_assert_eq!(joined, walk_join(attach, &mut twin, &mut rng_a));
        prop_assert_eq!(&rebuilt, &twin);
    }

    /// `extend_edges` equals adding the same pairs one by one: duplicates
    /// (in either orientation) and edges already present collapse, on
    /// graphs carrying tombstones, with the attachment index built
    /// beforehand, and through later removals that compact the sorted
    /// ids. The index it drops rebuilds to the incrementally kept one:
    /// same total, same pick at every target.
    #[test]
    fn extend_edges_matches_sequential_add_edge(
        n in 3usize..40,
        base in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        removals in 0usize..30,
        pairs in prop::collection::vec((0usize..1000, 0usize..1000), 0..120),
        index_first in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = tombstoned_graph(n, &base, removals, &mut rng);
        if index_first {
            g.build_attach_index();
        }
        let live: Vec<NodeId> = g.node_ids().collect();
        let mut batch: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .map(|&(a, b)| (live[a % live.len()], live[b % live.len()]))
            .filter(|(a, b)| a != b)
            .collect();
        // Edges already present, in both orientations, and repeats.
        let present: Vec<(NodeId, NodeId)> = g.edges().take(8).collect();
        batch.extend(present.iter().map(|&(a, b)| (b, a)));
        batch.extend(present);
        batch.extend(batch.clone().into_iter().take(5));
        let mut oracle = g.clone();
        add_each(&mut oracle, &batch).expect("valid pairs");
        g.extend_edges(&batch).expect("valid pairs");
        prop_assert_eq!(&g, &oracle);
        prop_assert_eq!(g.edge_count(), oracle.edge_count());
        assert_picks_match_walk(&mut g, &mut rng)?;
        prop_assert_eq!(g.attach_total().to_bits(), oracle.attach_total().to_bits());
        let total = oracle.attach_total() as u64;
        for target in 0..=total {
            prop_assert_eq!(g.attach_pick(target as f64), oracle.attach_pick(target as f64));
        }
        // Leave down past half the ids on both: a compaction follows.
        while g.node_count() > 2 && g.node_count() * 3 > n {
            let first = g.node_ids().next().expect("live");
            g.remove_node(first).expect("live");
            oracle.remove_node(first).expect("live");
            prop_assert_eq!(&g, &oracle);
        }
        prop_assert_eq!(btree_components(&g), g.connected_components());
    }

    /// A bad pair at any position fails `extend_edges` with the error
    /// sequential `add_edge` calls stop at, and leaves the graph as it
    /// was: no edge of the valid prefix is added.
    #[test]
    fn extend_edges_is_atomic_on_error(
        n in 3usize..30,
        base in prop::collection::vec((0usize..30, 0usize..30), 0..40),
        removals in 0usize..10,
        pairs in prop::collection::vec((0usize..1000, 0usize..1000), 0..40),
        bad_at in 0usize..1000,
        bad_kind in 0u8..3,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = tombstoned_graph(n, &base, removals, &mut rng);
        let live: Vec<NodeId> = g.node_ids().collect();
        let mut batch: Vec<(NodeId, NodeId)> = pairs
            .iter()
            .map(|&(a, b)| (live[a % live.len()], live[b % live.len()]))
            .filter(|(a, b)| a != b)
            .collect();
        let x = live[bad_at % live.len()];
        let dead = (0..g.next_raw_id())
            .map(NodeId::from_raw)
            .find(|&id| !g.has_node(id))
            .unwrap_or(NodeId::from_raw(g.next_raw_id() + 7));
        let bad = match bad_kind {
            0 => (x, x),
            1 => (x, dead),
            _ => (dead, x),
        };
        let k = bad_at % (batch.len() + 1);
        batch.insert(k, bad);
        let before = g.clone();
        let expected = add_each(&mut before.clone(), &batch).expect_err("a bad pair");
        prop_assert_eq!(g.extend_edges(&batch), Err(expected));
        prop_assert_eq!(&g, &before);
    }

    /// The flat-marked component scan returns exactly what the
    /// `BTreeSet` BFS it replaced returns, on sparse graphs with
    /// tombstones and compactions behind them.
    #[test]
    fn connected_components_matches_the_btree_bfs(
        n in 1usize..120,
        p in 0.0f64..0.08,
        departures in 0usize..100,
        joins in 0usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, p, &mut rng).expect("generated");
        let churn = ChurnTopology::new(2);
        for _ in 0..departures.min(n.saturating_sub(1)) {
            let ids: Vec<NodeId> = g.node_ids().collect();
            churn.leave(&mut g, ids[rng.index(ids.len())]).expect("live");
        }
        for _ in 0..joins {
            churn.join(&mut g, &mut rng);
        }
        prop_assert_eq!(g.connected_components(), btree_components(&g));
    }

    /// Mean degree matches the handshake identity.
    #[test]
    fn mean_degree_identity(n in 2usize..40, p in 0.0f64..1.0, seed in 0u64..20) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).expect("generated");
        let expected = 2.0 * g.edge_count() as f64 / n as f64;
        prop_assert!((metrics::mean_degree(&g) - expected).abs() < 1e-12);
    }

    /// `Partition::regions(k)` is a true partition on arbitrary graphs
    /// — including disconnected ones and graphs with ID gaps from
    /// churn: every node lands in exactly one region, region sizes hit
    /// the exact `n/k + (s < n % k)` balance targets, `shard_of` agrees
    /// with region membership, and the result is deterministic.
    #[test]
    fn partition_regions_is_a_true_partition(
        n in 1usize..80,
        p in 0.0f64..1.0,
        k in 1usize..10,
        departures in 0usize..10,
        seed in 0u64..30,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, p, &mut rng).expect("generated");
        // Remove a few nodes so raw IDs have gaps (the post-churn shape
        // the sharded market partitions).
        let churn = ChurnTopology::new(3);
        for _ in 0..departures {
            if g.node_count() <= 1 {
                break;
            }
            let ids: Vec<_> = g.node_ids().collect();
            churn.leave(&mut g, ids[rng.index(ids.len())]).expect("live");
        }

        let part = Partition::regions(&g, k);
        prop_assert_eq!(part.shard_count(), k);
        prop_assert_eq!(part.node_count(), g.node_count());

        // Every node in exactly one region, and shard_of agrees.
        let mut assigned: Vec<_> = (0..k).flat_map(|s| part.region(s).iter().copied()).collect();
        assigned.sort_unstable();
        let mut expected: Vec<_> = g.node_ids().collect();
        expected.sort_unstable();
        prop_assert_eq!(&assigned, &expected);
        for s in 0..k {
            for &id in part.region(s) {
                prop_assert_eq!(part.shard_of(id), Some(s));
            }
        }

        // Exact balance targets: sizes differ by at most one.
        let nodes = g.node_count();
        for s in 0..k {
            prop_assert_eq!(part.region(s).len(), nodes / k + usize::from(s < nodes % k));
        }

        // Frontier nodes are exactly the members with a cross-shard
        // neighbor; the edge cut counts each cross edge once.
        let mut cut = 0usize;
        for id in g.node_ids() {
            let s = part.shard_of(id).expect("member");
            let crossing = g
                .neighbor_slice(id)
                .unwrap_or(&[])
                .iter()
                .filter(|&&nb| part.shard_of(nb) != Some(s))
                .count();
            cut += crossing;
            let on_frontier = part.frontier(s).contains(&id);
            prop_assert_eq!(on_frontier, crossing > 0);
        }
        prop_assert_eq!(part.edge_cut(), cut / 2);

        // RNG-free and ascending-ID: recomputing gives the identical
        // assignment.
        let again = Partition::regions(&g, k);
        for id in g.node_ids() {
            prop_assert_eq!(again.shard_of(id), part.shard_of(id));
        }
    }
}
