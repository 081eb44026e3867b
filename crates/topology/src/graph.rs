//! The overlay graph: undirected, with stable node identities.
//!
//! Storage is CSR-style: each live node occupies a dense *slot* and its
//! neighbors live in one sorted `Vec<NodeId>`, exposed as a stable
//! [`Graph::neighbor_slice`]. Hot simulation loops borrow that slice
//! directly (no per-event clone, no tree walk); churn updates it
//! incrementally (binary-search insert/remove) instead of rebuilding
//! neighborhoods.
//!
//! Whole overlays load in bulk: [`Graph::extend_edges`] reserves each
//! touched row once, appends both directions of every edge, then sorts
//! and deduplicates the touched rows — O(E) with sequential writes, where
//! per-edge [`Graph::add_edge`] pays a binary search and a `Vec::insert`
//! into a random peer's growing row. Generators and checkpoint restore
//! use it; component scans mark visits in a flat `Vec<bool>` indexed by
//! raw id.
//!
//! Graphs that churn also carry a degree-weighted preferential-attachment
//! index (see [`Graph::attach_pick`]): a [`FenwickSampler`] with one leaf
//! per sorted-ID position, kept current by every mutation in O(log n), so
//! a joiner's neighbor picks cost O(log n) each instead of a linear walk
//! over the whole population.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use scrip_des::FenwickSampler;

/// A stable identifier for an overlay node.
///
/// IDs are allocated by [`Graph::add_node`] and are **never reused**, so a
/// departed peer's ID cannot be confused with a later joiner's — essential
/// for churn experiments where per-peer wallets outlive topology changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// The raw numeric value (useful for dense indexing in reports).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an ID from its raw value.
    ///
    /// Only meaningful for values previously obtained via
    /// [`NodeId::raw`] on the same graph; probing a graph with arbitrary
    /// values is safe but will usually name an absent node.
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors returned by graph mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node does not exist (or no longer exists).
    NoSuchNode(NodeId),
    /// Self-loops are not allowed in an overlay.
    SelfLoop(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoSuchNode(id) => write!(f, "no such node: {id}"),
            GraphError::SelfLoop(id) => write!(f, "self-loop rejected at {id}"),
        }
    }
}

impl Error for GraphError {}

/// An undirected overlay graph with deterministic iteration order.
///
/// Node and neighbor iteration follow ascending [`NodeId`] order, so every
/// algorithm that walks the graph is reproducible.
///
/// ```
/// use scrip_topology::Graph;
///
/// # fn main() -> Result<(), scrip_topology::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b)?;
/// assert_eq!(g.degree(a), Some(1));
/// assert!(g.has_edge(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    // The slot-map discipline below (id_to_slot + swap-remove with
    // moved-slot repointing) mirrors scrip-core's PeerArena; a fix to
    // the bookkeeping in one likely applies to the other.
    /// Dense slot → node ID (swap-removed on node removal).
    slot_ids: Vec<NodeId>,
    /// Raw node ID → slot; [`ABSENT`] marks removed/unknown IDs.
    id_to_slot: Vec<u32>,
    /// Slot → sorted neighbor IDs (the CSR-style row).
    adjacency: Vec<Vec<NodeId>>,
    /// Ascending ID list backing [`Graph::node_ids`]. May contain
    /// tombstones — IDs whose `id_to_slot` entry is [`ABSENT`] — left
    /// behind by [`Graph::remove_node`], which marks instead of
    /// memmoving the tail (a removal near the front of a million-node
    /// list would otherwise shift the whole suffix). Compacted once
    /// tombstones outnumber live entries, so removal is O(log n)
    /// amortized and iteration stays within 2× the live count.
    sorted_ids: Vec<NodeId>,
    /// Number of tombstones currently in `sorted_ids`.
    dead_sorted: usize,
    next_id: u64,
    edge_count: usize,
    /// Preferential-attachment index, parallel to `sorted_ids`: leaf `k`
    /// weighs `degree + 1` if `sorted_ids[k]` is live and 0 if it is a
    /// tombstone. Built on the first [`Graph::attach_pick`] (or by
    /// [`Graph::build_attach_index`]), dropped by `sorted_ids`
    /// compaction, and `None` on graphs that never churn, which then pay
    /// one branch per mutation. Weights are integers below 2^53, so every
    /// incremental update is exact and the index always equals a fresh
    /// build.
    attach: Option<FenwickSampler>,
}

/// Slot sentinel for IDs that are not (or no longer) in the graph.
const ABSENT: u32 = u32::MAX;

/// Equality is semantic: same node set and same edges, plus the same ID
/// allocation cursor — independent of slot layout, so graphs that went
/// through different churn histories but describe the same overlay (and
/// would allocate the same next ID) compare equal.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.next_id == other.next_id
            && self.edge_count == other.edge_count
            && self.node_ids().eq(other.node_ids())
            && self
                .node_ids()
                .all(|id| self.neighbor_slice(id) == other.neighbor_slice(id))
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes (IDs `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Graph {
            slot_ids: Vec::with_capacity(n),
            id_to_slot: Vec::with_capacity(n),
            adjacency: Vec::with_capacity(n),
            sorted_ids: Vec::with_capacity(n),
            dead_sorted: 0,
            next_id: 0,
            edge_count: 0,
            attach: None,
        };
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// The slot of a live node, if any.
    fn slot(&self, id: NodeId) -> Option<usize> {
        match self.id_to_slot.get(id.0 as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Adds a node and returns its fresh, never-reused ID.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.id_to_slot.len() as u64, id.0);
        self.id_to_slot.push(self.slot_ids.len() as u32);
        self.slot_ids.push(id);
        self.adjacency.push(Vec::new());
        // Fresh IDs are the largest ever allocated: push keeps the order.
        self.sorted_ids.push(id);
        if let Some(index) = &mut self.attach {
            index.append(1.0);
        }
        id
    }

    /// Adds `delta` to the attachment weight of live node `id`, if the
    /// index is built.
    fn bump_attach(&mut self, id: NodeId, delta: f64) {
        if let Some(index) = &mut self.attach {
            let pos = self
                .sorted_ids
                .binary_search(&id)
                .expect("live ids are listed");
            index.update(pos, index.weight(pos) + delta);
        }
    }

    /// Removes a node and all incident edges, returning its former
    /// neighbors (ascending).
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] if the node is absent.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Vec<NodeId>, GraphError> {
        let slot = self.slot(id).ok_or(GraphError::NoSuchNode(id))?;
        let neighbors = std::mem::take(&mut self.adjacency[slot]);
        for &nb in &neighbors {
            let nb_slot = self.slot(nb).expect("adjacency symmetric");
            let row = &mut self.adjacency[nb_slot];
            if let Ok(pos) = row.binary_search(&id) {
                row.remove(pos);
            }
            self.bump_attach(nb, -1.0);
        }
        self.edge_count -= neighbors.len();
        // Zero the leaver's leaf while its id is still live in the list.
        let own_weight = neighbors.len() as f64 + 1.0;
        self.bump_attach(id, -own_weight);
        // Swap-remove the slot and repoint the node that moved into it.
        self.adjacency.swap_remove(slot);
        self.slot_ids.swap_remove(slot);
        if let Some(&moved) = self.slot_ids.get(slot) {
            self.id_to_slot[moved.0 as usize] = slot as u32;
        }
        self.id_to_slot[id.0 as usize] = ABSENT;
        // Tombstone the sorted-ID entry instead of memmoving the tail;
        // compact once the dead outnumber the living.
        self.dead_sorted += 1;
        if self.dead_sorted * 2 > self.sorted_ids.len() {
            let id_to_slot = &self.id_to_slot;
            self.sorted_ids
                .retain(|nid| id_to_slot[nid.0 as usize] != ABSENT);
            self.dead_sorted = 0;
            // Leaf positions moved; the next pick rebuilds (O(n), paid
            // once per O(n) removals).
            self.attach = None;
        }
        Ok(neighbors)
    }

    /// Adds an undirected edge. Returns `true` if the edge was new.
    ///
    /// # Errors
    /// Returns [`GraphError::SelfLoop`] when `a == b` and
    /// [`GraphError::NoSuchNode`] when either endpoint is absent.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let slot_a = self.slot(a).ok_or(GraphError::NoSuchNode(a))?;
        let slot_b = self.slot(b).ok_or(GraphError::NoSuchNode(b))?;
        let Err(pos_a) = self.adjacency[slot_a].binary_search(&b) else {
            return Ok(false);
        };
        self.adjacency[slot_a].insert(pos_a, b);
        let pos_b = self.adjacency[slot_b]
            .binary_search(&a)
            .expect_err("adjacency symmetric");
        self.adjacency[slot_b].insert(pos_b, a);
        self.edge_count += 1;
        self.bump_attach(a, 1.0);
        self.bump_attach(b, 1.0);
        Ok(true)
    }

    /// Adds every edge in `edges`, in bulk: the result equals calling
    /// [`Graph::add_edge`] on each pair in order (duplicates and edges
    /// already present collapse), at O(E + Σ touched-row sort) instead
    /// of one binary-search insert per edge. Every pair is validated
    /// before anything changes, so on error the graph is untouched. Each
    /// touched row is reserved once, appended to, then sorted and
    /// deduplicated. The attachment index is dropped; the next
    /// [`Graph::attach_pick`] (or [`Graph::build_attach_index`])
    /// rebuilds it.
    ///
    /// # Errors
    /// Returns the error the first invalid pair would raise from
    /// [`Graph::add_edge`]: [`GraphError::SelfLoop`] or
    /// [`GraphError::NoSuchNode`].
    pub fn extend_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<(), GraphError> {
        let mut added = vec![0u32; self.adjacency.len()];
        for &(a, b) in edges {
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            let slot_a = self.slot(a).ok_or(GraphError::NoSuchNode(a))?;
            let slot_b = self.slot(b).ok_or(GraphError::NoSuchNode(b))?;
            added[slot_a] += 1;
            added[slot_b] += 1;
        }
        for (row, &k) in self.adjacency.iter_mut().zip(&added) {
            row.reserve_exact(k as usize);
        }
        for &(a, b) in edges {
            let slot_a = self.id_to_slot[a.0 as usize] as usize;
            let slot_b = self.id_to_slot[b.0 as usize] as usize;
            self.adjacency[slot_a].push(b);
            self.adjacency[slot_b].push(a);
        }
        for (row, &k) in self.adjacency.iter_mut().zip(&added) {
            if k > 0 {
                row.sort_unstable();
                row.dedup();
            }
        }
        self.edge_count = self.adjacency.iter().map(Vec::len).sum::<usize>() / 2;
        self.attach = None;
        Ok(())
    }

    /// Removes an undirected edge. Returns `true` if it existed.
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] when either endpoint is absent.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        let slot_a = self.slot(a).ok_or(GraphError::NoSuchNode(a))?;
        let slot_b = self.slot(b).ok_or(GraphError::NoSuchNode(b))?;
        let Ok(pos_a) = self.adjacency[slot_a].binary_search(&b) else {
            return Ok(false);
        };
        self.adjacency[slot_a].remove(pos_a);
        let pos_b = self.adjacency[slot_b]
            .binary_search(&a)
            .expect("adjacency symmetric");
        self.adjacency[slot_b].remove(pos_b);
        self.edge_count -= 1;
        self.bump_attach(a, -1.0);
        self.bump_attach(b, -1.0);
        Ok(true)
    }

    /// Whether the node exists.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// Whether an edge exists between `a` and `b`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.slot(a)
            .map(|s| self.adjacency[s].binary_search(&b).is_ok())
            .unwrap_or(false)
    }

    /// The neighbors of `id` as a stable sorted slice, or [`None`] if the
    /// node is absent. This is the zero-copy view the simulation hot
    /// paths borrow; it stays valid until the next graph mutation.
    pub fn neighbor_slice(&self, id: NodeId) -> Option<&[NodeId]> {
        self.slot(id).map(|s| self.adjacency[s].as_slice())
    }

    /// The neighbors of `id` in ascending ID order, or [`None`] if the node
    /// is absent.
    pub fn neighbors(&self, id: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.neighbor_slice(id).map(|s| s.iter().copied())
    }

    /// The degree of `id`, or [`None`] if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.slot(id).map(|s| self.adjacency[s].len())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.slot_ids.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Heap bytes reserved by the slot bookkeeping (slot ↔ ID maps, the
    /// sorted live-ID list and, once built, the attachment index at
    /// 16 B per sorted-ID entry), excluding adjacency rows. Capacities,
    /// not lengths — the allocator's view. See
    /// [`Graph::adjacency_heap_bytes`] for the row storage.
    pub fn slot_map_heap_bytes(&self) -> usize {
        self.slot_ids.capacity() * std::mem::size_of::<NodeId>()
            + self.id_to_slot.capacity() * std::mem::size_of::<u32>()
            + self.sorted_ids.capacity() * std::mem::size_of::<NodeId>()
            + self.attach.as_ref().map_or(0, FenwickSampler::heap_bytes)
    }

    /// Builds the preferential-attachment index if it is not built yet,
    /// in O(n). Callers that know the graph will churn build it up front
    /// so the cost lands in setup rather than in the first join.
    pub fn build_attach_index(&mut self) {
        if self.attach.is_some() {
            return;
        }
        let mut index = FenwickSampler::with_capacity(self.sorted_ids.len());
        for &id in &self.sorted_ids {
            index.push(self.degree(id).map_or(0.0, |d| d as f64 + 1.0));
        }
        index.build();
        self.attach = Some(index);
    }

    /// Σ (degree + 1) over live nodes: the total preferential-attachment
    /// weight, exact (an integer held in an `f64`). Builds the index if
    /// needed.
    pub fn attach_total(&mut self) -> f64 {
        self.build_attach_index();
        self.attach.as_ref().expect("just built").total()
    }

    /// The live node a degree-proportional (`degree + 1`) draw selects
    /// for `target ∈ [0, attach_total())`, in O(log n): the first node,
    /// in ascending ID order, whose cumulative weight exceeds `target`.
    /// A `target` at or past the total falls back to the last live node.
    /// This is exactly the node a linear cumulative walk over
    /// [`Graph::node_ids`] would select. Builds the index if needed.
    ///
    /// # Panics
    /// Panics if the graph has no live node.
    pub fn attach_pick(&mut self, target: f64) -> NodeId {
        self.build_attach_index();
        let pos = self.attach.as_ref().expect("just built").pick(target);
        // Zero-weight tombstones are never selected except by the
        // clamp to the last position; step back to the last live id.
        self.sorted_ids[..=pos]
            .iter()
            .rev()
            .copied()
            .find(|&id| self.slot(id).is_some())
            .expect("attach_pick() on a graph with no live node")
    }

    /// Heap bytes reserved by the CSR-style adjacency rows: each row's
    /// capacity × ID width, plus the outer `Vec`'s row headers. This is
    /// the degree-proportional part of the footprint (≈ `8 × degree`
    /// per peer) that the per-peer *state* budget in the arena layout
    /// audit accounts separately.
    pub fn adjacency_heap_bytes(&self) -> usize {
        let rows: usize = self
            .adjacency
            .iter()
            .map(|row| row.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        rows + self.adjacency.capacity() * std::mem::size_of::<Vec<NodeId>>()
    }

    /// All node IDs in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted_ids
            .iter()
            .copied()
            .filter(|&id| self.slot(id).is_some())
    }

    /// All edges as `(low, high)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        // Tombstoned IDs have no neighbor slice, so they contribute
        // nothing without an explicit liveness filter.
        self.sorted_ids.iter().flat_map(move |&a| {
            self.neighbor_slice(a)
                .unwrap_or(&[])
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Whether every node can reach every other node (the empty graph is
    /// considered connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// The connected components, each a sorted vector of node IDs; the
    /// components themselves are sorted by their smallest member.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        // Visited marks indexed by raw id; each component doubles as its
        // own BFS queue (`head` walks it while neighbors are appended).
        let mut visited = vec![false; self.id_to_slot.len()];
        let mut components = Vec::new();
        for start in self.node_ids() {
            if visited[start.0 as usize] {
                continue;
            }
            visited[start.0 as usize] = true;
            let mut component = vec![start];
            let mut head = 0;
            while let Some(&node) = component.get(head) {
                head += 1;
                for &nb in self.neighbor_slice(node).unwrap_or(&[]) {
                    if !std::mem::replace(&mut visited[nb.0 as usize], true) {
                        component.push(nb);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// The raw value the next [`Graph::add_node`] call will allocate.
    ///
    /// Since IDs are handed out densely from zero and never reused,
    /// every ID ever allocated is `< next_raw_id()` — the watermark
    /// lets layered state (shard maps, wallet mirrors) detect freshly
    /// added nodes by comparing watermarks around a mutation.
    pub fn next_raw_id(&self) -> u64 {
        self.next_id
    }

    /// A dense index for the current node set: maps each live [`NodeId`] to
    /// `0..node_count()` in ascending ID order. Matrix-based analytics
    /// (transfer matrices, utilization vectors) use this to address rows.
    pub fn dense_index(&self) -> BTreeMap<NodeId, usize> {
        self.node_ids().enumerate().map(|(i, id)| (id, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).expect("valid edge");
        }
        (g, ids)
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(g.node_count(), 2);
        assert!(g.has_node(a));
        g.remove_node(a).expect("a exists");
        assert!(!g.has_node(a));
        assert!(g.has_node(b));
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn node_ids_are_never_reused() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.remove_node(a).expect("exists");
        let b = g.add_node();
        assert_ne!(a, b);
    }

    #[test]
    fn edges_are_symmetric() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.add_edge(a, b).expect("ok"));
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert_eq!(g.edge_count(), 1);
        // Duplicate insertion is a no-op.
        assert!(!g.add_edge(b, a).expect("ok"));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn missing_nodes_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        let ghost = NodeId(999);
        assert_eq!(g.add_edge(a, ghost), Err(GraphError::NoSuchNode(ghost)));
        assert_eq!(g.remove_edge(ghost, a), Err(GraphError::NoSuchNode(ghost)));
        assert_eq!(g.remove_node(ghost), Err(GraphError::NoSuchNode(ghost)));
    }

    #[test]
    fn remove_node_cleans_incident_edges() {
        let (mut g, ids) = path_graph(3);
        let removed_neighbors = g.remove_node(ids[1]).expect("exists");
        assert_eq!(removed_neighbors, vec![ids[0], ids[2]]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(ids[0]), Some(0));
        assert_eq!(g.degree(ids[2]), Some(0));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let (mut g, ids) = path_graph(2);
        assert!(g.remove_edge(ids[0], ids[1]).expect("ok"));
        assert!(!g.has_edge(ids[0], ids[1]));
        assert!(!g.remove_edge(ids[0], ids[1]).expect("ok"));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut spokes: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        spokes.reverse();
        for &s in &spokes {
            g.add_edge(hub, s).expect("ok");
        }
        let nbrs: Vec<NodeId> = g.neighbors(hub).expect("exists").collect();
        let mut sorted = nbrs.clone();
        sorted.sort_unstable();
        assert_eq!(nbrs, sorted);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let (g, _) = path_graph(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn connectivity() {
        let (mut g, ids) = path_graph(4);
        assert!(g.is_connected());
        g.remove_edge(ids[1], ids[2]).expect("ok");
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![ids[0], ids[1]]);
        assert_eq!(comps[1], vec![ids[2], ids[3]]);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn dense_index_is_ascending() {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<NodeId> = g.node_ids().collect();
        g.remove_node(ids[2]).expect("exists");
        let index = g.dense_index();
        assert_eq!(index.len(), 4);
        assert_eq!(index[&ids[0]], 0);
        assert_eq!(index[&ids[1]], 1);
        assert_eq!(index[&ids[3]], 2);
        assert_eq!(index[&ids[4]], 3);
    }

    #[test]
    fn neighbor_slice_is_sorted_and_tracks_mutations() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut spokes: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        spokes.reverse();
        for &s in &spokes {
            g.add_edge(hub, s).expect("ok");
        }
        let slice = g.neighbor_slice(hub).expect("live");
        let mut sorted = slice.to_vec();
        sorted.sort_unstable();
        assert_eq!(slice, sorted.as_slice());
        // Slice agrees with the iterator view.
        let via_iter: Vec<NodeId> = g.neighbors(hub).expect("live").collect();
        assert_eq!(slice, via_iter.as_slice());
        let victim = sorted[2];
        g.remove_edge(hub, victim).expect("ok");
        assert!(!g.neighbor_slice(hub).expect("live").contains(&victim));
        assert_eq!(g.neighbor_slice(NodeId(999)), None);
    }

    #[test]
    fn slot_bookkeeping_survives_interleaved_churn() {
        let mut g = Graph::with_nodes(6);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).expect("ok");
        }
        // Remove from the middle (exercises swap-remove repointing), then
        // keep mutating through the moved slots.
        g.remove_node(ids[1]).expect("live");
        g.remove_node(ids[4]).expect("live");
        let fresh = g.add_node();
        g.add_edge(fresh, ids[0]).expect("ok");
        g.add_edge(fresh, ids[5]).expect("ok");
        let live: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(live, vec![ids[0], ids[2], ids[3], ids[5], fresh]);
        assert_eq!(g.degree(ids[0]), Some(1));
        assert_eq!(g.degree(ids[2]), Some(1));
        assert_eq!(g.degree(ids[3]), Some(1));
        assert_eq!(g.degree(fresh), Some(2));
        assert!(g.has_edge(ids[5], fresh));
        assert!(!g.has_node(ids[1]));
        assert_eq!(
            g.edge_count(),
            g.node_ids()
                .map(|id| g.degree(id).expect("live"))
                .sum::<usize>()
                / 2
        );
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same final overlay reached through different slot histories.
        let mut a = Graph::with_nodes(4);
        let ids: Vec<NodeId> = a.node_ids().collect();
        a.add_edge(ids[0], ids[2]).expect("ok");
        a.add_edge(ids[2], ids[3]).expect("ok");
        a.remove_node(ids[1]).expect("live");

        let mut b = Graph::with_nodes(4);
        b.remove_node(ids[1]).expect("live");
        b.add_edge(ids[2], ids[3]).expect("ok");
        b.add_edge(ids[0], ids[2]).expect("ok");

        assert_eq!(a, b);
        b.remove_edge(ids[0], ids[2]).expect("ok");
        assert_ne!(a, b);
    }

    #[test]
    fn removal_tombstones_instead_of_memmoving() {
        // Pin of the churn-leave cost model: `remove_node` must not
        // shift the sorted-ID suffix on every call (O(n) per leave).
        // Structurally that means the backing list keeps its length —
        // tombstones in place — until the amortized compaction point,
        // where it snaps back to exactly the live count.
        let n = 1_000;
        let mut g = Graph::with_nodes(n);
        let ids: Vec<NodeId> = g.node_ids().collect();
        // Remove nodes from the *front* — the worst case for a
        // memmove-based list — while staying under the compaction
        // threshold (dead ≤ half).
        for &id in ids.iter().take(n / 2) {
            g.remove_node(id).expect("live");
            assert_eq!(
                g.sorted_ids.len(),
                n,
                "a removal memmoved the sorted-ID list"
            );
        }
        assert_eq!(g.dead_sorted, n / 2);
        assert_eq!(g.node_count(), n - n / 2);
        // One more removal tips the balance and compacts to live-only.
        g.remove_node(ids[n / 2]).expect("live");
        assert_eq!(g.sorted_ids.len(), g.node_count());
        assert_eq!(g.dead_sorted, 0);
        // Iteration and lookups see only the living, in order.
        let live: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(live, ids[n / 2 + 1..].to_vec());
        assert!(!g.has_node(ids[0]));
        assert!(g.has_node(ids[n - 1]));
    }

    #[test]
    fn tombstoned_graph_behaves_like_a_compact_one() {
        // Interleave removals (leaving tombstones) with edge mutations
        // and equality checks against a graph built compactly.
        let mut churned = Graph::with_nodes(8);
        let ids: Vec<NodeId> = churned.node_ids().collect();
        for w in ids.windows(2) {
            churned.add_edge(w[0], w[1]).expect("ok");
        }
        churned.remove_node(ids[2]).expect("live");
        churned.remove_node(ids[5]).expect("live");
        assert!(churned.dead_sorted > 0, "tombstones present");

        let mut compact = Graph::with_nodes(8);
        for w in ids.windows(2) {
            compact.add_edge(w[0], w[1]).expect("ok");
        }
        compact.remove_node(ids[5]).expect("live");
        compact.remove_node(ids[2]).expect("live");
        // Force the compact twin through its compaction point too.
        while compact.dead_sorted > 0 {
            let victim = compact.node_ids().next().expect("live");
            compact.remove_node(victim).expect("live");
            churned.remove_node(victim).expect("live");
        }
        assert_eq!(churned, compact);
        assert_eq!(
            churned.edges().collect::<Vec<_>>(),
            compact.edges().collect::<Vec<_>>()
        );
        assert_eq!(churned.dense_index(), compact.dense_index());
    }

    /// The attachment index a fresh build yields: `degree + 1` per live
    /// id, 0 per tombstone.
    fn fresh_attach_index(g: &Graph) -> FenwickSampler {
        let mut index = FenwickSampler::new();
        for &id in &g.sorted_ids {
            index.push(g.degree(id).map_or(0.0, |d| d as f64 + 1.0));
        }
        index.build();
        index
    }

    /// The attachment index is maintained incrementally; after any
    /// mutation sequence, its leaves, tree and total must equal a fresh
    /// build (`degree + 1` per live id, 0 per tombstone) exactly.
    #[test]
    fn attach_index_equals_a_fresh_build() {
        use scrip_des::SimRng;
        let fresh = fresh_attach_index;
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut g = Graph::with_nodes(24);
            let mut compactions = 0;
            for _ in 0..400 {
                let live: Vec<NodeId> = g.node_ids().collect();
                let a = live[rng.index(live.len())];
                let b = live[rng.index(live.len())];
                match rng.index(6) {
                    0 => {
                        g.add_node();
                    }
                    1 if live.len() > 2 => {
                        let before = g.sorted_ids.len();
                        g.remove_node(a).expect("live");
                        compactions += usize::from(g.sorted_ids.len() < before);
                    }
                    2 => {
                        let _ = g.remove_edge(a, b);
                    }
                    _ if a != b => {
                        g.add_edge(a, b).expect("live");
                    }
                    _ => {}
                }
                g.build_attach_index();
                assert_eq!(g.attach.as_ref(), Some(&fresh(&g)));
            }
            assert!(compactions > 0, "seed {seed} never compacted");
        }
    }

    /// A bulk load drops the index (its leaves no longer match the
    /// degrees), and the rebuild equals a fresh build exactly — also on
    /// a graph carrying tombstones, and when later removals compact.
    #[test]
    fn extend_edges_drops_an_index_that_rebuilds_exactly() {
        use scrip_des::SimRng;
        let mut rng = SimRng::seed_from_u64(5);
        let mut g = Graph::with_nodes(40);
        for _ in 0..12 {
            let live: Vec<NodeId> = g.node_ids().collect();
            g.remove_node(live[rng.index(live.len())]).expect("live");
        }
        assert!(g.dead_sorted > 0, "tombstones present");
        g.build_attach_index();
        let live: Vec<NodeId> = g.node_ids().collect();
        let pairs: Vec<(NodeId, NodeId)> = (0..60)
            .map(|_| (live[rng.index(live.len())], live[rng.index(live.len())]))
            .filter(|(a, b)| a != b)
            .collect();
        g.extend_edges(&pairs).expect("live pairs");
        assert!(g.attach.is_none(), "a stale index survived the bulk load");
        g.build_attach_index();
        assert_eq!(g.attach.as_ref(), Some(&fresh_attach_index(&g)));
        while g.dead_sorted > 0 {
            let first = g.node_ids().next().expect("live");
            g.remove_node(first).expect("live");
            g.build_attach_index();
            assert_eq!(g.attach.as_ref(), Some(&fresh_attach_index(&g)));
        }
    }

    #[test]
    fn display_formats() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(a.to_string(), "n0");
        assert_eq!(GraphError::NoSuchNode(a).to_string(), "no such node: n0");
        assert_eq!(
            GraphError::SelfLoop(a).to_string(),
            "self-loop rejected at n0"
        );
    }
}
