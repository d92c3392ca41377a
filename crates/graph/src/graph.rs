//! The port-labelled graph representation.

use std::fmt;

/// Identifier of a node of a [`PortGraph`].
///
/// Nodes are numbered `0..n`. The newtype keeps node identifiers from being
/// confused with port numbers or counters in simulation code.
///
/// ```
/// use rotor_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(u32::from(v), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the index as a `usize`, suitable for indexing per-node arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> Self {
        v.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed arc `(from, to)` of the directed symmetric version `G⃗` of the
/// graph, i.e. one of the two orientations of an undirected edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Arc {
    /// Tail of the arc.
    pub from: NodeId,
    /// Head of the arc.
    pub to: NodeId,
}

impl Arc {
    /// Creates an arc from `from` to `to`.
    #[inline]
    pub const fn new(from: NodeId, to: NodeId) -> Self {
        Arc { from, to }
    }

    /// The reverse orientation of this arc.
    #[inline]
    pub const fn reversed(self) -> Self {
        Arc {
            from: self.to,
            to: self.from,
        }
    }
}

impl fmt::Display for Arc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.from, self.to)
    }
}

/// Error produced when assembling an invalid [`PortGraph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint referred to a node index `>= n`.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the graph under construction.
        node_count: u32,
    },
    /// A self-loop `{v, v}` was requested; the model uses simple graphs.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// The graph is not connected; the exploration model requires
    /// connectivity.
    Disconnected,
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node index {node} out of range for {node_count} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v} not allowed"),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "duplicate undirected edge {{{u}, {v}}}")
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected connected graph with a fixed cyclic port ordering at every
/// node (§1.3 of the paper).
///
/// For node `v`, ports are numbered `0..deg(v)`; `neighbor(v, p)` is the node
/// reached from `v` through port `p`, and the cyclic order `ρ_v` is simply
/// port `p` followed by port `(p + 1) mod deg(v)`. The structure is immutable
/// after construction, matching the model ("the cyclic order … is fixed at
/// the beginning of exploration and does not change").
///
/// ```
/// use rotor_graph::PortGraphBuilder;
///
/// // A triangle.
/// let mut b = PortGraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 0);
/// let g = b.build()?;
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.arc_count(), 6);
/// # Ok::<(), rotor_graph::GraphError>(())
/// ```
/// The adjacency is stored in CSR (compressed sparse row) form: one flat
/// neighbour arena plus a node-offset table, rather than one `Vec` per
/// node. Arcs of `G⃗` thus have a global index `arc_index(v, p) =
/// offset(v) + p`, which per-arc counters in the simulation engines use to
/// keep their state in a single flat allocation too.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PortGraph {
    /// CSR offsets: the ports of node `v` occupy `offsets[v] .. offsets[v+1]`
    /// in the flat arenas. `offsets.len() == n + 1` and
    /// `offsets[n] == 2|E|`.
    offsets: Vec<u32>,
    /// Flat neighbour arena: `adj[offsets[v] + p]` = neighbour of `v`
    /// through port `p`.
    adj: Vec<u32>,
    /// Flat reverse-port arena, aligned with `adj`: the port of the
    /// neighbour that leads back to `v`.
    ///
    /// If `u = adj[offsets[v] + p]` and `q = back[offsets[v] + p]`, then
    /// `adj[offsets[u] + q] == v`. This is the port an agent *enters* `u`
    /// through when traversing the arc `(v, u)`.
    back: Vec<u32>,
    edge_count: usize,
}

impl PortGraph {
    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of arcs of the directed symmetric version, `2m`.
    #[inline]
    pub fn arc_count(&self) -> usize {
        2 * self.edge_count
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// The global CSR index of the arc leaving `v` through port 0; the arc
    /// through port `p` has index `arc_offset(v) + p`. Arc indices cover
    /// `0..arc_count()` without gaps, in `(node, port)` order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn arc_offset(&self, v: NodeId) -> usize {
        self.offsets[v.index()] as usize
    }

    /// The neighbours of `v` in port order, as a contiguous slice of raw
    /// node indices (the hot-path form of [`neighbors`](Self::neighbors)).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        &self.adj[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The node reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn neighbor(&self, v: NodeId, p: usize) -> NodeId {
        NodeId(self.neighbor_slice(v)[p])
    }

    /// The port of `neighbor(v, p)` through which the arc from `v` arrives,
    /// i.e. the port leading back to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is out of range.
    #[inline]
    pub fn entry_port(&self, v: NodeId, p: usize) -> usize {
        let range = self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize;
        self.back[range][p] as usize
    }

    /// The port of `v` that leads to `u`, if `{v, u}` is an edge.
    ///
    /// This is `port_v(u)` in the paper's notation. Linear in `deg(v)`.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<usize> {
        self.neighbor_slice(v).iter().position(|&w| w == u.value())
    }

    /// Iterates over the neighbours of `v` in port order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_slice(v).iter().map(|&u| NodeId(u))
    }

    /// Iterates over all node identifiers `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all arcs `(v, u)` of the directed symmetric version, in
    /// `(node, port)` order.
    pub fn arcs(&self) -> impl Iterator<Item = Arc> + '_ {
        self.nodes()
            .flat_map(move |v| (0..self.degree(v)).map(move |p| Arc::new(v, self.neighbor(v, p))))
    }

    /// Whether `{v, u}` is an edge of the graph.
    pub fn has_edge(&self, v: NodeId, u: NodeId) -> bool {
        self.port_to(v, u).is_some()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Whether every node has the same degree.
    pub fn is_regular(&self) -> bool {
        let d = self.degree(NodeId(0));
        self.nodes().all(|v| self.degree(v) == d)
    }

    /// Assembles a graph from pre-validated per-node lists, flattening them
    /// into the CSR arenas (crate-internal; used by [`crate::builders`]).
    pub(crate) fn from_parts(adj: Vec<Vec<u32>>, back: Vec<Vec<u32>>, edge_count: usize) -> Self {
        debug_assert_eq!(adj.len(), back.len());
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for l in &adj {
            total += l.len() as u32;
            offsets.push(total);
        }
        PortGraph {
            offsets,
            adj: adj.into_iter().flatten().collect(),
            back: back.into_iter().flatten().collect(),
            edge_count,
        }
    }

    /// Next port after `p` in the cyclic order `ρ_v` at `v`.
    ///
    /// This is the port-level form of the paper's `next(v, u)`.
    #[inline]
    pub fn next_port(&self, v: NodeId, p: usize) -> usize {
        let d = self.degree(v);
        debug_assert!(p < d);
        let q = p + 1;
        if q == d {
            0
        } else {
            q
        }
    }
}

impl fmt::Debug for PortGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortGraph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Incremental builder for [`PortGraph`].
///
/// Edges are inserted in order; the port order at each node is the insertion
/// order of its incident edges. Generators in [`crate::builders`] exploit
/// this to fix meaningful port conventions (e.g. on the ring, port 0 is
/// always the clockwise direction).
#[derive(Clone, Debug)]
pub struct PortGraphBuilder {
    n: u32,
    adj: Vec<Vec<u32>>,
    back: Vec<Vec<u32>>,
    edge_count: usize,
    error: Option<GraphError>,
}

impl PortGraphBuilder {
    /// Starts a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        PortGraphBuilder {
            n: n as u32,
            adj: vec![Vec::new(); n],
            back: vec![Vec::new(); n],
            edge_count: 0,
            error: None,
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// The new edge receives the next free port at `u` and at `v`.
    /// Errors (out-of-range endpoints, self-loops, duplicates) are latched
    /// and reported by [`build`](Self::build).
    pub fn add_edge(&mut self, u: u32, v: u32) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        if u >= self.n || v >= self.n {
            self.error = Some(GraphError::NodeOutOfRange {
                node: u.max(v),
                node_count: self.n,
            });
            return self;
        }
        if u == v {
            self.error = Some(GraphError::SelfLoop(NodeId(u)));
            return self;
        }
        // The lists are symmetric, so the shorter one decides: a star's
        // hub is never scanned.
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len() {
            (u, v)
        } else {
            (v, u)
        };
        if self.adj[a as usize].contains(&b) {
            self.error = Some(GraphError::DuplicateEdge(NodeId(u), NodeId(v)));
            return self;
        }
        let pu = self.adj[u as usize].len() as u32;
        let pv = self.adj[v as usize].len() as u32;
        self.adj[u as usize].push(v);
        self.back[u as usize].push(pv);
        self.adj[v as usize].push(u);
        self.back[v as usize].push(pu);
        self.edge_count += 1;
        self
    }

    /// Finalises the graph.
    ///
    /// # Errors
    ///
    /// Returns an error if any `add_edge` call was invalid, if the graph is
    /// empty, or if it is not connected (single-node graphs are accepted).
    pub fn build(self) -> Result<PortGraph, GraphError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        let g = PortGraph::from_parts(self.adj, self.back, self.edge_count);
        if !crate::algo::is_connected(&g) {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// Finalises the graph without the connectivity check.
    ///
    /// Useful for tests that deliberately build disconnected graphs.
    ///
    /// # Errors
    ///
    /// Returns an error if any `add_edge` call was invalid or the graph is
    /// empty.
    pub fn build_unchecked_connectivity(self) -> Result<PortGraph, GraphError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        Ok(PortGraph::from_parts(self.adj, self.back, self.edge_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> PortGraph {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build().unwrap()
    }

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.value(), 42);
        assert_eq!(NodeId::from(42u32), v);
        assert_eq!(u32::from(v), 42);
        assert_eq!(format!("{v}"), "42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn arc_reversal() {
        let a = Arc::new(NodeId::new(1), NodeId::new(2));
        assert_eq!(a.reversed(), Arc::new(NodeId::new(2), NodeId::new(1)));
        assert_eq!(a.reversed().reversed(), a);
        assert_eq!(format!("{a}"), "(1 -> 2)");
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_regular());
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn back_ports_are_consistent() {
        let g = triangle();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let u = g.neighbor(v, p);
                let q = g.entry_port(v, p);
                assert_eq!(g.neighbor(u, q), v, "back port round-trip failed");
            }
        }
    }

    #[test]
    fn csr_layout_is_contiguous_and_consistent() {
        let g = triangle();
        assert_eq!(g.arc_offset(NodeId::new(0)), 0);
        let mut expected = 0;
        for v in g.nodes() {
            assert_eq!(g.arc_offset(v), expected, "offsets contiguous");
            let slice = g.neighbor_slice(v);
            assert_eq!(slice.len(), g.degree(v));
            for (p, &u) in slice.iter().enumerate() {
                assert_eq!(g.neighbor(v, p), NodeId::new(u));
            }
            expected += g.degree(v);
        }
        assert_eq!(expected, g.arc_count());
    }

    #[test]
    #[should_panic]
    fn neighbor_out_of_range_port_panics() {
        let g = triangle();
        g.neighbor(NodeId::new(0), 2);
    }

    #[test]
    fn port_to_finds_ports() {
        let g = triangle();
        let v0 = NodeId::new(0);
        let v1 = NodeId::new(1);
        let v2 = NodeId::new(2);
        assert_eq!(g.port_to(v0, v1), Some(0));
        assert_eq!(g.port_to(v0, v2), Some(1));
        assert_eq!(g.port_to(v1, v1), None);
        assert!(g.has_edge(v0, v1));
    }

    #[test]
    fn next_port_cycles() {
        let g = triangle();
        let v = NodeId::new(0);
        assert_eq!(g.next_port(v, 0), 1);
        assert_eq!(g.next_port(v, 1), 0);
    }

    #[test]
    fn arcs_enumerates_both_orientations() {
        let g = triangle();
        let arcs: Vec<Arc> = g.arcs().collect();
        assert_eq!(arcs.len(), 6);
        for a in &arcs {
            assert!(arcs.contains(&a.reversed()));
        }
    }

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(NodeId::new(0)));
    }

    #[test]
    fn builder_rejects_duplicate_edge() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge(NodeId::new(1), NodeId::new(0))
        );
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = PortGraphBuilder::new(2);
        b.add_edge(0, 5);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, .. }
        ));
    }

    #[test]
    fn builder_rejects_disconnected() {
        let mut b = PortGraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        assert_eq!(b.build().unwrap_err(), GraphError::Disconnected);
    }

    #[test]
    fn builder_rejects_empty() {
        assert_eq!(
            PortGraphBuilder::new(0).build().unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn single_node_graph_is_valid() {
        let g = PortGraphBuilder::new(1).build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn error_latches_first_problem() {
        let mut b = PortGraphBuilder::new(3);
        b.add_edge(0, 0); // first error: self-loop
        b.add_edge(0, 9); // would be out-of-range, but first error wins
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(NodeId::new(0)));
    }

    #[test]
    fn error_display_messages() {
        let msgs = [
            GraphError::NodeOutOfRange {
                node: 7,
                node_count: 3,
            }
            .to_string(),
            GraphError::SelfLoop(NodeId::new(1)).to_string(),
            GraphError::DuplicateEdge(NodeId::new(0), NodeId::new(1)).to_string(),
            GraphError::Disconnected.to_string(),
            GraphError::Empty.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
    }
}
