//! # rotor-graph
//!
//! Port-labelled undirected graphs — the substrate on which the rotor-router
//! of Klasing, Kosowski, Pająk and Sauerwald (*The multi-agent rotor-router
//! on the ring*, PODC 2013 / Distributed Computing 2017) operates.
//!
//! The paper's model (§1.3) works with an undirected connected graph
//! `G = (V, E)` whose directed symmetric version `G⃗` has arc set
//! `{(v,u), (u,v) : {v,u} ∈ E}`. Each node `v` fixes a *cyclic order*
//! `ρ_v` of its outgoing arcs; the position of an arc in this order is its
//! *port number*. [`PortGraph`] captures exactly this structure: adjacency
//! lists whose index *is* the port number, together with the reverse-port
//! table needed to know through which port an agent *enters* a node.
//!
//! The crate additionally provides:
//!
//! * [`builders`] — generators for the graph families that appear in the
//!   paper and its related work: rings, paths, grids, tori, hypercubes,
//!   cliques, stars, trees, random regular graphs, Erdős–Rényi graphs and
//!   lollipops.
//! * [`algo`] — breadth-first search, distances, eccentricity, diameter and
//!   connectivity (the `Θ(D·|E|)` bounds of Yanovski et al. and Bampas et
//!   al. are phrased in terms of the diameter `D`).
//! * [`euler`] — machinery for Eulerian circuits of `G⃗`, used to verify the
//!   single-agent lock-in behaviour that the rotor-router stabilises to.
//!
//! # Quick example
//!
//! ```
//! use rotor_graph::{builders, NodeId};
//!
//! let g = builders::ring(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.degree(NodeId::new(0)), 2);
//! // Port 0 of every ring node leads clockwise, port 1 anticlockwise.
//! let v = NodeId::new(3);
//! assert_eq!(g.neighbor(v, 0), NodeId::new(4));
//! assert_eq!(g.neighbor(v, 1), NodeId::new(2));
//! ```

pub mod algo;
pub mod builders;
pub mod euler;
mod graph;

pub use graph::{Arc, GraphError, NodeId, PortGraph, PortGraphBuilder};
