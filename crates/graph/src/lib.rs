//! Small-graph algorithm toolkit used by the MRP optimization.
//!
//! The MRPF paper maps filter synthesis onto three classic graph problems.
//! The weighted minimum set cover that selects edge *colors* is solved in
//! `mrp-core` (`select_colors`), over its own coverage masks; this crate
//! holds the other two:
//!
//! * **all-pairs shortest paths** — choosing spanning-tree roots that
//!   minimize tree height, i.e. filter delay ([`floyd_warshall`],
//!   [`DistanceMatrix::eccentricity`]);
//! * **minimum spanning tree** — the preferred low-delay cover structure
//!   ([`kruskal`], [`prim`]).
//!
//! All algorithms work on dense vertex indices `0..n`, which matches the
//! small coefficient graphs (tens to a few hundred vertices) that arise in
//! filter synthesis.
//!
//! # Examples
//!
//! ```
//! use mrp_graph::{kruskal, Edge};
//!
//! let edges = vec![
//!     Edge::new(0, 1, 4u64),
//!     Edge::new(1, 2, 1),
//!     Edge::new(0, 2, 2),
//! ];
//! let tree = kruskal(3, &edges);
//! let total: u64 = tree.iter().map(|&i| edges[i].weight).sum();
//! assert_eq!(total, 3); // picks the 1- and 2-weight edges
//! ```

#![warn(missing_docs)]

mod apsp;
mod bfs;
mod components;
mod mst;
mod unionfind;

pub use apsp::{floyd_warshall, DistanceMatrix};
pub use bfs::{bfs_layers, BfsLayers};
pub use components::weakly_connected_components;
pub use mst::{kruskal, prim, Edge};
pub use unionfind::UnionFind;
