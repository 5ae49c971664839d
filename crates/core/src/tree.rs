//! Root selection and depth-constrained spanning forest (§3.4).
//!
//! The cover sub-graph (edges whose color was selected) decomposes into
//! weakly connected components; per component, the all-pairs shortest-path
//! matrix picks the root whose tree height is minimal (the paper's sparse
//! matrix `M_l` / row-maximum `m_t` rule). Trees are then grown
//! breadth-first, bounded by the depth constraint; vertices unreachable
//! within the bound are promoted to extra roots, enlarging the SEED set —
//! exactly how Table 1's "depth constraint of 3" trades SEED size for
//! delay.

use std::collections::HashMap;

use mrp_graph::{bfs_layers, floyd_warshall, weakly_connected_components};

use crate::color::SidEdge;
use crate::cover::CoverSolution;

/// One parent link of the spanning forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeEdge {
    /// The covered vertex.
    pub vertex: usize,
    /// The SID edge realizing it from its parent.
    pub edge: SidEdge,
    /// Depth of `vertex` in its tree (root = 0).
    pub depth: u32,
}

/// The spanning forest: roots, free vertices, and one tree edge per
/// remaining vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    /// Root vertices (their coefficients join the SEED set).
    pub roots: Vec<usize>,
    /// Vertices realized as free shifts of a selected color (Step 6).
    pub free_vertices: Vec<usize>,
    /// Parent edges for every non-root, non-free vertex, in a topological
    /// order (parents appear before children).
    pub edges: Vec<TreeEdge>,
    /// Height of the tallest tree.
    pub height: u32,
}

impl Forest {
    /// Number of overhead adders (one per tree edge).
    pub fn overhead_adders(&self) -> usize {
        self.edges.len()
    }
}

/// Builds the spanning forest for a color cover.
///
/// `n` is the vertex count, `cover_edges` every SID edge whose color class
/// was selected, and `max_depth` the tree-height constraint (use
/// `u32::MAX` for unconstrained).
///
/// `direct_cost` gives the cost of promoting a vertex to a root (its
/// coefficient's nonzero-digit count); promotion picks the cheapest
/// uncovered vertex first.
///
/// # Panics
///
/// Panics if an edge references a vertex `>= n`.
///
/// # Examples
///
/// ```
/// use mrp_core::{build_forest, select_colors, CoeffSet, ColorGraph};
/// use mrp_numrep::Repr;
///
/// let set = CoeffSet::new(&[70, 66, 17, 9, 27, 41, 56, 11])?;
/// let graph = ColorGraph::build(set.primaries(), 8, Repr::Spt);
/// let cover = select_colors(&graph, set.primaries(), 0.5);
/// let edges = graph.cover_edges(&cover.class_indices);
/// let forest = build_forest(8, &edges, &cover, u32::MAX, |v| {
///     mrp_numrep::nonzero_digits(set.primaries()[v], Repr::Spt)
/// });
/// // Every vertex is a root, free, or has a tree edge.
/// assert_eq!(
///     forest.roots.len() + forest.free_vertices.len() + forest.edges.len(),
///     8
/// );
/// # Ok::<(), mrp_core::MrpError>(())
/// ```
pub fn build_forest(
    n: usize,
    cover_edges: &[SidEdge],
    cover: &CoverSolution,
    max_depth: u32,
    direct_cost: impl Fn(usize) -> u32,
) -> Forest {
    let _span = mrp_obs::span("core.forest");
    for e in cover_edges {
        assert!(e.from < n && e.to < n, "edge out of range");
    }
    // Adjacency over cover edges, keeping the cheapest edge per (from, to).
    let mut best_edge: HashMap<(usize, usize), SidEdge> = HashMap::new();
    for &e in cover_edges {
        best_edge
            .entry((e.from, e.to))
            .and_modify(|cur| {
                // Prefer smaller color shift (narrower intermediate), then
                // smaller base shift — both purely cosmetic tie-breaks.
                if (e.color_shift, e.base_shift) < (cur.color_shift, cur.base_shift) {
                    *cur = e;
                }
            })
            .or_insert(e);
    }
    let pairs: Vec<(usize, usize)> = best_edge.keys().copied().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in &pairs {
        adj[u].push(v);
    }
    for a in &mut adj {
        a.sort_unstable();
    }

    // Step 6 free vertices are sources at depth 0 without joining SEED.
    let mut sources: Vec<usize> = cover.free_vertices.clone();
    let mut roots: Vec<usize> = Vec::new();

    // Per weakly connected component without a source, pick the APSP root.
    let apsp_span = mrp_obs::span("core.apsp");
    let dist = floyd_warshall(
        n,
        &pairs.iter().map(|&(u, v)| (u, v, 1u64)).collect::<Vec<_>>(),
    );
    for comp in weakly_connected_components(n, &pairs) {
        if comp.iter().any(|v| sources.contains(v)) {
            continue;
        }
        if comp.len() == 1 {
            roots.push(comp[0]);
            sources.push(comp[0]);
            continue;
        }
        match dist.best_root(&comp) {
            Some((root, _)) => {
                roots.push(root);
                sources.push(root);
            }
            None => {
                // No single vertex reaches the whole component (directed
                // gaps): start from the vertex reaching the most, cheapest
                // first; stragglers are promoted below.
                let root = *comp
                    .iter()
                    .max_by_key(|&&u| {
                        let reach = comp.iter().filter(|&&v| dist.get(u, v).is_some()).count();
                        (reach, std::cmp::Reverse(direct_cost(u)))
                    })
                    .expect("non-empty component");
                roots.push(root);
                sources.push(root);
            }
        }
    }

    drop(apsp_span);

    // Multi-source depth-bounded BFS with promotion of unreached vertices.
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut depth: Vec<Option<u32>> = vec![None; n];
    loop {
        // (Re)run BFS from all sources via a virtual super-source.
        let mut super_adj = adj.clone();
        super_adj.push(sources.clone());
        let b = bfs_layers(&super_adj, n, max_depth.saturating_add(1));
        for v in 0..n {
            depth[v] = b.depth[v].map(|d| d - 1);
            parent[v] = match b.parent[v] {
                usize::MAX => None,
                p if p == n => None, // reached directly from the super-source
                p => Some(p),
            };
        }
        if let Some(unreached) = (0..n)
            .filter(|&v| depth[v].is_none())
            .min_by_key(|&v| (direct_cost(v), v))
        {
            roots.push(unreached);
            sources.push(unreached);
        } else {
            break;
        }
    }

    // Emit tree edges in BFS (topological) order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| depth[v].expect("all vertices reached"));
    let mut edges = Vec::new();
    let mut height = 0;
    for v in order {
        let d = depth[v].expect("all vertices reached");
        height = height.max(d);
        if let Some(p) = parent[v] {
            let edge = best_edge[&(p, v)];
            edges.push(TreeEdge {
                vertex: v,
                edge,
                depth: d,
            });
        }
    }
    roots.sort_unstable();
    roots.dedup();
    Forest {
        roots,
        free_vertices: cover.free_vertices.clone(),
        edges,
        height,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::ColorGraph;
    use crate::cover::select_colors;
    use crate::CoeffSet;
    use mrp_numrep::Repr;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    fn forest_for(coeffs: &[i64], max_depth: u32) -> (Vec<i64>, Forest) {
        let set = CoeffSet::new(coeffs).unwrap();
        let primaries = set.primaries().to_vec();
        let graph = ColorGraph::build(&primaries, 8, Repr::Spt);
        let cover = select_colors(&graph, &primaries, 0.5);
        let edges = graph.cover_edges(&cover.class_indices);
        let f = build_forest(primaries.len(), &edges, &cover, max_depth, |v| {
            mrp_numrep::nonzero_digits(primaries[v], Repr::Spt)
        });
        (primaries, f)
    }

    #[test]
    fn forest_partitions_vertices() {
        let (primaries, f) = forest_for(&PAPER, u32::MAX);
        assert_eq!(
            f.roots.len() + f.free_vertices.len() + f.edges.len(),
            primaries.len()
        );
    }

    #[test]
    fn edges_are_topologically_ordered() {
        let (_, f) = forest_for(&PAPER, u32::MAX);
        let mut produced: Vec<usize> = f.roots.clone();
        produced.extend(&f.free_vertices);
        for te in &f.edges {
            assert!(
                produced.contains(&te.edge.from),
                "parent {} of {} not yet produced",
                te.edge.from,
                te.vertex
            );
            produced.push(te.vertex);
        }
    }

    #[test]
    fn depth_constraint_respected() {
        for d in [1u32, 2, 3] {
            let (_, f) = forest_for(&PAPER, d);
            assert!(f.height <= d, "height {} exceeds constraint {d}", f.height);
            for te in &f.edges {
                assert!(te.depth <= d);
            }
        }
    }

    #[test]
    fn tighter_depth_means_more_roots() {
        let (_, loose) = forest_for(&PAPER, u32::MAX);
        let (_, tight) = forest_for(&PAPER, 1);
        assert!(tight.roots.len() >= loose.roots.len());
    }

    #[test]
    fn paper_example_small_forest() {
        // The paper reaches tree height 2 with two roots; allow the greedy
        // some slack but stay in the same regime.
        let (_, f) = forest_for(&PAPER, u32::MAX);
        assert!(f.roots.len() <= 3, "too many roots: {:?}", f.roots);
        assert!(f.height <= 4, "trees too tall: {}", f.height);
    }

    #[test]
    fn singleton_graph_is_its_own_root() {
        let (primaries, f) = forest_for(&[7, 14], u32::MAX);
        assert_eq!(primaries, vec![7]);
        assert_eq!(f.roots, vec![0]);
        assert!(f.edges.is_empty());
    }
}
