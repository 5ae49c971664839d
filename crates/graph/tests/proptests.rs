//! Property-based tests for the graph toolkit (deterministic harness).

use mrp_graph::{
    bfs_layers, floyd_warshall, kruskal, prim, weakly_connected_components, Edge, UnionFind,
};
use mrp_ptest::{run_cases, Rng};

/// A random undirected graph as (n, edges).
fn random_graph(rng: &mut Rng) -> (usize, Vec<Edge<u64>>) {
    let n = rng.usize_in(2, 12);
    let m = rng.usize_in(0, 40);
    let edges = (0..m)
        .map(|_| {
            Edge::new(
                rng.usize_in(0, n),
                rng.usize_in(0, n),
                rng.i64_in(1, 100) as u64,
            )
        })
        .collect();
    (n, edges)
}

#[test]
fn kruskal_is_acyclic_and_spanning() {
    run_cases("kruskal_is_acyclic_and_spanning", 256, |rng| {
        let (n, edges) = random_graph(rng);
        let picked = kruskal(n, &edges);
        // Acyclic: adding each picked edge merges two components.
        let mut uf = UnionFind::new(n);
        for &i in &picked {
            assert!(
                uf.union(edges[i].u, edges[i].v),
                "picked edge forms a cycle"
            );
        }
        // Spanning: component count equals that of the full graph.
        let mut full = UnionFind::new(n);
        for e in &edges {
            full.union(e.u, e.v);
        }
        assert_eq!(uf.component_count(), full.component_count());
    });
}

#[test]
fn kruskal_weight_not_above_prim() {
    run_cases("kruskal_weight_not_above_prim", 256, |rng| {
        let (n, edges) = random_graph(rng);
        // Compare total weights on the component of vertex 0.
        let (parent, order) = prim(n, &edges, 0);
        let mut in_comp = vec![false; n];
        for &v in &order {
            in_comp[v] = true;
        }
        let prim_total: u64 = (0..n)
            .filter(|&v| parent[v] != usize::MAX)
            .map(|v| {
                edges
                    .iter()
                    .filter(|e| (e.u == v && e.v == parent[v]) || (e.v == v && e.u == parent[v]))
                    .map(|e| e.weight)
                    .min()
                    .unwrap()
            })
            .sum();
        let picked = kruskal(n, &edges);
        let kruskal_total: u64 = picked
            .iter()
            .filter(|&&i| in_comp[edges[i].u])
            .map(|&i| edges[i].weight)
            .sum();
        assert_eq!(kruskal_total, prim_total);
    });
}

#[test]
fn floyd_warshall_triangle_inequality() {
    run_cases("floyd_warshall_triangle_inequality", 128, |rng| {
        let n = rng.usize_in(2, 8);
        let m = rng.usize_in(0, 30);
        let edges: Vec<(usize, usize, u64)> = (0..m)
            .map(|_| {
                (
                    rng.usize_in(0, 8),
                    rng.usize_in(0, 8),
                    rng.i64_in(1, 50) as u64,
                )
            })
            .filter(|&(u, v, _)| u < n && v < n)
            .collect();
        let d = floyd_warshall(n, &edges);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if let (Some(ij), Some(ik), Some(kj)) = (d.get(i, j), d.get(i, k), d.get(k, j))
                    {
                        assert!(
                            ij <= ik + kj,
                            "triangle inequality violated: d({i},{j})={ij} > {ik}+{kj}"
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn components_partition_vertices() {
    run_cases("components_partition_vertices", 256, |rng| {
        let n = rng.usize_in(1, 15);
        let m = rng.usize_in(0, 30);
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.usize_in(0, 15), rng.usize_in(0, 15)))
            .filter(|&(u, v)| u < n && v < n)
            .collect();
        let comps = weakly_connected_components(n, &edges);
        let mut all: Vec<usize> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn bfs_depths_are_shortest_hops() {
    run_cases("bfs_depths_are_shortest_hops", 256, |rng| {
        let n = rng.usize_in(1, 10);
        let m = rng.usize_in(0, 30);
        let mut adj = vec![Vec::new(); n];
        for _ in 0..m {
            let (u, v) = (rng.usize_in(0, 10), rng.usize_in(0, 10));
            if u < n && v < n {
                adj[u].push(v);
            }
        }
        let b = bfs_layers(&adj, 0, 32);
        let hop_edges: Vec<_> = adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v, 1u64)))
            .collect();
        let d = floyd_warshall(n, &hop_edges);
        for v in 0..n {
            assert_eq!(
                b.depth[v].map(u64::from),
                d.get(0, v),
                "BFS depth disagrees with APSP for vertex {v}"
            );
        }
    });
}
