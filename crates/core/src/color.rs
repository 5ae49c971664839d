//! The SID-colored coefficient multigraph (§2, §3.1 of the paper).
//!
//! Vertices are primary coefficients. For every ordered pair `(i, j)`,
//! shift `0 ≤ L ≤ W`, and sign `s ∈ {+1, −1}`, there is an edge colored by
//! the shift-inclusive differential `ξ = c_j − s·2^L·c_i`. Colors are
//! normalized to their positive odd part (the *primary color*); all edges of
//! one color class are realized by a single shared computation `k · x`
//! plus free shifts, which is what makes cover-based sharing pay off.
//!
//! The cover needs only each class's cost and the vertices it reaches, so
//! the graph keeps those — one M-bit mask per class — and no edges. The few
//! classes a cover selects get their edges back from
//! [`ColorGraph::cover_edges`], which repeats the enumeration.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use mrp_numrep::{nonzero_digits, odd_part, Repr};

/// One SID edge `c_to = sign_base·2^base_shift·c_from + sign_color·2^color_shift·color`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidEdge {
    /// Predecessor vertex (index into the primaries).
    pub from: usize,
    /// Covered vertex.
    pub to: usize,
    /// Shift `L` applied to the predecessor.
    pub base_shift: u32,
    /// Whether the predecessor term is subtracted.
    pub base_negate: bool,
    /// Primary color (positive odd).
    pub color: i64,
    /// Shift applied to the color value.
    pub color_shift: u32,
    /// Whether the color term is subtracted.
    pub color_negate: bool,
}

impl SidEdge {
    /// Checks the defining identity against the vertex values.
    pub fn is_consistent(&self, primaries: &[i64]) -> bool {
        let base =
            (primaries[self.from] << self.base_shift) * if self.base_negate { -1 } else { 1 };
        let color = (self.color << self.color_shift) * if self.color_negate { -1 } else { 1 };
        base + color == primaries[self.to]
    }
}

/// Multiply-shift hashing of color keys (Dietzfelbinger et al.): the high
/// half of `key · a` for a random odd `a` drawn per map. One multiply, where
/// SipHash would take most of a build's time; the keys derive from the
/// caller's coefficients, and the random multiplier keeps keys that collide
/// from being chosen in advance. No map is iterated, so the hash never
/// reaches an output.
#[derive(Debug, Clone, Copy)]
struct ColorHash(u64);

impl ColorHash {
    fn new() -> Self {
        ColorHash(RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for ColorHash {
    type Hasher = ColorHasher;

    fn build_hasher(&self) -> ColorHasher {
        ColorHasher {
            multiplier: self.0,
            hash: 0,
        }
    }
}

struct ColorHasher {
    multiplier: u64,
    hash: u64,
}

impl Hasher for ColorHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash ^ v).wrapping_mul(self.multiplier);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits: give it the high half.
        self.hash.rotate_left(32)
    }
}

type ColorMap<V> = HashMap<i64, V, ColorHash>;

/// Visits every SID edge among `primaries` with shifts up to `max_shift`
/// whose covered vertex passes `head`, in `(i, j, L, sign)` order.
///
/// # Panics
///
/// Panics if a shifted primary overflows `i64`.
fn for_each_edge(
    primaries: &[i64],
    max_shift: u32,
    head: impl Fn(usize) -> bool,
    mut visit: impl FnMut(SidEdge),
) {
    if primaries.len() < 2 {
        return;
    }
    for (i, &ci) in primaries.iter().enumerate() {
        let shifted: Vec<i64> = (0..=max_shift)
            .map(|l| {
                let shifted = ci.checked_shl(l).expect("primary shift overflows");
                assert!(
                    (shifted >> l) == ci,
                    "primary shift overflows i64 (value {ci}, shift {l})"
                );
                shifted
            })
            .collect();
        for (j, &cj) in primaries.iter().enumerate() {
            if i == j || !head(j) {
                continue;
            }
            for (l, &shifted) in (0..).zip(&shifted) {
                for base_negate in [false, true] {
                    let base = if base_negate { -shifted } else { shifted };
                    let xi = cj - base;
                    if xi == 0 {
                        continue;
                    }
                    let p = odd_part(xi);
                    visit(SidEdge {
                        from: i,
                        to: j,
                        base_shift: l,
                        base_negate,
                        color: p.odd,
                        color_shift: p.shift,
                        color_negate: p.negative,
                    });
                }
            }
        }
    }
}

/// The color-class view of the multigraph: every distinct primary color,
/// its cost, and the set of vertices its edges can cover.
///
/// A class keeps no edges, only its coverage set as a bitmask of
/// ⌈M/64⌉ words; [`ColorGraph::cover_edges`] regenerates the edges of the
/// classes a cover selects.
///
/// # Examples
///
/// ```
/// use mrp_core::{CoeffSet, ColorGraph};
/// use mrp_numrep::Repr;
///
/// let set = CoeffSet::new(&[70, 66, 17, 9, 27, 41, 56, 11])?;
/// let graph = ColorGraph::build(set.primaries(), 8, Repr::Spt);
/// // The paper's example: colors 3 and 5 cover every vertex.
/// let c3 = graph.color_index(3).unwrap();
/// let c5 = graph.color_index(5).unwrap();
/// let mut covered: Vec<bool> = vec![false; 8];
/// for e in graph.cover_edges(&[c3, c5]) {
///     covered[e.to] = true;
/// }
/// assert!(covered.iter().all(|&c| c));
/// # Ok::<(), mrp_core::MrpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ColorGraph {
    primaries: Vec<i64>,
    max_shift: u32,
    colors: Vec<i64>,
    costs: Vec<u32>,
    /// Coverage masks, `words` per class: bit `v` of class `ci` is set
    /// when some edge of `ci` covers vertex `v`.
    masks: Vec<u64>,
    words: usize,
    index: ColorMap<usize>,
}

impl ColorGraph {
    /// Enumerates all SID edges among `primaries` with shifts up to
    /// `max_shift` and groups them into color classes, with costs measured
    /// under `repr`.
    ///
    /// # Panics
    ///
    /// Panics if a shifted value overflows `i64` (prevented upstream by
    /// [`crate::CoeffSet`]'s magnitude cap when `max_shift ≤ 26`).
    pub fn build(primaries: &[i64], max_shift: u32, repr: Repr) -> Self {
        let m = primaries.len();
        let words = m.div_ceil(64);
        // Classes number at most the §3.1 edge bound 2(W+1)·M(M−1), and
        // most edges start a class of their own: sizing for the bound once
        // spares the table its moves while growing.
        let bound = 2 * (max_shift as usize + 1) * m * m.saturating_sub(1);
        let mut index = ColorMap::with_capacity_and_hasher(bound, ColorHash::new());
        let mut colors: Vec<i64> = Vec::with_capacity(bound);
        let mut costs: Vec<u32> = Vec::with_capacity(bound);
        let mut masks: Vec<u64> = Vec::with_capacity(bound * words);
        for_each_edge(
            primaries,
            max_shift,
            |_| true,
            |e| {
                let slot = *index.entry(e.color).or_insert_with(|| {
                    colors.push(e.color);
                    costs.push(nonzero_digits(e.color, repr));
                    masks.resize(masks.len() + words, 0);
                    colors.len() - 1
                });
                masks[slot * words + e.to / 64] |= 1 << (e.to % 64);
            },
        );
        ColorGraph {
            primaries: primaries.to_vec(),
            max_shift,
            colors,
            costs,
            masks,
            words,
            index,
        }
    }

    /// Number of vertices the graph was built over.
    pub fn vertex_count(&self) -> usize {
        self.primaries.len()
    }

    /// Number of distinct color classes.
    pub fn color_count(&self) -> usize {
        self.colors.len()
    }

    /// The primary color values, by class index.
    pub fn colors(&self) -> &[i64] {
        &self.colors
    }

    /// Adder-relevant cost (nonzero digits) of color class `ci`.
    pub fn cost(&self, ci: usize) -> u32 {
        self.costs[ci]
    }

    /// Class index of a primary color value.
    pub fn color_index(&self, color: i64) -> Option<usize> {
        self.index.get(&color).copied()
    }

    /// Coverage mask of class `ci`: ⌈M/64⌉ words, bit `v` set when the
    /// class can cover vertex `v`.
    pub(crate) fn mask(&self, ci: usize) -> &[u64] {
        &self.masks[ci * self.words..(ci + 1) * self.words]
    }

    /// The set of vertices class `ci` can cover (deduplicated, sorted).
    pub fn color_set(&self, ci: usize) -> Vec<usize> {
        (0..self.vertex_count())
            .filter(|&v| self.mask(ci)[v / 64] >> (v % 64) & 1 == 1)
            .collect()
    }

    /// Regenerates the SID edges of `classes` (distinct class indices):
    /// class by class in the given order, each class's edges in the
    /// `(i, j, L, sign)` order of [`ColorGraph::build`]'s enumeration.
    ///
    /// Only vertices some listed class covers are visited as edge heads,
    /// so the cost is that of enumerating the edges into those vertices.
    pub fn cover_edges(&self, classes: &[usize]) -> Vec<SidEdge> {
        let mut slot_of: ColorMap<usize> = ColorMap::with_hasher(ColorHash::new());
        let mut heads = vec![0u64; self.words];
        for (k, &ci) in classes.iter().enumerate() {
            let fresh = slot_of.insert(self.colors[ci], k).is_none();
            debug_assert!(fresh, "class {ci} listed twice");
            for (h, m) in heads.iter_mut().zip(self.mask(ci)) {
                *h |= m;
            }
        }
        let mut per_class: Vec<Vec<SidEdge>> = vec![Vec::new(); classes.len()];
        for_each_edge(
            &self.primaries,
            self.max_shift,
            |j| heads[j / 64] >> (j % 64) & 1 == 1,
            |e| {
                if let Some(&k) = slot_of.get(&e.color) {
                    per_class[k].push(e);
                }
            },
        );
        per_class.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    fn paper_graph() -> (Vec<i64>, ColorGraph) {
        let set = crate::CoeffSet::new(&PAPER).unwrap();
        let primaries = set.primaries().to_vec();
        let g = ColorGraph::build(&primaries, 8, Repr::Spt);
        (primaries, g)
    }

    /// Every edge of the graph, regenerated class by class.
    fn all_edges(g: &ColorGraph) -> Vec<SidEdge> {
        g.cover_edges(&(0..g.color_count()).collect::<Vec<_>>())
    }

    #[test]
    fn all_edges_are_consistent() {
        let (primaries, g) = paper_graph();
        for e in all_edges(&g) {
            assert!(e.is_consistent(&primaries), "bad edge {e:?}");
        }
    }

    #[test]
    fn edge_count_bound() {
        // At most 2(W+1)·M(M−1) edges (paper §3.1).
        let (primaries, g) = paper_graph();
        let m = primaries.len();
        let total = all_edges(&g).len();
        assert!(total <= 2 * 9 * m * (m - 1));
        assert!(total > 0);
    }

    #[test]
    fn masks_match_regenerated_edges() {
        // 70 primaries: masks span two words.
        let primaries: Vec<i64> = (0..70).map(|k| 2 * k + 1).collect();
        let g = ColorGraph::build(&primaries, 4, Repr::Spt);
        for ci in 0..g.color_count() {
            let edges = g.cover_edges(&[ci]);
            assert!(edges.iter().all(|e| e.color == g.colors()[ci]));
            let mut heads: Vec<usize> = edges.iter().map(|e| e.to).collect();
            heads.dedup();
            heads.sort_unstable();
            heads.dedup();
            assert_eq!(g.color_set(ci), heads, "class of color {}", g.colors()[ci]);
        }
    }

    #[test]
    fn colors_are_positive_odd() {
        let (_, g) = paper_graph();
        for &c in g.colors() {
            assert!(c > 0);
            assert_eq!(c % 2, 1);
        }
    }

    #[test]
    fn paper_colors_3_and_5_cover_everything() {
        let (primaries, g) = paper_graph();
        let mut covered = vec![false; primaries.len()];
        for color in [3i64, 5] {
            let ci = g.color_index(color).expect("color exists");
            for v in g.color_set(ci) {
                covered[v] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "colors 3 and 5 must cover all vertices as in Fig. 2"
        );
    }

    #[test]
    fn costs_match_repr() {
        let (_, g) = paper_graph();
        for (ci, &c) in g.colors().iter().enumerate() {
            assert_eq!(g.cost(ci), nonzero_digits(c, Repr::Spt));
        }
    }

    #[test]
    fn sm_and_spt_graphs_differ_in_costs() {
        let set = crate::CoeffSet::new(&PAPER).unwrap();
        let spt = ColorGraph::build(set.primaries(), 8, Repr::Spt);
        let sm = ColorGraph::build(set.primaries(), 8, Repr::SignMagnitude);
        assert_eq!(spt.color_count(), sm.color_count());
        let diff = (0..spt.color_count())
            .filter(|&ci| spt.cost(ci) != sm.cost(ci))
            .count();
        assert!(diff > 0, "SPT and SM should cost some colors differently");
    }

    #[test]
    fn single_vertex_graph_has_no_edges() {
        let g = ColorGraph::build(&[7], 8, Repr::Spt);
        assert_eq!(g.color_count(), 0);
        assert_eq!(g.vertex_count(), 1);
    }
}
