//! The analysis manager: memoized `get_analysis::<T>()` over one netlist.
//!
//! An [`Analyzer`] owns (or borrows) one [`AdderGraph`] plus the
//! [`AnalysisContext`] the graph is analyzed under, and lazily computes
//! [`Analysis`] values on first request. Every analysis is computed at
//! most once per graph state; a structural transform goes through
//! [`Analyzer::transform`], which mutates the graph and invalidates the
//! cache — precisely, when the transform declares [`PreservedAnalyses`].
//!
//! Each cache miss increments the `mrp-obs` counters
//! `analysis.compute` and `analysis.compute.<name>`, so a run can assert
//! "each analysis computed at most once" from its metrics export.

use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use mrp_arch::AdderGraph;

/// Parameters an analysis may depend on beyond the graph structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisContext {
    /// Input wordlength (bits) width-style analyses are evaluated at.
    pub input_width: u32,
}

impl Default for AnalysisContext {
    fn default() -> Self {
        AnalysisContext { input_width: 16 }
    }
}

/// A value derived from one graph state, computable on demand.
///
/// Implementations must be pure functions of the graph and the
/// [`AnalysisContext`]: the manager caches them until the graph mutates.
/// `compute` receives the analyzer itself so an analysis can request the
/// analyses it builds on (e.g. `CriticalPath` reads `Depth`); the cache
/// is not borrowed across the call, so nested requests are fine —
/// a self-cycle, however, recurses forever and is a bug in the analysis.
pub trait Analysis: Sized + 'static {
    /// Stable lowercase name, used for obs counters and pass manifests.
    const NAME: &'static str;

    /// Computes the analysis from scratch.
    fn compute(analyzer: &Analyzer<'_>) -> Self;
}

/// The set of analyses a transform promises not to invalidate.
#[derive(Debug, Clone, Default)]
pub struct PreservedAnalyses {
    all: bool,
    kept: Vec<TypeId>,
}

impl PreservedAnalyses {
    /// Nothing survives the transform (the safe default).
    pub fn none() -> Self {
        PreservedAnalyses::default()
    }

    /// Everything survives (the transform did not change the structure).
    pub fn all() -> Self {
        PreservedAnalyses {
            all: true,
            kept: Vec::new(),
        }
    }

    /// Marks one analysis as preserved.
    #[must_use]
    pub fn preserve<A: Analysis>(mut self) -> Self {
        self.kept.push(TypeId::of::<A>());
        self
    }

    fn keeps(&self, id: &TypeId) -> bool {
        self.all || self.kept.contains(id)
    }
}

/// Memoizing analysis manager over one adder graph.
///
/// # Examples
///
/// ```
/// use mrp_analysis::{AnalysisContext, Analyzer, Depth, Fanout};
/// use mrp_arch::{AdderGraph, Term};
///
/// let mut g = AdderGraph::new();
/// let x = g.input();
/// let a = g.add(Term::shifted(x, 3), Term::negated(x))?; // 7x
/// g.push_output("c0", Term::of(a), 7);
/// let az = Analyzer::new(&g, AnalysisContext::default());
/// assert_eq!(az.get_analysis::<Depth>().max, 1);
/// assert_eq!(az.get_analysis::<Fanout>().counts[0], 2);
/// assert_eq!(az.computed_count(), 2); // second requests would be cached
/// # Ok::<(), mrp_arch::ArchError>(())
/// ```
pub struct Analyzer<'g> {
    graph: Cow<'g, AdderGraph>,
    ctx: AnalysisContext,
    cache: RefCell<HashMap<TypeId, Rc<dyn Any>>>,
    computed: RefCell<Vec<&'static str>>,
}

impl<'g> Analyzer<'g> {
    /// Wraps a borrowed graph (the common read-only lint/reporting path).
    pub fn new(graph: &'g AdderGraph, ctx: AnalysisContext) -> Self {
        Analyzer {
            graph: Cow::Borrowed(graph),
            ctx,
            cache: RefCell::new(HashMap::new()),
            computed: RefCell::new(Vec::new()),
        }
    }

    /// Takes ownership of a graph (the transform pipeline path).
    pub fn owned(graph: AdderGraph, ctx: AnalysisContext) -> Analyzer<'static> {
        Analyzer {
            graph: Cow::Owned(graph),
            ctx,
            cache: RefCell::new(HashMap::new()),
            computed: RefCell::new(Vec::new()),
        }
    }

    /// The graph under analysis.
    pub fn graph(&self) -> &AdderGraph {
        &self.graph
    }

    /// The context analyses are evaluated under.
    pub fn ctx(&self) -> &AnalysisContext {
        &self.ctx
    }

    /// Returns the cached analysis, computing it on first request.
    pub fn get_analysis<A: Analysis>(&self) -> Rc<A> {
        let key = TypeId::of::<A>();
        if let Some(hit) = self.cache.borrow().get(&key) {
            return hit.clone().downcast::<A>().expect("cache type confusion");
        }
        // Not cached: compute without holding the cache borrow, so the
        // analysis may itself request other analyses.
        let value = Rc::new(A::compute(self));
        mrp_obs::counter_add("analysis.compute", 1);
        mrp_obs::counter_add(&format!("analysis.compute.{}", A::NAME), 1);
        self.computed.borrow_mut().push(A::NAME);
        self.cache
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| value.clone());
        value
    }

    /// Whether an analysis is currently cached.
    pub fn is_cached<A: Analysis>(&self) -> bool {
        self.cache.borrow().contains_key(&TypeId::of::<A>())
    }

    /// How many analysis computations have run (cache misses), total.
    pub fn computed_count(&self) -> usize {
        self.computed.borrow().len()
    }

    /// Names of the analyses computed so far, in computation order.
    pub fn computed_names(&self) -> Vec<&'static str> {
        self.computed.borrow().clone()
    }

    /// Mutates the graph through `f` and invalidates every cached
    /// analysis. Borrowed graphs are cloned on first mutation
    /// (copy-on-write), so a read-only `Analyzer` never pays for a copy.
    pub fn transform<R>(&mut self, f: impl FnOnce(&mut AdderGraph) -> R) -> R {
        self.transform_preserving(PreservedAnalyses::none(), f)
    }

    /// [`Analyzer::transform`] with a precise invalidation set: analyses
    /// named in `preserved` stay cached across the mutation. The caller
    /// asserts they still describe the mutated graph — preserving a stale
    /// analysis is as wrong as any other cache bug.
    pub fn transform_preserving<R>(
        &mut self,
        preserved: PreservedAnalyses,
        f: impl FnOnce(&mut AdderGraph) -> R,
    ) -> R {
        let result = f(self.graph.to_mut());
        self.cache.borrow_mut().retain(|id, _| preserved.keeps(id));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyses::{Depth, Fanout};
    use mrp_arch::Term;

    fn chain() -> AdderGraph {
        let mut g = AdderGraph::new();
        let x = g.input();
        let a = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap(); // 7
        let b = g.add(Term::shifted(a, 2), Term::of(x)).unwrap(); // 29
        g.push_output("c0", Term::of(b), 29);
        g
    }

    #[test]
    fn second_request_hits_the_cache() {
        let g = chain();
        let az = Analyzer::new(&g, AnalysisContext::default());
        let first = az.get_analysis::<Depth>();
        let again = az.get_analysis::<Depth>();
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(az.computed_count(), 1);
    }

    #[test]
    fn transform_invalidates_everything_by_default() {
        let g = chain();
        let mut az = Analyzer::new(&g, AnalysisContext::default());
        assert_eq!(az.get_analysis::<Depth>().max, 2);
        az.transform(|g| {
            let x = g.input();
            let b = mrp_arch::NodeId::from_index(2);
            let c = g.add(Term::shifted(b, 1), Term::of(x)).unwrap(); // 59
            g.push_output("c1", Term::of(c), 59);
        });
        assert!(!az.is_cached::<Depth>());
        assert_eq!(az.get_analysis::<Depth>().max, 3);
        // The borrowed original is untouched (copy-on-write).
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn preserved_analyses_survive_a_transform() {
        let g = chain();
        let mut az = Analyzer::new(&g, AnalysisContext::default());
        az.get_analysis::<Depth>();
        az.get_analysis::<Fanout>();
        assert_eq!(az.computed_count(), 2);
        // Relabeling an output does not move any node or edge: depth is
        // preserved; fanout counts nonzero outputs, so it is not.
        az.transform_preserving(PreservedAnalyses::none().preserve::<Depth>(), |g| {
            let t = Term::of(mrp_arch::NodeId::from_index(2));
            g.push_output("extra", t, 29);
        });
        assert!(az.is_cached::<Depth>());
        assert!(!az.is_cached::<Fanout>());
    }

    #[test]
    fn owned_analyzer_mutates_in_place() {
        let mut az = Analyzer::owned(chain(), AnalysisContext::default());
        az.transform(|g| {
            let x = g.input();
            g.add(Term::shifted(x, 1), Term::of(x)).unwrap();
        });
        assert_eq!(az.graph().len(), 4);
    }
}
