//! The deterministic sharded branch-and-bound MCM search.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mrp_core::{CoeffSet, MrpError};

use crate::bounds::csd_cost_floor;
use crate::executor::{ScopedExecutor, ShardExecutor};

/// Default global node-expansion cap for one [`solve_mcm`] call. Small
/// enough that a pathological instance answers in seconds, large enough
/// to prove optimality on the paper's example filters at modest widths.
pub const DEFAULT_MCM_NODE_BUDGET: usize = 20_000;

/// Shards per round: the shared bound is re-read every `SHARD_ROUND`
/// shards. Fixed (worker-count-independent) so the search explores the
/// same tree for any number of workers.
const SHARD_ROUND: usize = 4;

/// How one fundamental is built from two earlier ones:
/// `value = lhs·2^shift + rhs` when `add`, else `value = |lhs·2^shift − rhs|`
/// (always odd and positive; `shift ≥ 1`). The operands are fundamental
/// *values* — `1` (the input) or the `value` of an earlier recipe — so a
/// recipe list in construction order is a complete, replayable build
/// plan for an adder graph ([`crate::realize_recipes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Recipe {
    /// The odd fundamental this recipe produces.
    pub value: i64,
    /// Left operand (shifted), an earlier fundamental value.
    pub lhs: i64,
    /// Left shift applied to `lhs` (at least 1).
    pub shift: u32,
    /// Right operand, an earlier fundamental value.
    pub rhs: i64,
    /// `true` for `lhs·2^shift + rhs`, `false` for `|lhs·2^shift − rhs|`.
    pub add: bool,
}

impl Recipe {
    /// The value the operands actually produce — used by tests and
    /// debug assertions.
    pub fn computed(&self) -> i64 {
        let hi = self.lhs << self.shift;
        if self.add {
            hi + self.rhs
        } else {
            (hi - self.rhs).abs()
        }
    }
}

/// An MCM instance: the distinct odd targets (> 1) to cover, a cap on
/// fundamental magnitude, and a cap on single shifts. Both caps follow
/// the standard exact-MCM convention of one extra bit over the largest
/// target, which keeps the space finite without (in practice) cutting
/// off optima.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmProblem {
    targets: Vec<i64>,
    limit: i64,
    max_shift: u32,
}

impl McmProblem {
    /// Builds the instance for a coefficient vector: targets are the
    /// coefficients' odd primaries (as in [`CoeffSet`]) — zeros, signs,
    /// shifts, and duplicates are free and drop out.
    ///
    /// # Errors
    ///
    /// [`MrpError::CoefficientTooLarge`] for out-of-range magnitudes.
    pub fn from_coeffs(coeffs: &[i64]) -> Result<Self, MrpError> {
        let set = CoeffSet::new(coeffs)?;
        Ok(Self::from_targets(set.primaries()))
    }

    /// Builds the instance from raw targets: each is reduced to its
    /// positive odd part, then deduplicated; `0`, `±1`, and powers of
    /// two vanish (they cost no adders).
    pub fn from_targets(targets: &[i64]) -> Self {
        let mut ts: Vec<i64> = targets
            .iter()
            .map(|&t| {
                let a = t.unsigned_abs() as i64;
                if a == 0 {
                    0
                } else {
                    a >> a.trailing_zeros()
                }
            })
            .filter(|&t| t > 1)
            .collect();
        ts.sort_unstable();
        ts.dedup();
        let max_t = ts.last().copied().unwrap_or(1);
        let bits = (64 - (max_t as u64).leading_zeros()).min(49);
        McmProblem {
            targets: ts,
            limit: 1i64 << (bits + 1),
            max_shift: bits + 1,
        }
    }

    /// The normalized targets, ascending.
    pub fn targets(&self) -> &[i64] {
        &self.targets
    }

    /// The inclusive magnitude cap on fundamentals.
    pub fn limit(&self) -> i64 {
        self.limit
    }

    /// The largest single shift the search will use.
    pub fn max_shift(&self) -> u32 {
        self.max_shift
    }
}

/// Search knobs for one [`solve_mcm`] call.
#[derive(Debug, Clone, Copy)]
pub struct McmConfig {
    /// Global node-expansion cap across all shards (minimum 1).
    pub node_cap: usize,
    /// Worker threads for the sharded rounds. The outcome is identical
    /// for any value (including 1); more workers only finish sooner.
    pub workers: usize,
    /// Best-so-far adder count to beat, typically the greedy MRP+CSE
    /// result. The search looks only for *strictly better* solutions:
    /// with an incumbent set, [`McmOutcome::solution`] is `None` when
    /// the incumbent stands.
    pub incumbent: Option<usize>,
    /// Optional adder-depth cap on every fundamental (distance from the
    /// input in adders). `None` leaves depth free.
    pub depth_limit: Option<u32>,
    /// Optional wall-clock deadline, checked at round boundaries:
    /// rounds starting after it run with a zero node quota, which
    /// reports `budget_exhausted`. Unlike the node cap, a deadline makes
    /// the outcome depend on wall-clock time (and therefore on worker
    /// count); fully deterministic runs use the node cap alone.
    pub deadline: Option<Instant>,
}

impl Default for McmConfig {
    fn default() -> Self {
        McmConfig {
            node_cap: DEFAULT_MCM_NODE_BUDGET,
            workers: 1,
            incumbent: None,
            depth_limit: None,
            deadline: None,
        }
    }
}

/// A complete MCM solution: the fundamentals to build, in construction
/// order, pruned to those reachable from the targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmSolution {
    /// One recipe per fundamental (and so per adder), construction order.
    pub recipes: Vec<Recipe>,
    /// `recipes.len()` — the adder count of the multiplier block.
    pub cost: usize,
}

/// The result of one [`solve_mcm`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McmOutcome {
    /// The best solution found that beats the incumbent (if any was
    /// configured). `None` means the incumbent stands — never that the
    /// instance is infeasible.
    pub solution: Option<McmSolution>,
    /// The admissible root lower bound on the optimal adder count.
    pub lower_bound: usize,
    /// Nodes expanded across all shards, plus one for the root.
    pub nodes_expanded: usize,
    /// Whether any shard hit its node quota (or a deadline zeroed a
    /// round's quota) with its subtree unfinished.
    pub budget_exhausted: bool,
    /// Whether the final best cost is proved minimal over the bounded
    /// search space: the search ran to completion, or the best cost
    /// already meets the lower bound.
    pub proven_optimal: bool,
}

impl McmOutcome {
    /// The best known cost after this run: the solution's, or the
    /// configured incumbent when the incumbent stands.
    pub fn best_cost(&self, incumbent: Option<usize>) -> Option<usize> {
        self.solution.as_ref().map(|s| s.cost).or(incumbent)
    }
}

/// Mutable search position: the fundamental set (insertion order, `1`
/// first), per-fundamental depths, the targets not yet covered
/// (ascending), and the recipe trail.
#[derive(Debug, Clone)]
struct State {
    fund: Vec<i64>,
    depths: Vec<u32>,
    remaining: Vec<i64>,
    recipes: Vec<Recipe>,
}

impl State {
    fn new(problem: &McmProblem) -> State {
        State {
            fund: vec![1],
            depths: vec![0],
            remaining: problem.targets.clone(),
            recipes: Vec::new(),
        }
    }

    fn contains(&self, v: i64) -> bool {
        self.fund.contains(&v)
    }

    fn depth_of(&self, v: i64) -> u32 {
        let idx = self
            .fund
            .iter()
            .position(|&f| f == v)
            .expect("recipe operands are existing fundamentals");
        self.depths[idx]
    }

    fn push(&mut self, r: Recipe) {
        let d = 1 + self.depth_of(r.lhs).max(self.depth_of(r.rhs));
        debug_assert_eq!(r.computed(), r.value, "{r:?}");
        debug_assert!(!self.contains(r.value), "{r:?}");
        self.fund.push(r.value);
        self.depths.push(d);
        self.recipes.push(r);
        if let Ok(pos) = self.remaining.binary_search(&r.value) {
            self.remaining.remove(pos);
        }
    }

    fn pop(&mut self, targets: &[i64]) {
        let r = self.recipes.pop().expect("pop matches a push");
        self.fund.pop();
        self.depths.pop();
        if targets.binary_search(&r.value).is_ok() {
            let pos = self
                .remaining
                .binary_search(&r.value)
                .expect_err("a popped target was covered exactly once");
            self.remaining.insert(pos, r.value);
        }
    }
}

struct Search<'a> {
    problem: &'a McmProblem,
    depth_limit: Option<u32>,
    state: State,
    /// Visited fundamental sets (sorted; with depths when a depth limit
    /// is active). Cost is a function of the set alone, so a revisit —
    /// the same set reached by another insertion order — can never
    /// improve on the first visit and is skipped.
    memo: BTreeSet<Vec<i64>>,
    best_cost: usize,
    best: Option<Vec<Recipe>>,
    nodes: usize,
    node_budget: usize,
}

impl<'a> Search<'a> {
    fn new(
        problem: &'a McmProblem,
        depth_limit: Option<u32>,
        state: State,
        best_cost: usize,
        node_budget: usize,
    ) -> Self {
        Search {
            problem,
            depth_limit,
            state,
            memo: BTreeSet::new(),
            best_cost,
            best: None,
            nodes: 0,
            node_budget,
        }
    }

    fn depth_ok(&self, d: u32) -> bool {
        self.depth_limit.is_none_or(|lim| d <= lim)
    }

    /// Minimum-depth distance-1 recipe for target `t` using only pairs
    /// that involve the fundamental at index `vi` — the incremental
    /// check used by [`Search::close_from`]. Forms (with `v = fund[vi]`,
    /// `f` ranging over the whole set): `t = v·2^s ± f`, `t = f ± v·2^s`,
    /// and `t = f·2^s ± v` — each has at most one valid shift because
    /// fundamentals are odd.
    fn dist1_via(&self, t: i64, vi: usize) -> Option<Recipe> {
        let v = self.state.fund[vi];
        let dv = self.state.depths[vi];
        let mut best: Option<(u32, Recipe)> = None;
        let mut consider = |a: i64, da: u32, b: i64, db: u32| {
            // One shifted operand `a`, one plain operand `b`.
            for (diff, add) in [(t - b, true), (t + b, false), (b - t, false)] {
                if diff <= 0 || diff % a != 0 {
                    continue;
                }
                let q = diff / a;
                if q < 2 || (q & (q - 1)) != 0 {
                    continue;
                }
                let s = q.trailing_zeros();
                if s > self.problem.max_shift {
                    continue;
                }
                let d = 1 + da.max(db);
                if !self.depth_ok(d) {
                    continue;
                }
                let r = Recipe {
                    value: t,
                    lhs: a,
                    shift: s,
                    rhs: b,
                    add,
                };
                if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                    best = Some((d, r));
                }
            }
        };
        for (fi, &f) in self.state.fund.iter().enumerate() {
            let df = self.state.depths[fi];
            consider(v, dv, f, df); // v shifted, f plain
            consider(f, df, v, dv); // f shifted, v plain
        }
        best.map(|(_, r)| r)
    }

    /// Closure: repeatedly add any remaining target at A-distance 1.
    /// Precondition: before the most recent push(es) the state was
    /// closed, so only pairs involving fundamentals from index
    /// `from_idx` onward can enable new targets. Returns how many
    /// targets were pushed (for the caller to undo).
    fn close_from(&mut self, from_idx: usize) -> usize {
        let mut pushed = 0;
        let mut next_new = from_idx;
        while next_new < self.state.fund.len() {
            let vi = next_new;
            next_new += 1;
            // Scan remaining ascending; restart the scan for this `vi`
            // after every push so newly enabled targets (via `vi`) are
            // caught; targets enabled via the pushed value itself are
            // caught when its own index is processed.
            loop {
                let mut found = None;
                for &t in &self.state.remaining {
                    if let Some(r) = self.dist1_via(t, vi) {
                        found = Some(r);
                        break;
                    }
                }
                let Some(r) = found else { break };
                self.state.push(r);
                pushed += 1;
            }
        }
        pushed
    }

    fn memo_key(&self) -> Vec<i64> {
        let mut key: Vec<i64> = if self.depth_limit.is_some() {
            // Depths are part of feasibility under a depth limit, so two
            // states only coincide when values *and* depths match.
            self.state
                .fund
                .iter()
                .zip(&self.state.depths)
                .flat_map(|(&v, &d)| [v, i64::from(d)])
                .collect()
        } else {
            self.state.fund.clone()
        };
        key.sort_unstable();
        key
    }

    /// Every A-op successor value of the current set (odd, `3..=limit`,
    /// not already present), each with one deterministic witness recipe,
    /// ordered most-promising first: by how many remaining targets the
    /// candidate would put at distance 1 (descending), then by value.
    fn ordered_successors(&self) -> Vec<Recipe> {
        let limit = self.problem.limit;
        let mut cands: BTreeMap<i64, Recipe> = BTreeMap::new();
        for (ai, &a) in self.state.fund.iter().enumerate() {
            for (bi, &b) in self.state.fund.iter().enumerate() {
                let d = 1 + self.state.depths[ai].max(self.state.depths[bi]);
                if !self.depth_ok(d) {
                    continue;
                }
                for s in 1..=self.problem.max_shift {
                    if a > (i64::MAX >> s) {
                        break;
                    }
                    let hi = a << s;
                    if hi - b > limit {
                        break;
                    }
                    let plus = hi + b;
                    if plus <= limit && !self.state.contains(plus) {
                        cands.entry(plus).or_insert(Recipe {
                            value: plus,
                            lhs: a,
                            shift: s,
                            rhs: b,
                            add: true,
                        });
                    }
                    let minus = (hi - b).abs();
                    if minus >= 3 && minus <= limit && !self.state.contains(minus) {
                        cands.entry(minus).or_insert(Recipe {
                            value: minus,
                            lhs: a,
                            shift: s,
                            rhs: b,
                            add: false,
                        });
                    }
                }
            }
        }
        let benefit = self.candidate_benefits(&cands);
        let mut ordered: Vec<Recipe> = cands.into_values().collect();
        ordered.sort_by_key(|r| {
            (
                std::cmp::Reverse(benefit.get(&r.value).copied().unwrap_or(0)),
                r.value,
            )
        });
        ordered
    }

    /// For each candidate, how many remaining targets it would put at
    /// distance 1. Pure ordering heuristic — completeness never depends
    /// on it. Computed target-first: for each remaining `t` and each
    /// existing `f`, the helper `u` in `t = u·2^s ± f` / `t = f ± u·2^s`
    /// is the odd part of `t ∓ f` (unique), and `t = f·2^s ± u` /
    /// `t = u − f·2^s` enumerate shifts directly; `t = u·(2^s ± 1)`
    /// covers the self-pair.
    fn candidate_benefits(&self, cands: &BTreeMap<i64, Recipe>) -> BTreeMap<i64, u32> {
        let limit = self.problem.limit;
        let mut benefit: BTreeMap<i64, u32> = BTreeMap::new();
        for &t in &self.state.remaining {
            let mut helpers: BTreeSet<i64> = BTreeSet::new();
            for &f in &self.state.fund {
                for diff in [t - f, t + f, f - t] {
                    if diff > 0 && diff % 2 == 0 {
                        helpers.insert(diff >> diff.trailing_zeros());
                    }
                }
                for s in 1..=self.problem.max_shift {
                    if f > (i64::MAX >> s) {
                        break;
                    }
                    let hf = f << s;
                    if hf - t > limit {
                        break;
                    }
                    for u in [t - hf, t + hf, hf - t] {
                        if u > 0 && u <= limit {
                            helpers.insert(u);
                        }
                    }
                }
            }
            for s in 1..=self.problem.max_shift {
                let p = (1i64 << s) + 1;
                if p > t {
                    break;
                }
                if t % p == 0 {
                    helpers.insert(t / p);
                }
                let m = (1i64 << s) - 1;
                if m >= 3 && t % m == 0 {
                    helpers.insert(t / m);
                }
            }
            for u in helpers {
                if cands.contains_key(&u) {
                    *benefit.entry(u).or_insert(0) += 1;
                }
            }
        }
        benefit
    }

    /// One node: close over the most recent push, record or branch,
    /// undo the closure. The caller owns the push that led here.
    fn dfs(&mut self) {
        if self.nodes >= self.node_budget {
            return;
        }
        self.nodes += 1;
        let newest = self.state.fund.len() - 1;
        let closed = self.close_from(newest);
        self.expand();
        for _ in 0..closed {
            self.state.pop(&self.problem.targets);
        }
    }

    fn expand(&mut self) {
        if self.state.remaining.is_empty() {
            let cost = self.state.recipes.len();
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best = Some(self.state.recipes.clone());
            }
            return;
        }
        // Admissible bound: each remaining target costs one adder, and —
        // closure having stalled — any completion also needs at least
        // one non-target intermediate.
        if self.state.recipes.len() + self.state.remaining.len() + 1 >= self.best_cost {
            return;
        }
        if !self.memo.insert(self.memo_key()) {
            return;
        }
        for r in self.ordered_successors() {
            self.state.push(r);
            self.dfs();
            self.state.pop(&self.problem.targets);
            if self.nodes >= self.node_budget {
                return;
            }
            if self.state.recipes.len() + self.state.remaining.len() + 1 >= self.best_cost {
                return;
            }
        }
    }
}

/// Result of one shard: the subtree under one forced root-level
/// candidate, explored with a deterministic node quota and a bound
/// frozen at the shard's round start.
struct ShardResult {
    best: Option<(usize, Vec<Recipe>)>,
    nodes: usize,
    exhausted: bool,
}

fn explore_shard(
    problem: &McmProblem,
    depth_limit: Option<u32>,
    root: &State,
    forced: Recipe,
    round_bound: usize,
    quota: usize,
) -> ShardResult {
    let mut search = Search::new(problem, depth_limit, root.clone(), round_bound, quota);
    search.state.push(forced);
    search.dfs();
    ShardResult {
        best: search.best.map(|b| (search.best_cost, b)),
        nodes: search.nodes,
        exhausted: search.nodes >= search.node_budget,
    }
}

/// Drops recipes no output depends on: walk backwards from the targets,
/// keeping a recipe only if its value is needed, and marking its
/// operands needed in turn. A solution can carry a speculative branch
/// fundamental that the eventual completion never used; pruning it only
/// shrinks the cost, and a complete search's optimum prunes to itself.
fn prune_recipes(recipes: &[Recipe], targets: &[i64]) -> Vec<Recipe> {
    let mut needed: BTreeSet<i64> = targets.iter().copied().collect();
    let mut keep = vec![false; recipes.len()];
    for (i, r) in recipes.iter().enumerate().rev() {
        if needed.contains(&r.value) {
            keep[i] = true;
            needed.insert(r.lhs);
            needed.insert(r.rhs);
        }
    }
    recipes
        .iter()
        .zip(keep)
        .filter_map(|(r, k)| k.then_some(*r))
        .collect()
}

/// Solves the MCM instance with the default scoped-thread executor.
/// See [`solve_mcm_with`] for the full contract.
pub fn solve_mcm(problem: &McmProblem, config: &McmConfig) -> McmOutcome {
    solve_mcm_with(problem, config, &ScopedExecutor)
}

/// Solves the MCM instance: deterministic sharded branch-and-bound with
/// a global node budget.
///
/// The root-level A-op candidates become shards, run in rounds of
/// four on `executor`. The shared best-so-far bound is
/// tightened (`fetch_min`) by every finished shard but read only at
/// round starts, node quotas are carved deterministically out of the
/// remaining budget (`remaining / shards_left`, unused quota flowing
/// back), and the reduction takes the first shard in branch order
/// holding the minimum cost — so the outcome is *identical for any
/// worker count*, including 1.
///
/// With [`McmConfig::incumbent`] set, only strictly better solutions are
/// reported; `solution: None` means the incumbent stands. A
/// budget-exhausted run keeps the best-so-far (or the incumbent), so the
/// reported cost never regresses as the budget shrinks below what a
/// complete search needs.
pub fn solve_mcm_with(
    problem: &McmProblem,
    config: &McmConfig,
    executor: &dyn ShardExecutor,
) -> McmOutcome {
    let _span = mrp_obs::span("exact.mcm");
    let workers = config.workers.max(1);
    let node_cap = config.node_cap.max(1);
    let incumbent = config.incumbent.unwrap_or(usize::MAX);

    if problem.targets.is_empty() {
        return McmOutcome {
            solution: Some(McmSolution {
                recipes: Vec::new(),
                cost: 0,
            }),
            lower_bound: 0,
            nodes_expanded: 0,
            budget_exhausted: false,
            proven_optimal: true,
        };
    }

    // Root node: closure from the bare input.
    let mut root_search = Search::new(
        problem,
        config.depth_limit,
        State::new(problem),
        usize::MAX,
        usize::MAX,
    );
    root_search.close_from(0);
    let root_state = root_search.state.clone();

    let csd_floor = problem
        .targets
        .iter()
        .map(|&t| csd_cost_floor(t))
        .max()
        .unwrap_or(0);
    let count_floor = problem.targets.len() + usize::from(!root_state.remaining.is_empty());
    let lower_bound = csd_floor.max(count_floor);

    if root_state.remaining.is_empty() {
        // Closure alone covered every target, one adder each — the
        // unconditional floor, so this is optimal.
        mrp_obs::counter_add("exact.mcm.nodes", 1);
        let recipes = prune_recipes(&root_state.recipes, &problem.targets);
        let cost = recipes.len();
        return McmOutcome {
            // Strict-improvement contract: a standing incumbent at (or
            // below) this cost is reported as `None`.
            solution: (cost < incumbent).then_some(McmSolution { recipes, cost }),
            lower_bound: cost,
            nodes_expanded: 1,
            budget_exhausted: false,
            proven_optimal: true,
        };
    }

    if incumbent <= lower_bound {
        // The greedy incumbent already meets the admissible bound; no
        // search can improve on it.
        mrp_obs::counter_add("exact.mcm.nodes", 1);
        return McmOutcome {
            solution: None,
            lower_bound,
            nodes_expanded: 1,
            budget_exhausted: false,
            proven_optimal: true,
        };
    }

    let shard_cands: Arc<Vec<Recipe>> = Arc::new(root_search.ordered_successors());
    mrp_obs::counter_add("exact.mcm.shards", shard_cands.len() as u64);
    if shard_cands.is_empty() {
        // No constructible successor within the value/depth caps (only
        // reachable with extreme caps); report the incumbent standing
        // without claiming optimality.
        mrp_obs::counter_add("exact.mcm.nodes", 1);
        return McmOutcome {
            solution: None,
            lower_bound,
            nodes_expanded: 1,
            budget_exhausted: false,
            proven_optimal: false,
        };
    }

    let problem = Arc::new(problem.clone());
    let root_state = Arc::new(root_state);
    let bound = Arc::new(AtomicUsize::new(incumbent));
    let depth_limit = config.depth_limit;
    let mut results: Vec<Option<ShardResult>> = Vec::new();
    results.resize_with(shard_cands.len(), || None);
    let mut remaining_budget = node_cap - 1; // root node spent
    let mut next = 0usize;
    while next < shard_cands.len() {
        let round: Arc<Vec<usize>> =
            Arc::new((next..shard_cands.len().min(next + SHARD_ROUND)).collect());
        let shards_left = shard_cands.len() - next;
        let deadline_passed = config.deadline.is_some_and(|d| Instant::now() >= d);
        let quota = if deadline_passed {
            0
        } else {
            remaining_budget / shards_left
        };
        let round_bound = bound.load(Ordering::SeqCst);
        let cursor = Arc::new(AtomicUsize::new(0));
        let slots: Arc<Vec<Mutex<Option<ShardResult>>>> =
            Arc::new(round.iter().map(|_| Mutex::new(None)).collect());
        let job = {
            let problem = Arc::clone(&problem);
            let root_state = Arc::clone(&root_state);
            let bound = Arc::clone(&bound);
            let cursor = Arc::clone(&cursor);
            let slots = Arc::clone(&slots);
            let round = Arc::clone(&round);
            let shard_cands = Arc::clone(&shard_cands);
            Arc::new(move || loop {
                let pos = cursor.fetch_add(1, Ordering::SeqCst);
                if pos >= round.len() {
                    break;
                }
                let forced = shard_cands[round[pos]];
                let result = explore_shard(
                    &problem,
                    depth_limit,
                    &root_state,
                    forced,
                    round_bound,
                    quota,
                );
                if let Some((cost, _)) = &result.best {
                    bound.fetch_min(*cost, Ordering::SeqCst);
                }
                *slots[pos].lock().unwrap() = Some(result);
            })
        };
        executor.run(workers.min(round.len()), job);
        for (pos, &shard_idx) in round.iter().enumerate() {
            let result = slots[pos]
                .lock()
                .unwrap()
                .take()
                .expect("every shard in the round ran");
            remaining_budget = remaining_budget.saturating_sub(result.nodes);
            results[shard_idx] = Some(result);
        }
        next += round.len();
    }

    // Deterministic reduction: the first shard (in branch order) holding
    // the minimum cost wins; cross-round ties were already pruned by the
    // published bound.
    let mut best: Option<(usize, Vec<Recipe>)> = None;
    let mut nodes = 1usize; // root
    let mut exhausted = false;
    for result in results.into_iter().flatten() {
        nodes += result.nodes;
        exhausted |= result.exhausted;
        if let Some((cost, recipes)) = result.best {
            if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                best = Some((cost, recipes));
            }
        }
    }
    mrp_obs::counter_add("exact.mcm.nodes", nodes as u64);
    if exhausted {
        mrp_obs::instant("exact.mcm.budget_exhausted");
    }
    let solution = best.map(|(_, recipes)| {
        let recipes = prune_recipes(&recipes, &problem.targets);
        let cost = recipes.len();
        McmSolution { recipes, cost }
    });
    let best_cost = solution.as_ref().map(|s| s.cost).unwrap_or(incumbent);
    let proven_optimal = best_cost != usize::MAX && (!exhausted || best_cost <= lower_bound);
    McmOutcome {
        solution,
        lower_bound,
        nodes_expanded: nodes,
        budget_exhausted: exhausted,
        proven_optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_targets(targets: &[i64], config: &McmConfig) -> McmOutcome {
        solve_mcm(&McmProblem::from_targets(targets), config)
    }

    fn recipes_cover(out: &McmOutcome, targets: &[i64]) {
        let sol = out.solution.as_ref().expect("solution expected");
        let mut have: BTreeSet<i64> = BTreeSet::new();
        have.insert(1);
        for r in &sol.recipes {
            assert!(have.contains(&r.lhs), "{r:?} lhs not yet built");
            assert!(have.contains(&r.rhs), "{r:?} rhs not yet built");
            assert_eq!(r.computed(), r.value, "{r:?}");
            assert!(r.value % 2 == 1 && r.value > 1, "{r:?}");
            assert!(r.shift >= 1, "{r:?}");
            have.insert(r.value);
        }
        for &t in targets {
            assert!(have.contains(&t), "target {t} not covered");
        }
        assert_eq!(sol.cost, sol.recipes.len());
    }

    #[test]
    fn trivial_instances_cost_zero() {
        for targets in [&[] as &[i64], &[0, 1, 2, 64], &[-8, 16]] {
            let out = solve_targets(targets, &McmConfig::default());
            assert_eq!(out.solution.as_ref().unwrap().cost, 0, "{targets:?}");
            assert!(out.proven_optimal);
        }
    }

    #[test]
    fn cost_one_constants_solve_exactly() {
        for c in [3i64, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 255] {
            let out = solve_targets(&[c], &McmConfig::default());
            assert_eq!(out.solution.as_ref().unwrap().cost, 1, "{c}");
            assert!(out.proven_optimal, "{c}");
            recipes_cover(&out, &[c]);
        }
    }

    #[test]
    fn cost_two_constants_solve_exactly() {
        // Constants with published minimal SCM cost 2 (Kumm benchmark
        // families / standard MCM tables).
        for c in [11i64, 13, 19, 21, 23, 25, 27, 45, 51, 85, 93, 99, 105] {
            let out = solve_targets(&[c], &McmConfig::default());
            assert_eq!(out.solution.as_ref().unwrap().cost, 2, "{c}");
            assert!(out.proven_optimal, "{c}");
            recipes_cover(&out, &[c]);
        }
    }

    #[test]
    fn agrees_with_the_scm_oracle_on_every_odd_byte() {
        // `optimal_scm_cost` is exact for costs 0..=2 and returns 3 for
        // "3 or more".
        for c in (3i64..=255).step_by(2) {
            let problem = McmProblem::from_targets(&[c]);
            let oracle = mrp_numrep::optimal_scm_cost(c, problem.max_shift()) as usize;
            let out = solve_mcm(&problem, &McmConfig::default());
            let cost = out.solution.as_ref().unwrap().cost;
            assert!(out.proven_optimal, "{c}");
            if oracle <= 2 {
                assert_eq!(cost, oracle, "{c}");
            } else {
                assert!(cost >= 3, "{c}: cost {cost}");
            }
        }
    }

    #[test]
    fn shared_subexpressions_beat_per_constant_synthesis() {
        // 43 and 45 are each cost 2 alone, but the pair shares an
        // intermediate, so the exact MCM cost is at most 3 — and the
        // count floor makes 2 impossible with distance > 1, so 3 is
        // optimal if found.
        let out = solve_targets(&[43, 45], &McmConfig::default());
        let cost = out.solution.as_ref().unwrap().cost;
        assert!(cost <= 3, "cost {cost}");
        assert!(out.proven_optimal);
        recipes_cover(&out, &[43, 45]);
    }

    #[test]
    fn paper_example_is_solved_and_verified() {
        let problem = McmProblem::from_coeffs(&[70, 66, 17, 9, 27, 41, 56, 11]).unwrap();
        let out = solve_mcm(&problem, &McmConfig::default());
        let sol = out.solution.as_ref().expect("finds a solution unseeded");
        assert!(sol.cost >= problem.targets().len());
        recipes_cover(&out, problem.targets());
    }

    #[test]
    fn outcome_is_identical_for_every_worker_count() {
        let cases: Vec<Vec<i64>> = vec![
            vec![45],
            vec![43, 45],
            vec![70, 66, 17, 9, 27, 41, 56, 11],
            vec![123, 205, 319, 473],
        ];
        for coeffs in cases {
            for node_cap in [50usize, DEFAULT_MCM_NODE_BUDGET] {
                let problem = McmProblem::from_targets(&coeffs);
                let base = solve_mcm(
                    &problem,
                    &McmConfig {
                        node_cap,
                        workers: 1,
                        ..McmConfig::default()
                    },
                );
                for workers in [2usize, 8] {
                    let other = solve_mcm(
                        &problem,
                        &McmConfig {
                            node_cap,
                            workers,
                            ..McmConfig::default()
                        },
                    );
                    assert_eq!(base, other, "{coeffs:?} cap {node_cap} x{workers}");
                    // Byte-identical, not merely equal.
                    assert_eq!(
                        format!("{base:?}"),
                        format!("{other:?}"),
                        "{coeffs:?} cap {node_cap} x{workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhausted_budget_never_regresses_below_the_incumbent() {
        let targets = [123i64, 205, 319, 473, 89, 333];
        let incumbent = 11usize;
        for node_cap in [1usize, 2, 5, 20, 100] {
            let out = solve_targets(
                &targets,
                &McmConfig {
                    node_cap,
                    incumbent: Some(incumbent),
                    ..McmConfig::default()
                },
            );
            assert!(out.nodes_expanded <= node_cap.max(1), "cap {node_cap}");
            if let Some(sol) = &out.solution {
                assert!(sol.cost < incumbent, "cap {node_cap}: {}", sol.cost);
                recipes_cover(&out, &targets);
            }
        }
    }

    #[test]
    fn incumbent_at_the_bound_short_circuits() {
        // Two cost-1 targets: greedy at 2 already meets the floor.
        let out = solve_targets(
            &[3, 5],
            &McmConfig {
                incumbent: Some(2),
                ..McmConfig::default()
            },
        );
        assert!(out.solution.is_none());
        assert!(out.proven_optimal);
        assert_eq!(out.lower_bound, 2);
        assert_eq!(out.nodes_expanded, 1);
    }

    #[test]
    fn expired_deadline_reports_exhaustion_but_keeps_the_incumbent() {
        let out = solve_targets(
            &[123, 205, 319],
            &McmConfig {
                incumbent: Some(9),
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..McmConfig::default()
            },
        );
        assert!(out.budget_exhausted);
        assert!(!out.proven_optimal);
        assert!(out.solution.is_none() || out.solution.as_ref().unwrap().cost < 9);
    }

    #[test]
    fn depth_limit_is_respected() {
        // 45 at depth ≤ 2 still costs 2 (9·5 is depth 2); the recipes'
        // implied depths must respect the cap.
        let problem = McmProblem::from_targets(&[45]);
        let out = solve_mcm(
            &problem,
            &McmConfig {
                depth_limit: Some(2),
                ..McmConfig::default()
            },
        );
        let sol = out.solution.as_ref().unwrap();
        assert_eq!(sol.cost, 2);
        let mut depth: BTreeMap<i64, u32> = BTreeMap::new();
        depth.insert(1, 0);
        for r in &sol.recipes {
            let d = 1 + depth[&r.lhs].max(depth[&r.rhs]);
            assert!(d <= 2, "{r:?} at depth {d}");
            depth.insert(r.value, d);
        }
    }

    #[test]
    fn prune_drops_unused_speculative_fundamentals() {
        let used = Recipe {
            value: 3,
            lhs: 1,
            shift: 1,
            rhs: 1,
            add: true,
        };
        let junk = Recipe {
            value: 7,
            lhs: 1,
            shift: 3,
            rhs: 1,
            add: false,
        };
        let pruned = prune_recipes(&[junk, used], &[3]);
        assert_eq!(pruned, vec![used]);
        // A chain keeps its operands.
        let chain = Recipe {
            value: 11,
            lhs: 3,
            shift: 2,
            rhs: 1,
            add: false,
        };
        let pruned = prune_recipes(&[used, junk, chain], &[11]);
        assert_eq!(pruned, vec![used, chain]);
    }

    #[test]
    fn lower_bound_is_admissible() {
        for targets in [&[45i64] as &[i64], &[11, 13], &[3, 5, 7], &[683]] {
            let out = solve_targets(targets, &McmConfig::default());
            let cost = out.solution.as_ref().unwrap().cost;
            assert!(
                out.lower_bound <= cost,
                "{targets:?}: lb {} > cost {cost}",
                out.lower_bound
            );
        }
    }
}
