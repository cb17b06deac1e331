//! The cross-round incremental search engine.
//!
//! MARIOH's outer loop (Algorithm 1) decays θ a little every round, so a
//! run is dozens-to-hundreds of bidirectional-search rounds over a graph
//! that *shrinks only where cliques were committed*. The pre-engine code
//! re-froze the whole graph, re-ran Bron–Kerbosch over every vertex,
//! rebuilt the MHH memo and re-scored every maximal clique each round —
//! even though a commit only touches the committed clique's vertices and
//! scores are θ-independent. [`SearchEngine`] lives across rounds and
//! recomputes only what a round's commits could have changed.
//!
//! # The dirty-closure invariant
//!
//! A commit decrements exactly the edges *inside* the committed clique
//! `C`, so between two consecutive freezes the changed edges all have
//! both endpoints in `C`. Three progressively wider vertex sets bound
//! what can differ, and each engine structure is invalidated by the
//! narrowest set that is sound for it:
//!
//! * **Removed set `De`** — endpoints of edges whose weight reached zero.
//!   Only *removals* change the graph's topology, and every maximal
//!   clique that appears or dies contains a vertex of `De` (a dying
//!   clique contains a removed edge, i.e. both its endpoints; a newly
//!   maximal clique was previously extendable by some `w`, and the edge
//!   that broke inside `Q ∪ {w}` has an endpoint in `Q`). Cliques
//!   disjoint from `De` are carried over; the `De`-region is re-enumerated
//!   with a region-restricted Bron–Kerbosch.
//! * **Changed set `C ⊇ De`** — endpoints of any weight change. `MHH(u,v)`
//!   reads only edges incident to `u` or `v`, so exactly the memo entries
//!   incident to `C` are re-derived ([`MhhCache::patch`]).
//! * **Dirty closure `C ∪ N(C)`** — `C` plus its neighbours. Clique
//!   *scores* read features up to the 2-hop neighbourhood: weighted
//!   degrees, pair weights and MHH reach only edges incident to the
//!   clique (covered by `C`), but the square-motif features of
//!   [`crate::FeatureMode::Motif`] count paths `u–a–b–v` through the edge
//!   `(a, b)` *between* neighbours — a changed `(a, b)` perturbs cliques
//!   containing a neighbour of `a` or `b`. Hence neighbours of committed
//!   vertices are invalidated too, and only cliques disjoint from the
//!   closure keep their carried score (and only within the radius the
//!   scorer declares via [`CliqueScorer::score_locality`]).
//!
//! Because every carried quantity is either an exact integer (MHH,
//! weights, degrees) or the output of a pure function re-run on
//! bit-identical inputs (MLP scores), the engine is **bit-identical** to
//! the rebuild-every-round path — same cliques, same scores, same commit
//! order, same Phase-2 RNG consumption — for every seed, thread count and
//! variant. A parity suite (`tests/engine_parity.rs`) enforces this.
//!
//! The engine owns the working graph for the whole run: it moves in at
//! construction and back out through [`SearchEngine::into_graph`], so
//! nothing but the engine's own commits can change it. The CSR view is
//! therefore frozen once, on the first round, and every commit patches
//! it in step with the graph.
//!
//! Thread fan-out goes through one persistent [`WorkerPool`] created
//! lazily per engine (so per run), replacing the per-round thread spawns
//! that made small rounds slower at 2/4 threads than at 1.

use crate::error::MariohError;
use crate::mhh::MhhCache;
use crate::model::{CliqueScorer, ScoreLocality};
use crate::parallel::{score_cliques_pool, score_work, SCORE_PARALLEL_MIN_WORK};
use crate::progress::CancelToken;
use crate::round::RoundContext;
use crate::search::SearchStats;
use marioh_hypergraph::clique::sample_k_subset;
use marioh_hypergraph::parallel::{
    enumeration_parallel_worthwhile, maximal_cliques_ranked, maximal_cliques_ranked_pool,
    maximal_cliques_region_ranked, maximal_cliques_region_ranked_pool, ordering,
    ENUM_PARALLEL_MIN_EDGES,
};
use marioh_hypergraph::{GraphView, Hyperedge, Hypergraph, NodeId, ProjectedGraph, WorkerPool};
use rand::Rng;
use std::sync::OnceLock;
use std::time::Instant;

/// A vertex set with O(1) membership and O(|set|) clearing: a flag
/// array plus the list of marked vertices.
#[derive(Debug, Default)]
struct FlagSet {
    flag: Vec<bool>,
    list: Vec<NodeId>,
}

impl FlagSet {
    fn reset(&mut self, n: usize) {
        self.clear();
        if self.flag.len() != n {
            self.flag.clear();
            self.flag.resize(n, false);
        }
    }

    #[inline]
    fn mark(&mut self, u: NodeId) {
        if !self.flag[u.index()] {
            self.flag[u.index()] = true;
            self.list.push(u);
        }
    }

    fn clear(&mut self) {
        for u in self.list.drain(..) {
            self.flag[u.index()] = false;
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A run-long bidirectional-search engine: owns the working graph and
/// executes rounds of Algorithm 3 against it, maintaining the CSR view,
/// the MHH memo, and the previous round's maximal cliques and scores
/// incrementally across rounds (see the [module docs](self) for the
/// invalidation rules).
///
/// One engine serves one `(graph, scorer)` run. The graph moves in at
/// construction and out through [`Self::into_graph`], and only the
/// engine's own commits mutate it, so the CSR view is patched on every
/// commit and never has to be re-frozen. Feed every round the same
/// scorer: a swapped scorer between rounds would silently reuse the old
/// scorer's carried scores.
///
/// [`crate::search::bidirectional_search_threaded`] wraps a fresh engine
/// around a single round (exactly the pre-engine behaviour);
/// [`crate::reconstruct::reconstruct_observed`] keeps one engine for the
/// whole outer loop.
pub struct SearchEngine {
    /// The working graph, decremented by every commit.
    g: ProjectedGraph,
    threads: usize,
    incremental: bool,
    /// Pin pool workers to cores when the pool is first created.
    pin_cores: bool,
    /// Created on first parallel-eligible stage; persists for the run.
    pool: OnceLock<WorkerPool>,
    /// CSR view of `g`, frozen on the first round (every round in
    /// full-rebuild mode) and patched in step with every commit.
    view: Option<GraphView>,
    /// Cached degeneracy ordering and its inverse. Any permutation keeps
    /// enumeration *correct* (emission roots at the min-rank member;
    /// output is sorted); only its efficiency degrades as the graph
    /// shrinks, so it is recomputed when the edge count has halved.
    order: Vec<NodeId>,
    rank: Vec<u32>,
    edges_at_order: usize,
    /// MHH memo patched for changed-incident edges; `None` until a
    /// scorer first requests MHH (then kept for the rest of the run).
    mhh: Option<MhhCache>,
    /// The previous round's maximal cliques (sorted) and their scores.
    prev_cliques: Vec<Vec<NodeId>>,
    prev_scores: Vec<f64>,
    has_prev: bool,
    /// `C`: endpoints of weight changes since the last snapshot.
    changed: FlagSet,
    /// `De ⊆ C`: endpoints of removed edges since the last snapshot.
    removed: FlagSet,
    /// `C` since the last MHH sync (consumed before each scoring pass).
    mhh_stale: FlagSet,
    /// Scratch: the dirty closure `C ∪ N(C)` of the current update.
    closure: FlagSet,
}

impl SearchEngine {
    /// A fresh incremental engine over the working graph `g`, fanning
    /// out over up to `threads` threads (1 = fully serial; results are
    /// identical either way).
    pub fn new(g: ProjectedGraph, threads: usize) -> SearchEngine {
        SearchEngine::with_mode(g, threads, true)
    }

    /// An engine that re-freezes and re-enumerates everything every
    /// round — the pre-engine behaviour, kept for benchmarking and for
    /// the bit-parity suite. Still uses the persistent worker pool.
    pub fn full_rebuild(g: ProjectedGraph, threads: usize) -> SearchEngine {
        SearchEngine::with_mode(g, threads, false)
    }

    fn with_mode(g: ProjectedGraph, threads: usize, incremental: bool) -> SearchEngine {
        SearchEngine {
            g,
            threads: threads.max(1),
            incremental,
            pin_cores: false,
            pool: OnceLock::new(),
            view: None,
            order: Vec::new(),
            rank: Vec::new(),
            edges_at_order: 0,
            mhh: None,
            prev_cliques: Vec::new(),
            prev_scores: Vec::new(),
            has_prev: false,
            changed: FlagSet::default(),
            removed: FlagSet::default(),
            mhh_stale: FlagSet::default(),
            closure: FlagSet::default(),
        }
    }

    /// The working graph: the input minus every commit so far.
    pub fn graph(&self) -> &ProjectedGraph {
        &self.g
    }

    /// Ends the run, handing back the working graph.
    pub fn into_graph(self) -> ProjectedGraph {
        self.g
    }

    /// Whether this engine carries state across rounds.
    pub fn is_incremental(&self) -> bool {
        self.incremental
    }

    /// The engine's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Requests CPU pinning for the worker pool (effective only before
    /// the pool's lazy creation, i.e. before the first round). A
    /// scheduling hint: results are bit-identical either way.
    pub fn set_pin_cores(&mut self, pin: bool) {
        self.pin_cores = pin;
    }

    fn pool(&self) -> &WorkerPool {
        self.pool
            .get_or_init(|| WorkerPool::with_affinity(self.threads, self.pin_cores))
    }

    /// Runs one bidirectional-search round (Algorithm 3) against the
    /// working graph, committing into `reconstruction`. Semantics,
    /// statistics, commit order and RNG consumption are identical to the
    /// historical rebuild-every-round implementation.
    ///
    /// # Errors
    ///
    /// Returns [`MariohError::Cancelled`] if `cancel` fires at the round
    /// entry or between the two phases; the working graph and
    /// `reconstruction` may then hold partially committed state (callers
    /// owning the run discard both).
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 3's parameter list
    pub fn round<R: Rng + ?Sized>(
        &mut self,
        scorer: &dyn CliqueScorer,
        theta: f64,
        neg_ratio: f64,
        reconstruction: &mut Hypergraph,
        phase2: bool,
        cancel: &CancelToken,
        rng: &mut R,
    ) -> Result<SearchStats, MariohError> {
        if cancel.is_cancelled() {
            return Err(MariohError::Cancelled);
        }
        let t0 = Instant::now();
        let mut stats = SearchStats::default();

        self.sync_view();
        let (cliques, scores) = self.cliques_and_scores(scorer, &mut stats);
        stats.cliques_enumerated = cliques.len();
        if cliques.is_empty() {
            self.store_prev(cliques, scores);
            stats.round_ms = elapsed_ms(t0);
            return Ok(stats);
        }

        // Partition: positives (score > θ) descending, rest ascending —
        // index-based, with the clique itself as the deterministic
        // tie-break (scores can collide).
        let mut positives: Vec<(f64, usize)> = Vec::new();
        let mut negatives: Vec<(f64, usize)> = Vec::new();
        for (i, &s) in scores.iter().enumerate() {
            if s > theta {
                positives.push((s, i));
            } else {
                negatives.push((s, i));
            }
        }
        positives.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("NaN score")
                .then_with(|| cliques[a.1].cmp(&cliques[b.1]))
        });

        // --- Phase 1: most promising cliques ---
        {
            let _span = marioh_obs::Span::enter("commit");
            for &(_, i) in &positives {
                if self.try_commit(&cliques[i], reconstruction) {
                    stats.committed_phase1 += 1;
                }
            }
        }

        if !phase2 {
            self.store_prev(cliques, scores);
            stats.round_ms = elapsed_ms(t0);
            return Ok(stats);
        }
        if cancel.is_cancelled() {
            return Err(MariohError::Cancelled);
        }

        // --- Phase 2: least promising cliques ---
        negatives.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("NaN score")
                .then_with(|| cliques[a.1].cmp(&cliques[b.1]))
        });
        let take = ((neg_ratio / 100.0) * negatives.len() as f64).ceil() as usize;
        // Sample first (sequential: the RNG stream must not depend on
        // thread count), then score the surviving candidates as one batch.
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        for &(_, i) in negatives.iter().take(take) {
            let clique = &cliques[i];
            // One random k-subset per size k ∈ {2, …, |Q|−1}.
            for k in 2..clique.len() {
                let sub = sample_k_subset(rng, clique, k);
                stats.subcliques_sampled += 1;
                if self.g.is_clique(&sub) {
                    candidates.push(sub);
                }
                // else: an earlier commit removed one of its edges
            }
        }
        // Phase-1 commits mutated the graph; the engine's view was
        // patched in step, so the sub-clique pass scores against the
        // same frozen state a fresh freeze would produce.
        let sub_scores = if candidates.is_empty() {
            Vec::new()
        } else {
            self.score_pass(scorer, &candidates)
        };
        let mut sub_scored: Vec<(f64, Vec<NodeId>)> = sub_scores
            .into_iter()
            .zip(candidates)
            .filter(|&(s, _)| s > theta)
            .collect();
        sub_scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("NaN score")
                .then(a.1.cmp(&b.1))
        });
        {
            let _span = marioh_obs::Span::enter("commit");
            for (_, sub) in &sub_scored {
                if self.try_commit(sub, reconstruction) {
                    stats.committed_phase2 += 1;
                }
            }
        }
        self.store_prev(cliques, scores);
        stats.round_ms = elapsed_ms(t0);
        Ok(stats)
    }

    /// Ensures the engine's view mirrors `g` at a round boundary. Every
    /// commit patches the view, so only the first round (every round in
    /// full-rebuild mode) freezes it, dropping all carried state.
    fn sync_view(&mut self) {
        if self.incremental {
            if let Some(v) = self.view.as_ref() {
                #[cfg(debug_assertions)]
                for u in (0..self.g.num_nodes()).map(NodeId) {
                    debug_assert_eq!(v.degree(u), self.g.degree(u), "view out of sync at {u}");
                    debug_assert_eq!(v.weighted_degree(u), self.g.weighted_degree(u));
                }
                debug_assert_eq!(v.num_edges(), self.g.num_edges());
                debug_assert_eq!(v.total_weight(), self.g.total_weight());
                return;
            }
        }
        let n = self.g.num_nodes() as usize;
        let view = GraphView::freeze(&self.g);
        let (order, rank) = ordering(&view);
        self.edges_at_order = view.num_edges();
        self.order = order;
        self.rank = rank;
        self.view = Some(view);
        // The memo is slot-indexed, i.e. layout-bound to the old view.
        self.mhh = None;
        self.prev_cliques = Vec::new();
        self.prev_scores = Vec::new();
        self.has_prev = false;
        self.changed.reset(n);
        self.removed.reset(n);
        self.mhh_stale.reset(n);
        self.closure.reset(n);
    }

    /// Refreshes the cached degeneracy ordering once the graph has shed
    /// a quarter of its edges since the last one — staleness costs only
    /// BK efficiency, never correctness, so the policy is purely a
    /// perf/amortisation trade-off (and deterministic).
    fn refresh_order(&mut self) {
        let view = self.view.as_ref().expect("view synced");
        if view.num_edges() * 4 < self.edges_at_order * 3 {
            let (order, rank) = ordering(view);
            self.order = order;
            self.rank = rank;
            self.edges_at_order = view.num_edges();
        }
    }

    /// Produces this round's maximal cliques (sorted, exactly the full
    /// enumeration's output) and their scores, incrementally when
    /// possible. Consumes the dirty sets accumulated since the previous
    /// round's snapshot.
    fn cliques_and_scores(
        &mut self,
        scorer: &dyn CliqueScorer,
        stats: &mut SearchStats,
    ) -> (Vec<Vec<NodeId>>, Vec<f64>) {
        let use_prev = self.incremental && self.has_prev;
        self.has_prev = false;
        let prev_cliques = std::mem::take(&mut self.prev_cliques);
        let prev_scores = std::mem::take(&mut self.prev_scores);

        if !use_prev {
            self.changed.clear();
            self.removed.clear();
            let view = self.view.as_ref().expect("view synced");
            let cliques = {
                let _span = marioh_obs::Span::enter("enumeration");
                if self.threads > 1 && enumeration_parallel_worthwhile(view) {
                    maximal_cliques_ranked_pool(view, &self.order, &self.rank, self.pool())
                } else {
                    maximal_cliques_ranked(view, &self.order, &self.rank)
                }
            };
            let scores = self.score_pass(scorer, &cliques);
            stats.cliques_rescored = cliques.len();
            return (cliques, scores);
        }

        self.refresh_order();

        // 1) The dirty closure bounds which carried scores are stale:
        //    `C` for 1-hop scorers, `C ∪ N(C)` for 2-hop ones (square
        //    motifs read edges among neighbours), nothing reusable for
        //    global scorers.
        let locality = scorer.score_locality();
        let reuse = locality != ScoreLocality::Global;
        self.closure.clear();
        if reuse {
            let view = self.view.as_ref().expect("view synced");
            for i in 0..self.changed.list.len() {
                let u = self.changed.list[i];
                self.closure.mark(u);
                if locality == ScoreLocality::TwoHop {
                    for &v in view.neighbors(u) {
                        self.closure.mark(NodeId(v));
                    }
                }
            }
        }

        // 2) Produce this round's sorted clique list and carry scores.
        //    Three regimes by how much topology the commits removed:
        //    nothing (carry the whole list), a small region (re-enumerate
        //    only around `De` — every clique that appeared or died
        //    intersects it), or most of the graph (full re-enumeration is
        //    cheaper than region bookkeeping; scores still carry through
        //    a sorted merge-join against the previous list).
        let removed_incident: usize = {
            let view = self.view.as_ref().expect("view synced");
            self.removed.list.iter().map(|&u| view.degree(u)).sum()
        };
        let wide_removal = {
            let view = self.view.as_ref().expect("view synced");
            removed_incident * 2 >= view.num_edges()
        };

        let mut cliques: Vec<Vec<NodeId>>;
        let mut scores: Vec<f64>;
        let mut rescore_idx: Vec<usize> = Vec::new();
        if self.removed.is_empty() {
            // Topology unchanged: the maximal-clique set is exactly the
            // previous one; only closure-dirty scores go stale.
            cliques = prev_cliques;
            scores = prev_scores;
            for (i, clique) in cliques.iter().enumerate() {
                if !reuse || clique.iter().any(|u| self.closure.flag[u.index()]) {
                    rescore_idx.push(i);
                }
            }
        } else if wide_removal {
            // Commits touched most of the graph: enumerate from scratch
            // and merge-join the sorted lists to salvage clean scores.
            // (A graph this churned has usually also tripped
            // `refresh_order`'s quarter-loss rule above, so the full BK
            // runs on a recent degeneracy ordering.)
            let view = self.view.as_ref().expect("view synced");
            cliques = {
                let _span = marioh_obs::Span::enter("enumeration");
                if self.threads > 1 && enumeration_parallel_worthwhile(view) {
                    maximal_cliques_ranked_pool(view, &self.order, &self.rank, self.pool())
                } else {
                    maximal_cliques_ranked(view, &self.order, &self.rank)
                }
            };
            scores = vec![0.0; cliques.len()];
            let mut pi = 0usize;
            for (i, clique) in cliques.iter().enumerate() {
                while pi < prev_cliques.len() && prev_cliques[pi] < *clique {
                    pi += 1;
                }
                let carried = reuse
                    && pi < prev_cliques.len()
                    && prev_cliques[pi] == *clique
                    && !clique.iter().any(|u| self.closure.flag[u.index()]);
                if carried {
                    scores[i] = prev_scores[pi];
                } else {
                    rescore_idx.push(i);
                }
            }
        } else {
            // Localised removal: re-enumerate only the dirty region and
            // splice it into the carried (De-disjoint, still maximal)
            // remainder — the two sorted streams are disjoint, so the
            // merge reproduces the full enumeration's order exactly.
            let new_cliques = {
                let _span = marioh_obs::Span::enter("enumeration");
                let view = self.view.as_ref().expect("view synced");
                if self.threads > 1 && removed_incident >= ENUM_PARALLEL_MIN_EDGES {
                    maximal_cliques_region_ranked_pool(
                        view,
                        &self.rank,
                        &self.removed.list,
                        &self.removed.flag,
                        self.pool(),
                    )
                } else {
                    maximal_cliques_region_ranked(
                        view,
                        &self.rank,
                        &self.removed.list,
                        &self.removed.flag,
                    )
                }
            };
            cliques = Vec::with_capacity(prev_cliques.len() + new_cliques.len());
            scores = Vec::with_capacity(prev_cliques.len() + new_cliques.len());
            let mut new_iter = new_cliques.into_iter().peekable();
            for (clique, score) in prev_cliques.into_iter().zip(prev_scores) {
                if clique.iter().any(|u| self.removed.flag[u.index()]) {
                    continue; // dropped; the region enumeration re-finds survivors
                }
                while new_iter.peek().is_some_and(|n| n < &clique) {
                    let n = new_iter.next().expect("peeked");
                    rescore_idx.push(cliques.len());
                    cliques.push(n);
                    scores.push(0.0);
                }
                debug_assert!(
                    new_iter.peek() != Some(&clique),
                    "carried clique re-enumerated"
                );
                if reuse && !clique.iter().any(|u| self.closure.flag[u.index()]) {
                    scores.push(score);
                } else {
                    rescore_idx.push(cliques.len());
                    scores.push(0.0);
                }
                cliques.push(clique);
            }
            for n in new_iter {
                rescore_idx.push(cliques.len());
                cliques.push(n);
                scores.push(0.0);
            }
        }

        // 3) Re-score stale and new cliques in one batch. Nothing carried
        //    → score the list directly; otherwise the stale cliques are
        //    moved out and back (pointer swaps), never cloned.
        if rescore_idx.len() == cliques.len() {
            scores = self.score_pass(scorer, &cliques);
        } else if !rescore_idx.is_empty() {
            let mut gathered: Vec<Vec<NodeId>> = rescore_idx
                .iter()
                .map(|&i| std::mem::take(&mut cliques[i]))
                .collect();
            let rescored = self.score_pass(scorer, &gathered);
            for (j, &i) in rescore_idx.iter().enumerate() {
                cliques[i] = std::mem::take(&mut gathered[j]);
                scores[i] = rescored[j];
            }
        }
        stats.cliques_rescored = rescore_idx.len();
        stats.cliques_reused = cliques.len() - rescore_idx.len();

        self.changed.clear();
        self.removed.clear();
        (cliques, scores)
    }

    /// Scores one batch against the engine's frozen state, syncing the
    /// MHH memo first and keeping any memo a lazy scorer builds.
    fn score_pass(&mut self, scorer: &dyn CliqueScorer, cliques: &[Vec<NodeId>]) -> Vec<f64> {
        let _span = marioh_obs::Span::enter("scoring");
        self.sync_mhh();
        let parallel = self.threads > 1 && score_work(cliques) >= SCORE_PARALLEL_MIN_WORK;
        if parallel {
            // Make sure the pool exists before the context borrows it.
            self.pool();
        }
        let view = self.view.as_ref().expect("view synced");
        let mut ctx = RoundContext::with_frozen(&self.g, view, self.mhh.as_ref(), self.threads);
        // Lazy MHH builds ride the persistent pool when one exists (it
        // is created lazily by the first parallel-eligible stage — small
        // runs that never fan out keep spawning nothing at all). If the
        // build triggers from *inside* a parallel scoring job, the
        // pool's re-entrancy guard runs it inline on that worker.
        if let Some(pool) = self.pool.get() {
            ctx = ctx.with_pool(pool);
        }
        let scores = if parallel {
            score_cliques_pool(scorer, &ctx, cliques, self.pool())
        } else {
            let mut out = vec![0.0; cliques.len()];
            if !cliques.is_empty() {
                scorer.score_batch(&ctx, cliques, &mut out);
            }
            out
        };
        if let Some(built) = ctx.take_mhh() {
            self.mhh = Some(built);
        }
        scores
    }

    /// Re-derives the MHH memo entries incident to vertices whose
    /// weights changed since the last sync. A no-op until a scorer first
    /// builds the memo.
    fn sync_mhh(&mut self) {
        if self.mhh_stale.is_empty() {
            return;
        }
        if let Some(cache) = self.mhh.as_mut() {
            let _span = marioh_obs::Span::enter("mhh_patch");
            let view = self.view.as_ref().expect("view synced");
            cache.patch(view, &self.mhh_stale.list, &self.mhh_stale.flag);
        }
        self.mhh_stale.clear();
    }

    /// Commits `clique` as a hyperedge if all its edges are still
    /// present: adds one copy to `reconstruction`, decrements every
    /// constituent edge in `g` *and* the engine's view, and records the
    /// dirty vertices. Returns whether the commit happened.
    ///
    /// Single-pass: cliqueness is validated wholly against the CSR view
    /// (kept in step with `g`, so the answer is identical to probing
    /// `g`), after which every decrement is known to succeed — the
    /// mutation pass touches each hash-map entry once and can never need
    /// a rollback.
    fn try_commit(&mut self, clique: &[NodeId], reconstruction: &mut Hypergraph) -> bool {
        let view = self.view.as_mut().expect("view synced");
        if !view.is_clique(clique) {
            return false;
        }
        let e = Hyperedge::new(clique.iter().copied()).expect("clique has >= 2 nodes");
        reconstruction.add_edge(e);
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                let gone = view.decrement_unit(u, v);
                let gone_g = self.g.decrement_unit(u, v);
                debug_assert_eq!(gone, gone_g);
                if gone {
                    self.removed.mark(u);
                    self.removed.mark(v);
                }
            }
        }
        for &u in clique {
            self.changed.mark(u);
            self.mhh_stale.mark(u);
        }
        true
    }

    fn store_prev(&mut self, cliques: Vec<Vec<NodeId>>, scores: Vec<f64>) {
        self.prev_cliques = cliques;
        self.prev_scores = scores;
        self.has_prev = true;
    }
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnScorer;
    use crate::search::bidirectional_search_threaded;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: u32, p: f64) -> ProjectedGraph {
        let mut g = ProjectedGraph::new(n);
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(p) {
                    g.add_edge_weight(NodeId(u), NodeId(v), rng.gen_range(1..4));
                }
            }
        }
        g
    }

    /// A local scorer (pair-weight based), reuse-safe by construction but
    /// declared unsafe via FnScorer's default — so the engine rescans
    /// every clique yet must still match the one-shot path bit for bit.
    fn weight_scorer() -> impl CliqueScorer {
        FnScorer(|g: &ProjectedGraph, c: &[NodeId]| {
            let w: u32 = c
                .iter()
                .enumerate()
                .flat_map(|(i, &u)| c[i + 1..].iter().map(move |&v| g.weight(u, v)))
                .sum();
            f64::from(w) / (1.0 + f64::from(w))
        })
    }

    #[test]
    fn multi_round_engine_matches_fresh_single_rounds() {
        let scorer = weight_scorer();
        let mut seed_rng = StdRng::seed_from_u64(505);
        for case in 0..6 {
            let n = seed_rng.gen_range(8..30u32);
            let proto = random_graph(&mut seed_rng, n, 0.35);
            for threads in [1, 4] {
                // Engine run: one engine across all rounds.
                let mut rec_engine = Hypergraph::new(n);
                let mut rng_engine = StdRng::seed_from_u64(9 + case);
                let mut engine = SearchEngine::new(proto.clone(), threads);
                // Reference run: a fresh one-shot round each time (the
                // historical path).
                let mut g_ref = proto.clone();
                let mut rec_ref = Hypergraph::new(n);
                let mut rng_ref = StdRng::seed_from_u64(9 + case);
                let mut theta = 0.9;
                for round in 0..12 {
                    if g_ref.is_edgeless() {
                        break;
                    }
                    let stats_e = engine
                        .round(
                            &scorer,
                            theta,
                            40.0,
                            &mut rec_engine,
                            true,
                            &CancelToken::new(),
                            &mut rng_engine,
                        )
                        .expect("not cancelled");
                    let stats_r = bidirectional_search_threaded(
                        &mut g_ref,
                        &scorer,
                        theta,
                        40.0,
                        &mut rec_ref,
                        true,
                        threads,
                        &CancelToken::new(),
                        &mut rng_ref,
                    )
                    .expect("not cancelled");
                    assert_eq!(stats_e, stats_r, "round {round} threads {threads}");
                    assert_eq!(
                        engine.graph().sorted_edge_list(),
                        g_ref.sorted_edge_list(),
                        "residual diverged at round {round}"
                    );
                    assert_eq!(rec_engine, rec_ref, "reconstruction diverged at {round}");
                    theta = (theta - 0.09f64).max(0.0);
                }
            }
        }
    }

    #[test]
    fn engine_reuses_cliques_across_rounds() {
        // Two far-apart triangles; committing one leaves the other's
        // clique (and score, for a reuse-safe scorer) untouched.
        let mut g = ProjectedGraph::new(6);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            g.add_edge_weight(NodeId(u), NodeId(v), 1);
        }
        struct LocalScorer;
        impl CliqueScorer for LocalScorer {
            fn score(&self, _: &ProjectedGraph, c: &[NodeId]) -> f64 {
                if c.contains(&NodeId(0)) {
                    0.9
                } else {
                    0.4
                }
            }
            fn score_locality(&self) -> ScoreLocality {
                ScoreLocality::OneHop
            }
        }
        let mut rec = Hypergraph::new(6);
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = SearchEngine::new(g, 1);
        let cancel = CancelToken::new();
        let s1 = engine
            .round(&LocalScorer, 0.5, 0.0, &mut rec, false, &cancel, &mut rng)
            .unwrap();
        assert_eq!(s1.committed_phase1, 1);
        assert_eq!(s1.cliques_rescored, 2, "first round scores everything");
        assert_eq!(s1.cliques_reused, 0);
        // Round 2: {0,1,2} was removed entirely; {3,4,5} is disjoint from
        // the dirty closure, so its clique *and* score are carried.
        let s2 = engine
            .round(&LocalScorer, 0.3, 0.0, &mut rec, false, &cancel, &mut rng)
            .unwrap();
        assert_eq!(s2.cliques_enumerated, 1);
        assert_eq!(s2.cliques_reused, 1);
        assert_eq!(s2.cliques_rescored, 0);
        assert_eq!(s2.committed_phase1, 1);
        assert!(engine.graph().is_edgeless());
    }

    #[test]
    fn full_rebuild_engine_matches_incremental() {
        let scorer = weight_scorer();
        let mut seed_rng = StdRng::seed_from_u64(808);
        for case in 0..4 {
            let n = seed_rng.gen_range(10..25u32);
            let proto = random_graph(&mut seed_rng, n, 0.4);
            let run = |mut engine: SearchEngine| {
                let mut rec = Hypergraph::new(n);
                let mut rng = StdRng::seed_from_u64(77 + case);
                let mut theta = 0.8;
                let mut all = Vec::new();
                for _ in 0..10 {
                    if engine.graph().is_edgeless() {
                        break;
                    }
                    let stats = engine
                        .round(
                            &scorer,
                            theta,
                            30.0,
                            &mut rec,
                            true,
                            &CancelToken::new(),
                            &mut rng,
                        )
                        .unwrap();
                    all.push(stats);
                    theta = (theta - 0.2f64).max(0.0);
                }
                (engine.graph().sorted_edge_list(), rec, all)
            };
            let (g_inc, rec_inc, stats_inc) = run(SearchEngine::new(proto.clone(), 2));
            let (g_full, rec_full, stats_full) = run(SearchEngine::full_rebuild(proto.clone(), 2));
            assert_eq!(g_inc, g_full);
            assert_eq!(rec_inc, rec_full);
            assert_eq!(stats_inc, stats_full, "algorithmic stats must agree");
            // The rebuild engine reuses nothing, by definition.
            assert!(stats_full.iter().all(|s| s.cliques_reused == 0));
        }
    }
}
