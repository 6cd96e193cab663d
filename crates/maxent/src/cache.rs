//! Canonical-form memoization of per-group max-entropy solves.
//!
//! Setup solves one OPT instance per connected correspondence group, per
//! (source, mediated-schema) pair — and across a large corpus most of those
//! instances are *structurally identical*: a source with attributes `{name,
//! phone}` against cluster `{name}` produces the same bipartite shape and
//! weights as hundreds of its siblings. Enumeration and the convex solve
//! depend only on
//!
//! 1. the **equality pattern** of source/target indices (which edges share
//!    an endpoint), and
//! 2. the exact **weight vector**,
//!
//! never on the numeric values of the indices themselves. Relabeling both
//! sides by first appearance therefore yields a canonical key: two groups
//! with equal keys have identical matching structure and identical solved
//! probabilities (the solver is deterministic). [`SolveCache`] exploits that
//! to turn repeated group solves into hash lookups; `udi-core`'s incremental
//! engine shares one cache across the whole catalog and across refreshes.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use udi_obs::Recorder;

use crate::enumerate::enumerate_matchings;
use crate::problem::CorrespondenceSet;
use crate::solver::{solve_max_entropy, MaxEntConfig, MaxEntSolution};
use crate::{Correspondence, Matching, MaxEntError};

/// Canonical form of one correspondence group: `(source, target, weight
/// bits)` per edge, both endpoint sides relabeled by order of first
/// appearance. Equal keys ⇒ isomorphic OPT instances ⇒ identical solutions.
type CanonKey = Vec<(u32, u32, u64)>;

/// A solved group, stored against its canonical key. Matchings are lists of
/// **local** edge indices (positions within the group's correspondence
/// list), so they transfer verbatim between isomorphic groups.
#[derive(Debug, Clone)]
struct CachedGroup {
    matchings_local: Vec<Matching>,
    probabilities: Vec<f64>,
}

/// Thread-safe memo table for per-group max-entropy solutions.
///
/// One cache must only ever see solves performed under one [`MaxEntConfig`]:
/// the config is deliberately not part of the key (the incremental engine
/// holds it constant for the lifetime of the cache).
#[derive(Debug, Default)]
pub struct SolveCache {
    // udi-audit: allow(deterministic-iteration, "content-addressed memo queried by canonical key; never iterated")
    map: Mutex<HashMap<CanonKey, CachedGroup>>,
    /// Entry count mirror of `map`, maintained at insert time so
    /// [`SolveCache::len`] (a serving-layer stats read) never takes the
    /// memo lock.
    entries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Fresh solves that stopped at `max_iterations` rather than at the
    /// tolerance (their residual was still acceptable, or they would have
    /// failed instead).
    capped: AtomicU64,
    /// Telemetry: `maxent.solve.hit`/`maxent.solve.miss`/`maxent.capped`
    /// counters plus per-fresh-solve `maxent.iterations`/`maxent.residual`
    /// observations.
    /// Disabled by default; the hit/miss atomics above stay authoritative
    /// regardless.
    recorder: Recorder,
}

/// A memo entry is plain data: a poisoned mutex only means another worker
/// panicked mid-insert, and the surviving map is still a valid memo —
/// recover it rather than cascading the panic across threads.
fn recover<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Clone for SolveCache {
    /// Deep-copies the memo table (entries are plain data) and carries the
    /// hit/miss tallies and recorder over, so a cloned engine snapshot
    /// starts warm. Used by the serve layer's clone-on-refresh path.
    ///
    /// Non-blocking by design: cloning sits on the serving layer's
    /// certified read path (snapshot cloning), so a contended memo mutex
    /// must not stall it. `try_lock` either wins immediately or yields a
    /// cold cache — an empty memo is still a correct memo.
    fn clone(&self) -> SolveCache {
        let map = match self.map.try_lock() {
            Ok(g) => g.clone(),
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner().clone(),
            // udi-audit: allow(deterministic-iteration, "cold fallback of the content-addressed memo; never iterated")
            Err(std::sync::TryLockError::WouldBlock) => HashMap::new(),
        };
        SolveCache {
            entries: AtomicU64::new(map.len() as u64),
            map: Mutex::new(map),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            capped: AtomicU64::new(self.capped.load(Ordering::Relaxed)),
            recorder: self.recorder.clone(),
        }
    }
}

impl SolveCache {
    /// Empty cache.
    pub fn new() -> SolveCache {
        SolveCache::default()
    }

    /// Route telemetry into `recorder`. Pass [`Recorder::disabled`] to turn
    /// it back off.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Number of group solves answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of group solves that ran the enumerator + solver.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of fresh group solves that reached the iteration cap.
    pub fn capped(&self) -> u64 {
        self.capped.load(Ordering::Relaxed)
    }

    /// Number of distinct canonical instances stored. Reads the atomic
    /// mirror, not the map — lock-free by design (certified read path).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical key of one group's correspondence list.
    fn canonicalize(group: &[Correspondence]) -> CanonKey {
        let mut src_ids: BTreeMap<usize, u32> = BTreeMap::new();
        let mut tgt_ids: BTreeMap<usize, u32> = BTreeMap::new();
        group
            .iter()
            .map(|c| {
                let ns = src_ids.len() as u32;
                let s = *src_ids.entry(c.source).or_insert(ns);
                let nt = tgt_ids.len() as u32;
                let t = *tgt_ids.entry(c.target).or_insert(nt);
                (s, t, c.weight.to_bits())
            })
            .collect()
    }

    /// Solve one group (given by its local correspondence list), consulting
    /// the memo table. Returns `(matchings over local indices,
    /// probabilities)`. Errors are never cached.
    fn solve_group(
        &self,
        local: &[Correspondence],
        config: &MaxEntConfig,
    ) -> Result<(Vec<Matching>, Vec<f64>), MaxEntError> {
        let key = SolveCache::canonicalize(local);
        if let Some(hit) = recover(self.map.lock()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.recorder.count("maxent.solve.hit", 1);
            return Ok((hit.matchings_local.clone(), hit.probabilities.clone()));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.recorder.count("maxent.solve.miss", 1);
        let (matchings, sol) = solve_group_fresh(local, config)?;
        if sol.iterations >= config.max_iterations {
            self.capped.fetch_add(1, Ordering::Relaxed);
            self.recorder.count("maxent.capped", 1);
        }
        if self.recorder.is_enabled() {
            self.recorder
                .observe("maxent.iterations", sol.iterations as f64);
            self.recorder.observe("maxent.residual", sol.residual);
        }
        let probabilities = sol.probabilities;
        let prior = recover(self.map.lock()).insert(
            key,
            CachedGroup {
                matchings_local: matchings.clone(),
                probabilities: probabilities.clone(),
            },
        );
        if prior.is_none() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok((matchings, probabilities))
    }
}

/// Enumerate + solve one group with no caching. The full solution is
/// returned so the caller can report solver diagnostics (iterations,
/// residual) before discarding them.
fn solve_group_fresh(
    local: &[Correspondence],
    config: &MaxEntConfig,
) -> Result<(Vec<Matching>, MaxEntSolution), MaxEntError> {
    let local_set = CorrespondenceSet::new(local.to_vec())?;
    let matchings = enumerate_matchings(&local_set, config.matching_cap)?;
    let targets: Vec<f64> = local.iter().map(|c| c.weight).collect();
    let sol = solve_max_entropy(local.len(), &matchings, &targets, config)?;
    Ok((matchings, sol))
}

pub(crate) fn solve_group_via(
    cache: Option<&SolveCache>,
    local: &[Correspondence],
    config: &MaxEntConfig,
) -> Result<(Vec<Matching>, Vec<f64>), MaxEntError> {
    match cache {
        Some(c) => c.solve_group(local, config),
        None => solve_group_fresh(local, config).map(|(m, sol)| (m, sol.probabilities)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{solve_correspondences, solve_correspondences_cached};

    fn cs(edges: &[(usize, usize, f64)]) -> CorrespondenceSet {
        CorrespondenceSet::new(
            edges
                .iter()
                .map(|&(s, t, w)| Correspondence::new(s, t, w))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn canonical_key_ignores_index_values() {
        let a = [
            Correspondence::new(3, 7, 0.5),
            Correspondence::new(3, 9, 0.25),
        ];
        let b = [
            Correspondence::new(0, 1, 0.5),
            Correspondence::new(0, 2, 0.25),
        ];
        assert_eq!(SolveCache::canonicalize(&a), SolveCache::canonicalize(&b));
    }

    #[test]
    fn canonical_key_distinguishes_structure_and_weights() {
        // Shared source vs disjoint edges.
        let shared = [
            Correspondence::new(0, 0, 0.5),
            Correspondence::new(0, 1, 0.5),
        ];
        let disjoint = [
            Correspondence::new(0, 0, 0.5),
            Correspondence::new(1, 1, 0.5),
        ];
        assert_ne!(
            SolveCache::canonicalize(&shared),
            SolveCache::canonicalize(&disjoint)
        );
        // Same structure, different weight.
        let reweighted = [
            Correspondence::new(0, 0, 0.5),
            Correspondence::new(0, 1, 0.25),
        ];
        assert_ne!(
            SolveCache::canonicalize(&shared),
            SolveCache::canonicalize(&reweighted)
        );
    }

    #[test]
    fn cached_solve_matches_fresh_solve_exactly() {
        let set = cs(&[(0, 0, 0.6), (0, 1, 0.3), (1, 2, 0.5), (4, 4, 0.9)]);
        let cache = SolveCache::new();
        let cfg = MaxEntConfig::default();
        let fresh = solve_correspondences(&set, &cfg).unwrap();
        let warm = solve_correspondences_cached(&set, &cfg, Some(&cache)).unwrap();
        let again = solve_correspondences_cached(&set, &cfg, Some(&cache)).unwrap();
        for d in [&warm, &again] {
            assert_eq!(d.factors().len(), fresh.factors().len());
            for (fa, fb) in fresh.factors().iter().zip(d.factors()) {
                assert_eq!(fa.corr_indices, fb.corr_indices);
                assert_eq!(fa.matchings, fb.matchings);
                assert_eq!(
                    fa.probabilities, fb.probabilities,
                    "bit-identical probabilities"
                );
            }
        }
        assert!(
            cache.hits() >= 2,
            "second pass must hit, got {}",
            cache.hits()
        );
    }

    #[test]
    fn isomorphic_groups_share_one_entry() {
        // Two disjoint groups with identical shape and weights: the second
        // is answered from the first's entry within a single solve.
        let set = cs(&[(0, 0, 0.4), (0, 1, 0.3), (5, 5, 0.4), (5, 6, 0.3)]);
        let cache = SolveCache::new();
        let dist =
            solve_correspondences_cached(&set, &MaxEntConfig::default(), Some(&cache)).unwrap();
        assert_eq!(dist.factors().len(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        let [a, b] = dist.factors() else {
            panic!("two factors")
        };
        assert_eq!(a.probabilities, b.probabilities);
    }

    #[test]
    fn recorder_sees_hits_misses_and_solver_stats() {
        use std::sync::Arc;
        use udi_obs::MemorySink;
        // Two isomorphic groups: one fresh solve, one cache hit.
        let set = cs(&[(0, 0, 0.4), (0, 1, 0.3), (5, 5, 0.4), (5, 6, 0.3)]);
        let sink = Arc::new(MemorySink::new());
        let mut cache = SolveCache::new();
        cache.set_recorder(Recorder::new(sink.clone()));
        solve_correspondences_cached(&set, &MaxEntConfig::default(), Some(&cache)).unwrap();
        assert_eq!(sink.counter_total("maxent.solve.miss"), 1);
        assert_eq!(sink.counter_total("maxent.solve.hit"), 1);
        let iters = sink.histogram("maxent.iterations");
        assert_eq!(iters.count(), 1, "one fresh solve observed");
        assert!(iters.min().unwrap() >= 1.0);
        assert_eq!(sink.histogram("maxent.residual").count(), 1);
    }

    #[test]
    fn solves_stopped_by_the_iteration_cap_are_counted() {
        use std::sync::Arc;
        use udi_obs::MemorySink;
        // Two non-isomorphic groups and an isomorphic copy of the first:
        // two fresh solves, one hit.
        let set = cs(&[
            (0, 0, 0.4),
            (0, 1, 0.3),
            (3, 3, 0.6),
            (5, 5, 0.4),
            (5, 6, 0.3),
        ]);
        let capped_cfg = MaxEntConfig {
            max_iterations: 1,
            acceptable_residual: f64::INFINITY,
            ..MaxEntConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let mut cache = SolveCache::new();
        cache.set_recorder(Recorder::new(sink.clone()));
        solve_correspondences_cached(&set, &capped_cfg, Some(&cache)).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.capped(), 2, "both fresh solves hit the cap");
        assert_eq!(sink.counter_total("maxent.capped"), 2);
        assert_eq!(cache.clone().capped(), 2, "clones carry the tally");

        // A solve that meets the tolerance is not counted: weight 0.5 on a
        // lone edge is the uniform start point.
        let cache = SolveCache::new();
        solve_correspondences_cached(&cs(&[(0, 0, 0.5)]), &capped_cfg, Some(&cache)).unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.capped(), 0);
    }

    #[test]
    fn errors_are_not_cached() {
        // A large complete bipartite group overflows a tiny matching cap.
        let edges: Vec<(usize, usize, f64)> = (0..5)
            .flat_map(|s| (0..5).map(move |t| (s, t, 0.19)))
            .collect();
        let set = cs(&edges);
        let cache = SolveCache::new();
        let tiny = MaxEntConfig {
            matching_cap: 4,
            ..MaxEntConfig::default()
        };
        assert!(matches!(
            solve_correspondences_cached(&set, &tiny, Some(&cache)),
            Err(MaxEntError::Explosion { .. })
        ));
        assert!(cache.is_empty(), "failed solves must not be stored");
    }
}
