//! Setup configuration, timings and diagnostics.

use std::time::Duration;

use udi_schema::UdiParams;
use udi_similarity::{
    AttributeSimilarity, JaroWinkler, Levenshtein, NGramJaccard, Similarity, TokenHybrid,
};

/// Which pairwise attribute-similarity measure setup uses.
///
/// The paper used Jaro–Winkler (via SecondString); [`MeasureKind::Default`]
/// adds name normalization and a token hybrid on top, which is strictly
/// better on web-table labels. The enum keeps configurations serializable
/// and cloneable; fully custom measures can be passed to
/// [`crate::UdiSystem::setup_with_measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeasureKind {
    /// Normalized names + Jaro–Winkler + token hybrid.
    #[default]
    Default,
    /// Plain Jaro–Winkler on raw labels (the paper's configuration).
    JaroWinkler,
    /// Normalized Levenshtein similarity.
    Levenshtein,
    /// Character trigram Jaccard.
    TrigramJaccard,
    /// Symmetric Monge–Elkan over name tokens.
    TokenHybrid,
}

impl MeasureKind {
    /// Instantiate the measure.
    pub fn build(self) -> Box<dyn Similarity + Send + Sync> {
        match self {
            MeasureKind::Default => Box::new(AttributeSimilarity::default()),
            MeasureKind::JaroWinkler => Box::new(JaroWinkler::default()),
            MeasureKind::Levenshtein => Box::new(Levenshtein),
            MeasureKind::TrigramJaccard => Box::new(NGramJaccard::default()),
            MeasureKind::TokenHybrid => Box::new(TokenHybrid),
        }
    }
}

/// Complete setup configuration: algorithm parameters plus the similarity
/// measure.
#[derive(Debug, Clone)]
pub struct UdiConfig {
    /// Thresholds, caps, and solver settings (§7.1 defaults).
    pub params: UdiParams,
    /// Pairwise attribute-name measure.
    pub measure: MeasureKind,
    /// Worker threads for p-mapping generation (stage 3, the dominant
    /// cost, which is independent per source). `1` (the default) runs
    /// in-line; any value produces identical results — sources are
    /// processed deterministically and independently, over a frozen
    /// (lock-free) similarity matrix. Worthwhile only up to the physical
    /// core count; beyond that it just adds scheduling overhead.
    pub threads: usize,
    /// Use n-gram blocking to restrict pairwise scoring to candidate
    /// pairs sharing at least one character bigram (on by default).
    /// Blocking prunes pairs whose similarity cannot plausibly reach the
    /// scoring floor `min(τ − ε, pair_floor)`; pruned pairs are treated
    /// as similarity 0, exactly as sub-threshold pairs already are, so on
    /// corpora where no high-similarity pair is gram-disjoint the outputs
    /// are bit-identical to exhaustive scoring (the property test
    /// `tests/blocking_properties.rs` gates this). Turn off to force
    /// exhaustive all-pairs scoring for adversarial vocabularies.
    pub blocking: bool,
}

impl Default for UdiConfig {
    fn default() -> Self {
        UdiConfig {
            params: UdiParams::default(),
            measure: MeasureKind::default(),
            threads: 1,
            blocking: true,
        }
    }
}

/// Wall-clock duration of each setup stage — the four steps of Figure 7:
/// "(1) importing source schemas, (2) creating a p-med-schema, (3) creating
/// a p-mapping between each source schema and each possible mediated schema,
/// and (4) consolidating the p-med-schema and the p-mappings."
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimings {
    /// Stage 1: schema import and attribute statistics.
    pub import: Duration,
    /// Stage 2: p-med-schema construction.
    pub med_schema: Duration,
    /// Stage 3: p-mapping generation (dominated by entropy maximization,
    /// as the paper observes).
    pub pmappings: Duration,
    /// Stage 4: consolidation.
    pub consolidation: Duration,
}

impl SetupTimings {
    /// Total setup time.
    pub fn total(&self) -> Duration {
        self.import + self.med_schema + self.pmappings + self.consolidation
    }
}

/// Cache behavior of one [`crate::engine::SetupEngine::refresh`]: how much
/// of each stage was served from cached artifacts versus recomputed. All
/// counters cover that single refresh, not the engine's lifetime.
///
/// Since the observability layer landed this is a *view*: the engine
/// records `engine.*` and `maxent.*` counters through its always-on
/// [`udi_obs::CounterSink`] and derives these numbers from the sink's
/// before/after totals around the refresh (see `OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Pairwise similarities found already pinned in the similarity cache.
    pub sim_hits: usize,
    /// Pairwise similarities computed (and pinned) this refresh.
    pub sim_misses: usize,
    /// Whether the similarity graph changed, forcing the `2^u` mediated-
    /// schema enumeration to re-run.
    pub schemas_reenumerated: bool,
    /// Per-(source, schema) p-mappings reused from the previous refresh.
    pub rows_reused: usize,
    /// Per-(source, schema) p-mappings (re)computed this refresh.
    pub rows_computed: usize,
    /// Max-entropy group solves answered from the canonical-form cache.
    pub solve_hits: u64,
    /// Max-entropy group solves that ran the solver.
    pub solve_misses: u64,
    /// Of those, the solves that stopped at the iteration cap instead of
    /// the tolerance.
    pub solve_capped: u64,
}

impl CacheStats {
    /// Fraction of per-(source, schema) p-mappings served from cache, in
    /// `[0, 1]`. `0.0` when nothing was needed.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.rows_reused + self.rows_computed;
        if total == 0 {
            0.0
        } else {
            self.rows_reused as f64 / total as f64
        }
    }

    /// Fraction of max-entropy group solves served from the canonical-form
    /// cache, in `[0, 1]`. `0.0` when no group was solved.
    pub fn solve_hit_rate(&self) -> f64 {
        let total = self.solve_hits + self.solve_misses;
        if total == 0 {
            0.0
        } else {
            self.solve_hits as f64 / total as f64
        }
    }
}

/// Setup diagnostics returned alongside the configured system.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Per-stage wall-clock timings of the refresh that produced this
    /// report. `None` on the manual [`crate::UdiSystem::from_parts`] path,
    /// where nothing beyond consolidation is computed (and hence nothing is
    /// measured) — previously this was silently all-zero, which was
    /// indistinguishable from a very fast refresh.
    pub timings: Option<SetupTimings>,
    /// Number of sources integrated.
    pub n_sources: usize,
    /// Distinct attribute names across all sources.
    pub n_attributes: usize,
    /// Attributes that survived the θ frequency filter.
    pub n_frequent: usize,
    /// Possible mediated schemas in the p-med-schema.
    pub n_schemas: usize,
    /// Total explicit mappings across all per-schema p-mappings.
    pub n_mappings: usize,
    /// Mappings in the consolidated p-mappings (all sources).
    pub n_consolidated_mappings: usize,
    /// Cache hit/miss counters of the refresh that produced this report.
    pub cache: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measure_kind_builds() {
        for kind in [
            MeasureKind::Default,
            MeasureKind::JaroWinkler,
            MeasureKind::Levenshtein,
            MeasureKind::TrigramJaccard,
            MeasureKind::TokenHybrid,
        ] {
            let m = kind.build();
            let s = m.similarity("phone", "phone");
            assert!((s - 1.0).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn timings_total_sums_stages() {
        let t = SetupTimings {
            import: Duration::from_millis(1),
            med_schema: Duration::from_millis(2),
            pmappings: Duration::from_millis(3),
            consolidation: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }

    #[test]
    fn default_config_uses_paper_params() {
        let c = UdiConfig::default();
        assert_eq!(c.params.tau, 0.85);
        assert_eq!(c.measure, MeasureKind::Default);
    }
}
