//! Property tests for the query layer: parser round-trips and the
//! probability algebra of answer sets.

use proptest::prelude::*;

use std::sync::OnceLock;

use udi::datagen::{generate, Domain, GenConfig, GeneratedDomain};
use udi::eval::generate_workload;
use udi::query::{
    parse_aggregate_query, parse_query, AggFunc, Aggregate, AggregateQuery, AnswerSet, AnswerTuple,
    CompareOp, Predicate, Query,
};
use udi::store::{SourceId, Value};

/// One small corpus per paper domain, generated once for all cases.
fn domains() -> &'static [GeneratedDomain] {
    static DOMAINS: OnceLock<Vec<GeneratedDomain>> = OnceLock::new();
    DOMAINS.get_or_init(|| {
        Domain::all()
            .into_iter()
            .map(|d| {
                let cfg = GenConfig {
                    n_sources: Some(40),
                    ..GenConfig::default()
                };
                generate(d, &cfg)
            })
            .collect()
    })
}

/// A grouped aggregate over the same attributes and predicates as `q`.
fn aggregate_of(q: &Query) -> AggregateQuery {
    let last = q.select.last().cloned();
    AggregateQuery {
        group_by: q.select.iter().take(1).cloned().collect(),
        aggregates: vec![
            Aggregate {
                func: AggFunc::Count,
                attribute: None,
            },
            Aggregate {
                func: AggFunc::Max,
                attribute: last,
            },
        ],
        predicates: q.predicates.clone(),
        from: q.from.clone(),
    }
}

/// Strategy: queries over a safe identifier/value alphabet.
fn queries() -> impl Strategy<Value = Query> {
    let ident = "[a-z][a-z0-9_]{0,8}";
    let op = prop::sample::select(vec![
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
        CompareOp::Like,
    ]);
    let value = prop_oneof![
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        "[a-zA-Z0-9 %_.-]{0,12}".prop_map(Value::text),
        (-1000.0f64..1000.0).prop_map(|f| Value::float((f * 100.0).round() / 100.0)),
    ];
    let predicate = (ident, op, value).prop_map(|(attribute, op, value)| Predicate {
        attribute,
        op,
        value,
    });
    (
        proptest::collection::vec(ident, 1..5),
        proptest::collection::vec(predicate, 0..4),
    )
        .prop_map(|(select, predicates)| Query {
            select,
            predicates,
            from: "t".to_owned(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(display(q))` is the identity on well-formed queries.
    #[test]
    fn parser_round_trips_display(q in queries()) {
        let rendered = q.to_string();
        let parsed = parse_query(&rendered).unwrap_or_else(|e| {
            panic!("failed to reparse {rendered:?}: {e}")
        });
        prop_assert_eq!(parsed, q);
    }

    /// `Display` round-trips the workload queries of every paper domain,
    /// whose labels carry spaces, parentheses and quotes — the text the
    /// plan cache keys on must name the query it was rendered from.
    #[test]
    fn workload_queries_round_trip_display(domain in 0usize..5, seed in any::<u64>()) {
        let gen = domains().get(domain).expect("five domains");
        for q in generate_workload(gen, 20, seed) {
            let rendered = q.to_string();
            let parsed = parse_query(&rendered)
                .unwrap_or_else(|e| panic!("failed to reparse {rendered:?}: {e}"));
            prop_assert_eq!(parsed, q.clone());
            let agg = aggregate_of(&q);
            let rendered = agg.to_string();
            let parsed = parse_aggregate_query(&rendered)
                .unwrap_or_else(|e| panic!("failed to reparse {rendered:?}: {e}"));
            prop_assert_eq!(parsed, agg);
        }
    }

    /// Combined (deduplicated, disjunction) answers: probabilities stay in
    /// (0, 1], are at least the per-source maximum for that tuple, never
    /// exceed the per-source sum, and ranking is descending.
    #[test]
    fn answer_combination_algebra(
        per_source in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0.01f64..1.0), 0..6),
            1..4,
        )
    ) {
        let mut set = AnswerSet::new();
        for (i, tuples) in per_source.iter().enumerate() {
            // Deduplicate tuples within a source (a source reports each
            // distinct tuple once).
            let mut seen = std::collections::HashSet::new();
            let ts: Vec<AnswerTuple> = tuples
                .iter()
                .filter(|(v, _)| seen.insert(*v))
                .map(|&(v, p)| AnswerTuple {
                    values: vec![Value::Int(v as i64)],
                    probability: p,
                })
                .collect();
            set.add_source(SourceId(i as u32), ts);
        }
        let combined = set.combined();

        // Per-tuple bounds.
        for t in &combined {
            let per: Vec<f64> = set
                .by_source()
                .iter()
                .flat_map(|(_, ts)| ts.iter())
                .filter(|u| u.values == t.values)
                .map(|u| u.probability)
                .collect();
            let max = per.iter().copied().fold(0.0_f64, f64::max);
            let sum: f64 = per.iter().sum();
            prop_assert!(t.probability > 0.0 && t.probability <= 1.0 + 1e-12);
            prop_assert!(t.probability >= max - 1e-12, "disjunction ≥ max");
            prop_assert!(t.probability <= sum + 1e-12, "disjunction ≤ sum");
        }
        // Ranking is descending.
        for w in combined.windows(2) {
            prop_assert!(w[0].probability >= w[1].probability - 1e-12);
        }
        // Dedup: distinct values only.
        let distinct: std::collections::HashSet<_> =
            combined.iter().map(|t| t.values.clone()).collect();
        prop_assert_eq!(distinct.len(), combined.len());
    }

    /// Flat answers are preserved verbatim: `flat()` concatenates what the
    /// sources reported, in order.
    #[test]
    fn flat_preserves_source_reports(
        probs in proptest::collection::vec(0.01f64..1.0, 1..8)
    ) {
        let mut set = AnswerSet::new();
        let tuples: Vec<AnswerTuple> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| AnswerTuple { values: vec![Value::Int(i as i64)], probability: p })
            .collect();
        set.add_source(SourceId(0), tuples.clone());
        let flat = set.flat();
        prop_assert_eq!(flat.len(), tuples.len());
        for (a, b) in flat.iter().zip(&tuples) {
            prop_assert_eq!(&a.values, &b.values);
            prop_assert_eq!(a.probability, b.probability);
        }
    }
}
