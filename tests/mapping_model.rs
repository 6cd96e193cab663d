//! The flat `Mapping` layout against the map-of-sets layout it replaced,
//! kept here as a reference model: every observable of a mapping, the
//! mapping order that consolidated p-mappings are emitted in, and the
//! consolidation result down to the probability bits must agree.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use udi::schema::{
    consolidate_pmappings, consolidate_schemas, AttrId, Mapping, MediatedSchema, PMapping,
    PMedSchema,
};

/// The previous `Mapping`: source attribute → set of mediated indices,
/// ordered by the derived map order.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct RefMapping(BTreeMap<AttrId, BTreeSet<usize>>);

impl RefMapping {
    fn of(m: &Mapping) -> RefMapping {
        let mut r = RefMapping::default();
        for (a, j) in m.correspondences() {
            assert!(r.insert(a, j));
        }
        r
    }

    fn source_of(&self, j: usize) -> Option<AttrId> {
        self.0
            .iter()
            .find(|(_, ts)| ts.contains(&j))
            .map(|(&a, _)| a)
    }

    /// The old `insert`, returning `false` where it would have panicked.
    fn insert(&mut self, a: AttrId, j: usize) -> bool {
        if self.source_of(j).is_some_and(|s| s != a) {
            return false;
        }
        self.0.entry(a).or_default().insert(j);
        true
    }

    fn len(&self) -> usize {
        self.0.values().map(BTreeSet::len).sum()
    }

    fn correspondences(&self) -> Vec<(AttrId, usize)> {
        self.0
            .iter()
            .flat_map(|(&a, ts)| ts.iter().map(move |&j| (a, j)))
            .collect()
    }

    fn is_one_to_one(&self) -> bool {
        self.0.values().all(|ts| ts.len() == 1)
    }
}

/// Applies the insert sequence to both layouts, skipping the inserts the
/// invariant rejects.
fn build_both(inserts: &[(u32, usize)]) -> (Mapping, RefMapping) {
    let mut m = Mapping::empty();
    let mut r = RefMapping::default();
    for &(a, j) in inserts {
        if r.insert(AttrId(a), j) {
            m.insert(AttrId(a), j);
        }
    }
    (m, r)
}

fn inserts() -> impl Strategy<Value = Vec<(u32, usize)>> {
    // Small alphabets so target sets collide and prefix each other often.
    proptest::collection::vec((0u32..4, 0usize..6), 0..10)
}

/// The previous `Consolidator::consolidate`, over the reference layout.
fn reference_consolidate(
    pmed: &PMedSchema,
    pmappings: &[Vec<(RefMapping, f64)>],
    target: &MediatedSchema,
) -> Vec<(RefMapping, f64)> {
    let refinements: Vec<Vec<Vec<usize>>> = pmed
        .schemas()
        .iter()
        .map(|(m, _)| {
            m.clusters()
                .iter()
                .map(|big| {
                    target
                        .clusters()
                        .iter()
                        .enumerate()
                        .filter(|(_, small)| small.is_subset(big))
                        .map(|(j, _)| j)
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut merged: BTreeMap<RefMapping, f64> = BTreeMap::new();
    for (i, ((_, p_schema), pm)) in pmed.schemas().iter().zip(pmappings).enumerate() {
        for (m, p_map) in pm {
            let mut rewritten = RefMapping::default();
            for (a, big_idx) in m.correspondences() {
                for &j in &refinements[i][big_idx] {
                    assert!(rewritten.insert(a, j));
                }
            }
            *merged.entry(rewritten).or_insert(0.0) += p_map * p_schema;
        }
    }
    merged.into_iter().filter(|(_, p)| *p > 1e-15).collect()
}

/// Positive weights normalized to a distribution.
fn distribution(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<f64> {
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// A random p-med-schema over one attribute universe, plus one random
/// p-mapping per schema (source attributes 100.., one-to-one or, rarely,
/// one-to-many).
fn random_inputs(seed: u64) -> (PMedSchema, Vec<Vec<(RefMapping, f64)>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_attrs = rng.gen_range(2u32..7);
    let mut schemas: Vec<MediatedSchema> = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let k = rng.gen_range(1..=n_attrs);
        let mut clusters: Vec<BTreeSet<AttrId>> = vec![BTreeSet::new(); k as usize];
        for a in 0..n_attrs {
            clusters[rng.gen_range(0..k) as usize].insert(AttrId(a));
        }
        let m = MediatedSchema::new(clusters);
        if !schemas.contains(&m) {
            schemas.push(m);
        }
    }
    let probs = distribution(&mut rng, schemas.len());
    let n_source = rng.gen_range(1u32..5);
    let pmappings: Vec<Vec<(RefMapping, f64)>> = schemas
        .iter()
        .map(|m| {
            let mut seen: Vec<RefMapping> = Vec::new();
            for _ in 0..rng.gen_range(1..8) {
                let mut r = RefMapping::default();
                for s in 0..n_source {
                    for _ in 0..rng.gen_range(0..3) {
                        if rng.gen_range(0..4) == 0 {
                            continue;
                        }
                        r.insert(AttrId(100 + s), rng.gen_range(0..m.len()));
                    }
                }
                if !seen.contains(&r) {
                    seen.push(r);
                }
            }
            let p = distribution(&mut rng, seen.len());
            seen.into_iter().zip(p).collect()
        })
        .collect();
    (
        PMedSchema::new(schemas.into_iter().zip(probs).collect()),
        pmappings,
    )
}

fn to_mapping(r: &RefMapping) -> Mapping {
    Mapping::one_to_one(r.correspondences())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every observable of the flat layout equals the map-of-sets model.
    #[test]
    fn flat_mapping_agrees_with_the_reference_model(x in inserts(), y in inserts()) {
        let (mx, rx) = build_both(&x);
        let (my, ry) = build_both(&y);
        prop_assert_eq!(mx == my, rx == ry);
        prop_assert_eq!(mx.cmp(&my), rx.cmp(&ry));
        prop_assert_eq!(my.cmp(&mx), ry.cmp(&rx));
        prop_assert_eq!(mx.partial_cmp(&my), rx.partial_cmp(&ry));
        for (m, r) in [(&mx, &rx), (&my, &ry)] {
            prop_assert_eq!(m.len(), r.len());
            prop_assert_eq!(m.is_empty(), r.len() == 0);
            prop_assert_eq!(m.correspondences().collect::<Vec<_>>(), r.correspondences());
            prop_assert_eq!(m.is_one_to_one(), r.is_one_to_one());
            for a in 0..5 {
                let want: Vec<usize> = r
                    .0
                    .get(&AttrId(a))
                    .map(|ts| ts.iter().copied().collect())
                    .unwrap_or_default();
                prop_assert_eq!(m.targets_of(AttrId(a)).collect::<Vec<_>>(), want);
            }
            for j in 0..7 {
                prop_assert_eq!(m.source_of(j), r.source_of(j));
            }
            prop_assert_eq!(&RefMapping::of(m), r);
        }
    }

    /// Consolidation over the flat layout emits the same mappings, in the
    /// same order, with bit-identical probabilities.
    #[test]
    fn consolidation_matches_the_reference_algorithm(seed in any::<u64>()) {
        let (pmed, ref_pms) = random_inputs(seed);
        let schemas: Vec<MediatedSchema> =
            pmed.schemas().iter().map(|(m, _)| m.clone()).collect();
        let target = consolidate_schemas(&schemas);
        let pms: Vec<PMapping> = ref_pms
            .iter()
            .map(|pm| PMapping::new(pm.iter().map(|(r, p)| (to_mapping(r), *p)).collect()))
            .collect();
        let got = consolidate_pmappings(&pmed, &pms, &target);
        let want = reference_consolidate(&pmed, &ref_pms, &target);
        prop_assert_eq!(got.len(), want.len());
        for ((m, p), (r, q)) in got.mappings().iter().zip(&want) {
            prop_assert_eq!(&RefMapping::of(m), r);
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
    }
}

#[test]
#[should_panic(expected = "duplicate mapping")]
fn pmapping_rejects_a_non_adjacent_duplicate() {
    let a = Mapping::one_to_one([(AttrId(3), 1)]);
    let b = Mapping::one_to_one([(AttrId(1), 0)]);
    let c = Mapping::one_to_one([(AttrId(2), 2)]);
    PMapping::new(vec![(a.clone(), 0.25), (b, 0.25), (c, 0.25), (a, 0.25)]);
}

#[test]
fn grouped_order_differs_from_flat_order_where_a_target_set_is_a_prefix() {
    // Flat pairs: [(1,0),(2,5)] > [(1,0),(1,3)]; the map order compares
    // attribute 1's target sets first, and {0} < {0, 3}.
    let prefix = Mapping::one_to_one([(AttrId(1), 0), (AttrId(2), 5)]);
    let longer = Mapping::one_to_one([(AttrId(1), 0), (AttrId(1), 3)]);
    assert!(prefix < longer);
    assert!(RefMapping::of(&prefix) < RefMapping::of(&longer));
}
