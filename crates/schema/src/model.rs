//! Core model types: vocabulary, source schemas, mediated schemas,
//! p-med-schemas, mappings and p-mappings.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

/// Identifier of a distinct attribute *name* across all sources.
///
/// The paper treats attributes by name: `f(a)` counts the sources whose
/// schema contains the name `a`, and mediated attributes are sets of names.
/// Two sources using the same label therefore share one `AttrId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u32);

/// Bidirectional attribute-name registry.
///
/// Serializes as the bare name list; the reverse index is rebuilt on
/// deserialization so a loaded vocabulary behaves identically.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<String>", into = "Vec<String>")]
pub struct Vocabulary {
    names: Vec<String>,
    // udi-audit: allow(deterministic-iteration, "reverse index queried by name; iteration always goes through `names`")
    index: HashMap<String, AttrId>,
}

impl From<Vec<String>> for Vocabulary {
    fn from(names: Vec<String>) -> Vocabulary {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), AttrId(i as u32)))
            .collect();
        Vocabulary { names, index }
    }
}

impl From<Vocabulary> for Vec<String> {
    fn from(v: Vocabulary) -> Vec<String> {
        v.names
    }
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Intern a name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = AttrId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Look up an already-interned name.
    pub fn id_of(&self, name: &str) -> Option<AttrId> {
        self.index.get(name).copied()
    }

    /// The name behind an id. A foreign id reads as the empty string —
    /// ids only come from this vocabulary, so the fallback is inert.
    pub fn name(&self, id: AttrId) -> &str {
        self.names
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate all `(id, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (AttrId(i as u32), n.as_str()))
    }
}

/// One source schema: a name plus its attribute ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceSchema {
    /// Source name (table name).
    pub name: String,
    /// Attribute ids in schema order.
    pub attrs: Vec<AttrId>,
}

/// A set of source schemas sharing one vocabulary — the input to the whole
/// setup pipeline.
///
/// Serializes as `{vocab, sources}`; the per-attribute source counts are
/// derived state, rebuilt on deserialization.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "SchemaSetRepr", into = "SchemaSetRepr")]
pub struct SchemaSet {
    vocab: Vocabulary,
    sources: Vec<SourceSchema>,
    /// `counts[a]` = number of sources whose schema contains `AttrId(a)`,
    /// maintained incrementally so `frequency` is O(1) and
    /// `frequent_attributes` is O(|vocab|) instead of O(|vocab| × |sources|
    /// × arity) — at 100k sources the old scan dominated every refresh.
    counts: Vec<usize>,
}

/// Wire format of [`SchemaSet`] (the pre-counts layout).
#[derive(Serialize, Deserialize)]
#[serde(rename = "SchemaSet")]
struct SchemaSetRepr {
    vocab: Vocabulary,
    sources: Vec<SourceSchema>,
}

impl From<SchemaSetRepr> for SchemaSet {
    fn from(repr: SchemaSetRepr) -> SchemaSet {
        let mut counts = vec![0usize; repr.vocab.len()];
        for s in &repr.sources {
            for a in distinct_attrs(s) {
                if let Some(c) = counts.get_mut(a.0 as usize) {
                    *c += 1;
                }
            }
        }
        SchemaSet {
            vocab: repr.vocab,
            sources: repr.sources,
            counts,
        }
    }
}

impl From<SchemaSet> for SchemaSetRepr {
    fn from(set: SchemaSet) -> SchemaSetRepr {
        SchemaSetRepr {
            vocab: set.vocab,
            sources: set.sources,
        }
    }
}

/// The distinct attribute ids of one source schema, in first-occurrence
/// order. Frequency counts a source once per attribute *name* no matter how
/// often the schema repeats it.
fn distinct_attrs(s: &SourceSchema) -> impl Iterator<Item = AttrId> + '_ {
    let mut seen = BTreeSet::new();
    s.attrs.iter().copied().filter(move |&a| seen.insert(a))
}

impl SchemaSet {
    /// Build from `(source name, attribute names)` pairs.
    pub fn from_sources<I, S, A>(sources: I) -> SchemaSet
    where
        I: IntoIterator<Item = (S, Vec<A>)>,
        S: Into<String>,
        A: AsRef<str>,
    {
        let mut set = SchemaSet::default();
        for (name, attrs) in sources {
            set.add_source(name, attrs.iter().map(AsRef::as_ref));
        }
        set
    }

    /// Register one source schema.
    pub fn add_source<'a>(
        &mut self,
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = &'a str>,
    ) {
        let attrs: Vec<AttrId> = attrs.into_iter().map(|a| self.vocab.intern(a)).collect();
        let schema = SourceSchema {
            name: name.into(),
            attrs,
        };
        if self.counts.len() < self.vocab.len() {
            self.counts.resize(self.vocab.len(), 0);
        }
        for a in distinct_attrs(&schema) {
            if let Some(c) = self.counts.get_mut(a.0 as usize) {
                *c += 1;
            }
        }
        self.sources.push(schema);
    }

    /// Drop the source schema named `name`, returning whether it existed.
    ///
    /// The vocabulary is deliberately left intact: attribute ids are stable
    /// across removals, so downstream artifacts keyed by [`AttrId`] (similar-
    /// ity caches, mediated schemas, mappings) stay valid. Attributes no
    /// longer used by any source simply fall to frequency 0 and drop out of
    /// the frequent set on the next graph build.
    pub fn remove_source(&mut self, name: &str) -> bool {
        match self.sources.iter().position(|s| s.name == name) {
            Some(i) => {
                let schema = self.sources.remove(i);
                for a in distinct_attrs(&schema) {
                    if let Some(c) = self.counts.get_mut(a.0 as usize) {
                        *c = c.saturating_sub(1);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The source schemas in registration order.
    pub fn sources(&self) -> &[SourceSchema] {
        &self.sources
    }

    /// `f(a)`: fraction of sources whose schema contains `a`. O(1): served
    /// from the incrementally maintained per-attribute counts.
    pub fn frequency(&self, a: AttrId) -> f64 {
        if self.sources.is_empty() {
            return 0.0;
        }
        let c = self.counts.get(a.0 as usize).copied().unwrap_or(0);
        c as f64 / self.sources.len() as f64
    }

    /// Attribute ids whose frequency is at least `theta`, ascending.
    /// O(|vocab|): one pass over the maintained counts.
    pub fn frequent_attributes(&self, theta: f64) -> Vec<AttrId> {
        let n = self.sources.len();
        if n == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as f64 / n as f64 >= theta)
            .map(|(i, _)| AttrId(i as u32))
            .collect()
    }
}

/// A deterministic mediated schema: a partition of (a subset of) the
/// attribute universe into disjoint clusters. Each cluster is one *mediated
/// attribute*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MediatedSchema {
    clusters: Vec<BTreeSet<AttrId>>,
}

impl MediatedSchema {
    /// Build from clusters; empty clusters are dropped and the result is
    /// canonicalized (clusters sorted by their smallest member) so equal
    /// partitions compare equal. Panics if clusters overlap.
    pub fn new(clusters: Vec<BTreeSet<AttrId>>) -> MediatedSchema {
        let mut clusters: Vec<BTreeSet<AttrId>> =
            clusters.into_iter().filter(|c| !c.is_empty()).collect();
        let mut seen = BTreeSet::new();
        for c in &clusters {
            for &a in c {
                assert!(seen.insert(a), "attribute {a:?} appears in two clusters");
            }
        }
        clusters.sort_by(|a, b| a.iter().next().cmp(&b.iter().next()));
        MediatedSchema { clusters }
    }

    /// Build from slices of ids (test/construction convenience).
    pub fn from_slices(clusters: &[&[AttrId]]) -> MediatedSchema {
        MediatedSchema::new(
            clusters
                .iter()
                .map(|c| c.iter().copied().collect())
                .collect(),
        )
    }

    /// The clusters (mediated attributes).
    pub fn clusters(&self) -> &[BTreeSet<AttrId>] {
        &self.clusters
    }

    /// Number of mediated attributes.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Index of the cluster containing `a`, if any.
    pub fn cluster_of(&self, a: AttrId) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&a))
    }

    /// All attributes covered by the schema.
    pub fn attribute_set(&self) -> BTreeSet<AttrId> {
        self.clusters.iter().flatten().copied().collect()
    }

    /// Definition 4.1: consistent with a source iff no two of the source's
    /// attributes share a cluster.
    pub fn is_consistent_with(&self, source: &SourceSchema) -> bool {
        for c in &self.clusters {
            let mut hits = 0;
            for a in &source.attrs {
                if c.contains(a) {
                    hits += 1;
                    if hits > 1 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Human-readable rendering using a vocabulary.
    pub fn display(&self, vocab: &Vocabulary) -> String {
        let parts: Vec<String> = self
            .clusters
            .iter()
            .map(|c| {
                let names: Vec<&str> = c.iter().map(|&a| vocab.name(a)).collect();
                format!("{{{}}}", names.join(", "))
            })
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// A probabilistic mediated schema (Definition 3.1): mediated schemas with
/// probabilities summing to 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PMedSchema {
    schemas: Vec<(MediatedSchema, f64)>,
}

impl PMedSchema {
    /// Build from `(schema, probability)` pairs. Probabilities must be in
    /// `(0, 1]` and sum to 1 (±1e-6); schemas must be pairwise distinct.
    pub fn new(schemas: Vec<(MediatedSchema, f64)>) -> PMedSchema {
        assert!(
            !schemas.is_empty(),
            "a p-med-schema needs at least one schema"
        );
        let total: f64 = schemas.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, not 1"
        );
        for (i, (m, p)) in schemas.iter().enumerate() {
            assert!(*p > 0.0 && *p <= 1.0 + 1e-9, "probability {p} out of range");
            let dup = schemas
                .get(..i)
                .is_some_and(|head| head.iter().any(|(m2, _)| m2 == m));
            assert!(!dup, "duplicate mediated schema in p-med-schema");
        }
        PMedSchema { schemas }
    }

    /// The `(schema, probability)` pairs, highest probability first.
    pub fn schemas(&self) -> &[(MediatedSchema, f64)] {
        &self.schemas
    }

    /// Number of possible mediated schemas (always at least 1 — a
    /// p-med-schema cannot be empty, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// Whether there is exactly one possible schema.
    pub fn is_deterministic(&self) -> bool {
        self.schemas.len() == 1
    }

    /// The most probable mediated schema. A p-med-schema is non-empty by
    /// construction; the fallback empty schema is unreachable in practice.
    pub fn top(&self) -> &MediatedSchema {
        // udi-audit: allow(shared-mutable-static, "write-once fallback schema; no observable mutation after init")
        static EMPTY: std::sync::OnceLock<MediatedSchema> = std::sync::OnceLock::new();
        match self.schemas.first() {
            Some((m, _)) => m,
            None => EMPTY.get_or_init(|| MediatedSchema::new(Vec::new())),
        }
    }
}

/// A (possibly one-to-many) schema mapping between one source and one
/// mediated schema: each source attribute maps to a set of mediated
/// attributes (cluster indices); each mediated attribute corresponds to at
/// most one source attribute.
///
/// Stored flat: one boxed slice of `(source attr, mediated index)`
/// correspondences sorted by attribute then index, without duplicates. A
/// mapping is one heap block however many attributes it maps, so cloning
/// and dropping the hundreds of thousands a system holds is a memcpy and a
/// free each.
///
/// `Ord` is not the slice's lexicographic order. It groups the slice by
/// source attribute and compares the groups `(attr, targets)` in turn, a
/// group whose targets are a proper prefix of the other's sorting first —
/// the order of a map from attribute to target set. Consolidated p-mappings
/// are emitted in this order, so it is part of the answer byte-identity
/// contract.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(from = "MappingRepr", into = "MappingRepr")]
pub struct Mapping {
    pairs: Box<[(AttrId, u32)]>,
}

/// Wire format of [`Mapping`] (the map-of-sets layout, kept so earlier
/// snapshots load).
#[derive(Serialize, Deserialize)]
#[serde(rename = "Mapping")]
struct MappingRepr {
    assignments: BTreeMap<AttrId, BTreeSet<usize>>,
}

impl From<MappingRepr> for Mapping {
    fn from(repr: MappingRepr) -> Mapping {
        // Map-then-set iteration is already (attr, index) order.
        let pairs = repr
            .assignments
            .into_iter()
            .flat_map(|(a, ts)| ts.into_iter().map(move |j| (a, target_index(j))))
            .collect();
        Mapping { pairs }
    }
}

impl From<Mapping> for MappingRepr {
    fn from(m: Mapping) -> MappingRepr {
        let mut assignments: BTreeMap<AttrId, BTreeSet<usize>> = BTreeMap::new();
        for (a, j) in m.correspondences() {
            assignments.entry(a).or_default().insert(j);
        }
        MappingRepr { assignments }
    }
}

/// A mediated index as stored. Indices are cluster positions in one
/// mediated schema, far below `u32::MAX`.
fn target_index(j: usize) -> u32 {
    assert!(
        j <= u32::MAX as usize,
        "mediated attribute index {j} out of range"
    );
    j as u32
}

impl PartialOrd for Mapping {
    fn partial_cmp(&self, other: &Mapping) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mapping {
    fn cmp(&self, other: &Mapping) -> std::cmp::Ordering {
        let same_attr = |x: &(AttrId, u32), y: &(AttrId, u32)| x.0 == y.0;
        // Within two groups under comparison the attributes either differ
        // at the first pair or agree throughout, so comparing the group
        // slices compares `(attr, targets)`.
        self.pairs
            .chunk_by(same_attr)
            .cmp(other.pairs.chunk_by(same_attr))
    }
}

impl Mapping {
    /// The empty mapping.
    pub fn empty() -> Mapping {
        Mapping {
            pairs: Box::default(),
        }
    }

    /// Mapping from `(source attr, mediated index)` pairs, in any order.
    /// Panics if a mediated index repeats with two source attributes.
    pub fn one_to_one<I>(pairs: I) -> Mapping
    where
        I: IntoIterator<Item = (AttrId, usize)>,
    {
        Mapping::build(&mut pairs.into_iter().collect())
    }

    /// Mapping from the `(source attr, mediated index)` correspondences in
    /// `buf`, in any order and possibly repeated. `buf` is sorted in place
    /// and left empty, so a caller building many mappings reuses one
    /// allocation. Panics if a mediated index repeats with two source
    /// attributes.
    pub fn build(buf: &mut Vec<(AttrId, usize)>) -> Mapping {
        buf.sort_unstable();
        buf.dedup();
        for (i, &(a, j)) in buf.iter().enumerate() {
            let clash = buf
                .get(..i)
                .is_some_and(|head| head.iter().any(|&(b, k)| k == j && b != a));
            assert!(
                !clash,
                "mediated attribute {j} already corresponds to a different source attribute"
            );
        }
        let pairs = buf.iter().map(|&(a, j)| (a, target_index(j))).collect();
        buf.clear();
        Mapping { pairs }
    }

    /// Add a correspondence `(a → j)`, preserving the invariant that a
    /// mediated attribute has at most one source attribute.
    pub fn insert(&mut self, a: AttrId, j: usize) {
        let mut buf: Vec<(AttrId, usize)> = self.correspondences().collect();
        buf.push((a, j));
        *self = Mapping::build(&mut buf);
    }

    /// The mediated attributes `a` maps to, ascending (none if `a` is
    /// unmapped).
    pub fn targets_of(&self, a: AttrId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.pairs.partition_point(|&(b, _)| b < a);
        let hi = self.pairs.partition_point(|&(b, _)| b <= a);
        self.pairs
            .get(lo..hi)
            .unwrap_or(&[])
            .iter()
            .map(|&(_, j)| j as usize)
    }

    /// The unique source attribute corresponding to mediated attribute `j`.
    pub fn source_of(&self, j: usize) -> Option<AttrId> {
        self.pairs
            .iter()
            .find(|&&(_, t)| t as usize == j)
            .map(|&(a, _)| a)
    }

    /// Iterate `(source attr, mediated index)` correspondences, ascending.
    pub fn correspondences(&self) -> impl Iterator<Item = (AttrId, usize)> + '_ {
        self.pairs.iter().map(|&(a, j)| (a, j as usize))
    }

    /// Number of correspondences.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether this is the empty mapping.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether every source attribute maps to exactly one mediated
    /// attribute (Definition 3.2's one-to-one case).
    pub fn is_one_to_one(&self) -> bool {
        self.pairs
            .windows(2)
            .all(|w| matches!(w, [x, y] if x.0 != y.0))
    }
}

/// A probabilistic mapping (Definition 3.2): distinct mappings with
/// probabilities summing to 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PMapping {
    mappings: Vec<(Mapping, f64)>,
}

impl PMapping {
    /// Build from `(mapping, probability)` pairs; validates the
    /// Definition 3.2 side conditions.
    pub fn new(mappings: Vec<(Mapping, f64)>) -> PMapping {
        assert!(
            !mappings.is_empty(),
            "a p-mapping needs at least one mapping"
        );
        let total: f64 = mappings.iter().map(|(_, p)| p).sum();
        assert!(
            (total - 1.0).abs() < 1e-6,
            "probabilities sum to {total}, not 1"
        );
        for (_, p) in &mappings {
            assert!(*p > 0.0 && *p <= 1.0 + 1e-9, "probability {p} out of range");
        }
        // Duplicates sort next to each other under any total order
        // consistent with `Eq`; the flat slice order is the cheapest.
        let mut keys: Vec<&Mapping> = mappings.iter().map(|(m, _)| m).collect();
        keys.sort_unstable_by(|x, y| x.pairs.cmp(&y.pairs));
        let dup = keys
            .windows(2)
            .any(|w| matches!(w, [x, y] if x.pairs == y.pairs));
        assert!(!dup, "duplicate mapping");
        PMapping { mappings }
    }

    /// The `(mapping, probability)` pairs.
    pub fn mappings(&self) -> &[(Mapping, f64)] {
        &self.mappings
    }

    /// Number of possible mappings (always at least 1 — a p-mapping cannot
    /// be empty, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// The single most probable mapping (ties broken by position).
    pub fn top_mapping(&self) -> &Mapping {
        let (m, _) = self
            .mappings
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            // udi-audit: allow(no-panic-in-lib, "PMapping::new requires at least one mapping; emptiness is unconstructible")
            .expect("non-empty by construction");
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[u32]) -> Vec<AttrId> {
        xs.iter().map(|&x| AttrId(x)).collect()
    }

    #[test]
    fn remove_source_keeps_vocabulary_stable() {
        let mut set =
            SchemaSet::from_sources([("s1", vec!["name", "phone"]), ("s2", vec!["name", "email"])]);
        let email = set.vocab().id_of("email").unwrap();
        assert!(set.remove_source("s2"));
        assert!(!set.remove_source("s2"), "already gone");
        assert_eq!(set.sources().len(), 1);
        // Ids survive; the orphaned attribute just drops to frequency 0.
        assert_eq!(set.vocab().id_of("email"), Some(email));
        assert_eq!(set.frequency(email), 0.0);
        assert!(!set.frequent_attributes(0.5).contains(&email));
    }

    #[test]
    fn vocabulary_interns_stably() {
        let mut v = Vocabulary::new();
        let a = v.intern("name");
        let b = v.intern("phone");
        assert_eq!(v.intern("name"), a);
        assert_ne!(a, b);
        assert_eq!(v.name(a), "name");
        assert_eq!(v.id_of("phone"), Some(b));
        assert_eq!(v.id_of("zzz"), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn vocabulary_serde_round_trip_rebuilds_index() {
        if serde_json::to_string(&Vocabulary::new()).is_err() {
            // Offline stub backend (see offline/README.md): nothing to test.
            return;
        }
        let mut v = Vocabulary::new();
        v.intern("name");
        v.intern("phone");
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"["name","phone"]"#);
        let back: Vocabulary = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.id_of("phone"),
            Some(AttrId(1)),
            "index must be rebuilt"
        );
        assert_eq!(back.name(AttrId(0)), "name");
    }

    #[test]
    fn schema_set_frequencies() {
        let set = SchemaSet::from_sources([
            ("s1", vec!["name", "phone"]),
            ("s2", vec!["name", "addr"]),
            ("s3", vec!["name", "phone"]),
            ("s4", vec!["title"]),
        ]);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        assert_eq!(set.frequency(name), 0.75);
        assert_eq!(set.frequency(phone), 0.5);
        let freq = set.frequent_attributes(0.5);
        assert_eq!(freq, vec![name, phone]);
    }

    #[test]
    fn maintained_counts_track_mutations_and_duplicates() {
        let mut set = SchemaSet::default();
        // A schema repeating an attribute name still counts the source once.
        set.add_source("s1", ["name", "name", "phone"]);
        set.add_source("s2", ["name"]);
        let name = set.vocab().id_of("name").unwrap();
        let phone = set.vocab().id_of("phone").unwrap();
        assert_eq!(set.frequency(name), 1.0);
        assert_eq!(set.frequency(phone), 0.5);
        set.remove_source("s1");
        assert_eq!(set.frequency(name), 1.0, "s2 still has name");
        assert_eq!(set.frequency(phone), 0.0);
        assert_eq!(set.frequent_attributes(0.5), vec![name]);
        // Rehydration from the wire shape rebuilds the same counts.
        let back = SchemaSet::from(SchemaSetRepr::from(set.clone()));
        assert_eq!(back.frequency(name), set.frequency(name));
        assert_eq!(back.frequency(phone), set.frequency(phone));
    }

    #[test]
    fn mediated_schema_canonicalization() {
        let a = MediatedSchema::from_slices(&[&ids(&[2, 3]), &ids(&[0, 1])]);
        let b = MediatedSchema::from_slices(&[&ids(&[1, 0]), &ids(&[3, 2])]);
        assert_eq!(a, b);
        assert_eq!(a.cluster_of(AttrId(3)), a.cluster_of(AttrId(2)));
        assert_eq!(a.cluster_of(AttrId(9)), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two clusters")]
    fn overlapping_clusters_rejected() {
        MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[1, 2])]);
    }

    #[test]
    fn consistency_definition_4_1() {
        // M groups attrs 0 and 1 together.
        let m = MediatedSchema::from_slices(&[&ids(&[0, 1]), &ids(&[2])]);
        let s_ok = SourceSchema {
            name: "a".into(),
            attrs: ids(&[0, 2]),
        };
        let s_bad = SourceSchema {
            name: "b".into(),
            attrs: ids(&[0, 1]),
        };
        assert!(m.is_consistent_with(&s_ok));
        assert!(!m.is_consistent_with(&s_bad));
    }

    #[test]
    fn p_med_schema_validation() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0, 1])]);
        let m2 = MediatedSchema::from_slices(&[&ids(&[0]), &ids(&[1])]);
        let p = PMedSchema::new(vec![(m1.clone(), 0.7), (m2, 0.3)]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_deterministic());
        assert_eq!(p.top(), &m1);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn p_med_schema_rejects_bad_sum() {
        let m1 = MediatedSchema::from_slices(&[&ids(&[0])]);
        PMedSchema::new(vec![(m1, 0.5)]);
    }

    #[test]
    fn mapping_one_to_one_and_inverse() {
        let m = Mapping::one_to_one([(AttrId(5), 0), (AttrId(7), 2)]);
        assert!(m.is_one_to_one());
        assert_eq!(m.source_of(0), Some(AttrId(5)));
        assert_eq!(m.source_of(1), None);
        assert_eq!(m.targets_of(AttrId(7)).collect::<Vec<_>>(), vec![2]);
        assert_eq!(m.targets_of(AttrId(6)).count(), 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn mapping_one_to_many() {
        let mut m = Mapping::empty();
        m.insert(AttrId(1), 0);
        m.insert(AttrId(1), 3);
        assert!(!m.is_one_to_one());
        assert_eq!(m.len(), 2);
        let cs: Vec<(AttrId, usize)> = m.correspondences().collect();
        assert_eq!(cs, vec![(AttrId(1), 0), (AttrId(1), 3)]);
    }

    #[test]
    #[should_panic(expected = "already corresponds")]
    fn mapping_rejects_two_sources_for_one_mediated() {
        let mut m = Mapping::empty();
        m.insert(AttrId(1), 0);
        m.insert(AttrId(2), 0);
    }

    #[test]
    fn pmapping_top_mapping() {
        let a = Mapping::one_to_one([(AttrId(0), 0)]);
        let b = Mapping::empty();
        let pm = PMapping::new(vec![(a.clone(), 0.4), (b, 0.6)]);
        assert_eq!(pm.top_mapping(), &Mapping::empty());
        assert_eq!(pm.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate mapping")]
    fn pmapping_rejects_duplicates() {
        let a = Mapping::empty();
        PMapping::new(vec![(a.clone(), 0.5), (a, 0.5)]);
    }

    #[test]
    fn mapping_build_reuses_and_canonicalizes_the_buffer() {
        let mut buf = vec![(AttrId(2), 1), (AttrId(1), 0), (AttrId(2), 1)];
        let m = Mapping::build(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(m, Mapping::one_to_one([(AttrId(1), 0), (AttrId(2), 1)]));
        assert_eq!(
            MappingRepr::from(m.clone()).assignments.len(),
            2,
            "wire shape groups by attribute"
        );
        assert_eq!(Mapping::from(MappingRepr::from(m.clone())), m);
    }

    #[test]
    fn mediated_schema_display() {
        let mut v = Vocabulary::new();
        let n = v.intern("name");
        let p = v.intern("phone");
        let m = MediatedSchema::from_slices(&[&[n], &[p]]);
        assert_eq!(m.display(&v), "({name}, {phone})");
    }
}
