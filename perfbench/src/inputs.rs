//! Workload inputs, generated before anything is timed.
//!
//! The program only ever receives what this module produces: corpora
//! (source catalogs), request lines, and mutation payloads. The corpora
//! are fixed (the Table 1 domains and the scale corpus at seed 2008, the
//! seed the `exp_*` binaries default to), and so are the Car queries and
//! every workload's mutation stream, so that set-up, refresh and the Car
//! read mix do the same work on every run. The seed orders each read mix and draws the
//! point lookups' select lists and literals.

use std::collections::BTreeSet;

use udi_datagen::{generate, scale_catalog, scale_source, Domain, GenConfig, ScaleConfig};
use udi_query::{AggFunc, Aggregate, AggregateQuery, CompareOp, Predicate, Query};
use udi_serve::AnswerPath;
use udi_store::{Catalog, Table, Value};

use crate::wire::{aggregate_text, sql_text, PathName, ReadReq};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Car corpus, the ten §7.1 queries on all five paths, no writes.
    CarRead,
    /// Movie corpus, point lookups with fresh literals.
    MoviePoint,
    /// 10k-source scale corpus; blocking and scoring dominate set-up.
    ScaleSetup,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CarRead,
        Workload::MoviePoint,
        Workload::ScaleSetup,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CarRead => "car-read",
            Workload::MoviePoint => "movie-point",
            Workload::ScaleSetup => "scale-setup",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A `splitmix64` stream: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        items.get(self.below(items.len()))
    }
}

/// A mutation the writer publishes.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Register a new source.
    AddSource(Table),
    /// Fold ground-truth judgments in.
    Feedback {
        /// Same-concept pairs.
        same: Vec<(String, String)>,
        /// Different-concept pairs.
        different: Vec<(String, String)>,
    },
}

/// Everything a run of one workload needs.
pub struct Inputs {
    /// The corpus set up and served.
    pub corpus: Catalog,
    /// Read requests, in the order clients cycle through them.
    pub reads: Vec<ReadReq>,
    /// Requests held in reserve: when no request of the mix returns an
    /// answer on some path, the first reserve request that does joins the
    /// mix, so the identity check on that path is not vacuous.
    pub reserve: Vec<ReadReq>,
    /// Mutations, in publish order.
    pub mutations: Vec<Mutation>,
}

/// Sources in the Car corpus (Table 1).
const CAR_SOURCES: usize = 817;
/// Sources in the Movie corpus (Table 1).
const MOVIE_SOURCES: usize = 161;
/// Point lookups generated for `movie-point`.
const MOVIE_REQUESTS: usize = 1024;
/// Sources in the scale corpus.
pub const SCALE_SOURCES: usize = 10_000;
/// Point lookups generated for `scale-setup`.
const SCALE_REQUESTS: usize = 64;
/// Mutations generated for workloads that publish.
const MUTATIONS: usize = 64;
/// Seed of the feedback judgments: fixed, like the corpus.
const MUTATION_SEED: u64 = 0x0FEE_DBAC;

/// Builds the inputs of `workload` from `seed`.
pub fn build(workload: Workload, seed: u64) -> Result<Inputs, String> {
    match workload {
        Workload::CarRead => car(seed),
        Workload::MoviePoint => movie(seed),
        Workload::ScaleSetup => scale(seed),
    }
}

/// The corpus of `workload` alone: the catalog [`build`] returns.
pub fn corpus(workload: Workload) -> Catalog {
    match workload {
        Workload::CarRead => domain(Domain::Car, CAR_SOURCES).catalog,
        Workload::MoviePoint => domain(Domain::Movie, MOVIE_SOURCES).catalog,
        Workload::ScaleSetup => scale_catalog(&scale_config()),
    }
}

/// Seed of every corpus: the `exp_*` binaries' default `UDI_SEED`.
const CORPUS_SEED: u64 = 2008;

/// Seed of the §7.1 query generator, as `exp_serve` draws it (corpus seed
/// plus one). The queries are fixed like the corpus, so the mix's cost is
/// the same on every run; the workload seed orders the requests.
const QUERY_SEED: u64 = CORPUS_SEED + 1;

/// The ten §7.1 queries on the four select paths plus each query's grouped
/// count on the aggregate path, in a seeded order; then the same for the
/// next thirty queries of the workload generator, as the reserve.
fn section_7_1_mix(
    gen: &udi_datagen::GeneratedDomain,
    seed: u64,
) -> Result<(Vec<ReadReq>, Vec<ReadReq>), String> {
    // The generator draws queries one after another from one stream, so
    // the first ten of forty are the ten it would return alone.
    let queries = udi_eval::generate_workload(gen, 40, QUERY_SEED);
    let mut reads = Vec::new();
    for q in &queries {
        let text = sql_text(q)?;
        for path in [
            AnswerPath::Consolidated,
            AnswerPath::Pmed,
            AnswerPath::TopMapping,
            AnswerPath::ByTuple,
        ] {
            reads.push(ReadReq {
                path: PathName::of(path),
                text: text.clone(),
            });
        }
        let agg = grouped_count(q);
        reads.push(ReadReq {
            path: PathName::of(AnswerPath::Aggregate),
            text: aggregate_text(&agg)?,
        });
    }
    let reserve = reads.split_off(10 * AnswerPath::ALL.len());
    shuffle(&mut reads, &mut Rng::new(seed, 2));
    Ok((reads, reserve))
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The fixed scale corpus's configuration.
fn scale_config() -> ScaleConfig {
    ScaleConfig {
        n_sources: SCALE_SOURCES,
        seed: CORPUS_SEED,
        ..ScaleConfig::default()
    }
}

/// The fixed corpus of a paper domain, with its ground truth.
fn domain(domain: Domain, sources: usize) -> udi_datagen::GeneratedDomain {
    generate(
        domain,
        &GenConfig {
            n_sources: Some(sources),
            seed: CORPUS_SEED,
            ..GenConfig::default()
        },
    )
}

fn car(seed: u64) -> Result<Inputs, String> {
    let gen = domain(Domain::Car, CAR_SOURCES);
    let (reads, reserve) = section_7_1_mix(&gen, seed)?;
    let mutations = feedback_mutations(&gen);
    Ok(Inputs {
        corpus: gen.catalog,
        reads,
        reserve,
        mutations,
    })
}

/// Ground-truth feedback batches, each one same-concept and one
/// different-concept pair.
fn feedback_mutations(gen: &udi_datagen::GeneratedDomain) -> Vec<Mutation> {
    // Attribute names that occur in the corpus, grouped by concept.
    let groups: Vec<Vec<&str>> = gen
        .concepts
        .iter()
        .map(|c| {
            c.variants
                .iter()
                .copied()
                .filter(|v| gen.catalog.attribute_frequency(v) > 0.0 && !gen.truth.is_ambiguous(v))
                .collect()
        })
        .collect();
    let mut same: Vec<(String, String)> = Vec::new();
    for g in &groups {
        for (i, a) in g.iter().enumerate() {
            for b in g.iter().skip(i + 1) {
                if gen.truth.same_concept(a, b) == Some(true) {
                    same.push(((*a).to_owned(), (*b).to_owned()));
                }
            }
        }
    }
    let mut different: Vec<(String, String)> = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        for h in groups.iter().skip(i + 1) {
            if let (Some(a), Some(b)) = (g.first(), h.first()) {
                if gen.truth.same_concept(a, b) == Some(false) {
                    different.push(((*a).to_owned(), (*b).to_owned()));
                }
            }
        }
    }
    let mut rng = Rng::new(MUTATION_SEED, 4);
    (0..MUTATIONS)
        .map(|_| Mutation::Feedback {
            same: rng.pick(&same).cloned().into_iter().collect(),
            different: rng.pick(&different).cloned().into_iter().collect(),
        })
        .collect()
}

/// Distinct non-null text values of `attr` across the catalog, sorted.
fn text_values(catalog: &Catalog, attr: &str) -> Vec<String> {
    let mut values: BTreeSet<String> = BTreeSet::new();
    for sid in catalog.sources_with_attribute(attr) {
        let Ok(table) = catalog.source(sid) else {
            continue;
        };
        for row in 0..table.row_count() {
            if let Some(Value::Text(s)) = table.cell(row, attr) {
                values.insert(s.clone());
            }
        }
    }
    values.into_iter().collect()
}

/// `SELECT key, <random non-empty subset of others> FROM T WHERE key = v`
/// for literals `v` drawn from the corpus.
fn point_lookups(
    catalog: &Catalog,
    key: &str,
    others: &[String],
    n: usize,
    rng: &mut Rng,
) -> Result<Vec<ReadReq>, String> {
    let literals = text_values(catalog, key);
    if literals.is_empty() || others.is_empty() {
        return Err(format!("corpus has no `{key}` values to look up"));
    }
    let mut reads = Vec::with_capacity(n);
    for _ in 0..n {
        let mask = 1 + rng.below((1usize << others.len().min(8)) - 1);
        let mut select = vec![key.to_owned()];
        select.extend(
            others
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone()),
        );
        let literal = rng.pick(&literals).cloned().unwrap_or_default();
        let q = Query::new(
            select,
            vec![Predicate::new(key, CompareOp::Eq, Value::Text(literal))],
        );
        reads.push(ReadReq {
            path: PathName::of(AnswerPath::Consolidated),
            text: sql_text(&q)?,
        });
    }
    Ok(reads)
}

fn movie(seed: u64) -> Result<Inputs, String> {
    let gen = domain(Domain::Movie, MOVIE_SOURCES);
    let others: Vec<String> = ["year", "director", "genre", "rating"]
        .iter()
        .filter(|a| gen.catalog.attribute_frequency(a) >= 0.10)
        .map(|a| (*a).to_owned())
        .collect();
    let reads = point_lookups(
        &gen.catalog,
        "movie",
        &others,
        MOVIE_REQUESTS,
        &mut Rng::new(seed, 2),
    )?;
    let mutations = feedback_mutations(&gen);
    Ok(Inputs {
        corpus: gen.catalog,
        reads,
        reserve: Vec::new(),
        mutations,
    })
}

/// The scale corpus. Nothing in the repository queries it, but every
/// result carries the read and publish metrics, so its reads are point
/// lookups shaped like `movie-point`'s, and its mutations add fresh sources
/// generated like the corpus's.
fn scale(seed: u64) -> Result<Inputs, String> {
    let cfg = scale_config();
    let corpus = scale_catalog(&cfg);
    // Concept 0 stores text, so its canonical label is the lookup key.
    let key = udi_datagen::scale::canonical_label(0);
    let others: Vec<String> = (1..4).map(udi_datagen::scale::canonical_label).collect();
    let reads = point_lookups(
        &corpus,
        &key,
        &others,
        SCALE_REQUESTS,
        &mut Rng::new(seed, 2),
    )?;
    // Fresh sources past the corpus's end, generated the same way.
    let mutations = (SCALE_SOURCES..SCALE_SOURCES + MUTATIONS)
        .map(|i| Mutation::AddSource(scale_source(&cfg, i)))
        .collect();
    Ok(Inputs {
        corpus,
        reads,
        reserve: Vec::new(),
        mutations,
    })
}

/// The aggregate form of a select query: its first attribute's grouped
/// count under the same predicates.
pub fn grouped_count(q: &Query) -> AggregateQuery {
    AggregateQuery {
        group_by: q.select.iter().take(1).cloned().collect(),
        aggregates: vec![Aggregate {
            func: AggFunc::Count,
            attribute: None,
        }],
        predicates: q.predicates.clone(),
        from: q.from.clone(),
    }
}
