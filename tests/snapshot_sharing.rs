//! Structural sharing between a snapshot and its clones.
//!
//! `UdiSystem::clone` shares source tables and p-mapping cells by `Arc`
//! instead of copying them, which is what makes the serving layer's
//! clone-mutate-publish cheap. Two properties pin that down:
//!
//! * **Isolation.** Over random add/remove/feedback sequences, each step
//!   applied to a clone, the original snapshot's answers on all five paths
//!   and its per-schema and consolidated p-mappings stay byte-identical to
//!   what they were before the clone was mutated.
//! * **Sharing.** After an `add_source` publish, every pre-existing table
//!   and every reused p-mapping cell is the same allocation in the old and
//!   the new snapshot, so a publish copies only what it changed.

use std::sync::Arc;

use proptest::prelude::*;

use udi::core::{Feedback, UdiConfig, UdiError, UdiSystem};
use udi::datagen::{scale_catalog, scale_source, ScaleConfig};
use udi::serve::{execute_answer, AnswerPath, ServeState};
use udi::store::{Catalog, SourceId, Table};

const ATTR_POOL: [&str; 7] = [
    "name", "phone", "phone no", "tel", "address", "year", "price",
];

fn table(name: String, attrs: &[&str], i: usize) -> Table {
    let mut t = Table::new(name, attrs.iter().copied());
    let row: Vec<String> = attrs.iter().map(|a| format!("{a}-v{i}")).collect();
    t.push_raw_row(row).unwrap();
    t
}

fn catalog_from(sources: &[Vec<&'static str>]) -> Catalog {
    let mut catalog = Catalog::new();
    for (i, attrs) in sources.iter().enumerate() {
        catalog
            .add_source(table(format!("s{i}"), attrs, i))
            .unwrap();
    }
    catalog
}

/// Everything a reader of `sys` can observe, as bytes: the rendered
/// answers of every path, then every per-schema and consolidated
/// p-mapping (`Debug` prints each probability exactly).
fn observe(sys: &UdiSystem) -> Vec<String> {
    let mut out = Vec::new();
    for path in AnswerPath::ALL {
        for attr in ATTR_POOL {
            let query = if path == AnswerPath::Aggregate {
                format!("SELECT COUNT(\"{attr}\") FROM T")
            } else {
                format!("SELECT \"{attr}\" FROM T")
            };
            let answers = execute_answer(sys, path, &query, 0).unwrap();
            out.push(format!("{} {query}: {}", path.name(), answers.render()));
        }
    }
    for src in 0..sys.catalog().source_count() {
        for schema in 0..sys.pmed().len() {
            out.push(format!("{src}/{schema}: {:?}", sys.pmapping(src, schema)));
        }
        out.push(format!("{src}/c: {:?}", sys.consolidated_pmapping(src)));
    }
    out
}

#[derive(Debug, Clone)]
enum Step {
    Add(Vec<&'static str>),
    Remove(usize),
    Judge(usize, usize, bool),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6).prop_map(Step::Add),
        (0usize..8).prop_map(Step::Remove),
        (0..ATTR_POOL.len(), 0..ATTR_POOL.len(), any::<bool>())
            .prop_map(|(a, b, same)| Step::Judge(a, b, same)),
    ]
}

fn apply(sys: &mut UdiSystem, step: &Step, k: usize) -> Result<(), UdiError> {
    match step {
        Step::Add(attrs) => sys.add_source(table(format!("x{k}"), attrs, k)),
        Step::Remove(i) => {
            let n = sys.catalog().source_count();
            if n < 2 {
                return Ok(());
            }
            let name = sys
                .catalog()
                .source(SourceId((i % n) as u32))
                .unwrap()
                .name()
                .to_owned();
            sys.remove_source(&name).map(drop)
        }
        Step::Judge(a, b, same) => {
            let mut fb = Feedback::new();
            if *same {
                fb.confirm_same(ATTR_POOL[*a], ATTR_POOL[*b]);
            } else {
                fb.confirm_different(ATTR_POOL[*a], ATTR_POOL[*b]);
            }
            sys.apply_feedback(&fb)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mutating_a_clone_never_changes_the_original(
        sources in proptest::collection::vec(
            prop::sample::subsequence(ATTR_POOL.to_vec(), 2..6),
            2..6,
        ),
        steps in proptest::collection::vec(step(), 1..6),
    ) {
        let Ok(mut current) = UdiSystem::setup(catalog_from(&sources), UdiConfig::default())
        else {
            return Ok(()); // e.g. matching explosion: nothing to share
        };
        let first = observe(&current);
        prop_assert!(
            first.iter().any(|line| !line.ends_with(": []")),
            "every answer is empty: the comparison would be vacuous"
        );
        for (k, step) in steps.iter().enumerate() {
            let before = observe(&current);
            let mut next = current.clone();
            let applied = apply(&mut next, step, k);
            // Whether the mutation published or failed half-way, the
            // original must not have moved.
            prop_assert_eq!(&observe(&current), &before, "step {} ({:?})", k, step);
            if applied.is_ok() {
                current = next;
            }
        }
    }
}

/// The scale corpus at `n` sources, plus its next source.
fn scale_with_next(n: usize) -> (Catalog, Table) {
    let cfg = ScaleConfig {
        n_sources: n,
        seed: 2008,
        ..ScaleConfig::default()
    };
    (scale_catalog(&cfg), scale_source(&cfg, n))
}

#[test]
fn a_publish_shares_every_surviving_table_and_reused_cell() {
    // At 200 sources the next source leaves the schema list in place, so
    // every old cell survives the publish.
    let (catalog, spare) = scale_with_next(200);
    let state = ServeState::new();
    state.register_tenant(
        "t",
        UdiSystem::setup(catalog, UdiConfig::default()).unwrap(),
    );
    let old = state.tenant("t").unwrap().snapshot();
    let (_, superseded) = state
        .mutate_tenant("t", state.recorder().span("test"), |sys| {
            sys.add_source(spare)
        })
        .unwrap()
        .unwrap();
    drop(superseded);
    let new = state.tenant("t").unwrap().snapshot();
    assert!(!Arc::ptr_eq(&old, &new), "the publish made a new snapshot");
    assert_eq!(
        new.catalog().source_count(),
        old.catalog().source_count() + 1
    );

    for (id, table) in old.catalog().iter_sources() {
        let after = new.catalog().source(id).unwrap();
        assert!(std::ptr::eq(table, after), "table {id} was copied");
    }

    // A cell is reused when its source is clean and its schema survived.
    let mut shared = 0;
    for (j, (schema, _)) in new.pmed().schemas().iter().enumerate() {
        let Some(oj) = old.pmed().schemas().iter().position(|(m, _)| m == schema) else {
            continue;
        };
        for src in 0..old.catalog().source_count() {
            assert!(
                std::ptr::eq(old.pmapping(src, oj), new.pmapping(src, j)),
                "p-mapping of source {src} under schema {j} was rebuilt or copied"
            );
            shared += 1;
        }
    }
    assert!(shared > 0, "the publish reused no p-mapping cell");

    // A refresh that moves nothing upstream reuses the consolidated rows
    // whole.
    let mut idle = (*new).clone();
    idle.apply_feedback(&Feedback::new()).unwrap();
    for src in 0..new.catalog().source_count() {
        assert!(
            std::ptr::eq(
                new.consolidated_pmapping(src),
                idle.consolidated_pmapping(src)
            ),
            "consolidated p-mapping of source {src} was rebuilt"
        );
    }
}
