//! Conjunction decomposition: the service's narrowing conjunction must
//! answer exactly what its predicates answer one at a time.
//!
//! For content predicates `P1..Pk` and a metadata condition `M`,
//! `matched(P1 AND … AND Pk AND M)` is the intersection of the
//! single-predicate answers `matched(Pi AND M)`, in corpus order, and the
//! reported metadata-survivor count (`survivors=` on the wire) equals the
//! number of items the metadata-only query `M` matches. The single-predicate
//! answers never see a narrowed pack, so this checks the narrowing driver
//! against an answer it did not produce.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use tahoma_core::query::Corpus;
use tahoma_imagery::ObjectKind;
use tahoma_serve::fixture::{nn_service, surrogate_service, NnFixtureConfig};
use tahoma_serve::{ExecPolicy, QueryService};

const KINDS: [&str; 3] = ["fence", "wallet", "acorn"];

/// Metadata conditions: none, a camera range, a location, a timestamp
/// range, and one that matches nothing.
const METADATA: [&str; 5] = [
    "",
    "camera < 4",
    "location = 'Detroit'",
    "timestamp >= 1700003000",
    "location = 'Nowhere'",
];

const SURROGATE_N: usize = 256;
const SURROGATE_SEED: u64 = 0xC0DE;

fn surrogate_fixture() -> Arc<QueryService> {
    static SERVICE: OnceLock<Arc<QueryService>> = OnceLock::new();
    Arc::clone(SERVICE.get_or_init(|| {
        Arc::new(surrogate_service(
            &[ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn],
            SURROGATE_N,
            SURROGATE_SEED,
        ))
    }))
}

fn sql(kinds: &[&str], meta: &str) -> String {
    let mut conds: Vec<String> = kinds
        .iter()
        .map(|k| format!("contains_object({k})"))
        .collect();
    if !meta.is_empty() {
        conds.push(meta.to_string());
    }
    if conds.is_empty() {
        "SELECT * FROM frames".to_string()
    } else {
        format!("SELECT * FROM frames WHERE {}", conds.join(" AND "))
    }
}

/// Check the decomposition for one (ordered predicate list, metadata)
/// pair and return the conjunction's answer.
fn check(service: &QueryService, kinds: &[&str], meta: &str) -> Vec<u64> {
    let run = |q: &str| {
        service
            .execute_with(q, ExecPolicy::default())
            .unwrap_or_else(|e| panic!("{q}: {e}"))
    };
    let conj_sql = sql(kinds, meta);
    let conj = run(&conj_sql);
    let only_meta = run(&sql(&[], meta)).matched_ids;
    let singles: Vec<Vec<u64>> = kinds
        .iter()
        .map(|k| run(&sql(&[k], meta)).matched_ids)
        .collect();
    let expected: Vec<u64> = only_meta
        .iter()
        .copied()
        .filter(|id| singles.iter().all(|s| s.contains(id)))
        .collect();
    assert_eq!(conj.matched_ids, expected, "{conj_sql}");
    assert_eq!(
        conj.metadata_survivors,
        only_meta.len(),
        "{conj_sql}: survivors= must equal n= of the metadata-only query"
    );
    conj.matched_ids
}

/// Every subset and ordering of the three kinds, plus a duplicated
/// predicate, under every metadata condition.
#[test]
fn every_ordered_subset_decomposes() {
    let service = surrogate_fixture();
    let mut orders: Vec<Vec<&str>> = vec![Vec::new(), vec!["fence", "fence"]];
    for a in KINDS {
        orders.push(vec![a]);
        for b in KINDS.iter().filter(|&&b| b != a) {
            orders.push(vec![a, b]);
            for c in KINDS.iter().filter(|&&c| c != a && c != *b) {
                orders.push(vec![a, b, c]);
            }
        }
    }
    assert_eq!(orders.len(), 17);
    for kinds in &orders {
        for meta in METADATA {
            check(&service, kinds, meta);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random predicate lists, repeats included, under random metadata.
    #[test]
    fn random_conjunctions_decompose(
        picks in prop::collection::vec(0usize..3, 0..5),
        meta in 0usize..5,
    ) {
        let kinds: Vec<&str> = picks.iter().map(|&i| KINDS[i]).collect();
        check(&surrogate_fixture(), &kinds, METADATA[meta]);
    }
}

#[test]
fn metadata_only_query_matching_nothing() {
    let out = surrogate_fixture()
        .execute_with(&sql(&[], "location = 'Nowhere'"), ExecPolicy::default())
        .expect("metadata-only query");
    assert!(out.matched_ids.is_empty());
    assert_eq!(out.metadata_survivors, 0);
    assert!(!out.plan_hit, "a metadata-only query has no plan to hit");
}

/// A conjunction whose first planned predicate rejects every metadata
/// survivor: the later predicates never run, and the answer is still the
/// (empty) intersection.
#[test]
fn first_planned_predicate_matching_nothing() {
    let service = surrogate_fixture();
    let kinds = [ObjectKind::Fence, ObjectKind::Wallet, ObjectKind::Acorn];
    let (plan, _) = service.plan_for(&kinds, false).expect("plans");
    let first = plan.entries[0].0.name();
    let first_matches = check(&service, &[first], "");
    // The fixture's corpus, rebuilt to read an item's timestamp: pin the
    // metadata to one item the first planned predicate rejects.
    let corpus = Corpus::synthetic(SURROGATE_N, 0.3, SURROGATE_SEED);
    let item = corpus
        .items
        .iter()
        .find(|it| !first_matches.contains(&it.id))
        .expect("the first planned predicate rejects some item");
    let meta = format!("timestamp = {}", item.timestamp);
    assert_eq!(
        check(&service, &[], &meta),
        vec![item.id],
        "one metadata survivor"
    );
    assert!(check(&service, &[first], &meta).is_empty());
    for order in [
        ["fence", "wallet", "acorn"],
        ["acorn", "wallet", "fence"],
        ["wallet", "fence", "acorn"],
    ] {
        assert!(check(&service, &order, &meta).is_empty());
    }
}

/// The concurrency suite's fixed `QUERIES` list on the real-NN fixture,
/// as (predicates, metadata) pairs, plus a reordered and a duplicated
/// conjunction.
#[test]
fn nn_queries_decompose() {
    const QUERIES: [(&[&str], &str); 8] = [
        (&["fence"], ""),
        (&["wallet"], ""),
        (&["fence", "wallet"], ""),
        (&["fence"], "location = 'Detroit'"),
        (&["wallet"], "camera < 4"),
        (&[], "location = 'Flint'"),
        (&["wallet", "fence"], "camera < 4"),
        (&["fence", "fence"], "location = 'Detroit'"),
    ];
    let service = nn_service(&NnFixtureConfig {
        corpus_n: 96,
        ..Default::default()
    });
    for (kinds, meta) in QUERIES {
        check(&service, kinds, meta);
    }
}
