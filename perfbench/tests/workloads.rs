//! The workload generators, checked at a tiny seeded scale against
//! brute-force world enumeration, and pinned so that a seed changes the data
//! but not the amount of work.

use pvc_db::{try_evaluate, Database, Engine, EvalOptions, Query, Value};
use pvc_expr::oracle::{confidence_by_enumeration, semimodule_dist_by_enumeration};
use pvc_perfbench::gen::{self, Request};
use pvc_serve::loadgen::query_mix;

/// Largest annotation the oracle enumerates here (2^16 worlds).
const MAX_VARS: usize = 16;

/// Evaluate `query` on a fresh engine and compare every confidence and
/// aggregate distribution with world enumeration. Returns the result size.
fn assert_matches_oracle(db: &Database, query: &Query) -> usize {
    let table = try_evaluate(db, query).expect("query evaluates");
    let engine = Engine::new(db.clone());
    let result = engine
        .prepare(query)
        .and_then(|p| p.execute(&EvalOptions::default()))
        .expect("query executes");
    assert_eq!(result.tuples.len(), table.tuples.len());
    for (got, tuple) in result.tuples.iter().zip(&table.tuples) {
        let vars = tuple.annotation.vars().len();
        assert!(vars <= MAX_VARS, "annotation over {vars} variables");
        let want = confidence_by_enumeration(&tuple.annotation, &db.vars, db.kind);
        assert!(
            (got.confidence - want).abs() < 1e-9,
            "{query:?}: confidence {} vs oracle {want}",
            got.confidence
        );
        for (column, value) in table.schema.names().iter().zip(&tuple.values) {
            let Value::Agg(expr) = value else { continue };
            assert!(expr.vars().len() <= MAX_VARS);
            let want = semimodule_dist_by_enumeration(expr, &db.vars, db.kind);
            let dist = &got.aggregate_distributions[*column];
            assert!(dist.approx_eq(&want, 1e-9), "{query:?}: {column} differs");
        }
    }
    result.tuples.len()
}

#[test]
fn cold_compile_queries_match_the_oracle() {
    for seed in [1, 2] {
        let db = gen::shop_db(seed, 3, 2);
        for swapped in [false, true] {
            for c in gen::COLD_THRESHOLDS {
                assert_eq!(assert_matches_oracle(&db, &gen::q2_shape(swapped, c)), 3);
            }
        }
    }
}

#[test]
fn tpch_queries_match_the_oracle() {
    let lineitems = pvc_tpch::Cardinalities::for_scale(0.002).lineitems;
    for seed in [1, 2] {
        let db = gen::tpch_db(seed, 0.002);
        for op in gen::tpch_ops(seed, lineitems).take(4) {
            for q in op.queries() {
                assert_matches_oracle(&db, &q);
            }
        }
    }
}

#[test]
fn serve_mix_matches_the_oracle_across_writes() {
    let (shops, per_shop) = (3, 2);
    for seed in [1, 2] {
        let mut engine = Engine::new(gen::shop_db(seed, shops, per_shop));
        for delta in gen::serve_writes(seed, 0, 8, shops, per_shop) {
            engine.apply_delta(delta).expect("write applies");
            for q in query_mix() {
                assert_matches_oracle(engine.database(), &q);
            }
        }
    }
}

/// Probabilities and integer cells of every table, in table order.
fn data(db: &Database) -> Vec<String> {
    let mut out = Vec::new();
    for name in db.table_names() {
        let table = db.table(name).expect("listed table exists");
        for t in &table.tuples {
            out.push(format!("{:?} {}", t.values, t.annotation));
        }
    }
    out.push(format!("{:?}", db.vars));
    out
}

fn sizes(db: &Database) -> Vec<(String, usize)> {
    db.table_names()
        .into_iter()
        .map(|n| {
            (
                n.to_string(),
                db.table(n).expect("listed table exists").len(),
            )
        })
        .collect()
}

#[test]
fn seeds_change_data_not_work() {
    let dbs = [
        (
            gen::shop_db(1, gen::COLD_SHOPS, gen::COLD_PER_SHOP),
            gen::shop_db(2, gen::COLD_SHOPS, gen::COLD_PER_SHOP),
        ),
        (gen::tpch_db(1, 0.05), gen::tpch_db(2, 0.05)),
        (gen::serve_db(1, 0), gen::serve_db(2, 0)),
    ];
    for (a, b) in &dbs {
        assert_eq!(sizes(a), sizes(b));
        assert_eq!(a.vars.len(), b.vars.len());
        assert_ne!(data(a), data(b));
    }
    // The cold_compile database has the sizes the workload is defined by.
    assert_eq!(dbs[0].0.vars.len(), 264);
    let q = gen::q2_shape(false, 60);
    assert_eq!(try_evaluate(&dbs[0].0, &q).unwrap().len(), 24);
    assert_eq!(try_evaluate(&dbs[0].1, &q).unwrap().len(), 24);

    let a: Vec<_> = gen::cold_compile_ops(1).take(50).collect();
    let b: Vec<_> = gen::cold_compile_ops(2).take(50).collect();
    assert_ne!(a, b);
    assert!(a.iter().zip(&b).all(|(x, y)| x.swapped == y.swapped));

    let mix = query_mix().len();
    for phase in 0..3 {
        let a = gen::serve_schedule(1, phase, 400, mix);
        let b = gen::serve_schedule(2, phase, 400, mix);
        assert_ne!(a, b);
        let writes = |s: &[Request]| -> Vec<bool> {
            s.iter()
                .map(|r| matches!(r, Request::Write { .. }))
                .collect()
        };
        assert_eq!(writes(&a), writes(&b));
        assert_eq!(
            writes(&a).iter().filter(|w| **w).count(),
            400 / gen::SERVE_WRITE_EVERY
        );
    }
}

#[test]
fn union_renderings_of_the_mix_share_a_form() {
    use pvc_perfbench::check::union_form;
    let mix = query_mix();
    let forms: Vec<String> = mix.iter().map(union_form).collect();
    // 3/4 and 5/6 render the same union in both orders; the rest differ.
    assert_eq!(forms[3], forms[4]);
    assert_eq!(forms[5], forms[6]);
    let distinct: std::collections::BTreeSet<&String> = forms.iter().collect();
    assert_eq!(distinct.len(), 5);
    assert_eq!(
        union_form(&gen::q2_shape(false, 60)),
        union_form(&gen::q2_shape(true, 60))
    );
    assert_ne!(
        union_form(&gen::q2_shape(false, 60)),
        union_form(&gen::q2_shape(false, 65))
    );
}

#[test]
fn cold_reads_cover_every_operation() {
    let listed = |reads: Vec<Query>| -> std::collections::BTreeSet<String> {
        reads.iter().map(|q| format!("{q:?}")).collect()
    };
    let cold = listed(gen::cold_compile_reads());
    for op in gen::cold_compile_ops(3).take(200) {
        assert!(cold.contains(&format!("{:?}", op.query())));
    }
    let tpch = listed(gen::tpch_reads());
    for op in gen::tpch_ops(3, 100).take(200) {
        for q in op.queries() {
            assert!(tpch.contains(&format!("{q:?}")));
        }
    }
}
