//! Seeded inputs of the three workloads.
//!
//! Every generator keeps the *shape* of its input fixed (table sizes, join
//! structure, operation counts) and draws the *data* (prices, weights,
//! probabilities, query constants, write targets) from the seed. That way two
//! seeds give different answers but ask the engine for the same amount of
//! work, which is what lets runs with different seeds be compared.

use pvc_algebra::{AggOp, CmpOp};
use pvc_db::{AggSpec, Database, Delta, Predicate, Query, Schema, Value};
use pvc_prob::SeededRng;

/// Shops × listings of the `cold_compile` database (264 variables, 24 result
/// tuples).
pub const COLD_SHOPS: usize = 24;
/// Listings per shop of the `cold_compile` database.
pub const COLD_PER_SHOP: usize = 5;
/// The `HAVING MAX(price) ≤ c` thresholds `cold_compile` draws from. Few
/// distinct values keep the reference check (one uncached evaluation per
/// distinct query) short.
pub const COLD_THRESHOLDS: [i64; 5] = [50, 55, 60, 65, 70];

/// TPC-H scale factor of `tpch_cold`.
pub const TPCH_SCALE: f64 = 1.0;

/// Shops × listings of each `serve_mixed` tenant database.
pub const SERVE_SHOPS: usize = 24;
/// Listings per shop of each `serve_mixed` tenant database.
pub const SERVE_PER_SHOP: usize = 3;
/// Tenants of `serve_mixed`.
pub const SERVE_TENANTS: usize = 2;
/// One request in this many is a write.
pub const SERVE_WRITE_EVERY: usize = 20;

/// A probability in `[lo, hi)`, rounded to three decimals.
fn prob(rng: &mut SeededRng, lo: f64, hi: f64) -> f64 {
    ((lo + (hi - lo) * rng.next_f64()) * 1000.0).round() / 1000.0
}

/// The paper's running-example schema (shops, listings, two product tables)
/// at `shops × per_shop`. Which shop lists which product is fixed, as in the
/// bench crate's `cache_workload_db`; the seed draws prices, weights and every
/// tuple probability.
pub fn shop_db(seed: u64, shops: usize, per_shop: usize) -> Database {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    let products = (shops * per_shop / 2).max(1);
    let (s, vars) = db.table_and_vars_mut("S").expect("S was just created");
    for i in 0..shops {
        let p = prob(&mut rng, 0.3, 0.9);
        s.push_independent(
            vec![(i as i64).into(), format!("shop{i}").as_str().into()],
            p,
            vars,
        );
    }
    let (ps, vars) = db.table_and_vars_mut("PS").expect("PS was just created");
    for i in 0..shops {
        for j in 0..per_shop {
            let pid = (i * 31 + j * 7) % products;
            let price = rng.gen_range(10i64..100);
            let p = prob(&mut rng, 0.3, 0.7);
            ps.push_independent(
                vec![(i as i64).into(), (pid as i64).into(), price.into()],
                p,
                vars,
            );
        }
    }
    for table in ["P1", "P2"] {
        let (t, vars) = db
            .table_and_vars_mut(table)
            .expect("table was just created");
        for pid in 0..products {
            let weight = rng.gen_range(0i64..17);
            let p = prob(&mut rng, 0.5, 0.9);
            t.push_independent(vec![(pid as i64).into(), weight.into()], p, vars);
        }
    }
    db
}

/// The paper's Q2 shape: `π_shop σ_{P ≤ c} γ_{shop; P←MAX(price)}` over
/// S ⋈ PS ⋈ (P1 ∪ P2); `swapped` renders the union as P2 ∪ P1. Identical to
/// the bench crate's `cache_workload_query` except that `c` is a parameter.
pub fn q2_shape(swapped: bool, c: i64) -> Query {
    let products = if swapped {
        Query::table("P2").union(Query::table("P1"))
    } else {
        Query::table("P1").union(Query::table("P2"))
    };
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            products.rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, c))
        .project(["shop"])
}

/// A reweighting write: set the probability of one row of `table`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reweight {
    /// Table written.
    pub table: &'static str,
    /// Row index.
    pub row: usize,
    /// New presence probability.
    pub probability: f64,
}

impl Reweight {
    fn draw(rng: &mut SeededRng, table: &'static str, rows: usize) -> Reweight {
        Reweight {
            table,
            row: rng.gen_range(0..rows),
            probability: prob(rng, 0.2, 0.8),
        }
    }

    /// The write as a [`Delta`].
    pub fn delta(&self) -> Delta {
        Delta::new().set_probability(self.table, self.row, self.probability)
    }
}

/// One `cold_compile` operation: on a fresh engine, the Q2 shape with a
/// drawn rendering and threshold, then one reweighting of a listing.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdCompileOp {
    /// Union rendering (`P2 ∪ P1` when true).
    pub swapped: bool,
    /// HAVING threshold.
    pub c: i64,
    /// The write that follows the read.
    pub write: Reweight,
}

impl ColdCompileOp {
    /// The read of this operation.
    pub fn query(&self) -> Query {
        q2_shape(self.swapped, self.c)
    }
}

/// Every read `cold_compile` can issue.
pub fn cold_compile_reads() -> Vec<Query> {
    COLD_THRESHOLDS
        .iter()
        .flat_map(|&c| [q2_shape(false, c), q2_shape(true, c)])
        .collect()
}

/// The endless, seeded operation sequence of `cold_compile`. Renderings
/// alternate, so both are always used.
pub fn cold_compile_ops(seed: u64) -> impl Iterator<Item = ColdCompileOp> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xC01D);
    (0..).map(move |i: usize| ColdCompileOp {
        swapped: i % 2 == 1,
        c: COLD_THRESHOLDS[rng.gen_range(0..COLD_THRESHOLDS.len())],
        write: Reweight::draw(&mut rng, "PS", COLD_SHOPS * COLD_PER_SHOP),
    })
}

/// The TPC-H database of `tpch_cold` at `scale`, generated from the seed.
pub fn tpch_db(seed: u64, scale: f64) -> Database {
    pvc_tpch::generate(&pvc_tpch::TpchConfig {
        scale_factor: scale,
        seed,
        ..pvc_tpch::TpchConfig::default()
    })
}

/// Ship-date cutoffs `tpch_cold` draws Q1's from.
pub const TPCH_CUTOFFS: [i64; 3] = [1_750, 1_800, 1_850];
/// Regions `tpch_cold` draws Q2's from.
pub const TPCH_REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// Part-size bounds `tpch_cold` draws Q2's from.
pub const TPCH_PART_SIZES: [i64; 3] = [20, 25, 30];

/// One `tpch_cold` operation: Experiment F's Q1 then Q2 on a fresh engine,
/// then one reweighting of a line item.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchOp {
    /// Q1's ship-date cutoff.
    pub cutoff: i64,
    /// Q2's region.
    pub region: &'static str,
    /// Q2's maximum part size.
    pub part_size: i64,
    /// The write that follows the reads.
    pub write: Reweight,
}

impl TpchOp {
    /// The two reads of this operation, in order.
    pub fn queries(&self) -> [Query; 2] {
        [
            pvc_tpch::q1(self.cutoff),
            pvc_tpch::q2(self.region, self.part_size),
        ]
    }
}

/// Every read `tpch_cold` can issue.
pub fn tpch_reads() -> Vec<Query> {
    let q1 = TPCH_CUTOFFS.iter().map(|&c| pvc_tpch::q1(c));
    let q2 = TPCH_REGIONS.iter().flat_map(|&r| {
        TPCH_PART_SIZES
            .iter()
            .map(move |&size| pvc_tpch::q2(r, size))
    });
    q1.chain(q2).collect()
}

/// The endless, seeded operation sequence of `tpch_cold` over a database with
/// `lineitems` line items.
pub fn tpch_ops(seed: u64, lineitems: usize) -> impl Iterator<Item = TpchOp> {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x7C4);
    std::iter::repeat_with(move || TpchOp {
        cutoff: TPCH_CUTOFFS[rng.gen_range(0..TPCH_CUTOFFS.len())],
        region: TPCH_REGIONS[rng.gen_range(0..TPCH_REGIONS.len())],
        part_size: TPCH_PART_SIZES[rng.gen_range(0..TPCH_PART_SIZES.len())],
        write: Reweight::draw(&mut rng, "lineitem", lineitems),
    })
}

/// The database of `serve_mixed` tenant `tenant`.
pub fn serve_db(seed: u64, tenant: usize) -> Database {
    shop_db(
        seed.wrapping_add(1 + tenant as u64),
        SERVE_SHOPS,
        SERVE_PER_SHOP,
    )
}

/// One scheduled `serve_mixed` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Run query `query` of [`pvc_serve::loadgen::query_mix`] for `tenant`.
    Read {
        /// Tenant index.
        tenant: usize,
        /// Index into the query mix.
        query: usize,
    },
    /// Apply the tenant's next write.
    Write {
        /// Tenant index.
        tenant: usize,
    },
}

/// The `count` requests of one offered-rate phase. Every
/// [`SERVE_WRITE_EVERY`]-th request is a write; the seed draws tenants and
/// queries.
pub fn serve_schedule(seed: u64, phase: usize, count: usize, mix_len: usize) -> Vec<Request> {
    let mut rng = SeededRng::seed_from_u64(seed ^ (0x5E11 + phase as u64));
    (0..count)
        .map(|i| {
            let tenant = rng.gen_range(0..SERVE_TENANTS);
            if i % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1 {
                Request::Write { tenant }
            } else {
                Request::Read {
                    tenant,
                    query: rng.gen_range(0..mix_len),
                }
            }
        })
        .collect()
}

/// The first `count` writes of a `serve_mixed` tenant, in the order they are
/// applied. They cycle through four kinds so that both cache directions are
/// hit and table sizes stay bounded: reweight a listing (evicts the compiled
/// artifacts over its variable), insert a product into P1 or P2 (evicts the
/// step-I rewrites over that table), reweight another listing, and delete the
/// product just inserted.
///
/// `shops × per_shop` is the shape of the tenant database they apply to.
pub fn serve_writes(
    seed: u64,
    tenant: usize,
    count: usize,
    shops: usize,
    per_shop: usize,
) -> Vec<Delta> {
    let mut rng = SeededRng::seed_from_u64(seed ^ (0xDE17A + tenant as u64));
    let listings = shops * per_shop;
    let products = (listings / 2).max(1);
    (0..count)
        .map(|k| {
            let table = if (k / 4) % 2 == 0 { "P1" } else { "P2" };
            match k % 4 {
                1 => Delta::new().insert(
                    table,
                    vec![
                        Value::Int(rng.gen_range(0..products) as i64),
                        Value::Int(rng.gen_range(0i64..17)),
                    ],
                    prob(&mut rng, 0.5, 0.9),
                ),
                3 => Delta::new().delete(table, products),
                _ => Reweight::draw(&mut rng, "PS", listings).delta(),
            }
        })
        .collect()
}
