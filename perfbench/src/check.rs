//! Answer checking against a reference evaluation.
//!
//! Answers must agree with their reference bit for bit. The one exception is
//! the FFT convolution kernel, whose accuracy policy bounds the error at
//! `1e-9`; where it ran, answers are compared within that tolerance (the same
//! one `tests/oracle_differential.rs` uses).

use pvc_db::{ProbTuple, Query, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Tolerance applied where the FFT kernel ran.
pub const FFT_TOLERANCE: f64 = 1e-9;

/// Compare an answer with its reference. `Err` describes the first
/// difference.
pub fn compare(got: &[ProbTuple], want: &[ProbTuple], fft_ran: bool) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} tuples, expected {}", got.len(), want.len()));
    }
    let close = |a: f64, b: f64| {
        if fft_ran {
            (a - b).abs() <= FFT_TOLERANCE
        } else {
            a.to_bits() == b.to_bits()
        }
    };
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.values != w.values {
            return Err(format!("tuple {i}: values differ"));
        }
        if !close(g.confidence, w.confidence) {
            return Err(format!(
                "tuple {i}: confidence {:e}, expected {:e}",
                g.confidence, w.confidence
            ));
        }
        if g.aggregate_distributions.len() != w.aggregate_distributions.len() {
            return Err(format!("tuple {i}: aggregate columns differ"));
        }
        for (name, gd) in &g.aggregate_distributions {
            let Some(wd) = w.aggregate_distributions.get(name) else {
                return Err(format!("tuple {i}: unexpected aggregate {name}"));
            };
            let support = gd.support().chain(wd.support());
            for v in support {
                if !close(gd.prob(v), wd.prob(v)) {
                    return Err(format!(
                        "tuple {i}: P[{name} = {v:?}] = {:e}, expected {:e}",
                        gd.prob(v),
                        wd.prob(v)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One 64-bit digest per tuple of an answer, bit-exact in every
/// probability. Used where keeping every answer would distort the measured
/// memory.
pub fn tuple_digests(answer: &[ProbTuple]) -> Vec<u64> {
    answer
        .iter()
        .map(|t| {
            let mut h = DefaultHasher::new();
            for v in &t.values {
                match v {
                    // Aggregation cells hold expressions; their distributions
                    // below carry the answer.
                    Value::Agg(_) => 0u8.hash(&mut h),
                    other => other.to_string().hash(&mut h),
                }
            }
            t.confidence.to_bits().hash(&mut h);
            for (name, dist) in &t.aggregate_distributions {
                name.hash(&mut h);
                for (value, p) in dist.iter() {
                    value.hash(&mut h);
                    p.to_bits().hash(&mut h);
                }
            }
            h.finish()
        })
        .collect()
}

/// The query with the operands of every union put in a fixed order. Two
/// queries of the same form differ only in how their unions are rendered,
/// and the engine shares compiled artifacts between them.
pub fn union_form(q: &Query) -> String {
    match q {
        Query::Table(t) => format!("T({t})"),
        Query::Select(p, q) => format!("S({p:?},{})", union_form(q)),
        Query::Project(cols, q) => format!("P({cols:?},{})", union_form(q)),
        Query::Product(a, b) => format!("X({},{})", union_form(a), union_form(b)),
        Query::Union(a, b) => {
            let (a, b) = (union_form(a), union_form(b));
            let (first, second) = if a <= b { (a, b) } else { (b, a) };
            format!("U({first},{second})")
        }
        Query::Rename(pairs, q) => format!("R({pairs:?},{})", union_form(q)),
        Query::GroupAgg {
            group_by,
            aggs,
            input,
        } => format!("G({group_by:?},{aggs:?},{})", union_form(input)),
    }
}
