//! The paper's query catalog, by name.
//!
//! Centralizes every query the paper displays, so the experiments and
//! examples can reference them without re-typing (and re-typo-ing) the
//! datalog.

use cqshap_query::{parse_cq, parse_ucq, ConjunctiveQuery, UnionQuery};

/// `q1` of Example 2.2 (hierarchical).
pub fn q1() -> ConjunctiveQuery {
    parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").expect("static query")
}

/// `q2` of Example 2.2 (non-hierarchical; tractable once `Stud` and
/// `Course` are exogenous).
pub fn q2() -> ConjunctiveQuery {
    parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").expect("static query")
}

/// `q3` of Example 2.2 (self-joins, polarity consistent).
pub fn q3() -> ConjunctiveQuery {
    parse_cq("q3() :- Adv(x, y), Adv(x, z), !TA(y), !TA(z), Reg(y, 'IC'), Reg(z, 'DB')")
        .expect("static query")
}

/// `q4` of Example 2.2 (self-joins, not polarity consistent).
pub fn q4() -> ConjunctiveQuery {
    parse_cq("q4() :- Adv(x, y), Adv(x, z), TA(y), !TA(z), Reg(z, w), !Reg(y, w)")
        .expect("static query")
}

/// `q_RST`, the classic hard query.
pub fn qrst() -> ConjunctiveQuery {
    parse_cq("qRST() :- R(x), S(x, y), T(y)").expect("static query")
}

/// `q_¬RS¬T`.
pub fn qnrsnt() -> ConjunctiveQuery {
    parse_cq("qnRSnT() :- !R(x), S(x, y), !T(y)").expect("static query")
}

/// `q_R¬ST`.
pub fn qrnst() -> ConjunctiveQuery {
    parse_cq("qRnST() :- R(x), !S(x, y), T(y)").expect("static query")
}

/// `q_RS¬T`.
pub fn qrsnt() -> ConjunctiveQuery {
    parse_cq("qRSnT() :- R(x), S(x, y), !T(y)").expect("static query")
}

/// The introduction's equation (1).
pub fn farmer_exports() -> ConjunctiveQuery {
    crate::exports::exports_query()
}

/// Example 4.1's citations query.
pub fn citations() -> ConjunctiveQuery {
    crate::academic::citations_query()
}

/// Section 4.1's tractable example `q` (with `X = {S, P}`).
pub fn section_4_1_tractable() -> ConjunctiveQuery {
    parse_cq("q() :- !R(x, w), S(z, x), !P(z, w), T(y, w)").expect("static query")
}

/// Section 4.1's intractable twin `q'`.
pub fn section_4_1_hard() -> ConjunctiveQuery {
    parse_cq("qp() :- !R(x, w), S(z, x), !P(z, y), T(y, w)").expect("static query")
}

/// Example 4.2's first query (has a non-hierarchical path when
/// `X = {Q, S, U, P}`).
pub fn example_4_2_q() -> ConjunctiveQuery {
    parse_cq("q() :- !R(x), Q(x, v), S(x, z), U(z, w), !P(w, y), T(y, v)").expect("static query")
}

/// Example 4.2's second query (no non-hierarchical path when
/// `X = {R, S, O, P, V}`).
pub fn example_4_2_qprime() -> ConjunctiveQuery {
    parse_cq("qp() :- U(t, r), !T(y), Q(y, w), !V(t), R(x, y), !S(x, z), O(z), P(u, y, w)")
        .expect("static query")
}

/// Section 5.1's gap-property query.
pub fn gap_query() -> ConjunctiveQuery {
    parse_cq("q() :- R(x), S(x, y), !R(y)").expect("static query")
}

/// Proposition 5.5's query `q_RST¬R`.
pub fn qrst_nr() -> ConjunctiveQuery {
    cqshap_gadgets::prop55::qrst_nr_query()
}

/// Proposition 5.8's union `q_SAT`.
pub fn qsat() -> UnionQuery {
    cqshap_gadgets::prop58::qsat_query()
}

/// Example 5.3's symmetric self-join query.
pub fn example_5_3() -> ConjunctiveQuery {
    parse_cq("q() :- R(x, y), !R(y, x)").expect("static query")
}

/// Theorem B.5's "married couple, both unemployed" query.
pub fn unemployed_couple() -> ConjunctiveQuery {
    parse_cq("q() :- Unemployed(x), Married(x, y), Unemployed(y)").expect("static query")
}

/// Theorem B.5's "married couple, neither a citizen" query.
pub fn non_citizen_couple() -> ConjunctiveQuery {
    parse_cq("q() :- !Citizen(x), Married(x, y), !Citizen(y)").expect("static query")
}

/// A polarity-consistent UCQ¬ (tractable relevance, Section 5.2).
pub fn polarity_consistent_union() -> UnionQuery {
    parse_ucq("qa() :- R(x), !S(x); qb() :- R(x), T(x)").expect("static query")
}

/// The 2-disjunct hierarchical union of the union report benchmark
/// ([`crate::union_benchmark_db`]): `q1` on the student side,
/// a structurally identical rule on the disjoint lab side, so every
/// disjunct intersection stays self-join-free and hierarchical.
pub fn union_benchmark() -> UnionQuery {
    parse_ucq(
        "q1() :- Stud(x), !TA(x), Reg(x, y)\n\
         q2() :- Lab(l), Asst(l, s), !Closed(l)",
    )
    .expect("static query")
}

/// The aggregate of the aggregate report benchmark: the per-course
/// count of registrations by non-TA students over
/// [`crate::report_benchmark_db`]. Every residual query `q[c ↦ const]`
/// is hierarchical, so the aggregate decomposition runs entirely on the
/// compiled engines.
pub fn per_course_count() -> ConjunctiveQuery {
    parse_cq("qc(c) :- Stud(s), !TA(s), Reg(s, c)").expect("static query")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqshap_query::{classify, ExactComplexity};

    #[test]
    fn catalog_parses_and_classifies() {
        assert_eq!(classify(&q1()), ExactComplexity::TractableHierarchical);
        for q in [
            q2(),
            qrst(),
            qnrsnt(),
            qrnst(),
            qrsnt(),
            farmer_exports(),
            citations(),
        ] {
            assert!(
                matches!(classify(&q), ExactComplexity::FpSharpPComplete { .. }),
                "{q}"
            );
        }
        for q in [unemployed_couple(), non_citizen_couple()] {
            assert!(
                matches!(classify(&q), ExactComplexity::SelfJoinHard { .. }),
                "{q}"
            );
        }
        // q3's only non-hierarchical triplets run through Adv, which
        // occurs twice, so Theorem B.5 is silent; q4, Example 5.3 and the
        // gap query mix polarities.
        for q in [q3(), q4(), example_5_3(), gap_query()] {
            assert!(
                matches!(classify(&q), ExactComplexity::OpenSelfJoins),
                "{q}"
            );
        }
        assert_eq!(qsat().disjuncts().len(), 4);
    }
}
