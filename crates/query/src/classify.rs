//! Complexity classification of exact Shapley computation, per the
//! paper's dichotomies.

use std::collections::{HashMap, HashSet};

use crate::analysis::{
    has_self_join, is_hierarchical, is_polarity_consistent, non_hierarchical_path,
    non_hierarchical_triplets,
};
use crate::ast::ConjunctiveQuery;

/// The data complexity of computing `Shapley(D, q, f)` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactComplexity {
    /// Polynomial time: `q` is hierarchical (Theorem 3.1, positive side).
    TractableHierarchical,
    /// Polynomial time: `q` is *not* hierarchical but has no
    /// non-hierarchical path given the exogenous relations — the
    /// `ExoShap` rewriting applies (Theorem 4.3, positive side).
    TractableViaExoShap,
    /// `FP^{#P}`-complete (Theorem 3.1 / 4.3, hardness side).
    FpSharpPComplete {
        /// Human-readable witness (a non-hierarchical path description).
        witness: String,
    },
    /// `q` has self-joins and matches the sufficient hardness condition
    /// of Theorem B.5 (polarity-consistent, with a non-hierarchical
    /// triplet whose middle relation occurs only once).
    SelfJoinHard {
        /// Human-readable witness triplet.
        witness: String,
    },
    /// `q` has self-joins and no known classification: the dichotomy for
    /// self-joins is open (Section 6).
    OpenSelfJoins,
}

impl ExactComplexity {
    /// Is exact computation known to be polynomial?
    pub fn is_tractable(&self) -> bool {
        matches!(
            self,
            ExactComplexity::TractableHierarchical | ExactComplexity::TractableViaExoShap
        )
    }
}

impl std::fmt::Display for ExactComplexity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactComplexity::TractableHierarchical => write!(f, "PTIME (hierarchical)"),
            ExactComplexity::TractableViaExoShap => write!(f, "PTIME (ExoShap)"),
            ExactComplexity::FpSharpPComplete { witness } => {
                write!(f, "FP#P-complete ({witness})")
            }
            ExactComplexity::SelfJoinHard { witness } => {
                write!(f, "FP#P-complete via Thm B.5 ({witness})")
            }
            ExactComplexity::OpenSelfJoins => write!(f, "open (self-joins)"),
        }
    }
}

/// Classifies `q` under Theorem 3.1 (no exogenous-relation knowledge,
/// i.e. `X = ∅`).
pub fn classify(q: &ConjunctiveQuery) -> ExactComplexity {
    classify_with_exo(q, &HashSet::new())
}

/// Classifies `q` under Theorem 4.3 given the set `exo` of exogenous
/// relations. With `exo = ∅` this coincides with Theorem 3.1.
pub fn classify_with_exo(q: &ConjunctiveQuery, exo: &HashSet<String>) -> ExactComplexity {
    if has_self_join(q) {
        return classify_self_join(q, exo);
    }
    if is_hierarchical(q) {
        return ExactComplexity::TractableHierarchical;
    }
    match non_hierarchical_path(q, exo) {
        None => ExactComplexity::TractableViaExoShap,
        Some(p) => {
            let path: Vec<&str> = p.path.iter().map(|&v| q.var_name(v)).collect();
            ExactComplexity::FpSharpPComplete {
                witness: format!(
                    "path {} between {} and {}",
                    path.join("-"),
                    q.render_atom(&q.atoms()[p.atom_x]),
                    q.render_atom(&q.atoms()[p.atom_y]),
                ),
            }
        }
    }
}

// cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
fn classify_self_join(q: &ConjunctiveQuery, exo: &HashSet<String>) -> ExactComplexity {
    // Theorem B.5: a polarity-consistent CQ¬ with a non-hierarchical
    // triplet (αx, αx,y, αy) whose middle relation occurs only once is
    // FP#P-complete. The theorem is stated without exogenous relations;
    // require additionally that none of the triplet's relations is
    // declared exogenous, so the reduction's endogenous facts stay legal.
    if is_polarity_consistent(q) {
        let mut occurrences: HashMap<&str, usize> = HashMap::new();
        for a in q.atoms() {
            *occurrences.entry(a.relation.as_str()).or_insert(0) += 1;
        }
        for t in non_hierarchical_triplets(q) {
            let mid_rel = q.atoms()[t.atom_xy].relation.as_str();
            let rels = [
                q.atoms()[t.atom_x].relation.as_str(),
                mid_rel,
                q.atoms()[t.atom_y].relation.as_str(),
            ];
            if occurrences[mid_rel] == 1 && rels.iter().all(|r| !exo.contains(*r)) {
                return ExactComplexity::SelfJoinHard {
                    witness: format!(
                        "triplet ({}, {}, {})",
                        q.render_atom(&q.atoms()[t.atom_x]),
                        q.render_atom(&q.atoms()[t.atom_xy]),
                        q.render_atom(&q.atoms()[t.atom_y]),
                    ),
                };
            }
        }
    }
    ExactComplexity::OpenSelfJoins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_cq;

    fn exo(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn theorem_3_1_classification() {
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        assert_eq!(classify(&q1), ExactComplexity::TractableHierarchical);

        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        assert!(matches!(
            classify(&q2),
            ExactComplexity::FpSharpPComplete { .. }
        ));

        for text in [
            "q() :- R(x), S(x, y), T(y)",
            "q() :- !R(x), S(x, y), !T(y)",
            "q() :- R(x), !S(x, y), T(y)",
            "q() :- R(x), S(x, y), !T(y)",
        ] {
            let q = parse_cq(text).unwrap();
            assert!(
                matches!(classify(&q), ExactComplexity::FpSharpPComplete { .. }),
                "{text}"
            );
        }
    }

    #[test]
    fn theorem_4_3_reclassifies_with_exogenous_relations() {
        // Example 4.1: intractable per Thm 3.1, tractable once Pub and
        // Citations are exogenous (even Citations alone suffices).
        let q = parse_cq("q() :- Author(x, y), Pub(x, z), Citations(z, w)").unwrap();
        assert!(matches!(
            classify(&q),
            ExactComplexity::FpSharpPComplete { .. }
        ));
        assert_eq!(
            classify_with_exo(&q, &exo(&["Pub", "Citations"])),
            ExactComplexity::TractableViaExoShap
        );
        assert_eq!(
            classify_with_exo(&q, &exo(&["Citations"])),
            ExactComplexity::TractableViaExoShap
        );

        // Example 4.1 / Section 4: q2 with Stud and Course exogenous.
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        assert_eq!(
            classify_with_exo(&q2, &exo(&["Stud", "Course"])),
            ExactComplexity::TractableViaExoShap
        );

        // q_R¬ST stays hard when only S is exogenous (Section 4.1).
        let qrnst = parse_cq("q() :- R(x), !S(x, y), T(y)").unwrap();
        assert!(matches!(
            classify_with_exo(&qrnst, &exo(&["S"])),
            ExactComplexity::FpSharpPComplete { .. }
        ));
    }

    #[test]
    fn hierarchical_stays_tractable_with_exo() {
        let q1 = parse_cq("q1() :- Stud(x), !TA(x), Reg(x, y)").unwrap();
        assert_eq!(
            classify_with_exo(&q1, &exo(&["Stud"])),
            ExactComplexity::TractableHierarchical
        );
    }

    #[test]
    fn theorem_b5_self_joins() {
        // ¬Citizen(x), Married(x,y), ¬Citizen(y): polarity consistent,
        // Married occurs once → hard.
        let q = parse_cq("q() :- !Citizen(x), Married(x, y), !Citizen(y)").unwrap();
        assert!(matches!(classify(&q), ExactComplexity::SelfJoinHard { .. }));

        // Unemployed(x), Married(x,y), Unemployed(y): same but positive.
        let q2 = parse_cq("q() :- Unemployed(x), Married(x, y), Unemployed(y)").unwrap();
        assert!(matches!(
            classify(&q2),
            ExactComplexity::SelfJoinHard { .. }
        ));

        // R(x,y), ¬R(y,x): mixed polarity → Thm B.5 silent.
        let q3 = parse_cq("q() :- R(x, y), !R(y, x)").unwrap();
        assert_eq!(classify(&q3), ExactComplexity::OpenSelfJoins);

        // Hierarchical self-join: also open under our classifier.
        let q4 = parse_cq("q() :- R(x, y), R(y, x)").unwrap();
        assert_eq!(classify(&q4), ExactComplexity::OpenSelfJoins);
    }

    #[test]
    fn display_strings() {
        let q2 = parse_cq("q2() :- Stud(x), !TA(x), Reg(x, y), !Course(y, 'CS')").unwrap();
        let c = classify(&q2);
        assert!(c.to_string().starts_with("FP#P-complete"));
        assert!(!c.is_tractable());
        assert!(ExactComplexity::TractableHierarchical.is_tractable());
    }
}
