//! Active-domain complement materialization.
//!
//! Several constructions in the paper replace a relation `R` by its
//! complement `R̄` over the active domain: the `ExoShap` rewriting
//! (Lemma C.3), the hardness proof for `q_R¬ST` (Lemma B.2), and the
//! Appendix C embedding. A complement of an arity-`a` relation over a
//! domain of `d` constants has `d^a − |R|` tuples, so materialization is
//! guarded by an explicit tuple budget.
#![expect(
    clippy::indexing_slicing,
    reason = "complement enumeration indexes within the universe fixed at construction"
)]

use crate::database::Database;
use crate::error::DbError;
use crate::fact::Tuple;
use crate::interner::ConstId;
use crate::schema::RelId;

/// Default budget for materialized tuple counts (complements, joins,
/// padding products). Large enough for every experiment in this
/// repository, small enough to fail fast on misuse.
pub const DEFAULT_TUPLE_BUDGET: usize = 10_000_000;

/// Enumerates all tuples over `domain^arity` in lexicographic order of
/// domain positions, calling `f` for each.
pub fn for_each_domain_tuple(domain: &[ConstId], arity: usize, mut f: impl FnMut(&[ConstId])) {
    if arity == 0 {
        f(&[]);
        return;
    }
    if domain.is_empty() {
        return;
    }
    let mut idx = vec![0usize; arity];
    let mut tuple: Vec<ConstId> = idx.iter().map(|&i| domain[i]).collect();
    loop {
        f(&tuple);
        // Odometer increment.
        let mut pos = arity;
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < domain.len() {
                tuple[pos] = domain[idx[pos]];
                break;
            }
            idx[pos] = 0;
            tuple[pos] = domain[0];
        }
    }
}

/// Computes the tuples of the complement of `rel` in `db` over `domain`,
/// i.e. every tuple in `domain^arity` that is *not* a fact of `rel`.
///
/// # Errors
/// [`DbError::BudgetExceeded`] when `domain^arity > budget`.
pub fn complement_tuples(
    db: &Database,
    rel: RelId,
    domain: &[ConstId],
    budget: usize,
) -> Result<Vec<Tuple>, DbError> {
    let arity = db.schema().arity(rel);
    let total = domain.len().checked_pow(arity as u32).unwrap_or(usize::MAX);
    if total > budget {
        return Err(DbError::BudgetExceeded {
            context: format!("complement of {}", db.schema().name(rel)),
            budget,
            required: total,
        });
    }
    let mut out = Vec::new();
    for_each_domain_tuple(domain, arity, |vals| {
        let t = Tuple::new(vals);
        if db.lookup(rel, &t).is_none() {
            out.push(t);
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Provenance;

    #[test]
    fn domain_tuple_enumeration_counts() {
        let dom = [ConstId(0), ConstId(1), ConstId(2)];
        let mut n = 0;
        for_each_domain_tuple(&dom, 2, |_| n += 1);
        assert_eq!(n, 9);
        let mut n0 = 0;
        for_each_domain_tuple(&dom, 0, |t| {
            assert!(t.is_empty());
            n0 += 1;
        });
        assert_eq!(n0, 1);
        let mut ne = 0;
        for_each_domain_tuple(&[], 2, |_| ne += 1);
        assert_eq!(ne, 0);
    }

    #[test]
    fn complement_excludes_existing() {
        let mut db = Database::new();
        db.add_exo("S", &["a", "b"]).unwrap();
        db.add_exo("S", &["b", "b"]).unwrap();
        db.add_exo("T", &["c"]).unwrap(); // widen the domain to {a,b,c}
        let s = db.schema().id("S").unwrap();
        let dom = db.active_domain();
        let comp = complement_tuples(&db, s, &dom, 1000).unwrap();
        assert_eq!(comp.len(), 9 - 2);
        for t in &comp {
            assert!(db.lookup(s, t).is_none());
        }
        // Inserting the complement yields a full relation.
        for t in comp {
            db.insert_tuple(s, t, Provenance::Exogenous).unwrap();
        }
        assert_eq!(db.relation_facts(s).len(), 9);
    }

    #[test]
    fn budget_enforced() {
        let mut db = Database::new();
        db.add_exo("S", &["a", "b"]).unwrap();
        let s = db.schema().id("S").unwrap();
        let dom = db.active_domain();
        let err = complement_tuples(&db, s, &dom, 3).unwrap_err();
        assert!(matches!(
            err,
            DbError::BudgetExceeded {
                required: 4,
                budget: 3,
                ..
            }
        ));
    }
}
