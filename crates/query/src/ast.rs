//! Abstract syntax for CQ¬ and UCQ¬.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::QueryError;

/// A query variable, indexed densely within its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A query variable.
    Var(Var),
    /// A constant, stored by name (resolved against a database's interner
    /// at evaluation time).
    Const(String),
}

impl Term {
    /// A constant term holding `name` *verbatim* — no quoting, parsing,
    /// or re-tokenization is applied, so the name round-trips exactly to
    /// a database interner lookup. Substitution code (e.g. binding head
    /// variables to answer constants) must construct constants through
    /// this instead of any text syntax: a name like `'CS'` (quote
    /// characters included) is a legal database constant whose *parsed*
    /// form would be the different constant `CS`.
    pub fn constant(name: impl Into<String>) -> Term {
        Term::Const(name.into())
    }

    /// The variable, if this term is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// Is this term a constant?
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

/// An atom `R(t₁,…,tₖ)` or `¬R(t₁,…,tₖ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relation symbol name.
    pub relation: String,
    /// Terms, in attribute order.
    pub terms: Vec<Term>,
    /// Whether the atom appears under negation.
    pub negated: bool,
}

impl Atom {
    /// The set of variables occurring in this atom.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }

    /// Does `v` occur in this atom?
    pub fn contains_var(&self, v: Var) -> bool {
        self.terms.iter().any(|t| t.as_var() == Some(v))
    }
}

/// A Boolean (or head-projecting, for aggregate support) conjunctive
/// query with safe negation.
///
/// Construct via [`QueryBuilder`], [`ConjunctiveQuery::new`], or the
/// parser ([`crate::parse_cq`]); all enforce the structural invariants:
/// dense variable indices, named variables, safe negation, and
/// range-restricted heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    name: String,
    head: Vec<Var>,
    atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Builds and validates a query.
    ///
    /// # Errors
    /// * [`QueryError::UnsafeNegation`] if a negated atom uses a variable
    ///   absent from all positive atoms;
    /// * [`QueryError::UnboundHeadVariable`] if a head variable is absent
    ///   from all positive atoms;
    /// * [`QueryError::Malformed`] for dangling variable indices, unused
    ///   variables, duplicate variable names, or an empty atom list.
    pub fn new(
        name: impl Into<String>,
        var_names: Vec<String>,
        head: Vec<Var>,
        atoms: Vec<Atom>,
    ) -> Result<Self, QueryError> {
        let q = ConjunctiveQuery {
            name: name.into(),
            head,
            atoms,
            var_names,
        };
        q.validate()?;
        Ok(q)
    }

    // cqshap-lint: allow(cancellation-reachability) -- bounded by the query: loops over its atoms, terms and variables
    fn validate(&self) -> Result<(), QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::Malformed("query has no atoms".into()));
        }
        let n = self.var_names.len();
        {
            let mut seen = BTreeSet::new();
            for v in &self.var_names {
                if !seen.insert(v.as_str()) {
                    return Err(QueryError::Malformed(format!(
                        "duplicate variable name {v}"
                    )));
                }
            }
        }
        let mut used = vec![false; n];
        for atom in &self.atoms {
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    if v.index() >= n {
                        return Err(QueryError::Malformed(format!(
                            "variable index {} out of range",
                            v.0
                        )));
                    }
                    used[v.index()] = true;
                }
            }
        }
        if let Some(i) = used.iter().position(|u| !u) {
            return Err(QueryError::Malformed(format!(
                "variable {} is declared but never used",
                self.var_names[i]
            )));
        }
        let positive_vars: BTreeSet<Var> = self
            .atoms
            .iter()
            .filter(|a| !a.negated)
            .flat_map(|a| a.variables())
            .collect();
        for atom in self.atoms.iter().filter(|a| a.negated) {
            for v in atom.variables() {
                if !positive_vars.contains(&v) {
                    return Err(QueryError::UnsafeNegation {
                        variable: self.var_name(v).to_string(),
                        atom: self.render_atom(atom),
                    });
                }
            }
        }
        for &v in &self.head {
            if v.index() >= n {
                return Err(QueryError::Malformed(format!(
                    "head variable index {} out of range",
                    v.0
                )));
            }
            if !positive_vars.contains(&v) {
                return Err(QueryError::UnboundHeadVariable {
                    variable: self.var_name(v).to_string(),
                });
            }
        }
        Ok(())
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Head (answer) variables; empty for Boolean queries.
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// Is this a Boolean query?
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// All atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Indices of positive atoms.
    pub fn positive_atom_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.negated)
            .map(|(i, _)| i)
    }

    /// Indices of negative atoms.
    pub fn negative_atom_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.negated)
            .map(|(i, _)| i)
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// All variables.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.var_names.len() as u32).map(Var)
    }

    /// The display name of `v`.
    ///
    /// # Panics
    /// Panics if `v` does not belong to this query.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// The variable named `name`, if any.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// `Ax`: the set of atom indices whose atom mentions `v`.
    pub fn atoms_with_var(&self, v: Var) -> BTreeSet<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains_var(v))
            .map(|(i, _)| i)
            .collect()
    }

    /// The distinct relation names, in first-appearance order.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.atoms {
            if !out.contains(&a.relation.as_str()) {
                out.push(&a.relation);
            }
        }
        out
    }

    /// Does any atom mention a constant?
    pub fn has_constants(&self) -> bool {
        self.atoms
            .iter()
            .any(|a| a.terms.iter().any(Term::is_const))
    }

    /// Renders one atom in datalog syntax.
    pub fn render_atom(&self, atom: &Atom) -> String {
        let args: Vec<String> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => self.var_name(*v).to_string(),
                Term::Const(c) => format!("'{c}'"),
            })
            .collect();
        format!(
            "{}{}({})",
            if atom.negated { "!" } else { "" },
            atom.relation,
            args.join(", ")
        )
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<&str> = self.head.iter().map(|&v| self.var_name(v)).collect();
        write!(f, "{}({}) :- ", self.name, head.join(", "))?;
        let body: Vec<String> = self.atoms.iter().map(|a| self.render_atom(a)).collect();
        write!(f, "{}", body.join(", "))
    }
}

/// A union of conjunctive queries with negation (UCQ¬).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionQuery {
    name: String,
    disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Builds a union; requires at least one disjunct, all Boolean.
    pub fn new(
        name: impl Into<String>,
        disjuncts: Vec<ConjunctiveQuery>,
    ) -> Result<Self, QueryError> {
        if disjuncts.is_empty() {
            return Err(QueryError::Malformed("union with no disjuncts".into()));
        }
        if let Some(d) = disjuncts.iter().find(|d| !d.is_boolean()) {
            return Err(QueryError::Malformed(format!(
                "union disjunct {} has a non-empty head",
                d.name()
            )));
        }
        Ok(UnionQuery {
            name: name.into(),
            disjuncts,
        })
    }

    /// The union's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[ConjunctiveQuery] {
        &self.disjuncts
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Incremental construction of a [`ConjunctiveQuery`].
///
/// ```
/// use cqshap_query::QueryBuilder;
/// let mut b = QueryBuilder::new("q1");
/// let x = b.var("x");
/// let y = b.var("y");
/// b.pos("Stud", [b.v(x)]);
/// b.neg("TA", [b.v(x)]);
/// b.pos("Reg", [b.v(x), b.v(y)]);
/// let q = b.build().unwrap();
/// assert_eq!(q.to_string(), "q1() :- Stud(x), !TA(x), Reg(x, y)");
/// ```
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    name: String,
    var_names: Vec<String>,
    head: Vec<Var>,
    atoms: Vec<Atom>,
}

impl QueryBuilder {
    /// Starts a query named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        QueryBuilder {
            name: name.into(),
            var_names: Vec::new(),
            head: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// Declares (or reuses) a variable by name.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return Var(i as u32);
        }
        let v = Var(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        v
    }

    /// Convenience: a variable term.
    pub fn v(&self, var: Var) -> Term {
        Term::Var(var)
    }

    /// Convenience: a constant term (see [`Term::constant`]).
    pub fn c(&self, name: &str) -> Term {
        Term::constant(name)
    }

    /// Appends a positive atom.
    pub fn pos(&mut self, relation: &str, terms: impl IntoIterator<Item = Term>) -> &mut Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms: terms.into_iter().collect(),
            negated: false,
        });
        self
    }

    /// Appends a negated atom.
    pub fn neg(&mut self, relation: &str, terms: impl IntoIterator<Item = Term>) -> &mut Self {
        self.atoms.push(Atom {
            relation: relation.to_string(),
            terms: terms.into_iter().collect(),
            negated: true,
        });
        self
    }

    /// Sets the head variables.
    pub fn head(&mut self, vars: impl IntoIterator<Item = Var>) -> &mut Self {
        self.head = vars.into_iter().collect();
        self
    }

    /// Finishes, validating the query.
    pub fn build(self) -> Result<ConjunctiveQuery, QueryError> {
        ConjunctiveQuery::new(self.name, self.var_names, self.head, self.atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q1() -> ConjunctiveQuery {
        let mut b = QueryBuilder::new("q1");
        let x = b.var("x");
        let y = b.var("y");
        b.pos("Stud", [b.v(x)]);
        b.neg("TA", [b.v(x)]);
        b.pos("Reg", [b.v(x), b.v(y)]);
        b.build().unwrap()
    }

    #[test]
    fn builder_and_display() {
        let q = q1();
        assert_eq!(q.to_string(), "q1() :- Stud(x), !TA(x), Reg(x, y)");
        assert!(q.is_boolean());
        assert_eq!(q.var_count(), 2);
        assert_eq!(q.relation_names(), vec!["Stud", "TA", "Reg"]);
        assert!(!q.has_constants());
    }

    #[test]
    fn atoms_with_var() {
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert_eq!(q.atoms_with_var(x), BTreeSet::from([0, 1, 2]));
        assert_eq!(q.atoms_with_var(y), BTreeSet::from([2]));
    }

    #[test]
    fn unsafe_negation_rejected() {
        let mut b = QueryBuilder::new("bad");
        let x = b.var("x");
        let y = b.var("y");
        b.pos("R", [b.v(x)]);
        b.neg("S", [b.v(x), b.v(y)]);
        // y occurs only under negation — reject (plus y is then "used",
        // so the error must be the safety one).
        let err = b.build().unwrap_err();
        assert!(matches!(err, QueryError::UnsafeNegation { .. }));
    }

    #[test]
    fn unused_variable_rejected() {
        let q = ConjunctiveQuery::new(
            "bad",
            vec!["x".into(), "y".into()],
            vec![],
            vec![Atom {
                relation: "R".into(),
                terms: vec![Term::Var(Var(0))],
                negated: false,
            }],
        );
        assert!(matches!(q, Err(QueryError::Malformed(_))));
    }

    #[test]
    fn head_must_be_positive() {
        let mut b = QueryBuilder::new("agg");
        let x = b.var("x");
        b.pos("R", [b.v(x)]);
        b.head([x]);
        assert!(b.build().is_ok());

        let mut b2 = QueryBuilder::new("agg2");
        let x2 = b2.var("x");
        let y2 = b2.var("y");
        b2.pos("R", [b2.v(x2), b2.v(y2)]);
        b2.neg("S", [b2.v(y2)]);
        b2.head([y2]);
        assert!(b2.build().is_ok());
    }

    #[test]
    fn empty_query_rejected() {
        let err = QueryBuilder::new("nil").build().unwrap_err();
        assert!(matches!(err, QueryError::Malformed(_)));
    }

    #[test]
    fn duplicate_var_names_rejected() {
        let q = ConjunctiveQuery::new(
            "bad",
            vec!["x".into(), "x".into()],
            vec![],
            vec![Atom {
                relation: "R".into(),
                terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                negated: false,
            }],
        );
        assert!(q.is_err());
    }

    #[test]
    fn constants_render_quoted() {
        let mut b = QueryBuilder::new("q");
        let y = b.var("y");
        b.pos("Reg", [b.v(y)]);
        b.neg("Course", [b.v(y), b.c("CS")]);
        let q = b.build().unwrap();
        assert_eq!(q.to_string(), "q() :- Reg(y), !Course(y, 'CS')");
        assert!(q.has_constants());
    }

    #[test]
    fn union_requires_boolean_disjuncts() {
        let mut b = QueryBuilder::new("d1");
        let x = b.var("x");
        b.pos("R", [b.v(x)]);
        b.head([x]);
        let with_head = b.build().unwrap();
        assert!(UnionQuery::new("u", vec![with_head]).is_err());
        assert!(UnionQuery::new("u", vec![]).is_err());
        assert!(UnionQuery::new("u", vec![q1()]).is_ok());
    }
}
