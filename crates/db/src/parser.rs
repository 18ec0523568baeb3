//! Line-oriented text format for databases.
//!
//! ```text
//! # The running example, abridged (Figure 1).
//! exorel Stud
//! exo  Stud(Adam)
//! endo TA(Adam)
//! endo Reg(Adam, OS)
//! ```
//!
//! * `exorel NAME` declares `NAME` an exogenous relation (member of `X`);
//! * `exo FACT` / `endo FACT` insert facts;
//! * relations are auto-declared with the arity of their first fact;
//! * `#` starts a comment; blank lines are ignored;
//! * constants are bare tokens (no quoting; anything except `,()#` and
//!   whitespace).

use crate::database::Database;
use crate::error::DbError;
use crate::fact::Provenance;

impl Database {
    /// Parses the text format described in [the module docs](self).
    // cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over the input's lines
    pub fn parse(text: &str) -> Result<Database, DbError> {
        let mut db = Database::new();
        let mut exorel_names: Vec<(usize, String)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = lineno + 1;
            if let Some(rest) = line.strip_prefix("exorel ") {
                let name = rest.trim();
                if name.is_empty() || !is_token(name) {
                    return Err(DbError::Parse {
                        line: lineno,
                        message: format!("bad relation name {name:?}"),
                    });
                }
                exorel_names.push((lineno, name.to_string()));
                continue;
            }
            let (provenance, rest) = if let Some(rest) = line.strip_prefix("endo ") {
                (Provenance::Endogenous, rest)
            } else if let Some(rest) = line.strip_prefix("exo ") {
                (Provenance::Exogenous, rest)
            } else {
                return Err(DbError::Parse {
                    line: lineno,
                    message: format!("expected `exorel`, `endo` or `exo`, got {line:?}"),
                });
            };
            let (rel, args) = parse_fact(rest.trim(), lineno)?;
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.insert(&rel, &arg_refs, provenance)
                .map_err(|e| match e {
                    DbError::Parse { .. } => e,
                    other => DbError::Parse {
                        line: lineno,
                        message: other.to_string(),
                    },
                })?;
        }
        // Apply exogenous-relation declarations at the end so declarations
        // may precede the facts that introduce the relation's arity.
        for (lineno, name) in exorel_names {
            let rel = db.schema().id(&name).ok_or_else(|| DbError::Parse {
                line: lineno,
                message: format!("exorel {name}: relation never used"),
            })?;
            db.declare_exogenous_relation(rel)
                .map_err(|e| DbError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?;
        }
        Ok(db)
    }
}

fn is_token(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| !c.is_whitespace() && !"(),#".contains(c))
}

/// Parses `Rel(arg, arg, ...)`, allowing zero arguments.
// cqshap-lint: allow(cancellation-reachability) -- bounded: one pass over one fact line
fn parse_fact(s: &str, line: usize) -> Result<(String, Vec<String>), DbError> {
    let err = |message: String| DbError::Parse { line, message };
    let open = s
        .find('(')
        .ok_or_else(|| err(format!("missing `(` in {s:?}")))?;
    if !s.ends_with(')') {
        return Err(err(format!("missing `)` in {s:?}")));
    }
    #[expect(
        clippy::string_slice,
        reason = "open was located in s by find, so the slice boundary is valid"
    )]
    let rel = s[..open].trim();
    if !is_token(rel) {
        return Err(err(format!("bad relation name {rel:?}")));
    }
    #[expect(
        clippy::string_slice,
        reason = "the missing-parenthesis guard above ensures the closing byte exists"
    )]
    let inner = &s[open + 1..s.len() - 1];
    let mut args = Vec::new();
    if !inner.trim().is_empty() {
        for part in inner.split(',') {
            let tok = part.trim();
            if !is_token(tok) {
                return Err(err(format!("bad constant {tok:?}")));
            }
            args.push(tok.to_string());
        }
    }
    Ok((rel.to_string(), args))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_example() {
        let db = Database::parse(
            "# comment\n\
             exorel Stud\n\
             exo  Stud(Adam)   # trailing comment\n\
             endo TA(Adam)\n\
             endo Reg(Adam, OS)\n\
             \n",
        )
        .unwrap();
        assert_eq!(db.fact_count(), 3);
        assert_eq!(db.endo_count(), 2);
        let stud = db.schema().id("Stud").unwrap();
        assert!(db.is_exogenous_relation(stud));
        assert!(db.find_fact("Reg", &["Adam", "OS"]).is_some());
    }

    #[test]
    fn nullary_facts() {
        let db = Database::parse("endo Flag()\n").unwrap();
        let flag = db.schema().id("Flag").unwrap();
        assert_eq!(db.schema().arity(flag), 0);
        assert_eq!(db.endo_count(), 1);
    }

    #[test]
    fn rejects_bad_lines() {
        for bad in [
            "wat R(a)",
            "endo R(a",
            "endo R a)",
            "endo (a)",
            "endo R(a b)",
            "exorel ",
        ] {
            assert!(Database::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn exorel_unknown_relation_fails() {
        assert!(Database::parse("exorel R\n").is_err());
    }

    #[test]
    fn exorel_with_endogenous_facts_fails() {
        let err = Database::parse("exorel R\nendo R(a)\n").unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
    }

    #[test]
    fn duplicate_fact_reports_line() {
        let err = Database::parse("endo R(a)\nendo R(a)\n").unwrap_err();
        match err {
            DbError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
