//! Update streams shared by the session property tests: a change is
//! drawn and applied to a copy of the session's database, then replayed
//! through the session's own entry points.

use cqshap::prelude::*;

/// One in-place database change, as applied to the copy.
#[derive(Debug, Clone, Copy)]
pub enum Update {
    /// A freshly inserted fact.
    Inserted(FactId),
    /// A retracted fact.
    Retracted(FactId),
    /// A fact whose provenance flipped.
    Flipped(FactId),
}

/// Replays `change`, already applied to `copy` (a clone of the session's
/// database), through `session`. An inserted fact gets the copy's fact
/// id, because both databases assign the next free one.
///
/// # Errors
/// Whatever the session's update raises (it then rolls back).
pub fn replay(
    session: &mut ShapleySession,
    copy: &Database,
    change: Update,
) -> Result<(), CoreError> {
    match change {
        Update::Flipped(f) => {
            let exogenous = !copy.fact(f).provenance.is_endogenous();
            session.set_exogenous(f, exogenous)
        }
        Update::Retracted(f) => session.retract_fact(f),
        Update::Inserted(f) => {
            let fact = copy.fact(f);
            let relation = copy.schema().name(fact.rel).to_string();
            let constants: Vec<String> = fact
                .tuple
                .values()
                .iter()
                .map(|&c| copy.interner().resolve(c).to_string())
                .collect();
            let refs: Vec<&str> = constants.iter().map(String::as_str).collect();
            let got = session.insert_fact(&relation, &refs, fact.provenance)?;
            assert_eq!(got, f, "the session assigns the copy's fact id");
            Ok(())
        }
    }
}
