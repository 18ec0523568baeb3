//! Fixture: a pragma that silences nothing is itself a finding, so
//! stale exemptions cannot accumulate.
//! Expected: 1 × `unused-suppression`.

// cqshap-lint: allow(error-hygiene) -- fixture: nothing here builds a stringly error any more
fn clean(x: u8) -> u8 {
    x.saturating_add(1)
}
