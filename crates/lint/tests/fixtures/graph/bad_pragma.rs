//! Fixture: malformed pragmas are findings themselves.
//! Expected: 3 × `bad-pragma` (missing reason, unknown rule, wrong verb).

// cqshap-lint: allow(error-hygiene)
fn missing_reason() {}

// cqshap-lint: allow(no-panic) -- clippy owns the panic rules, so this name is unknown
fn unknown_rule() {}

// cqshap-lint: disallow(lock-order) -- there is no disallow verb
fn wrong_verb() {}
