//! Constant interning.
//!
//! Database values ("constants" in the paper) are interned strings, so
//! tuples are compact `u32` vectors and comparisons are integer
//! comparisons. Each [`Database`](crate::Database) owns one interner.

use std::collections::HashMap;
use std::fmt;

/// An interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstId(pub u32);

impl ConstId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner for database constants.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, ConstId>,
    fresh_counter: u64,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (idempotent).
    pub fn intern(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "documented capacity limit: the constant id space is u32"
        )]
        let id = ConstId(u32::try_from(self.names.len()).expect("too many constants"));
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned constant.
    pub fn get(&self, name: &str) -> Option<ConstId> {
        self.by_name.get(name).copied()
    }

    /// The string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented panic: resolve requires an id issued by this interner"
    )]
    pub fn resolve(&self, id: ConstId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct constants.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Mints a fresh constant guaranteed distinct from all interned ones,
    /// with a readable prefix (used by gadget constructions for the
    /// placeholder `⊙` and pair constants `⟨a,b⟩`).
    pub fn fresh(&mut self, prefix: &str) -> ConstId {
        loop {
            let candidate = format!("{prefix}#{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.by_name.contains_key(&candidate) {
                return self.intern(&candidate);
            }
        }
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ConstId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (ConstId(i as u32), n.as_str()))
    }
}

impl fmt::Display for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} constants)", self.names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("Adam");
        let b = i.intern("Ben");
        assert_ne!(a, b);
        assert_eq!(i.intern("Adam"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), "Adam");
        assert_eq!(i.get("Ben"), Some(b));
        assert_eq!(i.get("Caroline"), None);
    }

    #[test]
    fn fresh_never_collides() {
        let mut i = Interner::new();
        i.intern("x#0");
        let f1 = i.fresh("x");
        let f2 = i.fresh("x");
        assert_ne!(f1, f2);
        assert_ne!(i.resolve(f1), "x#0");
        assert!(i.resolve(f1).starts_with("x#"));
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<_> = i.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
