//! Identifier newtypes shared across the workspace.
//!
//! Using newtypes (rather than bare integers) keeps the many id spaces in
//! bdbms — tables, annotations, dependency rules, pending operations —
//! from being mixed up at compile time.

use std::fmt;

use crate::codec::{Cur, Decode, Encode};
use crate::Result;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// The raw integer id.
            pub fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl Encode for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
        }

        impl Decode for $name {
            fn decode(cur: &mut Cur<'_>) -> Result<Self> {
                cur.get().map($name)
            }
        }
    };
}

id_newtype!(
    /// Identifies a user table in the catalog.
    TableId,
    "tbl"
);
id_newtype!(
    /// Identifies one annotation record.
    AnnotationId,
    "ann"
);
id_newtype!(
    /// Identifies a procedural dependency rule (§5).
    RuleId,
    "rule"
);
id_newtype!(
    /// Identifies a logged update operation awaiting content approval (§6).
    OperationId,
    "op"
);

/// A monotonically increasing id allocator.
#[derive(Debug, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Start allocating from zero.
    pub fn new() -> Self {
        IdGen::default()
    }

    /// Allocate the next raw id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(TableId(3).to_string(), "tbl3");
        assert_eq!(AnnotationId(0).to_string(), "ann0");
        assert_eq!(RuleId(7).to_string(), "rule7");
        assert_eq!(OperationId(9).to_string(), "op9");
    }

    #[test]
    fn idgen_monotonic() {
        let mut g = IdGen::new();
        assert_eq!(g.alloc(), 0);
        assert_eq!(g.alloc(), 1);
        assert_eq!(g.alloc(), 2);
    }
}
