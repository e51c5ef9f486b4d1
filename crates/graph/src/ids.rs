//! Typed identifiers for walking-graph entities.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw dense index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The raw dense index.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// The raw index as `usize`, for direct `Vec` indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a [`crate::Node`] in a walking graph.
    NodeId,
    "n"
);
define_id!(
    /// Identifier of an [`crate::Edge`] in a walking graph.
    EdgeId,
    "e"
);
define_id!(
    /// Identifier of an [`crate::AnchorPoint`] in an anchor set.
    AnchorId,
    "ap"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(0).to_string(), "e0");
        assert_eq!(AnchorId::new(12).to_string(), "ap12");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(EdgeId::new(1) < EdgeId::new(9));
        assert_eq!(AnchorId::new(5).index(), 5);
    }
}
