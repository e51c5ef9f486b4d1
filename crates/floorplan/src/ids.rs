//! Typed identifiers for floor-plan entities.
//!
//! Every entity class gets its own newtype over a dense `u32` index so that
//! ids from different spaces cannot be confused at compile time and can be
//! used directly as `Vec` indices inside this workspace.

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

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// Identifier of a [`crate::Room`] within a floor plan.
    RoomId,
    "R"
);
define_id!(
    /// Identifier of a [`crate::Hallway`] within a floor plan.
    HallwayId,
    "H"
);
define_id!(
    /// Identifier of a [`crate::Door`] within a floor plan.
    DoorId,
    "D"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn roundtrip_and_display() {
        let r = RoomId::new(7);
        assert_eq!(r.raw(), 7);
        assert_eq!(r.index(), 7);
        assert_eq!(r.to_string(), "R7");
        assert_eq!(HallwayId::new(2).to_string(), "H2");
        assert_eq!(DoorId::new(0).to_string(), "D0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(RoomId::new(1) < RoomId::new(2));
        let set: HashSet<_> = [RoomId::new(1), RoomId::new(1), RoomId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn from_u32() {
        let h: HallwayId = 3u32.into();
        assert_eq!(h, HallwayId::new(3));
    }
}
