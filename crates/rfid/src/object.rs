//! Identity of tracked objects (RFID-tagged people).

use std::fmt;

/// Identifier of a tracked object — one RFID tag, carried by one person.
///
/// The paper writes `oᵢ` for "the object with ID i" (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Wraps a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        ObjectId(raw)
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

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        assert_eq!(ObjectId::new(7).to_string(), "o7");
        assert!(ObjectId::new(1) < ObjectId::new(2));
        assert_eq!(ObjectId::new(3).index(), 3);
    }
}
