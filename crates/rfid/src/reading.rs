//! Raw RFID readings.

use crate::{ObjectId, ReaderId};

/// One raw sample: reader `reader` saw tag `object` at time `time`
/// (seconds since simulation start; fractional — readers sample tens of
/// times per second, §4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawReading {
    /// Detection time in seconds (fractional).
    pub time: f64,
    /// The detected tag / object.
    pub object: ObjectId,
    /// The detecting reader.
    pub reader: ReaderId,
}

impl RawReading {
    /// The whole second this sample falls into (aggregation bucket).
    #[inline]
    pub fn second(&self) -> u64 {
        self.time.max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_buckets() {
        let r = RawReading {
            time: 3.94,
            object: ObjectId::new(1),
            reader: ReaderId::new(2),
        };
        assert_eq!(r.second(), 3);
        let r0 = RawReading { time: -0.5, ..r };
        assert_eq!(r0.second(), 0);
    }
}
