//! The device sensing (measurement) model for particle weighting.
//!
//! Algorithm 2, lines 21–27: "particles within the detecting device's range
//! are assigned a high weight, while others are assigned a very low
//! weight."

/// Binary in-range / out-of-range observation likelihood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementModel {
    /// Likelihood assigned to particles inside the detecting reader's
    /// activation range.
    pub high_weight: f64,
    /// Likelihood assigned to particles outside it. Non-zero so that a
    /// reading inconsistent with *every* particle (heavy odometry drift)
    /// degrades gracefully instead of dividing by zero.
    pub low_weight: f64,
}

impl Default for MeasurementModel {
    fn default() -> Self {
        MeasurementModel {
            high_weight: 1.0,
            low_weight: 1e-4,
        }
    }
}

impl MeasurementModel {
    /// Likelihood `p(z | x)` of the detecting reader having produced a
    /// reading, given whether the particle state lies `inside` its
    /// activation range.
    pub fn likelihood(&self, inside: bool) -> f64 {
        if inside {
            self.high_weight
        } else {
            self.low_weight
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Heading, IndoorState, SensorGeometry};
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, GraphPos, WalkingGraph};
    use ripq_rfid::{Reader, ReaderId};

    /// The weight a particle at `s` gets from a reading of `reader`, the
    /// only reader deployed.
    fn weight(m: &MeasurementModel, g: &WalkingGraph, s: &IndoorState, reader: &Reader) -> f64 {
        let geometry = SensorGeometry::new(g, std::slice::from_ref(reader));
        m.likelihood(geometry.covers(g, reader, s.pos))
    }

    #[test]
    fn boundary_point_counts_as_inside() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let m = MeasurementModel::default();
        let e = g.edges().iter().find(|e| e.length() > 6.0).unwrap();
        let reader_point = e.point_at(3.0);
        let reader = Reader::new(
            ReaderId::new(0),
            reader_point,
            GraphPos::new(e.id, 3.0),
            2.0,
        );
        // Exactly at range distance along the edge: closed disk.
        let s = IndoorState {
            pos: GraphPos::new(e.id, 5.0),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        assert_eq!(weight(&m, &g, &s, &reader), m.high_weight);
    }

    #[test]
    fn in_range_high_out_of_range_low() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let m = MeasurementModel::default();
        // A reader sitting on the first hallway edge.
        let e = g.edges().iter().find(|e| e.length() > 6.0).unwrap();
        let reader_point = e.point_at(3.0);
        let reader = Reader::new(
            ReaderId::new(0),
            reader_point,
            GraphPos::new(e.id, 3.0),
            2.0,
        );
        let near = IndoorState {
            pos: GraphPos::new(e.id, 2.0),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        let far = IndoorState {
            pos: GraphPos::new(e.id, e.length()),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        assert_eq!(weight(&m, &g, &near, &reader), 1.0);
        assert_eq!(weight(&m, &g, &far, &reader), 1e-4);
    }
}
