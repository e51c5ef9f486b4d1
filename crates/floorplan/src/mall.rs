//! Generator for a single-floor shopping mall — one of the paper's
//! motivating indoor venues (§1: "shopping malls, convention centers").
//!
//! Two long parallel promenades joined by cross corridors; large stores
//! line the outer walls and island stores sit between the promenades with
//! doors onto **both** promenades (exercising multi-door rooms, which the
//! office generator does not produce).

use crate::{FloorPlan, FloorPlanBuilder, FloorPlanError};
use ripq_geom::{Point2, Rect};

/// Dimensions of the generated mall (meters).
#[derive(Debug, Clone, PartialEq)]
pub struct MallParams {
    /// Length of the promenades (x extent).
    pub length: f64,
    /// Corridor width (malls are wide: default 4 m).
    pub corridor_width: f64,
    /// Depth of the outer stores.
    pub store_depth: f64,
    /// Number of outer stores along each promenade.
    pub outer_stores_per_side: u32,
    /// Number of cross corridors joining the promenades.
    pub cross_corridors: u32,
}

impl Default for MallParams {
    fn default() -> Self {
        MallParams {
            length: 96.0,
            corridor_width: 4.0,
            store_depth: 8.0,
            outer_stores_per_side: 6,
            cross_corridors: 3,
        }
    }
}

/// Generates the mall floor plan.
///
/// Layout (default parameters), south to north: outer stores, promenade A,
/// island stores, promenade B, outer stores. Cross corridors pierce the
/// island band at uniform x positions; island stores fill the gaps between
/// them, each with a door onto *both* promenades.
pub fn shopping_mall(params: &MallParams) -> Result<FloorPlan, FloorPlanError> {
    let p = params;
    let w = p.corridor_width;
    let d = p.store_depth;
    let island_depth = 12.0f64;

    let mut b = FloorPlanBuilder::new();

    // Promenades.
    let prom_a_y = d; // south promenade starts above the south stores
    let prom_b_y = d + w + island_depth;
    let prom_a = b.add_hallway(Rect::new(0.0, prom_a_y, p.length, w), "promenade-A");
    let prom_b = b.add_hallway(Rect::new(0.0, prom_b_y, p.length, w), "promenade-B");

    // Cross corridors through the island band, at uniform x.
    assert!(p.cross_corridors >= 1, "need at least one cross corridor");
    let slice = p.length / p.cross_corridors as f64;
    let mut cross_spans = Vec::new();
    for i in 0..p.cross_corridors {
        let cx = (i as f64 + 0.5) * slice - w / 2.0;
        b.add_hallway(
            Rect::new(cx, prom_a_y, w, w + island_depth + w),
            format!("cross-{i}"),
        );
        cross_spans.push((cx, cx + w));
    }

    // Outer stores, south of promenade A and north of promenade B.
    let n = p.outer_stores_per_side;
    let store_w = p.length / n as f64;
    for i in 0..n {
        let x = i as f64 * store_w;
        let south = b.add_room(Rect::new(x, 0.0, store_w, d), format!("store-S{i}"));
        b.add_door(Point2::new(x + store_w / 2.0, prom_a_y), south, prom_a);
        let north = b.add_room(
            Rect::new(x, prom_b_y + w, store_w, d),
            format!("store-N{i}"),
        );
        b.add_door(Point2::new(x + store_w / 2.0, prom_b_y + w), north, prom_b);
    }

    // Island stores: fill the gaps of the island band between cross
    // corridors; two doors each (south promenade + north promenade).
    let island_y = prom_a_y + w;
    let mut gaps = Vec::new();
    let mut x0 = 0.0;
    for &(lo, hi) in &cross_spans {
        if lo - x0 > 4.0 {
            gaps.push((x0, lo));
        }
        x0 = hi;
    }
    if p.length - x0 > 4.0 {
        gaps.push((x0, p.length));
    }
    for (i, (lo, hi)) in gaps.into_iter().enumerate() {
        let room = b.add_room(
            Rect::new(lo, island_y, hi - lo, island_depth),
            format!("island-{i}"),
        );
        let mid = (lo + hi) / 2.0;
        b.add_door(Point2::new(mid, island_y), room, prom_a);
        b.add_door(Point2::new(mid, island_y + island_depth), room, prom_b);
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    #[test]
    fn default_mall_is_valid() {
        let plan = shopping_mall(&MallParams::default()).expect("valid mall");
        // 6 + 6 outer stores plus 4 island stores (3 cross corridors make
        // 4 gaps), 2 promenades + 3 cross corridors.
        assert_eq!(plan.rooms().len(), 16);
        assert_eq!(plan.hallways().len(), 5);
    }

    #[test]
    fn island_stores_have_two_doors() {
        let plan = shopping_mall(&MallParams::default()).unwrap();
        let islands: Vec<_> = plan
            .rooms()
            .iter()
            .filter(|r| r.name().starts_with("island"))
            .collect();
        assert_eq!(islands.len(), 4);
        for r in islands {
            assert_eq!(r.doors().len(), 2, "{} needs two doors", r.name());
            // The two doors open onto different promenades.
            let h0 = plan.door(r.doors()[0]).hallway();
            let h1 = plan.door(r.doors()[1]).hallway();
            assert_ne!(h0, h1);
        }
    }

    #[test]
    fn promenades_are_wide() {
        let plan = shopping_mall(&MallParams::default()).unwrap();
        for h in plan.hallways() {
            assert!(h.cross_width() >= 4.0 - 1e-9, "{} too narrow", h.name());
        }
    }

    #[test]
    fn mall_locate_distinguishes_stores_and_promenades() {
        let plan = shopping_mall(&MallParams::default()).unwrap();
        let store = &plan.rooms()[0];
        assert_eq!(plan.locate(store.center()), Location::Room(store.id()));
        let prom = &plan.hallways()[0];
        assert!(matches!(
            plan.locate(prom.footprint().center()),
            Location::Hallway(_)
        ));
    }

    #[test]
    fn custom_mall_scales() {
        let p = MallParams {
            length: 160.0,
            outer_stores_per_side: 10,
            cross_corridors: 4,
            ..Default::default()
        };
        let plan = shopping_mall(&p).expect("valid scaled mall");
        assert_eq!(plan.rooms().len(), 10 + 10 + 5);
        assert_eq!(plan.hallways().len(), 2 + 4);
    }
}
