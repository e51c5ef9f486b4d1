//! Generator for a subway station — the paper's opening example of a large
//! indoor space (§1 cites the New York City Subway's 468 stations).
//!
//! One island platform below a concourse, joined by stair corridors; shops
//! and ticket offices on the concourse, service rooms at platform level.

use crate::{FloorPlan, FloorPlanBuilder, FloorPlanError};
use ripq_geom::{Point2, Rect};

/// Dimensions of the generated station (meters).
#[derive(Debug, Clone, PartialEq)]
pub struct SubwayParams {
    /// Platform / concourse length.
    pub length: f64,
    /// Platform width.
    pub platform_width: f64,
    /// Concourse width.
    pub concourse_width: f64,
    /// Number of stair corridors between platform and concourse.
    pub stairs: u32,
    /// Number of shops lining the concourse.
    pub shops: u32,
}

impl Default for SubwayParams {
    fn default() -> Self {
        SubwayParams {
            length: 120.0,
            platform_width: 6.0,
            concourse_width: 6.0,
            stairs: 3,
            shops: 6,
        }
    }
}

/// Generates the subway-station floor plan.
///
/// Vertical layout (south → north): platform, mezzanine gap pierced by the
/// stairs, concourse, shop row. Two ticket offices flank the mezzanine
/// band; two service rooms sit at platform level between stairs.
pub fn subway_station(params: &SubwayParams) -> Result<FloorPlan, FloorPlanError> {
    let p = params;
    assert!(p.stairs >= 1, "a station needs stairs");
    let mezz = 14.0f64; // vertical gap between platform and concourse
    let plat_y = 0.0;
    let conc_y = plat_y + p.platform_width + mezz;
    let shop_y = conc_y + p.concourse_width;
    let shop_depth = 8.0;

    let mut b = FloorPlanBuilder::new();
    let platform = b.add_hallway(
        Rect::new(0.0, plat_y, p.length, p.platform_width),
        "platform",
    );
    let concourse = b.add_hallway(
        Rect::new(0.0, conc_y, p.length, p.concourse_width),
        "concourse",
    );

    // Stairs pierce the mezzanine at uniform x.
    let stair_w = 4.0;
    let slice = p.length / p.stairs as f64;
    let mut stair_spans = Vec::new();
    for i in 0..p.stairs {
        let sx = (i as f64 + 0.5) * slice - stair_w / 2.0;
        b.add_hallway(
            Rect::new(sx, plat_y + p.platform_width, stair_w, mezz)
                // Overlap both halls slightly so the network connects.
                .union(&Rect::new(
                    sx,
                    plat_y + p.platform_width - 1.0,
                    stair_w,
                    1.0,
                ))
                .union(&Rect::new(sx, conc_y, stair_w, 1.0)),
            format!("stairs-{i}"),
        );
        stair_spans.push((sx, sx + stair_w));
    }

    // Shops above the concourse.
    let shop_w = p.length / p.shops as f64;
    for i in 0..p.shops {
        let x = i as f64 * shop_w;
        let shop = b.add_room(
            Rect::new(x, shop_y, shop_w, shop_depth),
            format!("shop-{i}"),
        );
        b.add_door(Point2::new(x + shop_w / 2.0, shop_y), shop, concourse);
    }

    // Ticket offices at mezzanine level, flanking the stairs (doors onto
    // the concourse's south edge).
    let office_depth = 8.0;
    let office_y = conc_y - office_depth;
    let left = b.add_room(Rect::new(0.0, office_y, 14.0, office_depth), "tickets-W");
    b.add_door(Point2::new(7.0, conc_y), left, concourse);
    let right = b.add_room(
        Rect::new(p.length - 14.0, office_y, 14.0, office_depth),
        "tickets-E",
    );
    b.add_door(Point2::new(p.length - 7.0, conc_y), right, concourse);

    // Service rooms at platform level, in the mezzanine gaps between
    // stairs (doors down onto the platform).
    let service_y = plat_y + p.platform_width;
    let mut placed = 0;
    let mut x0 = 16.0; // keep clear of the ticket offices' x-extent shadow
    for &(lo, _) in &stair_spans {
        let hi = lo - 2.0;
        if hi - x0 >= 10.0 && placed < 2 {
            let room = b.add_room(
                Rect::new(x0, service_y, 10.0, 6.0),
                format!("service-{placed}"),
            );
            b.add_door(Point2::new(x0 + 5.0, service_y), room, platform);
            placed += 1;
        }
        x0 = lo + stair_w + 2.0;
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_station_is_valid() {
        let plan = subway_station(&SubwayParams::default()).expect("valid station");
        // 6 shops + 2 ticket offices + up to 2 service rooms.
        assert!(plan.rooms().len() >= 9, "rooms: {}", plan.rooms().len());
        // Platform + concourse + 3 stairs.
        assert_eq!(plan.hallways().len(), 5);
    }

    #[test]
    fn platform_reaches_concourse() {
        use crate::HallwayId;
        let plan = subway_station(&SubwayParams::default()).unwrap();
        // Validated plans have a connected hallway network; additionally
        // check the stairs really overlap both halls.
        let platform = plan.hallway(HallwayId::new(0));
        let concourse = plan.hallway(HallwayId::new(1));
        let stair = plan.hallway(HallwayId::new(2));
        assert!(stair.footprint().intersects(platform.footprint()));
        assert!(stair.footprint().intersects(concourse.footprint()));
    }

    #[test]
    fn every_room_reachable() {
        let plan = subway_station(&SubwayParams::default()).unwrap();
        for r in plan.rooms() {
            assert!(!r.doors().is_empty(), "{} unreachable", r.name());
        }
    }

    #[test]
    fn bigger_station_scales() {
        let p = SubwayParams {
            length: 200.0,
            stairs: 5,
            shops: 10,
            ..Default::default()
        };
        let plan = subway_station(&p).expect("valid big station");
        assert_eq!(plan.hallways().len(), 7);
        assert!(plan.rooms().len() >= 12);
    }
}
