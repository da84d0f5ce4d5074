//! Property-based tests of Algorithm-1 labeling.

use proptest::prelude::*;
use waldo_data::Labeler;
use waldo_geo::Point;

fn arb_readings() -> impl Strategy<Value = Vec<(Point, f64)>> {
    prop::collection::vec(
        (0.0f64..35_000.0, 0.0f64..20_000.0, -120.0f64..-60.0)
            .prop_map(|(x, y, rss)| (Point::new(x, y), rss)),
        1..120,
    )
}

/// A labeling case: readings plus threshold, antenna correction and
/// radius. Coordinates sit on a 1 m grid and radii on a half-metre grid, so
/// the planted boundary readings are exact: a copy of a reading at
/// exactly the radius along an axis, a duplicate point, and readings at
/// exactly the threshold before and after the correction.
fn arb_case() -> impl Strategy<Value = (Vec<(Point, f64)>, f64, f64, f64)> {
    (
        prop::collection::vec((0u32..35_000, 0u32..20_000, -120.0f64..-60.0, 0u8..6), 0..80),
        -100.0f64..-70.0,
        0.0f64..10.0,
        (1u32..12_000, any::<bool>())
            .prop_map(|(r, half)| f64::from(r) + if half { 0.5 } else { 0.0 }),
    )
        .prop_map(|(seeds, threshold, correction, radius)| {
            let mut readings = Vec::new();
            for (x, y, rss, extra) in seeds {
                let (x, y) = (f64::from(x), f64::from(y));
                readings.push((Point::new(x, y), rss));
                match extra {
                    0 => readings.push((Point::new(x + radius, y), rss)),
                    1 => readings.push((Point::new(x, y + radius), threshold - correction)),
                    2 => readings.push((Point::new(x, y), threshold)),
                    3 => readings.push((Point::new(x - radius, y), -120.0)),
                    _ => {}
                }
            }
            (readings, threshold, correction, radius)
        })
}

proptest! {
    #[test]
    fn labeling_matches_brute_force_at_any_parameters(case in arb_case()) {
        // Algorithm 1 verbatim, O(n²): a reading is not safe when any
        // reading with corrected power above the threshold lies within the
        // radius (inclusive, compared squared as the grid index does).
        let (readings, threshold, correction, radius) = case;
        let labeler = Labeler::new()
            .threshold_dbm(threshold)
            .antenna_correction_db(correction)
            .radius_m(radius);
        prop_assert!(labeler.label(&[]).is_empty());
        let labels = labeler.label(&readings);
        prop_assert_eq!(labels.len(), readings.len());
        for (i, &(p, _)) in readings.iter().enumerate() {
            let expect = readings.iter().any(|&(q, rss)| {
                rss + correction > threshold && q.distance_sq(p) <= radius * radius
            });
            prop_assert_eq!(labels[i].is_not_safe(), expect, "reading {}", i);
        }
    }

    #[test]
    fn labeling_matches_brute_force(readings in arb_readings()) {
        let labels = Labeler::new().label(&readings);
        for (i, &(p, _)) in readings.iter().enumerate() {
            let expect = readings
                .iter()
                .any(|&(q, r)| r > -84.0 && q.distance(p) <= 6_000.0);
            prop_assert_eq!(labels[i].is_not_safe(), expect);
        }
    }

    #[test]
    fn adding_readings_is_monotone(readings in arb_readings(),
                                   extra_x in 0.0f64..35_000.0,
                                   extra_y in 0.0f64..20_000.0) {
        let before = Labeler::new().label(&readings);
        let mut more = readings.clone();
        more.push((Point::new(extra_x, extra_y), -70.0)); // a hot reading
        let after = Labeler::new().label(&more);
        for i in 0..before.len() {
            prop_assert!(!before[i].is_not_safe() || after[i].is_not_safe());
        }
    }

    #[test]
    fn raising_the_correction_is_monotone(readings in arb_readings(),
                                          c1 in 0.0f64..10.0, c2 in 0.0f64..10.0) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let small = Labeler::new().antenna_correction_db(lo).label(&readings);
        let big = Labeler::new().antenna_correction_db(hi).label(&readings);
        for i in 0..small.len() {
            prop_assert!(!small[i].is_not_safe() || big[i].is_not_safe());
        }
    }

    #[test]
    fn widening_the_radius_is_monotone(readings in arb_readings(),
                                       r1 in 100.0f64..10_000.0, r2 in 100.0f64..10_000.0) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let small = Labeler::new().radius_m(lo).label(&readings);
        let big = Labeler::new().radius_m(hi).label(&readings);
        for i in 0..small.len() {
            prop_assert!(!small[i].is_not_safe() || big[i].is_not_safe());
        }
    }
}
