//! Convex hulls and polygon predicates — the "hull algorithm" of §3.
//!
//! The paper assumes "the interest area … can easily be built by the hull
//! algorithm" and pins every *edge node* to the safe tuple `(1,1,1,1)` so
//! that the boundary of the deployment never triggers unsafe cascades.
//! `sp-net` uses [`convex_hull`] to find those edge nodes;
//! [`point_in_polygon`] supports irregular forbidden areas in the FA
//! deployment model.

use crate::Point;

/// Indices of the convex hull of `points`, counter-clockwise, starting
/// from the lexicographically smallest point (Andrew's monotone chain).
///
/// Collinear points on hull edges are *excluded* (strict hull). Degenerate
/// inputs: fewer than three distinct points return all distinct points.
/// Of several identical points, the lowest index represents them.
///
/// Points strictly inside the quadrilateral of the diagonal extreme
/// points are dropped before the sort ([`hull_candidates`]), so a
/// uniform deployment sorts only a thin rim of candidates.
///
/// ```
/// use sp_geom::{convex_hull, Point};
/// let pts = [
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(4.0, 4.0),
///     Point::new(0.0, 4.0),
///     Point::new(2.0, 2.0), // interior
/// ];
/// let hull = convex_hull(&pts);
/// assert_eq!(hull, vec![0, 1, 2, 3]);
/// ```
pub fn convex_hull(points: &[Point]) -> Vec<usize> {
    monotone_chain(points, hull_candidates(points))
}

/// Relative depth, in units of the squared extent of the input, that a
/// point must lie inside every edge of the extreme-point polygon to be
/// dropped. Far above the rounding error of one cross product, far
/// below any deployment's geometry.
const PREFILTER_MARGIN: f64 = 1e-9;

/// The Akl–Toussaint prefilter: indices (ascending) of the points that
/// are not strictly inside the quadrilateral through the extreme points
/// in the four diagonal directions (a rectangular field's corners).
///
/// A point left of every edge of that closed polygon is interior to the
/// convex hull of its vertices, hence no hull vertex, whatever the
/// polygon's shape; the margin keeps points near an edge, where a
/// rounded cross product could misjudge the side. Nothing is strictly
/// inside a polygon of fewer than three distinct vertices, and points
/// with non-finite coordinates compare false, so both are kept.
fn hull_candidates(points: &[Point]) -> Vec<usize> {
    // Counter-clockwise: NE, NW, SW, SE.
    const DIRECTIONS: [(f64, f64); 4] = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)];
    let Some(&first) = points.first() else {
        return Vec::new();
    };
    let score = |p: Point, (dx, dy): (f64, f64)| dx * p.x + dy * p.y;
    let mut extreme = [first; 4];
    for &p in points {
        for (e, &d) in extreme.iter_mut().zip(&DIRECTIONS) {
            if score(p, d) > score(*e, d) {
                *e = p;
            }
        }
    }
    let mut polygon = extreme.to_vec();
    polygon.dedup();
    if polygon.len() > 1 && polygon.first() == polygon.last() {
        polygon.pop();
    }
    let extent = score(extreme[0], DIRECTIONS[0]) + score(extreme[2], DIRECTIONS[2]);
    let margin = PREFILTER_MARGIN * extent * extent;
    if margin == 0.0 {
        // Every point on one anti-diagonal: rounding alone decides sides.
        return (0..points.len()).collect();
    }
    let inside = |p: Point| {
        let mut edges = polygon.iter().zip(polygon.iter().cycle().skip(1));
        edges.all(|(&a, &b)| (b - a).cross(p - a) > margin)
    };
    (0..points.len()).filter(|&i| !inside(points[i])).collect()
}

/// Andrew's monotone chain over the candidate indices `idx`.
fn monotone_chain(points: &[Point], mut idx: Vec<usize>) -> Vec<usize> {
    idx.sort_by(|&a, &b| points[a].total_cmp(&points[b]));
    idx.dedup_by(|&mut a, &mut b| points[a] == points[b]);

    let n = idx.len();
    if n <= 2 {
        return idx;
    }

    let cross = |o: usize, a: usize, b: usize| -> f64 {
        (points[a] - points[o]).cross(points[b] - points[o])
    };

    let mut hull: Vec<usize> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &i in &idx {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], i) <= 0.0 {
            hull.pop();
        }
        hull.push(i);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &i in idx.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross(hull[hull.len() - 2], hull[hull.len() - 1], i) <= 0.0
        {
            hull.pop();
        }
        hull.push(i);
    }
    hull.pop(); // last point == first point
    hull
}

/// Even–odd point-in-polygon test, border treated as inside (within the
/// crossing tolerance of the ray-cast).
///
/// `polygon` is a closed loop given without the repeated first vertex.
///
/// ```
/// use sp_geom::{point_in_polygon, Point};
/// let square = [
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
///     Point::new(0.0, 10.0),
/// ];
/// assert!(point_in_polygon(Point::new(5.0, 5.0), &square));
/// assert!(!point_in_polygon(Point::new(15.0, 5.0), &square));
/// ```
pub fn point_in_polygon(p: Point, polygon: &[Point]) -> bool {
    let n = polygon.len();
    if n < 3 {
        return false;
    }
    // Border check first so edges count as inside deterministically.
    for i in 0..n {
        let a = polygon[i];
        let b = polygon[(i + 1) % n];
        if crate::Segment::new(a, b).distance_to_point(p) < 1e-9 {
            return true;
        }
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let a = polygon[i];
        let b = polygon[j];
        if (a.y > p.y) != (b.y > p.y) {
            let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_at {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Signed area of a polygon (positive when counter-clockwise).
///
/// `polygon` is a closed loop given without the repeated first vertex.
pub fn polygon_area(polygon: &[Point]) -> f64 {
    let n = polygon.len();
    if n < 3 {
        return 0.0;
    }
    let mut twice = 0.0;
    for i in 0..n {
        let a = polygon[i];
        let b = polygon[(i + 1) % n];
        twice += a.x * b.y - b.x * a.y;
    }
    twice / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The prefilter never changes the hull: same indices, same order,
    /// as the monotone chain over every point.
    fn assert_prefilter_exact(pts: &[Point]) {
        let unfiltered = monotone_chain(pts, (0..pts.len()).collect());
        assert_eq!(convex_hull(pts), unfiltered, "points: {pts:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn prefilter_is_exact_on_random_points(
            raw in prop::collection::vec((-1e3..1e3f64, -1e3..1e3f64), 0..300),
        ) {
            let pts: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            assert_prefilter_exact(&pts);
        }

        /// Coordinates from a handful of values: many duplicates and
        /// many collinear triples, on and off the hull.
        #[test]
        fn prefilter_is_exact_on_duplicate_and_lattice_points(
            raw in prop::collection::vec((0u8..6, 0u8..6), 0..80),
            scale in prop::sample::select(vec![1.0, 0.1, 3.7, 1e6]),
        ) {
            let pts: Vec<Point> = raw
                .iter()
                .map(|&(x, y)| Point::new(f64::from(x) * scale, f64::from(y) * scale))
                .collect();
            assert_prefilter_exact(&pts);
        }

        /// Points on a few lines, one of which may carry the whole set.
        #[test]
        fn prefilter_is_exact_on_collinear_points(
            ts in prop::collection::vec((0usize..3, -50i32..50), 1..120),
            slope in -3i32..4,
        ) {
            let pts: Vec<Point> = ts
                .iter()
                .map(|&(line, t)| {
                    let t = f64::from(t);
                    Point::new(t, f64::from(slope) * t + 10.0 * line as f64)
                })
                .collect();
            assert_prefilter_exact(&pts);
            let one_line: Vec<Point> = pts.iter().map(|p| Point::new(p.x, 2.0 * p.x)).collect();
            assert_prefilter_exact(&one_line);
            let anti_diagonal: Vec<Point> =
                pts.iter().map(|p| Point::new(p.x, 5.0 - p.x)).collect();
            assert_prefilter_exact(&anti_diagonal);
        }
    }

    #[test]
    fn prefilter_drops_the_interior_of_a_uniform_field() {
        // A deterministic scatter over a square: the prefilter must
        // leave only a thin rim for the sort.
        let pts: Vec<Point> = (0..10_000u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let x = (h >> 11) as f64 / (1u64 << 53) as f64;
                let y = (h.rotate_left(29) >> 11) as f64 / (1u64 << 53) as f64;
                Point::new(1000.0 * x, 1000.0 * y)
            })
            .collect();
        let kept = hull_candidates(&pts).len();
        assert!(kept < pts.len() / 10, "kept {kept} of {}", pts.len());
        assert_prefilter_exact(&pts);
    }

    #[test]
    fn prefilter_keeps_non_finite_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(f64::NAN, 1.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(2.0, 2.0),
        ];
        assert!(hull_candidates(&pts).contains(&2));
        assert_prefilter_exact(&pts);
        let mut with_nan_first = pts;
        with_nan_first.swap(0, 2);
        assert_eq!(hull_candidates(&with_nan_first).len(), pts.len());
    }

    #[test]
    fn hull_of_square_with_interior_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 3.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        for &i in &hull {
            assert!(i < 4, "interior point {i} must not be on hull");
        }
    }

    #[test]
    fn hull_is_ccw() {
        let pts = [
            Point::new(1.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(2.0, 4.0),
            Point::new(-1.0, 2.0),
            Point::new(1.5, 1.5),
        ];
        let hull = convex_hull(&pts);
        let loop_pts: Vec<Point> = hull.iter().map(|&i| pts[i]).collect();
        assert!(polygon_area(&loop_pts) > 0.0, "hull must be CCW");
    }

    #[test]
    fn hull_excludes_collinear_edge_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0), // on bottom edge
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        let hull = convex_hull(&pts);
        assert_eq!(hull.len(), 4);
        assert!(!hull.contains(&1));
    }

    #[test]
    fn degenerate_hulls() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[Point::new(1.0, 1.0)]), vec![0]);
        let two = [Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        assert_eq!(convex_hull(&two).len(), 2);
        // Duplicates collapse.
        let dup = [Point::new(1.0, 1.0), Point::new(1.0, 1.0)];
        assert_eq!(convex_hull(&dup).len(), 1);
        // All collinear: hull is the two extremes... monotone chain keeps
        // the endpoints only.
        let line = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        let hull = convex_hull(&line);
        assert!(hull.contains(&0) && hull.contains(&2));
    }

    #[test]
    fn point_in_polygon_concave() {
        // L-shaped polygon.
        let poly = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ];
        assert!(point_in_polygon(Point::new(1.0, 1.0), &poly));
        assert!(point_in_polygon(Point::new(1.0, 3.0), &poly));
        assert!(!point_in_polygon(Point::new(3.0, 3.0), &poly)); // notch
        assert!(point_in_polygon(Point::new(0.0, 2.0), &poly)); // border
    }

    #[test]
    fn polygon_area_sign_and_magnitude() {
        let ccw = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 3.0),
            Point::new(0.0, 3.0),
        ];
        assert_eq!(polygon_area(&ccw), 6.0);
        let cw: Vec<Point> = ccw.iter().rev().copied().collect();
        assert_eq!(polygon_area(&cw), -6.0);
        assert_eq!(polygon_area(&ccw[..2]), 0.0);
    }
}
