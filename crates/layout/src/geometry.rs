//! Minimal 2-D geometry for layouts.

use std::ops::{Add, Mul, Sub};

/// A point (or vector) in the layout plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Constructs a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Euclidean distance to `other`.
    pub fn dist(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// True when both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, o: Point2) -> Point2 {
        Point2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, o: Point2) -> Point2 {
        Point2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

/// Rescales positions in place to fit `[0, size] × [0, size]`, preserving
/// aspect ratio. No-op for empty or degenerate (single-point) layouts.
pub fn normalize_to_box(points: &mut [Point2], size: f64) {
    if points.is_empty() {
        return;
    }
    let min_x = points.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
    let max_x = points.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
    let min_y = points.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
    let max_y = points.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
    let span = (max_x - min_x).max(max_y - min_y);
    if span <= 0.0 || !span.is_finite() {
        return;
    }
    let s = size / span;
    for p in points.iter_mut() {
        p.x = (p.x - min_x) * s;
        p.y = (p.y - min_y) * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Point2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        let b = Point2::new(1.0, 1.0);
        assert_eq!((a + b), Point2::new(4.0, 5.0));
        assert_eq!((a - b), Point2::new(2.0, 3.0));
        assert_eq!((a * 2.0), Point2::new(6.0, 8.0));
        assert_eq!(a.dist(b), (2.0f64 * 2.0 + 3.0 * 3.0).sqrt());
        assert!(a.is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
    }

    #[test]
    fn normalize_fits_box() {
        let mut pts = vec![Point2::new(-5.0, 10.0), Point2::new(5.0, 20.0), Point2::new(0.0, 15.0)];
        normalize_to_box(&mut pts, 100.0);
        for p in &pts {
            assert!(p.x >= -1e-9 && p.x <= 100.0 + 1e-9);
            assert!(p.y >= -1e-9 && p.y <= 100.0 + 1e-9);
        }
        // Aspect preserved: x-span was 10, y-span 10 -> both map to 100.
        let max_x = pts.iter().map(|p| p.x).fold(f64::NEG_INFINITY, f64::max);
        assert!((max_x - 100.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_degenerate_is_noop() {
        let mut pts = vec![Point2::new(2.0, 2.0), Point2::new(2.0, 2.0)];
        normalize_to_box(&mut pts, 10.0);
        assert_eq!(pts[0], Point2::new(2.0, 2.0));
        let mut empty: Vec<Point2> = vec![];
        normalize_to_box(&mut empty, 10.0);
    }
}
