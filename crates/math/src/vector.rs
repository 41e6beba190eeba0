//! Dense vector type.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense vector of `f64` values.
///
/// Used throughout the reproduction for utilization vectors `u(k)`, rate
/// vectors `r(k)`, set points `B` and QP unknowns.
///
/// # Example
///
/// ```
/// use eucon_math::Vector;
///
/// let u = Vector::from_slice(&[0.8, 0.7]);
/// let b = Vector::from_slice(&[0.828, 0.828]);
/// let err = &b - &u;
/// assert!((err[0] - 0.028).abs() < 1e-12);
/// ```
#[derive(PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

// Not derived: the derived impl would not override `clone_from`, and the
// closed-loop hot path clones into long-lived scratch vectors every
// sampling period — `clone_from` reuses their allocations.
impl Clone for Vector {
    fn clone(&self) -> Self {
        Vector {
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
    }
}

impl Vector {
    /// Creates a vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by collecting an iterator of values.
    ///
    /// Also available through the `FromIterator` impl (`collect()`); the
    /// inherent method reads better at call sites that build vectors from
    /// expressions.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Vector {
            data: values.into_iter().collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns `true` when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Borrows the entries as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the entries as a slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Appends one entry, growing the vector by one.
    ///
    /// Used by runtime-membership code (admitting a task grows every
    /// per-task vector); the steady-state control path never calls it.
    pub fn push(&mut self, value: f64) {
        self.data.push(value);
    }

    /// Reserves room for `n` entries without changing the vector, so
    /// later [`resize`](Vector::resize) / [`clone_from`](Clone::clone_from)
    /// calls up to that length do not allocate.
    pub fn reserve(&mut self, n: usize) {
        self.data.reserve(n.saturating_sub(self.data.len()));
    }

    /// Sets the length to `n`, truncating or padding with zeros; reuses
    /// the allocation when `n` fits its capacity.
    pub fn resize(&mut self, n: usize) {
        self.data.resize(n, 0.0);
    }

    /// Copies the entries of `source` into `self` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (use [`Clone::clone_from`] to also
    /// resize).
    pub fn copy_from(&mut self, source: &Vector) {
        assert_eq!(self.len(), source.len(), "copy_from requires equal lengths");
        self.data.copy_from_slice(&source.data);
    }

    /// Copies the entries of `source` into `self` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from_slice(&mut self, source: &[f64]) {
        assert_eq!(
            self.len(),
            source.len(),
            "copy_from_slice requires equal lengths"
        );
        self.data.copy_from_slice(source);
    }

    /// Consumes the vector, returning the underlying `Vec`.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Dot product with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot product requires equal lengths"
        );
        crate::kernel::dot(&self.data, &other.data)
    }

    /// Fused in-place update `self += alpha · x` (BLAS `axpy`).
    ///
    /// Each entry becomes `self[i] + (alpha · x[i])`, the same expression
    /// the allocating form `&self + &x.scale(alpha)` evaluates, so hot
    /// paths can switch to this without changing results by a single ULP.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f64, x: &Vector) {
        crate::kernel::axpy(&mut self.data, alpha, &x.data);
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Largest absolute entry (0 for the empty vector).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Returns a new vector with `f` applied to every entry.
    pub fn map<F: FnMut(f64) -> f64>(&self, f: F) -> Vector {
        Vector {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Vector {
        self.map(|v| v * s)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| crate::approx_eq(*a, *b, tol))
    }

    /// Concatenates `self` with `other`.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector { data }
    }

    /// Returns the sub-vector with indices `i0..i1` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn subvector(&self, i0: usize, i1: usize) -> Vector {
        assert!(i0 <= i1 && i1 <= self.len(), "invalid range {i0}..{i1}");
        Vector::from_slice(&self.data[i0..i1])
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector{:?}", self.data)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector addition requires equal lengths"
        );
        Vector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| a + b))
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "vector subtraction requires equal lengths"
        );
        Vector::from_iter(self.iter().zip(rhs.iter()).map(|(a, b)| a - b))
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.scale(-1.0)
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, s: f64) -> Vector {
        self.scale(s)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(Vector::zeros(3).len(), 3);
        assert_eq!(Vector::filled(2, 7.0).as_slice(), &[7.0, 7.0]);
        assert_eq!(Vector::from_slice(&[1.0]).len(), 1);
        assert!(Vector::default().is_empty());
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[10.0, 20.0]);
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn concat_and_subvector() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0]);
        let c = a.concat(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.subvector(1, 3).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn map_and_scale() {
        let a = Vector::from_slice(&[1.0, -2.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.scale(0.5).as_slice(), &[0.5, -1.0]);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let a = Vector::from_slice(&[1.0]);
        assert_eq!(format!("{a}"), "[1.0000]");
        assert!(format!("{a:?}").contains("Vector"));
        assert_eq!(format!("{}", Vector::default()), "[]");
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn is_finite_detects_infinity() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[1] = f64::INFINITY;
        assert!(!v.is_finite());
    }
}
