//! Dense symmetric matrices over category pairs.
//!
//! The number of categories `C` is tiny (tens) while the hot loops of
//! observation and estimation touch category pairs millions of times, so a
//! flat upper-triangular `Vec<f64>` beats any pair-keyed hash map: O(1)
//! unchecked-arithmetic indexing, zero hashing, and cache-resident storage
//! (`C = 50` is 10 KiB). Shared by [`crate::CategoryGraph`], the estimators
//! in `cgte-core`, and the experiment runner in `cgte-eval`.

use crate::CategoryId;

/// A dense symmetric `C × C` matrix of `f64`, stored as the upper triangle
/// (diagonal included) in row-major order.
///
/// `get`/`add`/`set` accept category pairs in either order. Useful for cut
/// counts, edge-weight numerators, and estimated weights alike.
///
/// # Example
///
/// ```
/// use cgte_graph::CategoryMatrix;
/// let mut m = CategoryMatrix::zeros(3);
/// m.add(2, 0, 1.5);
/// m.add(0, 2, 0.5);
/// assert_eq!(m.get(0, 2), 2.0);
/// assert_eq!(m.get(2, 0), 2.0);
/// assert_eq!(m.iter_nonzero().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryMatrix {
    num_categories: usize,
    /// Upper triangle, row-major: entry `(a, b)` with `a <= b` lives at
    /// `a*C - a(a-1)/2 + (b - a)`.
    data: Vec<f64>,
}

impl CategoryMatrix {
    /// An all-zero matrix over `num_categories` categories.
    pub fn zeros(num_categories: usize) -> Self {
        CategoryMatrix {
            num_categories,
            data: vec![0.0; num_categories * (num_categories + 1) / 2],
        }
    }

    /// Number of categories `C` (the matrix is `C × C`).
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    #[inline]
    fn index(&self, a: CategoryId, b: CategoryId) -> usize {
        let (a, b) = if a <= b {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        // A hard check, not debug-only: a near-range overflow computes a flat
        // index that aliases a *valid* cell (e.g. (0,2) and (1,1) on C = 2),
        // which `self.data[...]`'s own bounds check would never catch.
        assert!(
            b < self.num_categories,
            "category {b} out of range (C = {})",
            self.num_categories
        );
        a * self.num_categories - a * (a + 1) / 2 + b
    }

    /// The entry at `(a, b)` (order-insensitive).
    ///
    /// # Panics
    /// Panics if either category is out of range.
    #[inline]
    pub fn get(&self, a: CategoryId, b: CategoryId) -> f64 {
        self.data[self.index(a, b)]
    }

    /// Adds `x` to the entry at `(a, b)` (order-insensitive).
    ///
    /// # Panics
    /// Panics if either category is out of range.
    #[inline]
    pub fn add(&mut self, a: CategoryId, b: CategoryId, x: f64) {
        let i = self.index(a, b);
        self.data[i] += x;
    }

    /// The entry at `(a, b)` (order-insensitive), for a caller that sums
    /// several terms into it in a register and stores the sum once.
    ///
    /// # Panics
    /// Panics if either category is out of range.
    #[inline]
    pub fn get_mut(&mut self, a: CategoryId, b: CategoryId) -> &mut f64 {
        let i = self.index(a, b);
        &mut self.data[i]
    }

    /// Overwrites the entry at `(a, b)` (order-insensitive).
    ///
    /// # Panics
    /// Panics if either category is out of range.
    #[inline]
    pub fn set(&mut self, a: CategoryId, b: CategoryId, x: f64) {
        let i = self.index(a, b);
        self.data[i] = x;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
    }

    /// Heap bytes held by the stored triangle.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Whether every entry is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&x| x == 0.0)
    }

    /// Number of non-zero entries in the stored triangle.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Iterates the stored triangle as `(a, b, value)` with `a <= b`, in
    /// ascending `(a, b)` order — the storage order, so each cell is read
    /// straight from the triangle without re-deriving its index.
    pub fn iter_upper(&self) -> impl Iterator<Item = (CategoryId, CategoryId, f64)> + '_ {
        self.upper_pairs()
            .zip(&self.data)
            .map(|((a, b), &x)| (a, b, x))
    }

    /// The stored triangle's `(a, b)` pairs in storage order.
    fn upper_pairs(&self) -> impl Iterator<Item = (CategoryId, CategoryId)> {
        let c = self.num_categories as CategoryId;
        (0..c).flat_map(move |a| (a..c).map(move |b| (a, b)))
    }

    /// Like [`CategoryMatrix::iter_upper`], skipping zero entries.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (CategoryId, CategoryId, f64)> + '_ {
        self.iter_upper().filter(|&(_, _, x)| x != 0.0)
    }

    /// A new matrix whose entry `(a, b)` is `f(a, b, self[a, b])`, applied
    /// over the stored triangle.
    pub fn map_upper<F: FnMut(CategoryId, CategoryId, f64) -> f64>(
        &self,
        mut f: F,
    ) -> CategoryMatrix {
        let mut out = CategoryMatrix::zeros(self.num_categories);
        self.map_upper_into(&mut out, &mut f);
        out
    }

    /// Allocation-free variant of [`CategoryMatrix::map_upper`]: writes
    /// `f(a, b, self[a, b])` into `out`, which hot snapshot paths reuse
    /// across calls instead of allocating a matrix per prefix.
    ///
    /// # Panics
    /// Panics if `out` has a different category count.
    pub fn map_upper_into<F: FnMut(CategoryId, CategoryId, f64) -> f64>(
        &self,
        out: &mut CategoryMatrix,
        mut f: F,
    ) {
        assert_eq!(
            out.num_categories, self.num_categories,
            "output matrix dimension mismatch"
        );
        for (((a, b), &x), o) in self.upper_pairs().zip(&self.data).zip(&mut out.data) {
            *o = f(a, b, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dims() {
        let m = CategoryMatrix::zeros(4);
        assert_eq!(m.num_categories(), 4);
        assert!(m.is_zero());
        assert_eq!(m.count_nonzero(), 0);
        assert_eq!(m.iter_upper().count(), 10); // 4*5/2
    }

    #[test]
    fn symmetric_access() {
        let mut m = CategoryMatrix::zeros(3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        m.add(2, 1, 1.0);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn diagonal_entries() {
        let mut m = CategoryMatrix::zeros(3);
        m.add(1, 1, 2.0);
        assert_eq!(m.get(1, 1), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn no_aliasing_between_pairs() {
        let mut m = CategoryMatrix::zeros(5);
        let mut expected = std::collections::HashMap::new();
        let mut x = 1.0;
        for a in 0..5u32 {
            for b in a..5u32 {
                m.set(a, b, x);
                expected.insert((a, b), x);
                x += 1.0;
            }
        }
        for a in 0..5u32 {
            for b in a..5u32 {
                assert_eq!(m.get(a, b), expected[&(a, b)], "({a},{b})");
            }
        }
        // The storage-order walks agree with `get` on every cell.
        assert_eq!(m.iter_upper().count(), expected.len());
        for (a, b, x) in m.iter_upper() {
            assert_eq!(x, expected[&(a, b)], "iter_upper ({a},{b})");
        }
        let mut out = CategoryMatrix::zeros(5);
        m.map_upper_into(&mut out, |a, b, x| x * 10.0 + (a * 5 + b) as f64);
        for (&(a, b), &x) in &expected {
            assert_eq!(
                out.get(a, b),
                x * 10.0 + (a * 5 + b) as f64,
                "map ({a},{b})"
            );
        }
    }

    #[test]
    fn iter_nonzero_ordered() {
        let mut m = CategoryMatrix::zeros(3);
        m.set(0, 2, 1.0);
        m.set(1, 1, 2.0);
        let v: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(v, vec![(0, 2, 1.0), (1, 1, 2.0)]);
    }

    #[test]
    fn map_upper_transforms() {
        let mut m = CategoryMatrix::zeros(2);
        m.set(0, 1, 4.0);
        let d = m.map_upper(|_, _, x| x / 2.0);
        assert_eq!(d.get(0, 1), 2.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_shape() {
        let mut m = CategoryMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.reset();
        assert!(m.is_zero());
        assert_eq!(m.num_categories(), 3);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let m = CategoryMatrix::zeros(2);
        let _ = m.get(0, 2);
    }
}
