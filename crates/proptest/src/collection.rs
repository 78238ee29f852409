//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.usize_in(self.size.start, self.size.end);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_within_range() {
        let mut rng = TestRng::for_case(3, 1);
        let s = vec(0usize..5, 2..7);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }
}
