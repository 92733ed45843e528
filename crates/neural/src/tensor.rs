//! A minimal dense `f32` tensor (row-major, owned) — all the framework
//! needs.

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from data and shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn new(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Tensor { data, shape: shape.to_vec() }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { data: vec![0.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        assert_eq!(self.data.len(), shape.iter().product::<usize>());
        self.shape = shape.to_vec();
        self
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element (ties broken by first occurrence).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty());
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let t = Tensor::new(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.data()[3], 4.0);
    }

    #[test]
    fn zeros_and_reshape() {
        let t = Tensor::zeros(&[3, 4]).reshaped(&[2, 6]);
        assert_eq!(t.shape(), &[2, 6]);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn argmax_and_max_abs() {
        let t = Tensor::new(vec![-5.0, 2.0, 2.0, 1.0], &[4]);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.max_abs(), 5.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        let _ = Tensor::new(vec![1.0], &[2]);
    }
}
