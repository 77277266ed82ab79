//! Numeric precision helpers: BF16 rounding and INT8 quantization.
//!
//! The systolic array computes in BF16 and the CIM macro stores INT8 weights
//! (N = 8 bit-cells per weight) with per-tensor scaling. These helpers give
//! the functional models the same rounding behaviour so accuracy experiments
//! (cosine similarity of pruned vs unpruned FFN outputs) include realistic
//! quantization noise.

/// Round an `f32` to BF16 precision (round-to-nearest-even on the mantissa)
/// and return it widened back to `f32`.
pub fn bf16_round(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    // BF16 keeps the upper 16 bits of the IEEE-754 binary32 encoding.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
    f32::from_bits(rounded)
}

/// A vector quantized to INT8 with a single power-agnostic scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    /// Quantized values in `[-127, 127]`.
    pub values: Vec<i8>,
    /// Dequantization scale: `real = value * scale`.
    pub scale: f32,
}

impl QuantizedVector {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Symmetric per-tensor INT8 quantization.
///
/// The scale maps the largest absolute value to 127; an all-zero input gets
/// a scale of 1.0 so dequantization is well defined.
pub fn quantize_int8(values: &[f32]) -> QuantizedVector {
    let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let values = values
        .iter()
        .map(|v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    QuantizedVector { values, scale }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bf16_round_is_idempotent() {
        for x in [
            0.0f32,
            1.0,
            -1.5,
            core::f32::consts::PI,
            1e-20,
            1e20,
            -123.456,
        ] {
            let once = bf16_round(x);
            assert_eq!(bf16_round(once), once);
        }
    }

    #[test]
    fn bf16_round_preserves_exact_values() {
        assert_eq!(bf16_round(1.0), 1.0);
        assert_eq!(bf16_round(-2.0), -2.0);
        assert_eq!(bf16_round(0.5), 0.5);
        assert_eq!(bf16_round(0.0), 0.0);
    }

    #[test]
    fn bf16_round_error_is_bounded() {
        // BF16 has 8 mantissa bits -> relative error < 2^-8.
        for x in [
            core::f32::consts::PI,
            core::f32::consts::E,
            123.456,
            0.001234,
        ] {
            let r = bf16_round(x);
            assert!(((r - x) / x).abs() < 1.0 / 256.0, "x={x} r={r}");
        }
    }

    #[test]
    fn bf16_handles_non_finite() {
        assert!(bf16_round(f32::NAN).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
    }

    #[test]
    fn int8_round_trip_error_bounded() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.37).collect();
        let q = quantize_int8(&values);
        let max_abs = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, &v) in values.iter().zip(&q.values) {
            assert!((a - v as f32 * q.scale).abs() <= max_abs / 127.0 + 1e-6);
        }
    }

    #[test]
    fn int8_zero_vector() {
        let q = quantize_int8(&[0.0, 0.0, 0.0]);
        assert_eq!(q.scale, 1.0);
        assert_eq!(q.values, vec![0, 0, 0]);
        assert_eq!(q.len(), 3);
        assert!(!q.is_empty());
    }

    #[test]
    fn int8_extremes_map_to_127() {
        let q = quantize_int8(&[-10.0, 10.0, 5.0]);
        assert_eq!(q.values[0], -127);
        assert_eq!(q.values[1], 127);
    }

    proptest! {
        #[test]
        fn quantize_never_overflows(values in proptest::collection::vec(-1.0e6f32..1.0e6, 1..256)) {
            let q = quantize_int8(&values);
            prop_assert!(q.values.iter().all(|&v| (-127..=127).contains(&(v as i32))));
            prop_assert_eq!(q.len(), values.len());
        }

        #[test]
        fn bf16_relative_error_bound(x in -1.0e30f32..1.0e30) {
            prop_assume!(x != 0.0 && x.is_finite());
            let r = bf16_round(x);
            prop_assert!(((r - x) / x).abs() <= 1.0 / 256.0 + f32::EPSILON);
        }
    }
}
