//! Audited floating-point comparisons.
//!
//! The `float-eq` rule of `edgemm-lint` bans `==`/`!=` against float
//! literals in non-test code, because most such comparisons are latent
//! tolerance bugs. The exceptions fall into two camps, both hosted here:
//!
//! * **Exact sentinel checks** ([`is_zero`], [`is_one`]): the cost model
//!   uses `1.0`/`0.0` as *exact* sentinels ("pool is neutral", "no traffic
//!   yet") that are assigned, never computed, so bitwise equality is the
//!   correct test — replacing it with a tolerance would silently widen the
//!   fast path and shift golden scalars.
//! * **Tolerance comparison** ([`approx_eq`]): the relative-error check the
//!   golden suite pins paper scalars with.
//!
//! Keeping every float comparison behind a named helper means each call
//! site states *which* semantics it wants, and the audit surface for "is
//! this equality sound?" is this one file.

/// Relative-tolerance equality: `|a - b| <= tol * max(|a|, |b|)`.
///
/// Exact equality (including `0 == 0` and equal infinities) always passes;
/// `NaN` never does. This mirrors the golden suite's `assert_close`.
pub fn approx_eq(a: f64, b: f64, rel_tol: f64) -> bool {
    if a == b {
        // lint:allow(float-eq): exact-match fast path of the tolerance check
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= rel_tol * scale
}

/// Exact test against the `0.0` sentinel.
///
/// Sound only for values that are *assigned* zero (never the result of
/// arithmetic that merely approaches zero). `-0.0` counts as zero.
pub fn is_zero(x: f64) -> bool {
    x == 0.0 // lint:allow(float-eq): audited exact sentinel comparison
}

/// Exact test against the `1.0` sentinel (neutral scale factor).
///
/// Sound only for factors that are *assigned* `1.0` on their neutral path,
/// as `PagedKvPool::kv_traffic_factor` does; a tolerance here would
/// misclassify near-neutral pools and change exact integer fast paths.
pub fn is_one(x: f64) -> bool {
    x == 1.0 // lint:allow(float-eq): audited exact sentinel comparison
}

/// [`is_zero`] for `f32` values (activation sparsity fast paths and
/// max-magnitude guards in the pruning kernels, which run in `f32`).
pub fn is_zero_f32(x: f32) -> bool {
    x == 0.0 // lint:allow(float-eq): audited exact sentinel comparison
}

/// Total-order comparison for `f64` sort keys.
///
/// [`f64::total_cmp`] behind a named helper: unlike
/// `partial_cmp(..).expect("finite")` it cannot panic — `NaN` is ordered
/// (after `+inf` in IEEE 754 total order) instead of poisoning the sort.
/// The `float-partial-cmp` lint rule bans the raw `partial_cmp` form on
/// floats in unit crates in favour of this.
pub fn total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

/// [`total_cmp`] for `f32` sort keys (pruning magnitude ranks).
pub fn total_cmp_f32(a: f32, b: f32) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

/// Dimensionless fraction of two counts: `num as f64 / den as f64`.
///
/// No zero guard — callers that need `0/0 == 0` semantics must check
/// emptiness first, exactly as the raw-cast code they replaced did.
pub fn fraction(num: usize, den: usize) -> f64 {
    num as f64 / den as f64
}

/// A dimensionless count (requests, steps, ranks) as an `f64`.
///
/// The escape hatch for counts that are *not* tracked quantities — code
/// dividing [`Bytes`](crate::units::Bytes) or
/// [`Cycles`](crate::units::Cycles) should use their `as_f64`/`ratio`
/// methods instead, so the unit survives to the division.
pub fn count(n: usize) -> f64 {
    n as f64
}

/// [`count`] for `u64` counters (event tallies, step counters).
pub fn count_u64(n: u64) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_matches_golden_semantics() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(0.0, 0.0, 1e-9));
        assert!(approx_eq(100.0, 100.0 + 5e-5, 1e-6));
        assert!(!approx_eq(100.0, 100.2, 1e-6));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-6));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 1e-6));
    }

    #[test]
    fn sentinels_are_exact() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(!is_zero(1e-300));
        assert!(is_one(1.0));
        assert!(!is_one(1.0 + f64::EPSILON));
        assert!(!is_one(f64::NAN));
    }

    #[test]
    fn total_cmp_orders_nan_instead_of_panicking() {
        use std::cmp::Ordering;
        assert_eq!(total_cmp(1.0, 2.0), Ordering::Less);
        assert_eq!(total_cmp(2.0, 2.0), Ordering::Equal);
        assert_eq!(total_cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(total_cmp_f32(-0.0, 0.0), Ordering::Less);
        let mut v = [3.0f64, f64::NAN, 1.0];
        v.sort_by(|a, b| total_cmp(*a, *b));
        assert_eq!(&v[..2], &[1.0, 3.0]);
    }

    #[test]
    fn fraction_is_plain_division() {
        assert!((fraction(3, 4) - 0.75).abs() < 1e-15);
        assert!(fraction(1, 0).is_infinite());
        assert!(fraction(0, 0).is_nan());
    }
}
