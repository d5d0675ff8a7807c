//! Compressor configuration: error-bound modes, quantizer capacity,
//! lossless backend toggle, and array dimensionality.

use crate::error::SzError;
use tac_dtype::{Element, TacDtype};

/// How the user bounds the point-wise reconstruction error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Point-wise absolute error bound: `|v - v'| <= eb` for every point.
    Abs(f64),
    /// Value-range relative bound: the absolute bound is
    /// `eb * (max - min)` of the input block (SZ's `REL` mode).
    Rel(f64),
}

impl ErrorBound {
    /// Resolves the bound to an absolute epsilon for the given value range.
    ///
    /// Constant inputs (zero range) resolve to a tiny positive epsilon so
    /// that quantization still succeeds; every point then predicts exactly.
    pub fn resolve(self, min: f64, max: f64) -> Result<f64, SzError> {
        self.resolve_for(min, max, TacDtype::F64)
    }

    /// Like [`ErrorBound::resolve`], but the zero-range fallback epsilon is
    /// the smallest positive *normal* of the element type actually being
    /// compressed, so the quantizer step stays representable at that
    /// precision (`f64::MIN_POSITIVE` would silently flush to zero in an
    /// `f32` pipeline).
    pub fn resolve_for(self, min: f64, max: f64, dtype: TacDtype) -> Result<f64, SzError> {
        let abs = match self {
            ErrorBound::Abs(eb) => eb,
            ErrorBound::Rel(rel) => {
                if rel <= 0.0 || !rel.is_finite() {
                    return Err(SzError::InvalidErrorBound(format!(
                        "relative bound must be positive and finite, got {rel}"
                    )));
                }
                let range = max - min;
                if range > 0.0 && range.is_finite() {
                    rel * range
                } else {
                    match dtype {
                        TacDtype::F64 => <f64 as Element>::MIN_POSITIVE,
                        TacDtype::F32 => <f32 as Element>::MIN_POSITIVE,
                    }
                }
            }
        };
        if abs <= 0.0 || !abs.is_finite() {
            return Err(SzError::InvalidErrorBound(format!(
                "resolved absolute bound must be positive and finite, got {abs}"
            )));
        }
        Ok(abs)
    }
}

/// Array shape, rank 1 through 4.
///
/// Layout is always row-major with the **first** dimension fastest: for
/// `D3(nx, ny, nz)` the element `(x, y, z)` lives at `x + nx*(y + ny*z)`.
/// Rank 4 (`D4`) is a batch of independent 3D blocks (the layout TAC's
/// OpST strategy feeds to the compressor): prediction never crosses the
/// outermost (`w`) axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dims {
    /// 1D array of the given length.
    D1(usize),
    /// 2D array `(nx, ny)`.
    D2(usize, usize),
    /// 3D array `(nx, ny, nz)`.
    D3(usize, usize, usize),
    /// Batch of `w` independent 3D blocks, `(nx, ny, nz, w)`.
    D4(usize, usize, usize, usize),
}

impl Dims {
    /// Total number of elements. Saturates on overflow (only reachable via
    /// corrupt headers; validation then rejects the implausible size).
    pub fn len(&self) -> usize {
        let mul = |a: usize, b: usize| a.saturating_mul(b);
        match *self {
            Dims::D1(a) => a,
            Dims::D2(a, b) => mul(a, b),
            Dims::D3(a, b, c) => mul(mul(a, b), c),
            Dims::D4(a, b, c, d) => mul(mul(mul(a, b), c), d),
        }
    }

    /// Whether the shape holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of axes (1-4).
    pub fn rank(&self) -> u8 {
        match self {
            Dims::D1(..) => 1,
            Dims::D2(..) => 2,
            Dims::D3(..) => 3,
            Dims::D4(..) => 4,
        }
    }

    /// Validates that no axis is zero and that `data_len` matches.
    pub fn validate(&self, data_len: usize) -> Result<(), SzError> {
        let any_zero = match *self {
            Dims::D1(a) => a == 0,
            Dims::D2(a, b) => a == 0 || b == 0,
            Dims::D3(a, b, c) => a == 0 || b == 0 || c == 0,
            Dims::D4(a, b, c, d) => a == 0 || b == 0 || c == 0 || d == 0,
        };
        if any_zero {
            return Err(SzError::ZeroDimension);
        }
        if self.len() != data_len {
            return Err(SzError::DimensionMismatch {
                data_len,
                dims_len: self.len(),
            });
        }
        Ok(())
    }
}

/// Full compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SzConfig {
    /// Error-bound mode and magnitude.
    pub error_bound: ErrorBound,
    /// Number of quantization bins (even, >= 4). Code 0 is reserved for
    /// "unpredictable"; codes `1..capacity` map to `[-radius+1, radius-1]`
    /// where `radius = capacity / 2`. SZ's default is 65536.
    pub capacity: usize,
    /// Whether to run the LZSS lossless stage over the encoded payload.
    pub lossless: bool,
    /// Whether rank-3/4 inputs may use the SZ2-style per-block regression
    /// predictor (Lorenzo remains the fallback per block). Disable for
    /// SZ-1.4-style pure-Lorenzo behaviour / ablation studies.
    pub regression: bool,
}

impl SzConfig {
    /// Configuration with an absolute error bound and default settings.
    pub fn abs(eb: f64) -> Self {
        SzConfig {
            error_bound: ErrorBound::Abs(eb),
            ..Default::default()
        }
    }

    /// Configuration with a value-range-relative bound and default settings.
    pub fn rel(eb: f64) -> Self {
        SzConfig {
            error_bound: ErrorBound::Rel(eb),
            ..Default::default()
        }
    }

    /// Disables the lossless backend (useful for ablation benchmarks).
    pub fn without_lossless(mut self) -> Self {
        self.lossless = false;
        self
    }

    /// Disables the regression predictor (pure Lorenzo, SZ-1.4 style).
    pub fn without_regression(mut self) -> Self {
        self.regression = false;
        self
    }

    /// Overrides the quantizer capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Validates capacity constraints.
    pub fn validate(&self) -> Result<(), SzError> {
        if self.capacity < 4 || self.capacity % 2 != 0 || self.capacity > (1 << 28) {
            return Err(SzError::InvalidCapacity(self.capacity));
        }
        Ok(())
    }
}

impl Default for SzConfig {
    fn default() -> Self {
        SzConfig {
            error_bound: ErrorBound::Rel(1e-4),
            capacity: 65536,
            lossless: true,
            regression: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_len_and_rank() {
        assert_eq!(Dims::D1(7).len(), 7);
        assert_eq!(Dims::D2(3, 4).len(), 12);
        assert_eq!(Dims::D3(2, 3, 4).len(), 24);
        assert_eq!(Dims::D4(2, 3, 4, 5).len(), 120);
        assert_eq!(Dims::D1(7).rank(), 1);
        assert_eq!(Dims::D4(1, 1, 1, 1).rank(), 4);
    }

    #[test]
    fn validate_rejects_mismatch_and_zero() {
        assert!(Dims::D2(3, 4).validate(12).is_ok());
        assert!(matches!(
            Dims::D2(3, 4).validate(11),
            Err(SzError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Dims::D3(0, 4, 4).validate(0),
            Err(SzError::ZeroDimension)
        ));
    }

    #[test]
    fn abs_bound_resolution() {
        assert_eq!(ErrorBound::Abs(0.5).resolve(0.0, 1.0).unwrap(), 0.5);
        assert!(ErrorBound::Abs(0.0).resolve(0.0, 1.0).is_err());
        assert!(ErrorBound::Abs(-1.0).resolve(0.0, 1.0).is_err());
        assert!(ErrorBound::Abs(f64::NAN).resolve(0.0, 1.0).is_err());
    }

    #[test]
    fn rel_bound_scales_with_range() {
        let eb = ErrorBound::Rel(1e-3).resolve(-5.0, 5.0).unwrap();
        assert!((eb - 1e-2).abs() < 1e-15);
        // Constant data: falls back to a tiny positive epsilon.
        let eb = ErrorBound::Rel(1e-3).resolve(2.0, 2.0).unwrap();
        assert!(eb > 0.0);
    }

    #[test]
    fn capacity_validation() {
        assert!(SzConfig::abs(1.0).validate().is_ok());
        assert!(SzConfig::abs(1.0).with_capacity(3).validate().is_err());
        assert!(SzConfig::abs(1.0).with_capacity(7).validate().is_err());
        assert!(SzConfig::abs(1.0).with_capacity(8).validate().is_ok());
    }
}
