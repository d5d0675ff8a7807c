//! Lorenzo prediction (SZ step 1).
//!
//! The Lorenzo predictor estimates a point from its already-reconstructed
//! neighbours in the negative direction of each axis. Out-of-range
//! neighbours contribute zero, which degrades the first row/column/slab to
//! lower-order prediction — exactly SZ's behaviour, and the reason TAC
//! cares so much about block boundaries (boundary points have fewer real
//! neighbours, so they predict poorly).
//!
//! All predictions read from the *reconstructed* buffer, never the raw
//! input: compressor and decompressor must derive identical predictions or
//! the error bound breaks.
//!
//! Predictors are generic over the element type: neighbours are widened to
//! `f64` working precision (exact for both widths), so the prediction a
//! decoder derives from its `T`-typed reconstruction buffer is bit-equal
//! to the encoder's.

use tac_dtype::Element;

/// 1D Lorenzo: previous value.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass an in-grid i, so i - 1 indexes recon"
)]
pub fn lorenzo_1d<T: Element>(recon: &[T], i: usize) -> f64 {
    if i >= 1 {
        recon[i - 1].to_f64()
    } else {
        0.0
    }
}

/// 2D Lorenzo on an `(nx, ny)` row-major grid (x fastest):
/// `f(x-1,y) + f(x,y-1) - f(x-1,y-1)`.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass in-grid coordinates of an nx-wide recon, and the offsets apply only when x, y >= 1"
)]
pub fn lorenzo_2d<T: Element>(recon: &[T], nx: usize, x: usize, y: usize) -> f64 {
    let at = |dx: usize, dy: usize| -> f64 {
        // dx/dy are offsets of 1 meaning "minus one"; guarded by callers.
        recon[(x - dx) + nx * (y - dy)].to_f64()
    };
    match (x >= 1, y >= 1) {
        (true, true) => at(1, 0) + at(0, 1) - at(1, 1),
        (true, false) => at(1, 0),
        (false, true) => at(0, 1),
        (false, false) => 0.0,
    }
}

/// 3D Lorenzo on an `(nx, ny, nz)` row-major grid (x fastest):
/// the inclusion–exclusion sum over the 7 lower-corner neighbours.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass in-grid coordinates of an nx*ny-plane recon, and the offsets apply only when x, y, z >= 1"
)]
pub fn lorenzo_3d<T: Element>(
    recon: &[T],
    nx: usize,
    ny: usize,
    x: usize,
    y: usize,
    z: usize,
) -> f64 {
    let at = |xx: usize, yy: usize, zz: usize| recon[xx + nx * (yy + ny * zz)].to_f64();
    match (x >= 1, y >= 1, z >= 1) {
        (true, true, true) => {
            at(x - 1, y, z) + at(x, y - 1, z) + at(x, y, z - 1)
                - at(x - 1, y - 1, z)
                - at(x - 1, y, z - 1)
                - at(x, y - 1, z - 1)
                + at(x - 1, y - 1, z - 1)
        }
        (true, true, false) => at(x - 1, y, z) + at(x, y - 1, z) - at(x - 1, y - 1, z),
        (true, false, true) => at(x - 1, y, z) + at(x, y, z - 1) - at(x - 1, y, z - 1),
        (false, true, true) => at(x, y - 1, z) + at(x, y, z - 1) - at(x, y - 1, z - 1),
        (true, false, false) => at(x - 1, y, z),
        (false, true, false) => at(x, y - 1, z),
        (false, false, true) => at(x, y, z - 1),
        (false, false, false) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorenzo_1d_uses_previous() {
        let recon = [1.0, 2.0, 3.0];
        assert_eq!(lorenzo_1d(&recon, 0), 0.0);
        assert_eq!(lorenzo_1d(&recon, 1), 1.0);
        assert_eq!(lorenzo_1d(&recon, 2), 2.0);
    }

    #[test]
    fn lorenzo_2d_exact_on_bilinear_fields() {
        // f(x,y) = a + b x + c y is reproduced exactly by 2D Lorenzo for
        // interior points.
        let (nx, ny) = (6, 5);
        let f = |x: usize, y: usize| 2.0 + 3.0 * x as f64 - 1.5 * y as f64;
        let mut grid = vec![0.0; nx * ny];
        for y in 0..ny {
            for x in 0..nx {
                grid[x + nx * y] = f(x, y);
            }
        }
        for y in 1..ny {
            for x in 1..nx {
                let pred = lorenzo_2d(&grid, nx, x, y);
                assert!((pred - f(x, y)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn lorenzo_2d_boundary_degrades_to_1d() {
        let (nx, _ny) = (4, 3);
        let grid: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(lorenzo_2d(&grid, nx, 0, 0), 0.0);
        assert_eq!(lorenzo_2d(&grid, nx, 2, 0), grid[1]);
        assert_eq!(lorenzo_2d(&grid, nx, 0, 2), grid[nx]);
    }

    #[test]
    fn lorenzo_3d_exact_on_trilinear_fields() {
        // Exact for f = a + bx + cy + dz + exy + fxz + gyz (degree <= 1 in
        // each variable except the xyz term).
        let n = 5;
        let f = |x: usize, y: usize, z: usize| {
            1.0 + 2.0 * x as f64 - 3.0 * y as f64 + 0.5 * z as f64 + 0.25 * (x * y) as f64
                - 0.125 * (x * z) as f64
                + 0.0625 * (y * z) as f64
        };
        let mut grid = vec![0.0; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    grid[x + n * (y + n * z)] = f(x, y, z);
                }
            }
        }
        for z in 1..n {
            for y in 1..n {
                for x in 1..n {
                    let pred = lorenzo_3d(&grid, n, n, x, y, z);
                    assert!(
                        (pred - f(x, y, z)).abs() < 1e-10,
                        "at ({x},{y},{z}): {pred} vs {}",
                        f(x, y, z)
                    );
                }
            }
        }
    }

    #[test]
    fn lorenzo_3d_face_cases_degrade_to_2d() {
        let n = 4;
        let grid: Vec<f64> = (0..n * n * n).map(|i| (i as f64).sqrt()).collect();
        // z = 0 face behaves like 2D Lorenzo in the xy-plane.
        for y in 1..n {
            for x in 1..n {
                let pred3 = lorenzo_3d(&grid, n, n, x, y, 0);
                let pred2 = lorenzo_2d(&grid[..n * n], n, x, y);
                assert_eq!(pred3, pred2);
            }
        }
        // Origin has no neighbours at all.
        assert_eq!(lorenzo_3d(&grid, n, n, 0, 0, 0), 0.0);
    }
}
