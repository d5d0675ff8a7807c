//! Conversions between the AMR representation and uniform-resolution
//! grids (the paper's Fig. 2: up-sample coarse levels and merge).

use crate::dataset::AmrDataset;
use crate::level::AmrLevel;
use tac_dtype::Element;

/// Up-samples every level to finest resolution (piecewise-constant /
/// nearest-neighbour, the standard AMR prolongation for cell data) and
/// merges into one uniform grid.
///
/// Because the tree invariant guarantees exactly-one coverage, the merge
/// has no conflicts. This is also step 1 of the paper's "3D baseline".
pub fn to_uniform<T: Element>(ds: &AmrDataset<T>) -> Vec<T> {
    let n = ds.finest_dim();
    let mut out = vec![T::ZERO; n * n * n];
    for (l, level) in ds.levels().iter().enumerate() {
        let scale = ds.upsample_rate(l);
        splat_level(level, scale, n, &mut out);
    }
    out
}

/// Up-samples a single level into an `n^3` grid (positions not covered by
/// this level stay zero). Used by per-level post-analysis.
pub fn level_to_uniform<T: Element>(level: &AmrLevel<T>, scale: usize, n: usize) -> Vec<T> {
    assert_eq!(level.dim() * scale, n, "scale must map level onto the grid");
    let mut out = vec![T::ZERO; n * n * n];
    splat_level(level, scale, n, &mut out);
    out
}

#[expect(
    clippy::indexing_slicing,
    reason = "callers pass dim * scale == n and an n^3 `out`, so every scaled row lies inside it"
)]
fn splat_level<T: Element>(level: &AmrLevel<T>, scale: usize, n: usize, out: &mut [T]) {
    let dim = level.dim();
    for z in 0..dim {
        for y in 0..dim {
            for x in 0..dim {
                if !level.present(x, y, z) {
                    continue;
                }
                let v = level.value(x, y, z);
                for dz in 0..scale {
                    for dy in 0..scale {
                        let row = x * scale + n * (y * scale + dy + n * (z * scale + dz));
                        out[row..row + scale].fill(v);
                    }
                }
            }
        }
    }
}

/// Number of *redundant* points the 3D baseline materializes: the uniform
/// grid size minus the true AMR storage. Each coarse cell at level `l`
/// expands to `8^l` copies, `8^l - 1` of them redundant.
pub fn redundant_points<T: Element>(ds: &AmrDataset<T>) -> usize {
    let n = ds.finest_dim();
    n * n * n - ds.total_present()
}

/// Scatters a uniform-resolution grid back into the AMR structure of
/// `template`: each present cell of each level takes the value of its
/// *first* (lowest-coordinate) covered fine position. With
/// piecewise-constant up-sampling this inverts [`to_uniform`] exactly for
/// data that came from an AMR dataset.
#[expect(
    clippy::indexing_slicing,
    reason = "uniform.len() == n^3 is asserted above, and in a refinement-ratio-2 dataset dim * 2^l == n for every level"
)]
pub fn from_uniform<T: Element>(template: &AmrDataset<T>, uniform: &[T]) -> AmrDataset<T> {
    let n = template.finest_dim();
    assert_eq!(uniform.len(), n * n * n, "uniform grid size mismatch");
    let mut levels = Vec::with_capacity(template.num_levels());
    for (l, level) in template.levels().iter().enumerate() {
        let scale = template.upsample_rate(l);
        let dim = level.dim();
        let mut new_level = AmrLevel::empty(dim);
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    if level.present(x, y, z) {
                        let fx = x * scale;
                        let fy = y * scale;
                        let fz = z * scale;
                        new_level.set_value(x, y, z, uniform[fx + n * (fy + n * fz)]);
                    }
                }
            }
        }
        levels.push(new_level);
    }
    AmrDataset::new(template.name().to_string(), levels)
}

/// Averages (rather than samples) each covered block when scattering back
/// — the restriction operator used when the uniform grid has been
/// modified (e.g. decompressed) and block values may disagree. The mean
/// accumulates in `f64` working precision and narrows once per cell.
#[expect(
    clippy::indexing_slicing,
    reason = "uniform.len() == n^3 is asserted above, and in a refinement-ratio-2 dataset dim * 2^l == n for every level"
)]
pub fn from_uniform_averaged<T: Element>(template: &AmrDataset<T>, uniform: &[T]) -> AmrDataset<T> {
    let n = template.finest_dim();
    assert_eq!(uniform.len(), n * n * n, "uniform grid size mismatch");
    let mut levels = Vec::with_capacity(template.num_levels());
    for (l, level) in template.levels().iter().enumerate() {
        let scale = template.upsample_rate(l);
        let dim = level.dim();
        let mut new_level = AmrLevel::empty(dim);
        let inv = 1.0 / (scale * scale * scale) as f64;
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    if !level.present(x, y, z) {
                        continue;
                    }
                    let mut acc = 0.0;
                    for dz in 0..scale {
                        for dy in 0..scale {
                            for dx in 0..scale {
                                let fx = x * scale + dx;
                                let fy = y * scale + dy;
                                let fz = z * scale + dz;
                                acc += uniform[fx + n * (fy + n * fz)].to_f64();
                            }
                        }
                    }
                    new_level.set_value(x, y, z, T::from_f64(acc * inv));
                }
            }
        }
        levels.push(new_level);
    }
    AmrDataset::new(template.name().to_string(), levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::half_refined;

    #[test]
    fn uniform_roundtrip_on_tree_data() {
        let ds = half_refined(8);
        ds.validate().unwrap();
        let uni = to_uniform(&ds);
        assert_eq!(uni.len(), 512);
        let back = from_uniform(&ds, &uni);
        for (a, b) in ds.levels().iter().zip(back.levels()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn coarse_cell_fills_its_block() {
        let ds = half_refined(8);
        let uni = to_uniform(&ds);
        // Coarse cell (0,0,0) value = 0*0*0+1 = 1.0 fills fine block [0,2)^3.
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    assert_eq!(uni[x + 8 * (y + 8 * z)], 1.0);
                }
            }
        }
        // Fine half keeps per-cell values.
        assert_eq!(uni[7 + 8 * (3 + 8 * 2)], (7 + 3 + 2) as f64);
    }

    #[test]
    fn redundancy_counts_coarse_expansion() {
        let ds = half_refined(8);
        // 512 uniform points; present = 8*8*4 fine + 2*4*4 coarse = 288.
        assert_eq!(redundant_points(&ds), 512 - 288);
    }

    #[test]
    fn averaged_restriction_matches_exact_for_constant_blocks() {
        let ds = half_refined(16);
        let uni = to_uniform(&ds);
        let a = from_uniform(&ds, &uni);
        let b = from_uniform_averaged(&ds, &uni);
        for (x, y) in a.levels().iter().zip(b.levels()) {
            for (u, v) in x.data().iter().zip(y.data()) {
                assert!((u - v).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn level_to_uniform_isolates_one_level() {
        let ds = half_refined(8);
        let coarse_only = level_to_uniform(&ds.levels()[1], 2, 8);
        // Fine half of the domain is zero in the coarse-only expansion.
        assert_eq!(coarse_only[7], 0.0);
        assert_eq!(coarse_only[0], 1.0);
    }

    #[test]
    fn f32_uniform_roundtrip() {
        // A small two-level f32 dataset round-trips through the uniform
        // grid exactly, like its f64 counterpart.
        let mut fine: AmrLevel<f32> = AmrLevel::empty(4);
        for z in 0..4 {
            for y in 0..4 {
                for x in 2..4 {
                    fine.set_value(x, y, z, (x + y + z) as f32 * 0.5);
                }
            }
        }
        let mut coarse: AmrLevel<f32> = AmrLevel::empty(2);
        for z in 0..2 {
            for y in 0..2 {
                coarse.set_value(0, y, z, (y + z) as f32 + 1.0);
            }
        }
        let ds = AmrDataset::new("f32demo", vec![fine, coarse]);
        ds.validate().unwrap();
        let uni = to_uniform(&ds);
        let back = from_uniform(&ds, &uni);
        for (a, b) in ds.levels().iter().zip(back.levels()) {
            assert_eq!(a, b);
        }
        let avg = from_uniform_averaged(&ds, &uni);
        for (a, b) in ds.levels().iter().zip(avg.levels()) {
            assert_eq!(a, b, "constant blocks average back exactly");
        }
    }
}
