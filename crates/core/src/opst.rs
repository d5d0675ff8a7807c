//! OpST — optimized sparse tensor representation (paper Sec. 3.1,
//! Algorithm 1).
//!
//! A 3D dynamic program computes, for every unit block, the side `BS` of
//! the largest all-non-empty cube whose upper corner (largest coordinates)
//! is that block:
//!
//! ```text
//! BS(x,y,z) = 0                                   if block empty
//!           = 1                                   if x, y or z == 0
//!           = 1 + min(7 lower-corner neighbours)  otherwise
//! ```
//!
//! Extraction then walks the block grid from the bottom-right-rear corner
//! toward the origin, carving out the `BS`-sized cube at every still-
//! occupied block, clearing occupancy, and *partially* recomputing `BS`
//! only inside the window of blocks whose value can have changed — the
//! window is bounded by `maxSide`, which is the optimization the paper
//! calls out (the cost grows with density, motivating AKDTree).

use crate::extract::Region;
use tac_amr::BlockGrid;

/// An extraction plan: disjoint cubes (in unit-block coordinates) that
/// exactly cover the non-empty blocks.
#[derive(Debug, Clone)]
pub struct OpstPlan {
    /// Cubes as `(bx, by, bz, side)` — lowest block corner + side in
    /// blocks.
    pub cubes: Vec<(usize, usize, usize, usize)>,
    /// Largest cube side encountered (the paper's `maxSide`).
    pub max_side: usize,
}

impl OpstPlan {
    /// Converts the block-granular plan into cell-granular regions.
    pub fn regions(&self, unit: usize) -> Vec<Region> {
        self.cubes
            .iter()
            .map(|&(bx, by, bz, s)| Region {
                origin: (bx * unit, by * unit, bz * unit),
                shape: (s * unit, s * unit, s * unit),
            })
            .collect()
    }
}

/// Runs the OpST planner over a block grid.
pub fn plan_opst(grid: &BlockGrid) -> OpstPlan {
    let nb = grid.blocks_per_side();
    let mut occ: Vec<bool> = Vec::with_capacity(nb * nb * nb);
    for bz in 0..nb {
        for by in 0..nb {
            for bx in 0..nb {
                occ.push(!grid.is_empty_block(bx, by, bz));
            }
        }
    }
    plan_opst_from_occupancy(&occ, nb)
}

/// OpST planner over a raw occupancy grid (exposed for tests and the
/// ablation benchmarks).
#[expect(
    clippy::indexing_slicing,
    reason = "occ.len() == nb^3 is asserted above and every DP index is an in-grid block coordinate"
)]
pub fn plan_opst_from_occupancy(occ: &[bool], nb: usize) -> OpstPlan {
    assert_eq!(occ.len(), nb * nb * nb);
    let mut occ = occ.to_vec();
    let mut bs = vec![0u32; nb * nb * nb];

    // Initial DP sweep (ascending order satisfies the dependency).
    let mut max_side = 0u32;
    for z in 0..nb {
        for y in 0..nb {
            for x in 0..nb {
                let v = bs_value(&occ, &bs, nb, x, y, z);
                bs[idx(nb, x, y, z)] = v;
                max_side = max_side.max(v);
            }
        }
    }
    let max_side = max_side as usize;

    let mut cubes = Vec::new();
    // Walk from the bottom-right-rear corner toward the origin.
    for z in (0..nb).rev() {
        for y in (0..nb).rev() {
            for x in (0..nb).rev() {
                let s = bs[idx(nb, x, y, z)] as usize;
                if s == 0 {
                    continue;
                }
                let (x0, y0, z0) = (x + 1 - s, y + 1 - s, z + 1 - s);
                cubes.push((x0, y0, z0, s));
                // Clear the extracted cube.
                for cz in z0..=z {
                    for cy in y0..=y {
                        for cx in x0..=x {
                            let i = idx(nb, cx, cy, cz);
                            occ[i] = false;
                            bs[i] = 0;
                        }
                    }
                }
                // Partial update: only blocks within `maxSide` beyond the
                // cleared cube can have a stale BS. Recompute in ascending
                // order (the DP dependency direction).
                let ux = (x + max_side).min(nb - 1);
                let uy = (y + max_side).min(nb - 1);
                let uz = (z + max_side).min(nb - 1);
                for cz in z0..=uz {
                    for cy in y0..=uy {
                        for cx in x0..=ux {
                            let i = idx(nb, cx, cy, cz);
                            bs[i] = bs_value(&occ, &bs, nb, cx, cy, cz);
                        }
                    }
                }
            }
        }
    }
    OpstPlan { cubes, max_side }
}

#[inline]
fn idx(nb: usize, x: usize, y: usize, z: usize) -> usize {
    x + nb * (y + nb * z)
}

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass in-grid block coordinates of the nb^3 occ/bs grids, and the -1 offsets apply only when x, y, z >= 1"
)]
fn bs_value(occ: &[bool], bs: &[u32], nb: usize, x: usize, y: usize, z: usize) -> u32 {
    if !occ[idx(nb, x, y, z)] {
        return 0;
    }
    if x == 0 || y == 0 || z == 0 {
        return 1;
    }
    let m = bs[idx(nb, x - 1, y, z)]
        .min(bs[idx(nb, x, y - 1, z)])
        .min(bs[idx(nb, x, y, z - 1)])
        .min(bs[idx(nb, x - 1, y - 1, z)])
        .min(bs[idx(nb, x, y - 1, z - 1)])
        .min(bs[idx(nb, x - 1, y, z - 1)])
        .min(bs[idx(nb, x - 1, y - 1, z - 1)]);
    m + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that the plan's cubes are disjoint and cover exactly the
    /// occupied blocks.
    fn check_partition(occ: &[bool], nb: usize, plan: &OpstPlan) {
        let mut covered = vec![0u32; nb * nb * nb];
        for &(x0, y0, z0, s) in &plan.cubes {
            assert!(x0 + s <= nb && y0 + s <= nb && z0 + s <= nb, "cube oob");
            for z in z0..z0 + s {
                for y in y0..y0 + s {
                    for x in x0..x0 + s {
                        covered[idx(nb, x, y, z)] += 1;
                    }
                }
            }
        }
        for i in 0..occ.len() {
            let want = occ[i] as u32;
            assert_eq!(
                covered[i], want,
                "block {i}: covered {} want {want}",
                covered[i]
            );
        }
    }

    #[test]
    fn full_grid_extracts_one_cube() {
        let nb = 4;
        let occ = vec![true; nb * nb * nb];
        let plan = plan_opst_from_occupancy(&occ, nb);
        assert_eq!(plan.cubes, vec![(0, 0, 0, 4)]);
        assert_eq!(plan.max_side, 4);
        check_partition(&occ, nb, &plan);
    }

    #[test]
    fn empty_grid_extracts_nothing() {
        let occ = vec![false; 27];
        let plan = plan_opst_from_occupancy(&occ, 3);
        assert!(plan.cubes.is_empty());
    }

    #[test]
    fn single_block() {
        let mut occ = vec![false; 27];
        occ[idx(3, 1, 1, 1)] = true;
        let plan = plan_opst_from_occupancy(&occ, 3);
        assert_eq!(plan.cubes, vec![(1, 1, 1, 1)]);
        check_partition(&occ, 3, &plan);
    }

    #[test]
    fn l_shape_partitions_correctly() {
        // A 2x2x1 slab plus one extra block: no 2-cube fits everywhere.
        let nb = 4;
        let mut occ = vec![false; nb * nb * nb];
        for y in 0..2 {
            for x in 0..2 {
                occ[idx(nb, x, y, 0)] = true;
            }
        }
        occ[idx(nb, 2, 0, 0)] = true;
        let plan = plan_opst_from_occupancy(&occ, nb);
        check_partition(&occ, nb, &plan);
    }

    #[test]
    fn big_cube_is_preferred_over_units() {
        // An 8^3 grid fully occupied except one corner block: the plan
        // must still contain at least one cube of side >= 4 (the DP finds
        // large interiors).
        let nb = 8;
        let mut occ = vec![true; nb * nb * nb];
        occ[idx(nb, 0, 0, 0)] = false;
        let plan = plan_opst_from_occupancy(&occ, nb);
        check_partition(&occ, nb, &plan);
        let biggest = plan.cubes.iter().map(|c| c.3).max().unwrap();
        assert!(biggest >= 4, "biggest cube {biggest}");
        // One 7^3 interior cube + the three boundary faces as singles:
        // still far fewer cubes than occupied blocks.
        assert!(
            plan.cubes.len() < (nb * nb * nb - 1) / 2,
            "{} cubes",
            plan.cubes.len()
        );
    }

    #[test]
    fn random_occupancy_partitions() {
        // Deterministic pseudo-random occupancies at several densities.
        for (seed, fill) in [(1u64, 0.2f64), (2, 0.5), (3, 0.8)] {
            let nb = 6;
            let mut state = seed;
            let occ: Vec<bool> = (0..nb * nb * nb)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) < fill
                })
                .collect();
            let plan = plan_opst_from_occupancy(&occ, nb);
            check_partition(&occ, nb, &plan);
        }
    }

    #[test]
    fn regions_scale_by_unit() {
        let nb = 2;
        let occ = vec![true; 8];
        let plan = plan_opst_from_occupancy(&occ, nb);
        let regions = plan.regions(16);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].shape, (32, 32, 32));
    }
}
