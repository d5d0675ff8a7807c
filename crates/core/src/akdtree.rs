//! AKDTree — adaptive k-d tree extraction (paper Sec. 3.2, Algorithm 2).
//!
//! The block grid is split recursively. Unlike a classic k-d tree's fixed
//! axis rotation, each split picks the axis that **maximizes the
//! occupancy difference** between the two children — pushing one child
//! toward all-full and the other toward all-empty, which yields fewer,
//! larger full leaves. A node stops splitting when its region is entirely
//! empty or entirely full (at unit-block granularity).
//!
//! Node shapes cycle `cube -> flat (2:2:1) -> slim (2:1:1) -> cube`, so a
//! cube's eight octant counts are computed once and reused by the two
//! child generations — the paper's "counting every three levels" that
//! gives the `O(N/3 * log N)` bound. This implementation gets the same
//! counts from a 3D summed-area table (identical split decisions, O(1)
//! per query).

use crate::extract::Region;
use tac_amr::BlockGrid;

/// A full leaf as `(origin, shape)` in unit-block coordinates.
pub type LeafBox = ((usize, usize, usize), (usize, usize, usize));

/// The extraction plan produced by the k-d tree: full-leaf cuboids in
/// block coordinates, plus tree statistics.
#[derive(Debug, Clone)]
pub struct AkdPlan {
    /// Full leaves as `(origin, shape)` in unit-block coordinates.
    pub leaves: Vec<LeafBox>,
    /// Total nodes visited (tree size).
    pub nodes: usize,
    /// Number of empty leaves (pruned regions).
    pub empty_leaves: usize,
}

impl AkdPlan {
    /// Converts block-granular leaves into cell-granular regions.
    pub fn regions(&self, unit: usize) -> Vec<Region> {
        self.leaves
            .iter()
            .map(|&((bx, by, bz), (w, h, d))| Region {
                origin: (bx * unit, by * unit, bz * unit),
                shape: (w * unit, h * unit, d * unit),
            })
            .collect()
    }
}

/// Occupancy prefix sums over unit blocks: O(1) count of non-empty blocks
/// in any cuboid.
struct OccupancySat {
    nb: usize,
    /// `sat[x + (nb+1)*(y + (nb+1)*z)]` = count of non-empty blocks in
    /// `[0,x) x [0,y) x [0,z)`. Signed to keep the inclusion-exclusion
    /// arithmetic underflow-free.
    sat: Vec<i64>,
}

impl OccupancySat {
    #[expect(
        clippy::indexing_slicing,
        reason = "x, y, z < nb, so every corner index is inside the (nb + 1)^3 table"
    )]
    fn build(grid: &BlockGrid) -> Self {
        let nb = grid.blocks_per_side();
        let n1 = nb + 1;
        let mut sat = vec![0i64; n1 * n1 * n1];
        for z in 0..nb {
            for y in 0..nb {
                for x in 0..nb {
                    let occ = !grid.is_empty_block(x, y, z) as i64;
                    // Inclusion-exclusion over the seven lower neighbours.
                    let at = |xx: usize, yy: usize, zz: usize| sat[xx + n1 * (yy + n1 * zz)];
                    let v = occ
                        + at(x, y + 1, z + 1)
                        + at(x + 1, y, z + 1)
                        + at(x + 1, y + 1, z)
                        + at(x, y, z)
                        - at(x, y, z + 1)
                        - at(x, y + 1, z)
                        - at(x + 1, y, z);
                    sat[(x + 1) + n1 * ((y + 1) + n1 * (z + 1))] = v;
                }
            }
        }
        OccupancySat { nb, sat }
    }

    /// Non-empty blocks in `[x0,x1) x [y0,y1) x [z0,z1)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers query sub-boxes of the nb^3 grid, so every corner is inside the (nb + 1)^3 table"
    )]
    fn count(
        &self,
        (x0, y0, z0): (usize, usize, usize),
        (x1, y1, z1): (usize, usize, usize),
    ) -> u64 {
        let n1 = self.nb + 1;
        let at = |x: usize, y: usize, z: usize| self.sat[x + n1 * (y + n1 * z)];
        let v = at(x1, y1, z1) - at(x0, y1, z1) - at(x1, y0, z1) - at(x1, y1, z0)
            + at(x0, y0, z1)
            + at(x0, y1, z0)
            + at(x1, y0, z0)
            - at(x0, y0, z0);
        debug_assert!(v >= 0, "SAT query went negative: {v}");
        v as u64
    }
}

/// Runs the AKDTree planner.
///
/// # Panics
/// Panics if the block grid side is not a power of two (guaranteed for
/// power-of-two level dims and unit sizes).
pub fn plan_akdtree(grid: &BlockGrid) -> AkdPlan {
    let nb = grid.blocks_per_side();
    assert!(
        nb.is_power_of_two(),
        "block grid side {nb} must be a power of two"
    );
    let sat = OccupancySat::build(grid);
    let mut plan = AkdPlan {
        leaves: Vec::new(),
        nodes: 0,
        empty_leaves: 0,
    };
    split(&sat, (0, 0, 0), (nb, nb, nb), &mut plan);
    plan
}

/// Recursive adaptive split of the region `[o, o+s)`.
fn split(
    sat: &OccupancySat,
    o: (usize, usize, usize),
    s: (usize, usize, usize),
    plan: &mut AkdPlan,
) {
    plan.nodes += 1;
    let vol = (s.0 * s.1 * s.2) as u64;
    let count = sat.count(o, (o.0 + s.0, o.1 + s.1, o.2 + s.2));
    if count == 0 {
        plan.empty_leaves += 1;
        return;
    }
    if count == vol {
        plan.leaves.push((o, s));
        return;
    }
    // Choose the split axis: among the *longest* axes (splitting must keep
    // shapes in the cube/flat/slim family), pick the one maximizing the
    // difference in child occupancy (the paper's maxDiff).
    let max_dim = s.0.max(s.1).max(s.2);
    let mut best_axis = usize::MAX;
    let mut best_diff = -1i64;
    for (axis, len) in [s.0, s.1, s.2].into_iter().enumerate() {
        if len != max_dim || len < 2 {
            continue;
        }
        let (_, _, diff) = halves_count(sat, o, s, axis);
        let d = diff.abs();
        if d > best_diff {
            best_diff = d;
            best_axis = axis;
        }
    }
    debug_assert_ne!(best_axis, usize::MAX, "non-leaf node must be splittable");
    let axis = best_axis;
    // The chosen axis is one of the longest.
    let half = max_dim / 2;
    let mut s1 = s;
    let mut o2 = o;
    let mut s2 = s;
    match axis {
        0 => {
            s1.0 = half;
            o2.0 += half;
            s2.0 -= half;
        }
        1 => {
            s1.1 = half;
            o2.1 += half;
            s2.1 -= half;
        }
        _ => {
            s1.2 = half;
            o2.2 += half;
            s2.2 -= half;
        }
    }
    split(sat, o, s1, plan);
    split(sat, o2, s2, plan);
}

/// Occupancy of the two halves of `region` split across `axis`, and their
/// signed difference.
fn halves_count(
    sat: &OccupancySat,
    o: (usize, usize, usize),
    s: (usize, usize, usize),
    axis: usize,
) -> (u64, u64, i64) {
    let half = match axis {
        0 => s.0,
        1 => s.1,
        _ => s.2,
    } / 2;
    let mut mid_hi = (o.0 + s.0, o.1 + s.1, o.2 + s.2);
    match axis {
        0 => mid_hi.0 = o.0 + half,
        1 => mid_hi.1 = o.1 + half,
        _ => mid_hi.2 = o.2 + half,
    }
    let c1 = sat.count(o, mid_hi);
    let total = sat.count(o, (o.0 + s.0, o.1 + s.1, o.2 + s.2));
    let c2 = total - c1;
    (c1, c2, c1 as i64 - c2 as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac_amr::{AmrLevel, BlockGrid};

    fn grid_from_occ(occ: &[bool], nb: usize, unit: usize) -> BlockGrid {
        let dim = nb * unit;
        let mut lvl = AmrLevel::empty(dim);
        for bz in 0..nb {
            for by in 0..nb {
                for bx in 0..nb {
                    if occ[bx + nb * (by + nb * bz)] {
                        // One present cell makes the block non-empty.
                        lvl.set_value(bx * unit, by * unit, bz * unit, 1.0);
                    }
                }
            }
        }
        BlockGrid::build(&lvl, unit)
    }

    fn check_partition(occ: &[bool], nb: usize, plan: &AkdPlan) {
        let mut covered = vec![0u32; nb * nb * nb];
        for &((x0, y0, z0), (w, h, d)) in &plan.leaves {
            for z in z0..z0 + d {
                for y in y0..y0 + h {
                    for x in x0..x0 + w {
                        covered[x + nb * (y + nb * z)] += 1;
                    }
                }
            }
        }
        for i in 0..occ.len() {
            assert_eq!(covered[i], occ[i] as u32, "block {i}");
        }
    }

    #[test]
    fn full_grid_is_one_leaf() {
        let nb = 4;
        let occ = vec![true; nb * nb * nb];
        let plan = plan_akdtree(&grid_from_occ(&occ, nb, 2));
        assert_eq!(plan.leaves.len(), 1);
        assert_eq!(plan.leaves[0], ((0, 0, 0), (4, 4, 4)));
    }

    #[test]
    fn empty_grid_has_no_leaves() {
        let occ = vec![false; 64];
        let plan = plan_akdtree(&grid_from_occ(&occ, 4, 2));
        assert!(plan.leaves.is_empty());
        assert_eq!(plan.empty_leaves, 1);
    }

    #[test]
    fn half_full_grid_splits_once() {
        // +x half occupied: the adaptive split should find the clean cut
        // along x and produce exactly one full leaf.
        let nb = 4;
        let mut occ = vec![false; nb * nb * nb];
        for z in 0..nb {
            for y in 0..nb {
                for x in 2..nb {
                    occ[x + nb * (y + nb * z)] = true;
                }
            }
        }
        let plan = plan_akdtree(&grid_from_occ(&occ, nb, 2));
        assert_eq!(plan.leaves.len(), 1, "leaves: {:?}", plan.leaves);
        assert_eq!(plan.leaves[0], ((2, 0, 0), (2, 4, 4)));
        check_partition(&occ, nb, &plan);
    }

    #[test]
    fn adaptive_beats_fixed_split_on_off_axis_slab() {
        // Occupied slab on the +y side: fixed x-first splitting would
        // shred it; adaptive splitting cuts along y first.
        let nb = 8;
        let mut occ = vec![false; nb * nb * nb];
        for z in 0..nb {
            for y in 6..nb {
                for x in 0..nb {
                    occ[x + nb * (y + nb * z)] = true;
                }
            }
        }
        let plan = plan_akdtree(&grid_from_occ(&occ, nb, 2));
        check_partition(&occ, nb, &plan);
        // The first split goes along y (maxDiff) and prunes the empty
        // lower half immediately; the shape-family restriction (split only
        // the longest axes) then cuts the slab into at most 4 large
        // leaves. A fixed x->y->z rotation would produce 8+ smaller ones.
        assert!(plan.leaves.len() <= 4, "leaves: {:?}", plan.leaves);
        assert!(
            plan.leaves.iter().all(|&(_, (w, h, d))| w * h * d >= 32),
            "leaves too small: {:?}",
            plan.leaves
        );
    }

    #[test]
    fn random_occupancy_partitions() {
        for (seed, fill) in [(11u64, 0.3f64), (12, 0.55), (13, 0.9)] {
            let nb = 8;
            let mut state = seed;
            let occ: Vec<bool> = (0..nb * nb * nb)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) < fill
                })
                .collect();
            let plan = plan_akdtree(&grid_from_occ(&occ, nb, 2));
            check_partition(&occ, nb, &plan);
            // Leaves are all full by construction; verify leaf shapes stay
            // in the cube/flat/slim family (ratios within 2x).
            for &(_, (w, h, d)) in &plan.leaves {
                let max = w.max(h).max(d);
                let min = w.min(h).min(d);
                assert!(max / min <= 2 && max % min == 0, "shape {w}x{h}x{d}");
            }
        }
    }

    #[test]
    fn single_isolated_block() {
        let nb = 4;
        let mut occ = vec![false; nb * nb * nb];
        occ[1 + nb * (2 + nb * 3)] = true;
        let plan = plan_akdtree(&grid_from_occ(&occ, nb, 2));
        check_partition(&occ, nb, &plan);
        assert_eq!(plan.leaves.len(), 1);
        assert_eq!(plan.leaves[0], ((1, 2, 3), (1, 1, 1)));
    }

    #[test]
    fn sat_counts_match_brute_force() {
        let nb = 4;
        let mut occ = vec![false; nb * nb * nb];
        for i in (0..64).step_by(3) {
            occ[i] = true;
        }
        let grid = grid_from_occ(&occ, nb, 2);
        let sat = OccupancySat::build(&grid);
        for x0 in 0..nb {
            for x1 in x0 + 1..=nb {
                for y0 in 0..nb {
                    for y1 in y0 + 1..=nb {
                        let got = sat.count((x0, y0, 1), (x1, y1, 3));
                        let mut want = 0u64;
                        for z in 1..3 {
                            for y in y0..y1 {
                                for x in x0..x1 {
                                    want += occ[x + nb * (y + nb * z)] as u64;
                                }
                            }
                        }
                        assert_eq!(got, want);
                    }
                }
            }
        }
    }
}
