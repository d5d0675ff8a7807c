//! zMesh-style geometric reordering (baseline; paper Sec. 2.3.1 and
//! Fig. 16).
//!
//! zMesh places points that map to the same or adjacent geometric
//! coordinates next to each other in one 1D stream across all AMR levels.
//! For tree-based data the natural generalization is a depth-first octree
//! walk: visit every coarsest-level position; where a cell is present,
//! emit it; where it was refined, descend into its 2x2x2 children. This
//! interleaves the levels by geometry exactly as zMesh interleaves
//! patch-based data.
//!
//! The paper's finding — that this *hurts* tree-based data because level
//! transitions inject value jumps the per-level 1D baseline never sees —
//! is reproduced by the `fig16_reorder_demo` harness.

use tac_amr::BitMask;
use tac_dtype::Element;

/// One entry of the traversal: `(level, flat index within that level)`.
pub type ZmeshEntry = (usize, usize);

/// Computes the zMesh traversal order for a level stack described by its
/// occupancy masks (fine to coarse; level `l` has side `finest_dim >> l`).
///
/// Positions covered by no level (invalid datasets) are skipped silently;
/// for valid tree-based AMR the result enumerates every present cell
/// exactly once.
pub fn zmesh_order(masks: &[&BitMask], finest_dim: usize) -> Vec<ZmeshEntry> {
    let levels = masks.len();
    assert!(levels >= 1, "need at least one level");
    let coarsest = levels - 1;
    let cdim = finest_dim >> coarsest;
    let mut out = Vec::new();
    for z in 0..cdim {
        for y in 0..cdim {
            for x in 0..cdim {
                visit(masks, finest_dim, coarsest, x, y, z, &mut out);
            }
        }
    }
    out
}

/// A bounded window of the zMesh traversal: walks the same order as
/// [`zmesh_order`], but starts at the coarse-grid cell with flat
/// row-major index `skip_coarse` and stops once `max_entries` entries
/// are collected. The `Method::Auto` selection pass uses this to
/// trial-encode a contiguous slice of the stream without materializing
/// (or walking) the full traversal.
pub fn zmesh_order_window(
    masks: &[&BitMask],
    finest_dim: usize,
    skip_coarse: usize,
    max_entries: usize,
) -> Vec<ZmeshEntry> {
    let levels = masks.len();
    assert!(levels >= 1, "need at least one level");
    let coarsest = levels - 1;
    let cdim = finest_dim >> coarsest;
    let mut out = Vec::new();
    for c in skip_coarse..cdim * cdim * cdim {
        if out.len() >= max_entries {
            break;
        }
        let x = c % cdim;
        let y = (c / cdim) % cdim;
        let z = c / (cdim * cdim);
        visit(masks, finest_dim, coarsest, x, y, z, &mut out);
    }
    // The last visited subtree may overshoot the cap.
    out.truncate(max_entries);
    out
}

fn visit(
    masks: &[&BitMask],
    finest_dim: usize,
    l: usize,
    x: usize,
    y: usize,
    z: usize,
    out: &mut Vec<ZmeshEntry>,
) {
    let dim = finest_dim >> l;
    let idx = x + dim * (y + dim * z);
    if masks.get(l).is_some_and(|m| m.get(idx)) {
        out.push((l, idx));
        return;
    }
    if l == 0 {
        return;
    }
    for dz in 0..2 {
        for dy in 0..2 {
            for dx in 0..2 {
                visit(
                    masks,
                    finest_dim,
                    l - 1,
                    2 * x + dx,
                    2 * y + dy,
                    2 * z + dz,
                    out,
                );
            }
        }
    }
}

/// Gathers level data values into a 1D array following `order`.
#[expect(
    clippy::indexing_slicing,
    reason = "order comes from zmesh_order over the masks of these levels, so every (level, cell) is in range"
)]
pub fn gather<T: Element>(order: &[ZmeshEntry], level_data: &[&[T]]) -> Vec<T> {
    order.iter().map(|&(l, idx)| level_data[l][idx]).collect()
}

/// Scatters a 1D array back into per-level dense buffers following
/// `order`.
pub fn scatter<T: Element>(order: &[ZmeshEntry], values: &[T], level_data: &mut [Vec<T>]) {
    assert_eq!(order.len(), values.len(), "order/value length mismatch");
    for (&(l, idx), &v) in order.iter().zip(values) {
        if let Some(slot) = level_data.get_mut(l).and_then(|d| d.get_mut(idx)) {
            *slot = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac_amr::{AmrDataset, AmrLevel};

    /// 4^3 fine / 2^3 coarse: coarse cell (0,0,0) refined, rest coarse.
    fn corner_refined() -> AmrDataset {
        let mut fine = AmrLevel::empty(4);
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    fine.set_value(x, y, z, (x + 10 * y + 100 * z) as f64);
                }
            }
        }
        let mut coarse = AmrLevel::empty(2);
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    if (x, y, z) != (0, 0, 0) {
                        coarse.set_value(x, y, z, -((x + 10 * y + 100 * z) as f64));
                    }
                }
            }
        }
        AmrDataset::new("corner", vec![fine, coarse])
    }

    #[test]
    fn order_enumerates_every_present_cell_once() {
        let ds = corner_refined();
        ds.validate().unwrap();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        assert_eq!(order.len(), ds.total_present());
        let mut seen = std::collections::HashSet::new();
        for &e in &order {
            assert!(seen.insert(e), "duplicate entry {e:?}");
        }
    }

    #[test]
    fn refined_children_come_at_the_parents_slot() {
        let ds = corner_refined();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        // First coarse position (0,0,0) was refined: traversal starts with
        // its 8 fine children, then proceeds to coarse (1,0,0).
        assert_eq!(order[0], (0, 0));
        assert_eq!(order.iter().filter(|e| e.0 == 0).count(), 8);
        assert_eq!(order[8], (1, 1)); // coarse cell (1,0,0) at flat idx 1
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let ds = corner_refined();
        let masks: Vec<&BitMask> = ds.levels().iter().map(|l| l.mask()).collect();
        let order = zmesh_order(&masks, 4);
        let data: Vec<&[f64]> = ds.levels().iter().map(|l| l.data()).collect();
        let stream = gather(&order, &data);
        let mut bufs: Vec<Vec<f64>> = ds
            .levels()
            .iter()
            .map(|l| vec![0.0; l.num_cells()])
            .collect();
        scatter(&order, &stream, &mut bufs);
        for (lvl, buf) in ds.levels().iter().zip(&bufs) {
            for i in lvl.mask().iter_ones() {
                assert_eq!(buf[i], lvl.data()[i]);
            }
        }
    }

    #[test]
    fn single_level_order_is_row_major_present_cells() {
        let mut lvl = AmrLevel::empty(2);
        lvl.set_value(1, 0, 0, 5.0);
        lvl.set_value(0, 1, 1, 6.0);
        let masks = [lvl.mask()];
        let order = zmesh_order(&masks, 2);
        assert_eq!(order, vec![(0, 1), (0, 6)]);
    }
}
