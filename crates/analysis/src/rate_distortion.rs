//! Rate-distortion sweeps: the (bit-rate, PSNR) curves of Figs. 11, 14,
//! and 15.

use crate::metrics::{amr_distortion, Distortion};

/// One point of a rate-distortion curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RdPoint {
    /// Error bound that produced the point (relative or absolute,
    /// caller's convention).
    pub error_bound: f64,
    /// Bits per value of the compressed representation.
    pub bit_rate: f64,
    /// Compression ratio.
    pub ratio: f64,
    /// PSNR in dB.
    pub psnr: f64,
}

/// A labelled rate-distortion curve.
#[derive(Debug, Clone)]
pub struct RdCurve {
    /// Method label (e.g. "TAC", "3D", "zMesh").
    pub label: String,
    /// Sweep points, one per error bound.
    pub points: Vec<RdPoint>,
}

impl RdCurve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        RdCurve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Records one sweep point.
    pub fn push(&mut self, error_bound: f64, bit_rate: f64, ratio: f64, psnr: f64) {
        self.points.push(RdPoint {
            error_bound,
            bit_rate,
            ratio,
            psnr,
        });
    }

    /// PSNR linearly interpolated at a given bit-rate; `None` outside the
    /// sweep range. Used to compare methods "under the same bit-rate".
    pub fn psnr_at_bit_rate(&self, bit_rate: f64) -> Option<f64> {
        let mut pts: Vec<(f64, f64)> = self.points.iter().map(|p| (p.bit_rate, p.psnr)).collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if pts.len() < 2 || bit_rate < pts[0].0 || bit_rate > pts[pts.len() - 1].0 {
            return None;
        }
        for w in pts.windows(2) {
            let ((b0, p0), (b1, p1)) = (w[0], w[1]);
            if bit_rate >= b0 && bit_rate <= b1 {
                if b1 == b0 {
                    return Some(p0.max(p1));
                }
                let t = (bit_rate - b0) / (b1 - b0);
                return Some(p0 + t * (p1 - p0));
            }
        }
        None
    }
}

/// Runs one compression + decompression round for an AMR dataset and
/// produces the RD point ingredients `(bit_rate, ratio, psnr)`.
pub fn measure_amr_rd(
    ds: &tac_amr::AmrDataset,
    compressed_payload_bytes: usize,
    reconstructed: &tac_amr::AmrDataset,
) -> (f64, f64, Distortion) {
    let elements = ds.total_present();
    let bit_rate = compressed_payload_bytes as f64 * 8.0 / elements.max(1) as f64;
    let ratio = (elements * 8) as f64 / compressed_payload_bytes.max(1) as f64;
    let d = amr_distortion(ds, reconstructed);
    (bit_rate, ratio, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_between_points() {
        let mut c = RdCurve::new("x");
        c.push(1e-3, 2.0, 32.0, 60.0);
        c.push(1e-4, 4.0, 16.0, 80.0);
        let p = c.psnr_at_bit_rate(3.0).unwrap();
        assert!((p - 70.0).abs() < 1e-9);
        assert!(c.psnr_at_bit_rate(1.0).is_none());
        assert!(c.psnr_at_bit_rate(5.0).is_none());
    }

    #[test]
    fn unsorted_points_still_interpolate() {
        let mut c = RdCurve::new("x");
        c.push(1e-4, 4.0, 16.0, 80.0);
        c.push(1e-2, 1.0, 64.0, 40.0);
        c.push(1e-3, 2.0, 32.0, 60.0);
        let p = c.psnr_at_bit_rate(1.5).unwrap();
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn measure_amr_rd_consistency() {
        use tac_amr::{AmrDataset, AmrLevel};
        let lvl = AmrLevel::dense(4, (0..64).map(|i| i as f64).collect());
        let ds = AmrDataset::new("t", vec![lvl.clone()]);
        let recon = AmrDataset::new("t", vec![lvl]);
        let (bit_rate, ratio, d) = measure_amr_rd(&ds, 64, &recon);
        assert!((bit_rate - 8.0).abs() < 1e-12);
        assert!((ratio - 8.0).abs() < 1e-12);
        assert!(d.psnr.is_infinite());
    }
}
