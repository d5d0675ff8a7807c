//! Small helpers: order statistics, the seeded box placement, dataset
//! element conversion, process memory, and JSON number formatting.

use std::any::Any;
use std::borrow::Cow;
use std::time::Duration;

use tac_amr::{AmrDataset, AmrLevel, Element};

/// Milliseconds of a duration, as a float with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: a seeded, platform-independent generator for the ROI
/// box placement.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_B0C5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Converts a dataset between element types. Present cells convert
/// through `f64` (exact when widening); absent cells are zero.
pub fn convert<A: Element, B: Element>(ds: &AmrDataset<A>) -> AmrDataset<B> {
    let levels = ds
        .levels()
        .iter()
        .map(|l| {
            let mask = l.mask();
            let data = l
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if mask.get(i) {
                        B::from_f64(v.to_f64())
                    } else {
                        B::ZERO
                    }
                })
                .collect();
            AmrLevel::new(l.dim(), data, mask.clone())
        })
        .collect();
    AmrDataset::new(ds.name(), levels)
}

/// The dataset in `f64`, borrowed when it already is one. The distortion
/// analysis runs in `f64`.
pub fn as_f64<T: Element>(ds: &AmrDataset<T>) -> Cow<'_, AmrDataset> {
    match (ds as &dyn Any).downcast_ref::<AmrDataset>() {
        Some(d) => Cow::Borrowed(d),
        None => Cow::Owned(convert(ds)),
    }
}

/// FNV-1a of a byte string: a compact fingerprint for the determinism
/// checks.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal (the names this program emits need no escapes
/// beyond quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
