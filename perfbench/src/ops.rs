//! The three workloads, their set-up, the three ops of a rep, and the
//! checks every op gets outside its timed region.

use std::any::Any;

use tac_amr::{Aabb, AmrDataset, Element};
use tac_analysis::{amr_distortion, Distortion};
use tac_codec::ErrorBound;
use tac_core::{
    compress_dataset_t, decompress_dataset_par_t, decompress_region_t, CodecElement, CodecId,
    CompressedDataset, Method, Parallelism, RoiStats, TacConfig, TacDtype, TacError,
};
use tac_nyx::FieldKind;

use crate::util::{as_f64, convert, fnv, SplitMix};

/// Absolute point-wise error bound of every workload, in the paper's
/// units (baryon density).
pub const EB: f64 = 1e9;

/// ROI boxes per side of the finest level: each box is 1/64 of its
/// volume, and the 64 boxes tile it.
const ROI_TILES_PER_SIDE: usize = 4;

/// Worker count of every pipeline call (the benchmark host has 2 cores).
pub const WORKERS: Parallelism = Parallelism::Threads(2);

/// One benchmark workload: a `tac-nyx` catalog snapshot and the
/// configuration it is compressed with.
pub struct Workload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub scale: usize,
    pub dtype: TacDtype,
    pub method: Method,
    pub codec: CodecId,
    pub roi_tile: Option<usize>,
    /// Generator seed of a fixed snapshot; `None` generates the field
    /// from the run's seed. The run's seed always places the ROI box.
    pub field_seed: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "z10_tac_sz",
        dataset: "Run1_Z10",
        scale: 4,
        dtype: TacDtype::F64,
        method: Method::Tac,
        codec: CodecId::Sz,
        roi_tile: None,
        field_seed: None,
    },
    Workload {
        name: "t4_sparse_pcoans",
        dataset: "Run2_T4",
        scale: 4,
        dtype: TacDtype::F64,
        method: Method::Tac,
        codec: CodecId::PcoAns,
        roi_tile: Some(32),
        field_seed: None,
    },
    Workload {
        name: "z3_auto_f32",
        dataset: "Run1_Z3",
        scale: 4,
        dtype: TacDtype::F32,
        method: Method::Auto,
        codec: CodecId::Sz,
        roi_tile: Some(32),
        // Auto's winner flips between TAC and zMesh from one generator
        // seed to the next (README.md), which would make every timing
        // bimodal across seeds; this workload is one fixed snapshot.
        field_seed: Some(0),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The pipeline configuration (2 workers).
    pub fn config(&self) -> TacConfig {
        let cfg = TacConfig::with_error_bound(ErrorBound::Abs(EB))
            .with_codec(self.codec)
            .with_parallelism(WORKERS);
        match self.roi_tile {
            Some(t) => cfg.with_roi_tile(t),
            None => cfg,
        }
    }
}

/// Counts that must repeat exactly for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub container_bytes: usize,
    pub fingerprint: u64,
    pub psnr_db: f64,
    /// Chunk accounting of the warm-up ROI read (the first box).
    pub roi: RoiStats,
}

/// A generated, warmed-up workload input with its reference outputs.
pub struct Prepared<T: Element> {
    pub ds: AmrDataset<T>,
    /// The input in `f64`, for the distortion check (f32 inputs only;
    /// f64 inputs are checked against `ds` itself).
    pub ds64: Option<AmrDataset>,
    pub cfg: TacConfig,
    pub method: Method,
    /// The ROI boxes (see [`roi_boxes`]); ROI reads cycle through them.
    pub rois: Vec<Aabb>,
    /// Serialized container of the warm-up write.
    pub bytes: Vec<u8>,
    /// Full decode of the warm-up write, the reference for ROI reads.
    pub full: AmrDataset<T>,
    pub counts: Counts,
    /// Bytes of the present cells at the input's element width.
    pub present_bytes: f64,
}

impl<T: Element> Prepared<T> {
    pub fn original64(&self) -> &AmrDataset {
        match &self.ds64 {
            Some(d) => d,
            None => (&self.ds as &dyn Any)
                .downcast_ref::<AmrDataset>()
                .expect("ds64 is only absent for f64 inputs"),
        }
    }
}

/// Attempted and failed ops, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one op and, when `check` is an error, its failure.
    pub fn record<V>(&mut self, what: &str, check: Result<V, String>) -> Option<V> {
        self.attempted += 1;
        match check {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// A failed check on an op already counted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }
}

/// The write op: compress, then serialize.
pub fn write<T: CodecElement>(
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    method: Method,
) -> Result<Vec<u8>, TacError> {
    Ok(compress_dataset_t(ds, cfg, method)?.to_bytes())
}

/// The read op: parse, then a full decode.
pub fn read<T: CodecElement>(
    bytes: &[u8],
    parallelism: Parallelism,
) -> Result<AmrDataset<T>, TacError> {
    let cd = CompressedDataset::from_bytes(bytes)?;
    decompress_dataset_par_t(&cd, parallelism)
}

/// The ROI read op.
pub fn roi_read<T: CodecElement>(
    bytes: &[u8],
    roi: Aabb,
) -> Result<(AmrDataset<T>, RoiStats), TacError> {
    decompress_region_t(bytes, roi)
}

/// The ROI boxes of a run, each 1/64 of the finest-level volume: the
/// cells of a 4x4x4 tiling, all shifted by one seeded offset (clamped
/// into the domain) and listed in a seeded order. A run's ROI reads
/// cycle through them, so they cover the whole domain and one box's
/// placement does not decide a run's ROI timings.
pub fn roi_boxes(finest_dim: usize, seed: u64) -> Vec<Aabb> {
    let n = ROI_TILES_PER_SIDE;
    let side = (finest_dim / n).max(1);
    let mut rng = SplitMix::new(seed);
    let offset = (rng.below(side), rng.below(side), rng.below(side));
    let place = |tile: usize, off: usize| (tile * side + off).min(finest_dim - side);
    let mut boxes: Vec<Aabb> = (0..n * n * n)
        .map(|i| {
            let origin = (
                place(i % n, offset.0),
                place(i / n % n, offset.1),
                place(i / (n * n), offset.2),
            );
            Aabb::of_region(origin, (side, side, side))
        })
        .collect();
    for i in (1..boxes.len()).rev() {
        boxes.swap(i, rng.below(i + 1));
    }
    boxes
}

/// Whether `a` and `b` hold the same bits in every cell inside `roi`
/// (coarsened to each level).
fn same_in_box<T: Element>(a: &AmrDataset<T>, b: &AmrDataset<T>, roi: Aabb) -> bool {
    let finest = a.finest_dim();
    a.num_levels() == b.num_levels()
        && a.levels().iter().zip(b.levels()).all(|(la, lb)| {
            let d = la.dim();
            let bx = roi.coarsen((finest / d.max(1)).max(1));
            d == lb.dim()
                && (bx.min.2..bx.max.2.min(d)).all(|z| {
                    (bx.min.1..bx.max.1.min(d)).all(|y| {
                        (bx.min.0..bx.max.0.min(d)).all(|x| {
                            la.value(x, y, z).to_bits_u64() == lb.value(x, y, z).to_bits_u64()
                        })
                    })
                })
        })
}

/// Chunk accounting per ROI box, learned on the box's first read; every
/// later read of the box must agree with it.
pub struct RoiLedger(Vec<Option<RoiStats>>);

impl RoiLedger {
    pub fn new(boxes: usize) -> Self {
        RoiLedger(vec![None; boxes])
    }

    fn check(&mut self, k: usize, stats: RoiStats) -> Result<(), String> {
        match self.0[k] {
            None => {
                self.0[k] = Some(stats);
                Ok(())
            }
            Some(seen) if seen == stats => Ok(()),
            Some(seen) => Err(format!("chunk accounting {stats:?} differs from {seen:?}")),
        }
    }
}

/// Distortion of a reconstruction over the present cells.
pub fn distortion<T: Element>(
    original: &AmrDataset,
    out: &AmrDataset<T>,
) -> Result<Distortion, String> {
    let want: Vec<usize> = original.levels().iter().map(|l| l.dim()).collect();
    let got: Vec<usize> = out.levels().iter().map(|l| l.dim()).collect();
    if got != want {
        return Err(format!("level shape {got:?}, want {want:?}"));
    }
    Ok(amr_distortion(original, &as_f64(out)))
}

/// Checks a reconstruction against the point-wise bound on every
/// present cell.
pub fn check_bound(d: &Distortion) -> Result<(), String> {
    if d.max_abs_error > EB {
        return Err(format!(
            "max error {:e} exceeds bound {EB:e}",
            d.max_abs_error
        ));
    }
    Ok(())
}

fn tac<V>(r: Result<V, TacError>) -> Result<V, String> {
    r.map_err(|e| e.to_string())
}

/// Moves a generated `f64` dataset into the workload's element type.
fn into_dtype<T: Element>(ds: AmrDataset) -> AmrDataset<T> {
    let boxed: Box<dyn Any> = Box::new(ds);
    match boxed.downcast::<AmrDataset<T>>() {
        Ok(same) => *same,
        Err(other) => convert(
            other
                .downcast_ref::<AmrDataset>()
                .expect("the generator yields f64"),
        ),
    }
}

/// Generates the workload input from `seed` and warms it up: a 1-worker
/// and a 2-worker write (which must serialize identically), a full read
/// and an ROI read of the first box, all checked. The warm-up ops count in `tally`. An
/// error that leaves no reference output aborts the set-up.
pub fn setup<T: CodecElement>(
    w: &Workload,
    seed: u64,
    tally: &mut Tally,
) -> Result<Prepared<T>, String> {
    let entry = tac_nyx::entry(w.dataset).ok_or_else(|| format!("no dataset {}", w.dataset))?;
    let field_seed = w.field_seed.unwrap_or(seed);
    let ds: AmrDataset<T> =
        into_dtype(entry.generate(FieldKind::BaryonDensity, w.scale, field_seed));
    let ds64 = (T::DTYPE != TacDtype::F64).then(|| convert::<T, f64>(&ds));
    let cfg = w.config();
    let rois = roi_boxes(ds.finest_dim(), seed);

    let serial = tally
        .record(
            "warm-up 1-worker write",
            tac(write(
                &ds,
                &cfg.clone().with_parallelism(Parallelism::Serial),
                w.method,
            )),
        )
        .ok_or("warm-up write failed")?;
    let bytes = tally
        .record("warm-up write", tac(write(&ds, &cfg, w.method)))
        .ok_or("warm-up write failed")?;
    if serial != bytes {
        tally.fail("1-worker and 2-worker writes serialize differently".into());
    }
    let full = tally
        .record("warm-up read", tac(read::<T>(&bytes, WORKERS)))
        .ok_or("warm-up read failed")?;
    let original64 = ds64
        .as_ref()
        .map_or_else(|| as_f64(&ds), std::borrow::Cow::Borrowed);
    let d = distortion(&original64, &full)?;
    if let Err(e) = check_bound(&d) {
        tally.fail(format!("warm-up read: {e}"));
    }
    drop(original64);
    let (roi_out, roi_stats) = tally
        .record("warm-up ROI read", tac(roi_read::<T>(&bytes, rois[0])))
        .ok_or("warm-up ROI read failed")?;
    if !same_in_box(&roi_out, &full, rois[0]) {
        tally.fail("warm-up ROI read differs from the full decode inside the box".into());
    }
    let present_bytes = (ds.total_present() * T::WIRE_BYTES) as f64;
    Ok(Prepared {
        counts: Counts {
            container_bytes: bytes.len(),
            fingerprint: fnv(&bytes),
            psnr_db: d.psnr,
            roi: roi_stats,
        },
        ds,
        ds64,
        cfg,
        method: w.method,
        rois,
        bytes,
        full,
        present_bytes,
    })
}

/// Checks a read op's output.
pub fn check_read<T: Element>(
    p: &Prepared<T>,
    out: Result<AmrDataset<T>, TacError>,
) -> Result<(), String> {
    check_bound(&distortion(p.original64(), &tac(out)?)?)
}

/// Checks the ROI read of box `k` against the full decode inside the
/// box, and its chunk accounting against the box's earlier reads.
pub fn check_roi<T: Element>(
    p: &Prepared<T>,
    ledger: &mut RoiLedger,
    k: usize,
    out: Result<(AmrDataset<T>, RoiStats), TacError>,
) -> Result<RoiStats, String> {
    let (ds, stats) = tac(out)?;
    if !same_in_box(&ds, &p.full, p.rois[k]) {
        return Err("differs from the full decode inside the box".into());
    }
    ledger.check(k, stats)?;
    Ok(stats)
}

/// Checks a write op's bytes against the warm-up's.
pub fn check_write(
    p: &Prepared<impl Element>,
    out: &Result<Vec<u8>, TacError>,
) -> Result<(), String> {
    match out {
        Err(e) => Err(e.to_string()),
        Ok(b) if *b != p.bytes => Err("serialized bytes differ from the warm-up write".into()),
        Ok(_) => Ok(()),
    }
}
