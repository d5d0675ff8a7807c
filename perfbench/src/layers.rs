//! The traced pass: per-layer metrics.
//!
//! Each round runs, in order:
//! - the end-to-end ops with tracing off, at 2 workers and serially
//!   (`par.*`, `plan.write_frac`, `engine.decode_gap_ms`, `roi.cost_frac`
//!   and `codec.decode_ceiling_frac` divide by these);
//! - the write, read and ROI ops replayed as their public layer calls,
//!   once with spans and once without (`trace.overhead_frac`);
//! - for a workload whose container is not level-wise, the TAC level
//!   path on the same input (`plan.*`, `level.*`);
//! - the codec kernels on the largest level, `zmesh_order` + `gather`,
//!   and `select_auto` (until it has used a quarter of the run).
//!
//! Layer times are medians over rounds of the spans' durations.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tac_amr::{AmrDataset, AmrLevel, BitMask, BlockGrid, Element};
use tac_codec::Dims;
use tac_core::{
    choose_strategy, codec_for, compress_dataset_t, compress_level_t, decompress_dataset_par_t,
    decompress_level_t, gather, pad_ghost_shell, plan_akdtree, plan_nast, plan_opst,
    resolve_level_eb_for, select_auto, zmesh_order, AutoSelection, CodecConfig, CodecElement,
    CodecId, CompressedDataset, CompressedLevel, Method, MethodBody, Parallelism, RoiStats,
    Strategy, TacConfig, TacError,
};

use crate::ops::{
    check_read, check_roi, check_write, read, roi_read, setup, write, Prepared, RoiLedger, Tally,
    Workload, EB, WORKERS,
};
use crate::trace::Tracer;
use crate::util::{median, ms};
use crate::{Metric, Report};

/// Levels reported one by one (every workload has at least two); all
/// levels are in the `level.all.*` sums and in the trace file.
const REPORTED_LEVELS: usize = 2;

/// ROI boxes whose chunk accounting the `roi.*` counts average.
const ROI_COUNTED: usize = 8;

/// Untraced wall times (ms) by op.
#[derive(Default)]
struct Walls(BTreeMap<&'static str, Vec<f64>>);

impl Walls {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0.entry(name).or_default().push(ms(t.elapsed()));
        out
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// Plans every level as the pipeline does (strategy, bound, partition
/// planner) and encodes each with `compress_level_t`, one span per call.
fn tac_levels<T: CodecElement>(
    tr: &mut Tracer,
    ds: &AmrDataset<T>,
    cfg: &TacConfig,
    codecs: &[CodecId],
) -> Result<Vec<CompressedLevel>, TacError> {
    let planned = tr.span("plan", |tr| {
        ds.levels()
            .iter()
            .enumerate()
            .map(|(l, level)| plan_level(tr, l, level, cfg))
            .collect::<Result<Vec<_>, TacError>>()
    })?;
    ds.levels()
        .iter()
        .zip(planned)
        .zip(codecs)
        .enumerate()
        .map(|(l, ((level, (strategy, abs_eb)), &codec))| {
            let cfg = cfg.clone().with_codec(codec);
            tr.span(&format!("level.{l}.encode"), |_| {
                compress_level_t(level, strategy, abs_eb, &cfg)
            })
        })
        .collect()
}

fn plan_level<T: Element>(
    tr: &mut Tracer,
    l: usize,
    level: &AmrLevel<T>,
    cfg: &TacConfig,
) -> Result<(Strategy, f64), TacError> {
    let strategy = tr.span("plan.choose_strategy", |_| choose_strategy(level, cfg));
    if strategy == Strategy::Empty {
        return Ok((strategy, 0.0));
    }
    let abs_eb = resolve_level_eb_for(
        T::DTYPE,
        cfg.error_bound,
        cfg.level_scale(l),
        level.value_range(),
    )?;
    let unit = cfg.unit.min(level.dim());
    let grid = || BlockGrid::build(level, unit);
    match strategy {
        Strategy::Gsp => {
            let g = tr.span("plan.block_grid", |_| grid());
            black_box(tr.span("plan.pad_ghost_shell", |_| pad_ghost_shell(level, &g)));
        }
        Strategy::OpST => {
            let g = tr.span("plan.block_grid", |_| grid());
            black_box(tr.span("plan.opst", |_| plan_opst(&g).regions(unit)));
        }
        Strategy::AkdTree => {
            let g = tr.span("plan.block_grid", |_| grid());
            black_box(tr.span("plan.akdtree", |_| plan_akdtree(&g).regions(unit)));
        }
        Strategy::NaST => {
            let g = tr.span("plan.block_grid", |_| grid());
            black_box(tr.span("plan.nast", |_| plan_nast(&g)));
        }
        Strategy::Empty | Strategy::ZeroFill => {}
    }
    Ok((strategy, abs_eb))
}

/// The write op as layer calls (serial): selection for `Method::Auto`,
/// planning and per-level encode for a level-wise winner (the whole
/// pipeline call otherwise), then serialization.
fn replay_write<T: CodecElement>(
    tr: &mut Tracer,
    p: &Prepared<T>,
    cfg: &TacConfig,
) -> Result<Vec<u8>, TacError> {
    tr.op("write", |tr| {
        let nl = p.ds.num_levels();
        let (method, codec, codecs) = if p.method == Method::Auto {
            let sel = tr.span("select", |_| select_auto(&p.ds, cfg))?;
            let codecs = if sel.level_codecs.len() == nl {
                sel.level_codecs
            } else {
                vec![sel.codec; nl]
            };
            (sel.method, sel.codec, codecs)
        } else {
            (p.method, cfg.codec, vec![cfg.codec; nl])
        };
        let cd = if method == Method::Tac {
            let levels = tac_levels(tr, &p.ds, cfg, &codecs)?;
            tr.span("container.assemble", |_| CompressedDataset {
                name: p.ds.name().to_string(),
                finest_dim: p.ds.finest_dim(),
                dtype: T::DTYPE,
                masks: p.ds.levels().iter().map(|l| l.mask().clone()).collect(),
                body: MethodBody::Tac(levels),
            })
        } else {
            let cfg = cfg.clone().with_codec(codec);
            tr.span("compress", |_| compress_dataset_t(&p.ds, &cfg, method))?
        };
        Ok(tr.span("container.serialize", |_| cd.to_bytes()))
    })
}

/// The read op as layer calls (serial): parse, then one decode per
/// level for a level-wise container (the whole decode otherwise).
fn replay_read<T: CodecElement>(tr: &mut Tracer, bytes: &[u8]) -> Result<AmrDataset<T>, TacError> {
    tr.op("read", |tr| {
        let cd = tr.span("container.parse", |_| CompressedDataset::from_bytes(bytes))?;
        match &cd.body {
            MethodBody::Tac(levels) => {
                let out = levels
                    .iter()
                    .zip(&cd.masks)
                    .enumerate()
                    .map(|(l, (cl, mask))| {
                        tr.span(&format!("level.{l}.decode"), |_| {
                            decompress_level_t::<T>(cl, mask)
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(AmrDataset::new(cd.name.clone(), out))
            }
            _ => tr.span("decode", |_| {
                decompress_dataset_par_t::<T>(&cd, Parallelism::Serial)
            }),
        }
    })
}

/// The TAC level path on its own (for workloads whose write bypasses
/// it): plan + encode every level, then decode each.
fn level_path<T: CodecElement>(
    tr: &mut Tracer,
    p: &Prepared<T>,
    cfg: &TacConfig,
    codecs: &[CodecId],
) -> Result<Vec<CompressedLevel>, String> {
    tr.op("levels", |tr| {
        let levels = tac_levels(tr, &p.ds, cfg, codecs).map_err(|e| e.to_string())?;
        for (l, (cl, level)) in levels.iter().zip(p.ds.levels()).enumerate() {
            let out = tr.span(&format!("level.{l}.decode"), |_| {
                decompress_level_t::<T>(cl, level.mask())
            });
            check_level(level, &out.map_err(|e| e.to_string())?)?;
        }
        Ok(levels)
    })
}

fn check_level<T: Element>(orig: &AmrLevel<T>, out: &AmrLevel<T>) -> Result<(), String> {
    let err = orig
        .mask()
        .iter_ones()
        .map(|i| (orig.data()[i].to_f64() - out.data()[i].to_f64()).abs())
        .fold(0.0, f64::max);
    if err > EB {
        return Err(format!("level error {err:e} exceeds bound {EB:e}"));
    }
    Ok(())
}

/// One codec's kernel pair on a dense rank-3 array.
fn codec_kernels<T: CodecElement>(
    tr: &mut Tracer,
    id: CodecId,
    level: &AmrLevel<T>,
) -> Result<(), String> {
    let d = level.dim();
    let dims = Dims::D3(d, d, d);
    let label = id.label();
    tr.op("codec", |tr| {
        let enc = tr.span(&format!("codec.{label}.encode"), |_| {
            T::codec_compress(codec_for(id), level.data(), dims, &CodecConfig::abs(EB))
        });
        let enc = enc.map_err(|e| e.to_string())?;
        let dec = tr.span(&format!("codec.{label}.decode"), |_| {
            T::codec_decompress(codec_for(id), &enc)
        });
        let (values, got) = dec.map_err(|e| e.to_string())?;
        if got != dims || values.len() != level.data().len() {
            return Err(format!("{label}: decoded {got:?}, want {dims:?}"));
        }
        let err = values
            .iter()
            .zip(level.data())
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max);
        if err > EB {
            return Err(format!("{label}: error {err:e} exceeds bound {EB:e}"));
        }
        Ok(())
    })
}

/// The traced pass over one workload for `seconds`.
pub fn run<T: CodecElement>(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<&str>,
) -> Result<Report, String> {
    let mut tally = Tally::default();
    let p = setup::<T>(w, seed, &mut tally)?;
    let serial = p.cfg.clone().with_parallelism(Parallelism::Serial);
    let cd = CompressedDataset::from_bytes(&p.bytes).map_err(|e| e.to_string())?;
    let tac_body = matches!(cd.body, MethodBody::Tac(_));
    let nl = p.ds.num_levels();
    // The codec the workload's container uses (the winner's, for Auto).
    let workload_codec = match &cd.body {
        MethodBody::Tac(levels) => levels[0].codec,
        MethodBody::Baseline1D(levels) => levels.iter().flatten().next().map_or(w.codec, |l| l.1),
        MethodBody::ZMesh { codec, .. } | MethodBody::Baseline3D { codec, .. } => *codec,
    };
    let largest =
        p.ds.levels()
            .iter()
            .max_by_key(|l| l.num_present())
            .expect("a dataset has levels");
    let kernel_mb = (largest.num_cells() * T::WIRE_BYTES) as f64 / 1e6;
    let masks: Vec<&BitMask> = p.ds.levels().iter().map(|l| l.mask()).collect();
    let level_data: Vec<&[T]> = p.ds.levels().iter().map(|l| l.data()).collect();

    // The ROI chunk counts, from a fixed set of boxes so that they repeat
    // for one seed.
    let mut ledger = RoiLedger::new(p.rois.len());
    let mut rois = Vec::with_capacity(ROI_COUNTED);
    for k in 0..ROI_COUNTED {
        let out = roi_read::<T>(&p.bytes, p.rois[k]);
        rois.extend(tally.record("ROI read", check_roi(&p, &mut ledger, k, out)));
    }
    if rois.len() < ROI_COUNTED {
        return Err("ROI reads failed".into());
    }

    let mut tr = Tracer::new();
    let mut walls = Walls::default();
    let mut selection: Option<AutoSelection> = None;
    let mut select_ms = 0.0;
    let mut side_levels: Option<Vec<CompressedLevel>> = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut rounds = 0;
    while rounds < 3 || Instant::now() < deadline {
        rounds += 1;
        if selection.is_none() || select_ms < seconds * 1e3 / 4.0 {
            let t = Instant::now();
            let sel = tr.op("select", |tr| {
                tr.span("select.pass", |_| select_auto(&p.ds, &p.cfg))
            });
            select_ms += ms(t.elapsed());
            selection = tally.record("select_auto", sel.map_err(|e| e.to_string()));
        }

        let out = walls.time("write2", || write(&p.ds, &p.cfg, p.method));
        tally.record("write", check_write(&p, &out));
        let out = walls.time("write1", || write(&p.ds, &serial, p.method));
        tally.record("1-worker write", check_write(&p, &out));
        let out = walls.time("read2", || read::<T>(&p.bytes, WORKERS));
        tally.record("read", check_read(&p, out));
        let out = walls.time("read1", || read::<T>(&p.bytes, Parallelism::Serial));
        tally.record("1-worker read", check_read(&p, out));
        let k = (rounds - 1) % p.rois.len();
        let out = walls.time("roi", || roi_read::<T>(&p.bytes, p.rois[k]));
        tally.record("ROI read", check_roi(&p, &mut ledger, k, out));

        // Alternate which side runs first, so warm caches favour neither.
        for on in [rounds % 2 == 0, rounds % 2 == 1] {
            tr.on = on;
            let t = Instant::now();
            let wrote = replay_write(&mut tr, &p, &serial);
            let full = replay_read::<T>(&mut tr, &p.bytes);
            let part = tr.op("roi", |tr| {
                tr.span("roi.decode", |_| roi_read::<T>(&p.bytes, p.rois[k]))
            });
            walls
                .0
                .entry(if on { "replay_on" } else { "replay_off" })
                .or_default()
                .push(ms(t.elapsed()));
            tally.record("replayed write", check_write(&p, &wrote));
            tally.record("replayed read", check_read(&p, full));
            tally.record("replayed ROI read", check_roi(&p, &mut ledger, k, part));
        }
        tr.on = true;

        if !tac_body {
            let codecs = vec![workload_codec; nl];
            if let Some(levels) =
                tally.record("level path", level_path(&mut tr, &p, &serial, &codecs))
            {
                side_levels = Some(levels);
            }
        }
        for id in CodecId::all() {
            tally.record("codec kernel", codec_kernels(&mut tr, id, largest));
        }
        tr.op("zmesh", |tr| {
            let order = tr.span("zmesh.order", |_| zmesh_order(&masks, p.ds.finest_dim()));
            black_box(tr.span("zmesh.gather", |_| gather(&order, &level_data)));
        });
    }

    let span_ms = |name: &str| median(&tr.samples(name));
    let mut metrics: Vec<Metric> = Vec::new();
    let mut m = |name: String, v: f64, unit: &'static str| metrics.push((name, v, unit));

    let read_mb_s = p.present_bytes / 1e6 / (walls.median("read2") / 1e3);
    for id in CodecId::all() {
        let l = id.label();
        m(
            format!("codec.{l}.encode_mb_s"),
            kernel_mb / (span_ms(&format!("codec.{l}.encode")) / 1e3),
            "MB/s",
        );
        m(
            format!("codec.{l}.decode_mb_s"),
            kernel_mb / (span_ms(&format!("codec.{l}.decode")) / 1e3),
            "MB/s",
        );
    }
    let ceiling = kernel_mb / (span_ms(&format!("codec.{}.decode", workload_codec.label())) / 1e3);
    m(
        "codec.decode_ceiling_frac".into(),
        read_mb_s / ceiling,
        "fraction",
    );

    let plan_ms = span_ms("plan");
    m("plan.ms".into(), plan_ms, "ms");
    m(
        "plan.write_frac".into(),
        plan_ms / walls.median("write1"),
        "fraction",
    );

    // Level bytes come from the container when it is level-wise, else
    // from the level path run beside it.
    let level_bytes: Vec<usize> = match (&cd.body, &side_levels) {
        (MethodBody::Tac(levels), _) | (_, Some(levels)) => {
            levels.iter().map(|l| l.total_bytes()).collect()
        }
        _ => vec![0; nl],
    };
    let (mut enc_sum, mut dec_sum) = (0.0, 0.0);
    for (l, level) in p.ds.levels().iter().enumerate() {
        let enc = span_ms(&format!("level.{l}.encode"));
        let dec = span_ms(&format!("level.{l}.decode"));
        enc_sum += enc;
        dec_sum += dec;
        if l < REPORTED_LEVELS {
            m(format!("level.{l}.encode_ms"), enc, "ms");
            m(format!("level.{l}.decode_ms"), dec, "ms");
            m(format!("level.{l}.bytes"), level_bytes[l] as f64, "B");
            let bpv = 8.0 * level_bytes[l] as f64 / level.num_present().max(1) as f64;
            m(format!("level.{l}.bits_per_value"), bpv, "bit");
        }
    }
    m("level.all.encode_ms".into(), enc_sum, "ms");
    m("level.all.decode_ms".into(), dec_sum, "ms");
    let parse_ms = span_ms("container.parse");
    let decode_ms = if tac_body { dec_sum } else { span_ms("decode") };
    m(
        "engine.decode_gap_ms".into(),
        walls.median("read1") - parse_ms - decode_ms,
        "ms",
    );

    m(
        "container.serialize_ms".into(),
        span_ms("container.serialize"),
        "ms",
    );
    m("container.parse_ms".into(), parse_ms, "ms");
    m(
        "container.structure_bytes".into(),
        cd.structure_bytes() as f64,
        "B",
    );
    m(
        "container.payload_bytes".into(),
        cd.payload_bytes() as f64,
        "B",
    );

    // Chunk counts are means over the first `ROI_COUNTED` boxes.
    let mean =
        |f: fn(&RoiStats) -> usize| rois.iter().map(f).sum::<usize>() as f64 / rois.len() as f64;
    m("roi.chunks_read".into(), mean(|r| r.chunks_read), "count");
    m("roi.chunks_total".into(), mean(|r| r.chunks_total), "count");
    let read_frac = mean(|r| r.payload_bytes_read) / mean(|r| r.payload_bytes_total).max(1.0);
    m("roi.payload_read_frac".into(), read_frac, "fraction");
    m(
        "roi.cost_frac".into(),
        walls.median("roi") / walls.median("read2"),
        "fraction",
    );

    let sel = selection.ok_or("select_auto failed on every round")?;
    m("select.ms".into(), span_ms("select.pass"), "ms");
    m(
        "select.exhaustive".into(),
        f64::from(u8::from(sel.exhaustive)),
        "bool",
    );
    m(
        "select.candidates".into(),
        sel.candidates.len() as f64,
        "count",
    );

    m("zmesh.order_ms".into(), span_ms("zmesh.order"), "ms");
    m("zmesh.gather_ms".into(), span_ms("zmesh.gather"), "ms");

    m(
        "par.write_speedup".into(),
        walls.median("write1") / walls.median("write2"),
        "x",
    );
    m(
        "par.read_speedup".into(),
        walls.median("read1") / walls.median("read2"),
        "x",
    );

    let (on, off) = (walls.median("replay_on"), walls.median("replay_off"));
    m("trace.overhead_frac".into(), (on - off) / off, "fraction");

    eprintln!(
        "{}: seed {seed} rounds {rounds} in {:.1} s; selection {:?}/{} ({} candidates, exhaustive {})",
        w.name,
        start.elapsed().as_secs_f64(),
        sel.method,
        sel.codec.label(),
        sel.candidates.len(),
        sel.exhaustive
    );
    eprintln!("self time by span (ms, summed over the run):");
    for (name, t) in tr.self_times() {
        eprintln!("  {name:<28} {t:>10.2}");
    }
    if let Some(path) = trace_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, tr.to_json(w.name, seed)).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("spans written to {path}");
    }
    Ok(Report {
        correct: tally.failed == 0,
        tally,
        metrics,
    })
}
