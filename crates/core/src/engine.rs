//! The block-sharded parallel compression engine.
//!
//! TAC's pipeline splits naturally into three phases:
//!
//! 1. **Plan** (serial, cheap): per level, pick the strategy, resolve
//!    the error bound, run the partition planner (OpST / AKDTree / NaST
//!    region extraction, GSP padding), and group regions into
//!    compression jobs. This mirrors TAC+'s observation that the
//!    partitioning stage can be pre-planned before any compression
//!    runs.
//! 2. **Execute** (parallel): flatten every job across every level into
//!    one task list and run it on `tac-par`'s work-stealing scheduler,
//!    weighted by cell count. Each task is an independent scalar-codec
//!    compression (or decompression) of one whole-grid buffer or one
//!    region group, dispatched through the configured
//!    [`tac_codec::ScalarCodec`] backend.
//! 3. **Assemble** (serial, cheap): collect results back into per-level
//!    payloads in plan order.
//!
//! Because tasks are planned before execution and results are keyed by
//! task index, the assembled output is **byte-identical for every
//! worker count** — a serial run and an 8-thread run produce the same
//! container.

use crate::akdtree::plan_akdtree;
use crate::config::{Strategy, TacConfig};
use crate::error::TacError;
use crate::extract::{compress_group, decode_group, paste_group, plan_groups, GroupPlan};
use crate::gsp::pad_ghost_shell;
use crate::nast::plan_nast;
use crate::opst::plan_opst;
use crate::stream::{BlockGroup, CompressedLevel, LevelPayload};
use tac_amr::{AmrLevel, BitMask, BlockGrid};
use tac_codec::{codec_for, CodecConfig, CodecElement, CodecError, CodecId, Dims};
use tac_dtype::Element;

/// Effective unit-block size for a level: the configured unit, clamped
/// down to the level dimension when the level is smaller than one unit.
///
/// # Errors
/// Rejects a degenerate result of zero (dimension-0 level or zero unit)
/// instead of letting `BlockGrid::build` panic downstream.
pub(crate) fn unit_for(dim: usize, unit: usize) -> Result<usize, TacError> {
    let effective = unit.min(dim);
    if effective == 0 {
        return Err(TacError::InvalidConfig(format!(
            "unit block size resolves to 0 (unit {unit}, level dim {dim})"
        )));
    }
    Ok(effective)
}

/// Where a whole-grid compression task reads its input.
#[derive(Debug)]
pub(crate) enum WholeSource<T: Element> {
    /// The level's own flat array (ZeroFill).
    Level,
    /// An owned pre-processed buffer (GSP's padded grid).
    Owned(Vec<T>),
}

/// The planned work for one level.
#[derive(Debug)]
pub(crate) enum LevelWork<T: Element> {
    /// Nothing to compress.
    Empty,
    /// One whole-grid rank-3 stream.
    Whole(WholeSource<T>),
    /// Extracted region groups, each an independent task.
    Groups(Vec<GroupPlan>),
}

/// A fully planned level, ready for the execute phase.
#[derive(Debug)]
pub(crate) struct LevelPlan<T: Element> {
    pub strategy: Strategy,
    pub dim: usize,
    pub abs_eb: f64,
    /// Scalar codec every stream of this level compresses through.
    /// [`plan_level`] seeds it from the config; the `Method::Auto`
    /// selection pass may overwrite it per level before execution.
    pub codec: CodecId,
    pub work: LevelWork<T>,
}

/// Plans one level: partition planning and pre-processing, no
/// compression.
pub(crate) fn plan_level<T: Element>(
    level: &AmrLevel<T>,
    strategy: Strategy,
    abs_eb: f64,
    cfg: &TacConfig,
) -> Result<LevelPlan<T>, TacError> {
    let dim = level.dim();
    let work = match strategy {
        Strategy::Empty => LevelWork::Empty,
        Strategy::ZeroFill => LevelWork::Whole(WholeSource::Level),
        Strategy::Gsp => {
            let grid = BlockGrid::build(level, unit_for(dim, cfg.unit)?);
            let (padded, _) = pad_ghost_shell(level, &grid);
            LevelWork::Whole(WholeSource::Owned(padded))
        }
        Strategy::NaST => {
            let grid = BlockGrid::build(level, unit_for(dim, cfg.unit)?);
            let regions = plan_nast(&grid);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
        Strategy::OpST => {
            let unit = unit_for(dim, cfg.unit)?;
            let grid = BlockGrid::build(level, unit);
            let regions = plan_opst(&grid).regions(unit);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
        Strategy::AkdTree => {
            let unit = unit_for(dim, cfg.unit)?;
            let grid = BlockGrid::build(level, unit);
            let regions = plan_akdtree(&grid).regions(unit);
            LevelWork::Groups(plan_groups(&regions, cfg.roi_tile))
        }
    };
    Ok(LevelPlan {
        strategy,
        dim,
        abs_eb,
        codec: cfg.codec,
        work,
    })
}

/// One flattened compression task (borrowing the plan and level data).
struct CompressTask<'a, T: Element> {
    dim: usize,
    codec: CodecId,
    codec_cfg: CodecConfig,
    kind: CompressKind<'a, T>,
}

enum CompressKind<'a, T: Element> {
    Whole(&'a [T]),
    /// A region group plus the flat array of its owning level.
    Group(&'a GroupPlan, &'a [T]),
}

impl<T: Element> CompressTask<'_, T> {
    fn cost(&self) -> u64 {
        match &self.kind {
            CompressKind::Whole(_) => (self.dim * self.dim * self.dim) as u64,
            CompressKind::Group(p, _) => p.num_cells() as u64,
        }
    }
}

enum TaskOut {
    Stream(Vec<u8>),
    Group(BlockGroup),
}

/// Executes the planned levels on `workers` threads and assembles the
/// per-level compressed payloads in plan order. `level_data[i]` is the
/// flat array of the i-th planned level (read by ZeroFill tasks and
/// region-group tasks).
pub(crate) fn compress_plans<T: CodecElement>(
    plans: &[LevelPlan<T>],
    level_data: &[&[T]],
    cfg: &TacConfig,
    workers: usize,
) -> Result<Vec<CompressedLevel>, TacError> {
    assert_eq!(plans.len(), level_data.len());
    // Flatten: tasks are generated level-major, groups in plan order, so
    // task index order is deterministic.
    let mut tasks: Vec<CompressTask<'_, T>> = Vec::new();
    for (plan, &data) in plans.iter().zip(level_data) {
        let codec_cfg = cfg.codec_config(plan.abs_eb);
        match &plan.work {
            LevelWork::Empty => {}
            LevelWork::Whole(source) => tasks.push(CompressTask {
                dim: plan.dim,
                codec: plan.codec,
                codec_cfg,
                kind: CompressKind::Whole(match source {
                    WholeSource::Level => data,
                    WholeSource::Owned(buf) => buf,
                }),
            }),
            LevelWork::Groups(groups) => {
                for g in groups {
                    tasks.push(CompressTask {
                        dim: plan.dim,
                        codec: plan.codec,
                        codec_cfg,
                        kind: CompressKind::Group(g, data),
                    });
                }
            }
        }
    }

    let exec_span = tac_obs::span(tac_obs::Stage::Execute).arg("tasks", tasks.len());
    let results = tac_par::execute(
        workers,
        &tasks,
        CompressTask::cost,
        |t| -> Result<TaskOut, TacError> {
            let _encode = tac_obs::span(tac_obs::Stage::Encode)
                .arg("dim", t.dim)
                .arg("codec", t.codec.tag());
            let out = match &t.kind {
                CompressKind::Whole(data) => {
                    let stream = T::codec_compress(
                        codec_for(t.codec),
                        data,
                        Dims::D3(t.dim, t.dim, t.dim),
                        &t.codec_cfg,
                    )?;
                    TaskOut::Stream(stream)
                }
                CompressKind::Group(plan, data) => {
                    TaskOut::Group(compress_group(data, t.dim, plan, t.codec, &t.codec_cfg)?)
                }
            };
            if tac_obs::enabled() {
                let bytes = match &out {
                    TaskOut::Stream(stream) => stream.len(),
                    TaskOut::Group(group) => group.stream.len(),
                };
                tac_obs::add(tac_obs::Counter::ChunksEncoded, 1);
                tac_obs::add_bytes(tac_obs::Counter::PayloadBytesOut, bytes);
            }
            Ok(out)
        },
    );
    drop(exec_span);

    // Assemble in plan order, consuming results sequentially.
    let _assemble = tac_obs::span(tac_obs::Stage::Assemble);
    let mut out = Vec::with_capacity(plans.len());
    let mut next = results.into_iter();
    for plan in plans {
        #[expect(
            clippy::expect_used,
            clippy::unreachable,
            reason = "tasks are generated level-major from these plans, one per whole grid or group, \
                      so the results arrive in plan order with the matching TaskOut variant"
        )]
        let payload = match &plan.work {
            LevelWork::Empty => LevelPayload::Empty,
            LevelWork::Whole(_) => match next.next().expect("missing whole-grid result")? {
                TaskOut::Stream(stream) => LevelPayload::Whole(stream),
                TaskOut::Group(_) => unreachable!("whole task produced a group"),
            },
            LevelWork::Groups(groups) => {
                let mut collected = Vec::with_capacity(groups.len());
                for _ in groups {
                    match next.next().expect("missing group result")? {
                        TaskOut::Group(g) => collected.push(g),
                        TaskOut::Stream(_) => unreachable!("group task produced a stream"),
                    }
                }
                LevelPayload::Groups(collected)
            }
        };
        // Empty payloads hold no streams, so their codec is canonically
        // the default (the wire format does not tag them).
        let codec = match &payload {
            LevelPayload::Empty => CodecId::default(),
            _ => plan.codec,
        };
        out.push(CompressedLevel {
            strategy: plan.strategy,
            dim: plan.dim,
            abs_eb: plan.abs_eb,
            codec,
            dtype: T::DTYPE,
            payload,
        });
    }
    Ok(out)
}

/// One flattened decompression task.
struct DecompressTask<'a> {
    level: usize,
    dim: usize,
    codec: CodecId,
    kind: DecompressKind<'a>,
}

enum DecompressKind<'a> {
    Whole(&'a [u8]),
    Group(&'a BlockGroup),
}

impl DecompressTask<'_> {
    fn cost(&self) -> u64 {
        match &self.kind {
            DecompressKind::Whole(_) => (self.dim * self.dim * self.dim) as u64,
            DecompressKind::Group(g) => {
                (g.shape.0 * g.shape.1 * g.shape.2 * g.origins.len()) as u64
            }
        }
    }
}

/// Decompresses TAC per-level payloads on `workers` threads: every
/// whole-grid stream and every region group decodes as an independent
/// task; pasting and mask application stay serial.
pub(crate) fn decompress_tac_levels<T: CodecElement>(
    compressed: &[CompressedLevel],
    masks: &[BitMask],
    workers: usize,
) -> Result<Vec<AmrLevel<T>>, TacError> {
    // Validate masks up front (decode tasks do not see them). The
    // checked product guards in-memory callers handing over a crafted
    // dim (wire readers bound it already).
    for (l, (cl, mask)) in compressed.iter().zip(masks).enumerate() {
        if cl.dtype != T::DTYPE {
            return Err(TacError::Codec(CodecError::WrongDtype {
                stream: cl.dtype.label(),
                requested: T::DTYPE.label(),
            }));
        }
        let n = cl
            .dim
            .checked_mul(cl.dim)
            .and_then(|s| s.checked_mul(cl.dim))
            .ok_or_else(|| {
                TacError::Corrupt(format!("level {l}: dim {} overflows dim^3", cl.dim))
            })?;
        if mask.len() != n {
            return Err(TacError::Corrupt(format!(
                "level {l}: mask has {} bits for a {}^3 level",
                mask.len(),
                cl.dim
            )));
        }
    }
    let mut tasks: Vec<DecompressTask<'_>> = Vec::new();
    for (l, cl) in compressed.iter().enumerate() {
        match &cl.payload {
            LevelPayload::Empty => {}
            LevelPayload::Whole(stream) => tasks.push(DecompressTask {
                level: l,
                dim: cl.dim,
                codec: cl.codec,
                kind: DecompressKind::Whole(stream),
            }),
            LevelPayload::Groups(groups) => {
                for g in groups {
                    tasks.push(DecompressTask {
                        level: l,
                        dim: cl.dim,
                        codec: cl.codec,
                        kind: DecompressKind::Group(g),
                    });
                }
            }
        }
    }

    let exec_span = tac_obs::span(tac_obs::Stage::Execute).arg("tasks", tasks.len());
    let results = tac_par::execute(
        workers,
        &tasks,
        DecompressTask::cost,
        |t| -> Result<Vec<T>, TacError> {
            let _decode = tac_obs::span(tac_obs::Stage::Decode)
                .arg("dim", t.dim)
                .arg("codec", t.codec.tag());
            if tac_obs::enabled() {
                let bytes = match &t.kind {
                    DecompressKind::Whole(stream) => stream.len(),
                    DecompressKind::Group(g) => g.stream.len(),
                };
                tac_obs::add(tac_obs::Counter::ChunksDecoded, 1);
                tac_obs::add_bytes(tac_obs::Counter::PayloadBytesIn, bytes);
            }
            match &t.kind {
                DecompressKind::Whole(stream) => {
                    let (values, dims) = T::codec_decompress(codec_for(t.codec), stream)?;
                    if dims != Dims::D3(t.dim, t.dim, t.dim) {
                        return Err(TacError::Corrupt(format!(
                            "whole-grid stream dims {dims:?} for a {}^3 level",
                            t.dim
                        )));
                    }
                    Ok(values)
                }
                DecompressKind::Group(g) => decode_group::<T>(g, t.codec),
            }
        },
    );
    drop(exec_span);

    // Assemble: paste decoded buffers level by level, then mask. Tasks
    // are generated level-major, so each level's results are contiguous.
    let _assemble = tac_obs::span(tac_obs::Stage::Assemble);
    let mut decoded = tasks.iter().zip(results).peekable();
    let mut levels = Vec::with_capacity(compressed.len());
    for (l, (cl, mask)) in compressed.iter().zip(masks).enumerate() {
        let mut data = vec![T::ZERO; cl.dim * cl.dim * cl.dim];
        while let Some((task, result)) = decoded.next_if(|(t, _)| t.level == l) {
            let values = result?;
            match &task.kind {
                DecompressKind::Whole(_) => data = values,
                DecompressKind::Group(g) => paste_group(&mut data, task.dim, g, &values)?,
            }
        }
        for (i, v) in data.iter_mut().enumerate() {
            if !mask.get(i) {
                *v = T::ZERO;
            }
        }
        levels.push(AmrLevel::new(cl.dim, data, mask.clone()));
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_for_clamps_but_rejects_zero() {
        assert_eq!(unit_for(16, 4).unwrap(), 4);
        assert_eq!(unit_for(2, 8).unwrap(), 2);
        assert!(unit_for(0, 8).is_err());
        assert!(unit_for(16, 0).is_err());
    }
}
