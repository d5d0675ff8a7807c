//! Closed-loop write / read / ROI benchmark of the TAC stack.
//!
//! ```text
//! tac-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! One caller runs reps back to back; each rep is a write, a full read
//! and an ROI read, and each op completes before the next starts. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it replays the ops as their public layer calls under spans and
//! reports per-layer metrics. The last line of standard output is one
//! JSON object. `README.md` beside this crate has the layer -> metric
//! -> workload map, the reasons for each workload and the measured
//! run-to-run spread.

mod layers;
mod ops;
mod trace;
mod util;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tac_core::{CodecElement, TacDtype};

use ops::{
    check_read, check_roi, check_write, read, roi_read, setup, write, RoiLedger, Tally, Workload,
    WORKERS,
};
use util::{median, ms, peak_rss_mb, percentile};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// The outcome of one run.
pub struct Report {
    pub correct: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// The end-to-end pass: `SETUPS` set-ups, then closed-loop reps for
/// `seconds`, every op checked outside its timed region.
fn end_to_end<T: CodecElement>(args: &Args) -> Result<Report, String> {
    if tac_obs::enabled() {
        return Err(
            "refusing to report end-to-end numbers from a build with tac-obs \
                    instrumentation enabled"
                .into(),
        );
    }
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let mut deterministic = true;
    for _ in 0..SETUPS {
        // Keep only the previous set-up's counts, so two inputs are never
        // alive at once.
        let previous = prepared.take().map(|q: ops::Prepared<T>| q.counts);
        let t = Instant::now();
        let p = setup::<T>(args.workload, args.seed, &mut tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &previous {
            if *prev != p.counts {
                deterministic = false;
                eprintln!(
                    "deterministic counts differ between set-ups: {prev:?} vs {:?}",
                    p.counts
                );
            }
        }
        prepared = Some(p);
    }
    let p = prepared.expect("SETUPS > 0");

    let (mut write_ms, mut read_ms, mut roi_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ledger = RoiLedger::new(p.rois.len());
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || write_ms.len() < 3 {
        let t = Instant::now();
        let written = write(&p.ds, &p.cfg, p.method);
        write_ms.push(ms(t.elapsed()));
        tally.record("write", check_write(&p, &written));
        let bytes = written.as_deref().unwrap_or(&p.bytes);

        let t = Instant::now();
        let full = read::<T>(bytes, WORKERS);
        read_ms.push(ms(t.elapsed()));
        tally.record("read", check_read(&p, full));

        let k = roi_ms.len() % p.rois.len();
        let t = Instant::now();
        let part = roi_read::<T>(bytes, p.rois[k]);
        roi_ms.push(ms(t.elapsed()));
        tally.record("ROI read", check_roi(&p, &mut ledger, k, part));
    }

    let mb = p.present_bytes / 1e6;
    let m = |name: &str, v: f64, unit| (name.to_string(), v, unit);
    let metrics = vec![
        m("write_mb_s", mb / (median(&write_ms) / 1e3), "MB/s"),
        m("read_mb_s", mb / (median(&read_ms) / 1e3), "MB/s"),
        m("roi_read_ms", median(&roi_ms), "ms"),
        m(
            "compression_ratio",
            p.present_bytes / p.counts.container_bytes as f64,
            "x",
        ),
        m("psnr_db", p.counts.psnr_db, "dB"),
        m(
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
            "fraction",
        ),
        m("setup_s", median(&setup_s), "s"),
        m("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
    ];
    // The 90th percentiles are printed for reading only: on a shared host
    // they swing too much from run to run to gate on (README.md).
    let p50_p90 = |v: &[f64]| format!("{:.2}/{:.2}", median(v), percentile(v, 90.0));
    eprintln!(
        "{}: seed {} reps {}; median/p90 ms: write {} read {} ROI {}; set-ups {:?} s",
        args.workload.name,
        args.seed,
        write_ms.len(),
        p50_p90(&write_ms),
        p50_p90(&read_ms),
        p50_p90(&roi_ms),
        setup_s
    );
    Ok(Report {
        correct: deterministic && tally.failed == 0,
        tally,
        metrics,
    })
}

fn run<T: CodecElement>(args: &Args) -> Result<Report, String> {
    if args.trace {
        layers::run::<T>(
            args.workload,
            args.seed,
            args.seconds,
            args.trace_out.as_deref(),
        )
    } else {
        end_to_end::<T>(args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tac-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "tac-perfbench: workload {} seed {}",
        args.workload.name, args.seed
    );
    let report = match args.workload.dtype {
        TacDtype::F64 => run::<f64>(&args),
        TacDtype::F32 => run::<f32>(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tac-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for msg in &report.tally.messages {
        eprintln!("failed: {msg}");
    }
    if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("tac-perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                util::json_str(name),
                util::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
