//! What the four workloads share: counting attempts and failures, repeating
//! set-up, measuring fixed-size batches for the asked number of seconds, and
//! turning the samples into the metrics of `spec`.

pub mod gld;
pub mod svc;

use crate::report::{Metric, WorkloadReport};
use crate::spec::{self, PER_LAYER};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct Args {
    pub workload: &'static str,
    /// Drives evaluation data and request order; model and training seeds
    /// are constants.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes through the same code paths, for a smoke run.
    pub quick: bool,
    /// Makes every output check report a mismatch: the self-test that a
    /// broken output is counted and fails `perf compare`.
    pub inject_failure: bool,
    /// Where the fuller report and the trace file go; nothing is written
    /// without it.
    pub out_dir: Option<PathBuf>,
}

/// Operations attempted and failed.  A panic, a typed error, a refused
/// request, an output that differs from the expected bytes or breaks its
/// error bound: each is one failure, and the run goes on.
pub struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    inject_failure: bool,
}

impl Checks {
    fn new(inject_failure: bool) -> Checks {
        Checks {
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            inject_failure,
        }
    }

    /// Runs one operation under `catch_unwind`.
    pub fn attempt<T>(&self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|panic| {
            let text = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic without a message");
            Err(format!("panicked: {text}"))
        });
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                if self.failed.fetch_add(1, Ordering::Relaxed) < 5 {
                    eprintln!("FAILED {what}: {why}");
                }
                None
            }
        }
    }

    /// An output check: `Err(what)` unless `ok`.
    pub fn verify(&self, ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
        if ok && !self.inject_failure {
            Ok(())
        } else {
            Err(what())
        }
    }
}

pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    pub checks: Checks,
}

/// One fixed-size batch of operations: the wall time of the batch and the
/// median latency of the operations in it.  The samples themselves stay with
/// the workload, so that the benchmark's own memory stays small next to the
/// system's.
pub struct Batch {
    pub wall_s: f64,
    pub op_p50_ms: f64,
}

impl Batch {
    pub fn new(wall_s: f64, latencies_ms: &[f64]) -> Batch {
        Batch {
            wall_s,
            // A batch whose every operation failed has no latency to report.
            op_p50_ms: if latencies_ms.is_empty() {
                0.0
            } else {
                stats::median(latencies_ms)
            },
        }
    }
}

/// Set-ups of a run that are followed by a measurement.
pub const EPOCHS: usize = 3;

/// Which batch a workload is asked to run.
#[derive(Clone, Copy)]
pub struct Turn {
    /// Counts every batch of the run; operation ids derive from it.
    pub index: usize,
    /// The batch is run to warm up and is not measured.
    pub warm_up: bool,
}

#[derive(Default)]
pub struct Measured {
    pub plain: Vec<Batch>,
    /// Batches that recorded spans; only a traced run has any.
    pub traced: Vec<Batch>,
}

impl Measured {
    /// Wall time of recorded batches over plain ones, minus one.
    pub fn trace_overhead_frac(&self) -> f64 {
        let wall = |batches: &[Batch]| {
            stats::median(&batches.iter().map(|b| b.wall_s).collect::<Vec<_>>())
        };
        wall(&self.traced) / wall(&self.plain) - 1.0
    }
}

impl Ctx {
    /// Sets up `set_ups` times and measures after each of the last
    /// [`EPOCHS`] set-ups, for an equal share of `--seconds` each.  A fresh
    /// set-up lays memory out afresh, and how buffers happen to lie against
    /// each other was seen to move a whole epoch by a tenth; measuring across
    /// set-ups puts that luck inside every run, not between runs.
    ///
    /// An epoch is one unmeasured warm-up batch, then batches until its share
    /// of the time has passed.  Each batch is the same fixed number of
    /// operations, so a longer run adds samples, never changes their size.
    /// A traced run sets up once and records spans in every other batch.
    ///
    /// Returns the last state, the seconds each set-up took, and the batches.
    pub fn epochs<S>(
        &self,
        set_ups: usize,
        min_batches: usize,
        mut set_up: impl FnMut() -> S,
        mut batch: impl FnMut(&mut S, Turn) -> Batch,
    ) -> (S, Vec<f64>, Measured) {
        let trace = self.args.trace;
        let set_ups = if trace { 1 } else { set_ups };
        let epochs = set_ups.min(EPOCHS);
        let share_s = self.args.seconds / epochs as f64;
        let batches_per_epoch = min_batches.div_ceil(epochs).max(if trace { 4 } else { 1 });
        let mut setup_s = Vec::with_capacity(set_ups);
        let mut measured = Measured::default();
        let mut state = None;
        let mut index = 0;
        for round in 0..set_ups {
            drop(state.take());
            self.tracer.set_enabled(trace);
            let start = Instant::now();
            let mut fresh = set_up();
            setup_s.push(start.elapsed().as_secs_f64());
            if round + epochs >= set_ups {
                let mut turn = |warm_up, record| {
                    self.tracer.set_enabled(record);
                    index += 1;
                    batch(&mut fresh, Turn { index, warm_up })
                };
                turn(true, false);
                let start = Instant::now();
                for n in 1.. {
                    let record = trace && n % 2 == 0;
                    let done = turn(false, record);
                    if record {
                        measured.traced.push(done);
                    } else {
                        measured.plain.push(done);
                    }
                    if n >= batches_per_epoch && start.elapsed().as_secs_f64() >= share_s {
                        break;
                    }
                }
            }
            state = Some(fresh);
        }
        self.tracer.set_enabled(trace);
        (state.expect("at least one set-up"), setup_s, measured)
    }

    /// A reconciliation between separately timed layers: counted as a
    /// failure when it does not hold.  The quick profile only reports it:
    /// its blocks take microseconds, and a smoke run must not pass or fail on
    /// what else the machine was doing.
    pub fn reconcile(&self, holds: bool, what: impl FnOnce() -> String) {
        if !self.args.quick {
            self.checks
                .attempt("layer reconciliation", || self.checks.verify(holds, what));
        }
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(
        &self,
        setup_s: &[f64],
        measured: &Measured,
        ops_per_batch: usize,
        compressed_bytes_per_op: f64,
    ) -> Vec<Metric> {
        let per_batch = |f: &dyn Fn(&Batch) -> f64| {
            Summary::of(&measured.plain.iter().map(f).collect::<Vec<_>>())
        };
        vec![
            Metric::new(
                spec::REQ_PER_S,
                per_batch(&|b| ops_per_batch as f64 / b.wall_s),
            ),
            Metric::new(spec::OP_P50_MS, per_batch(&|b| b.op_p50_ms)),
            exact(spec::COMPRESSED_BYTES_PER_OP, compressed_bytes_per_op),
            exact(spec::PEAK_RSS_MB, crate::env::peak_rss_mb()),
            sampled(spec::SETUP_S, setup_s),
        ]
    }

    /// Every per-layer metric in the order of the spec: the measured ones,
    /// and 0 for a layer this workload does not cross.
    pub fn per_layer(&self, mut measured: Vec<Metric>) -> Vec<Metric> {
        let all = PER_LAYER.iter().map(|p| {
            let found = measured.iter().position(|m| m.name == p.name);
            found.map_or(exact(p.name, 0.0), |at| measured.swap_remove(at))
        });
        let all = all.collect();
        let unknown: Vec<_> = measured.iter().map(|m| m.name).collect();
        assert!(unknown.is_empty(), "not in the spec: {unknown:?}");
        all
    }
}

/// A metric summarised from samples.
pub fn sampled(name: &'static str, samples: &[f64]) -> Metric {
    Metric::new(name, Summary::of(samples))
}

/// A metric that is counted or computed.
pub fn exact(name: &'static str, value: f64) -> Metric {
    Metric::new(name, Summary::exact(value))
}

/// `count` S3D-like variables of `timesteps` frames.  Every run of `segment`
/// frames comes from a simulation of its own, seeded from `seed` and its
/// position: one simulation's luck with its ignition kernels then sets the
/// size of one block, not of the whole run, and sizes stay close from seed
/// to seed.  A segment is as long as the blocks the codec cuts, and blocks
/// are coded independently, so every block is still one coherent field.
pub fn s3d_variables(
    tracer: &Tracer,
    count: usize,
    [timesteps, height, width]: [usize; 3],
    segment: usize,
    seed: u64,
) -> Vec<Variable> {
    // The generator gives its variables different scales and sharpness;
    // cycle through the first four kinds.
    const KINDS: usize = 4;
    let spec = FieldSpec::new(KINDS, segment, height, width);
    tracer.span("datasets.generate", 0, || {
        (0..count)
            .map(|v| {
                let segments: Vec<Tensor> = (0..timesteps / segment)
                    .map(|s| {
                        let position = (v * timesteps + s) as u64;
                        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ position;
                        let mut simulation = generate(DatasetKind::S3d, &spec, seed);
                        simulation.variables.swap_remove(v % KINDS).frames
                    })
                    .collect();
                let frames = Tensor::concat(&segments.iter().collect::<Vec<_>>(), 0);
                Variable::new(format!("s3d-{v}"), frames)
            })
            .collect()
    })
}

/// Milliseconds `f` takes, and what it returns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Runs one workload and reports it.
pub fn run(args: Args) -> WorkloadReport {
    let ctx = Ctx {
        tracer: Tracer::new(args.trace),
        checks: Checks::new(args.inject_failure),
        args,
    };
    let metrics = match ctx.args.workload {
        spec::GLD_ENCODE => gld::encode(&ctx),
        spec::GLD_DECODE => gld::decode(&ctx),
        spec::SVC_CODEC => svc::codec(&ctx),
        spec::SVC_PING => svc::ping(&ctx),
        other => unreachable!("workload {other} was checked against the spec"),
    };
    let metrics = if ctx.args.trace {
        ctx.per_layer(metrics)
    } else {
        metrics
    };
    if ctx.args.trace {
        if let Some(dir) = &ctx.args.out_dir {
            let path = dir.join(format!("trace-{}.json", ctx.args.workload));
            let trace = ctx.tracer.to_json(ctx.args.workload, 20_000);
            std::fs::write(&path, trace.compact()).expect("write the trace file");
            eprintln!("[written] {}", path.display());
        }
        eprintln!("self time by layer (ms):");
        for (layer, ms) in ctx.tracer.self_ms_by_layer() {
            eprintln!("  {layer:<12} {ms:>12.3}");
        }
    }
    WorkloadReport {
        workload: ctx.args.workload,
        traced: ctx.args.trace,
        attempted: ctx.checks.attempted.load(Ordering::Relaxed),
        failed: ctx.checks.failed.load(Ordering::Relaxed),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(workload: &'static str, trace: bool, inject_failure: bool) -> Ctx {
        Ctx {
            tracer: Tracer::new(trace),
            checks: Checks::new(inject_failure),
            args: Args {
                workload,
                seed: 1,
                seconds: 0.0,
                trace,
                quick: true,
                inject_failure,
                out_dir: None,
            },
        }
    }

    #[test]
    fn a_panic_or_an_error_is_a_counted_failure() {
        let checks = Checks::new(false);
        assert_eq!(checks.attempt("ok", || Ok(3)), Some(3));
        assert_eq!(checks.attempt::<u8>("err", || Err("typed".into())), None);
        assert_eq!(checks.attempt::<u8>("panic", || panic!("boom")), None);
        assert_eq!(checks.attempted.load(Ordering::Relaxed), 3);
        assert_eq!(checks.failed.load(Ordering::Relaxed), 2);
        assert!(checks.verify(true, || "fine".into()).is_ok());
        assert!(checks.verify(false, || "bad".into()).is_err());
        assert!(Checks::new(true)
            .verify(true, || "injected".into())
            .is_err());
    }

    #[test]
    fn a_traced_run_warms_up_then_records_every_other_batch() {
        let ctx = ctx(spec::SVC_PING, true, false);
        let mut seen = Vec::new();
        let (state, setup_s, measured) = ctx.epochs(
            5,
            2,
            || 7,
            |state, turn| {
                seen.push((turn.index, turn.warm_up, ctx.tracer.enabled()));
                Batch::new(*state as f64 + turn.index as f64, &[turn.index as f64])
            },
        );
        assert_eq!((state, setup_s.len()), (7, 1));
        assert_eq!(
            seen,
            [
                (1, true, false),
                (2, false, false),
                (3, false, true),
                (4, false, false),
                (5, false, true)
            ]
        );
        assert_eq!((measured.plain.len(), measured.traced.len()), (2, 2));
        // Recorded batches took 10 and 12, plain ones 9 and 11.
        assert_eq!(measured.trace_overhead_frac(), 11.0 / 10.0 - 1.0);
        assert_eq!(measured.plain[1].op_p50_ms, 4.0);
        assert_eq!(Batch::new(1.0, &[]).op_p50_ms, 0.0);
    }

    #[test]
    fn an_untraced_run_measures_after_each_of_the_last_set_ups() {
        let ctx = ctx(spec::SVC_PING, false, false);
        let mut set_ups = 0;
        let mut warm_ups = Vec::new();
        let (_, setup_s, measured) = ctx.epochs(
            5,
            3,
            || {
                set_ups += 1;
                set_ups
            },
            |state, turn| {
                if turn.warm_up {
                    warm_ups.push(*state);
                }
                Batch::new(1.0, &[1.0])
            },
        );
        assert_eq!(setup_s.len(), 5);
        assert_eq!(warm_ups, [3, 4, 5]);
        assert_eq!((measured.plain.len(), measured.traced.len()), (3, 0));
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_once() {
        let ctx = ctx(spec::SVC_PING, true, false);
        let metrics = ctx.per_layer(vec![exact("service.rejected", 2.0)]);
        let names: Vec<_> = metrics.iter().map(|m| m.name).collect();
        let spec_names: Vec<_> = PER_LAYER.iter().map(|p| p.name).collect();
        assert_eq!(names, spec_names);
        let rejected = metrics.iter().find(|m| m.name == "service.rejected");
        assert_eq!(rejected.unwrap().summary.median, 2.0);
    }

    /// The `--quick` profile: all four workloads, untraced and traced,
    /// through the same code paths with tiny counts.
    #[test]
    fn quick_profile_runs_every_workload_without_a_failure() {
        for workload in spec::WORKLOADS {
            for trace in [false, true] {
                let report = run(ctx(workload.name, trace, false).args);
                assert_eq!(report.failed, 0, "{} trace={trace}", workload.name);
                assert!(report.attempted > 0);
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(report.metrics.len(), expected);
                if !trace {
                    for m in &report.metrics {
                        assert!(m.summary.median > 0.0, "{} is zero", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn an_injected_failure_is_counted() {
        let report = run(ctx(spec::SVC_PING, false, true).args);
        assert!(report.failed > 0);
        assert!(report.result_line().starts_with(r#"{"correct":false"#));
    }
}
