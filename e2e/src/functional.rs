//! The three functional workloads: a whole MapReduce job — input in
//! HDFS, map(+combine) tasks on GPU and CPU slots, shuffle, reduce,
//! output persisted — through `run_functional_job_pooled`.

use crate::decor::{Snap, TimedApp};
use crate::json::Value;
use crate::metrics::Metrics;
use crate::spans::{SpanLog, Totals};
use crate::staged::Tally;
use crate::verify::{self, Fnv, Pairs};
use crate::workloads::{Mode, Rep, Workload};
use crate::{hostspeed, probes, staged};
use hetero_apps::App;
use hetero_gpusim::Device;
use hetero_runtime::OptFlags;
use hetero_trace::Tracer;
use heterodoop::{run_functional_job_pooled, CompiledApp, FunctionalJob, ParallelRunner, Preset};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

struct Shape {
    /// Table 2 code of the benchmark.
    code: &'static str,
    /// Run the annotated C sources through `CompiledApp` (the default
    /// engine, whatever that is at this commit) instead of the
    /// hand-written Rust mapper/combiner.
    from_c: bool,
    /// Input records at full size.
    records: usize,
    /// Every `gpu_every`-th map task runs on the GPU.
    gpu_every: usize,
    /// Worker-pool width wanted; the host may have fewer cores.
    width: usize,
    /// Also run one rep under `Tracer::new()` in the traced run, to
    /// price hetero-trace's simulated-time tracer.
    sim_tracer_rep: bool,
}

fn shape(name: &str) -> Shape {
    match name {
        "wc_c_mixed" => Shape {
            code: "WC",
            from_c: true,
            records: 200_000,
            gpu_every: 2,
            width: 2,
            sim_tracer_rep: true,
        },
        "bs_c_gpu" => Shape {
            code: "BS",
            from_c: true,
            records: 14_000,
            gpu_every: 1,
            width: 1,
            sim_tracer_rep: false,
        },
        "wc_rust_gpu" => Shape {
            code: "WC",
            from_c: false,
            records: 225_000,
            gpu_every: 1,
            width: 1,
            sim_tracer_rep: false,
        },
        other => unreachable!("{other} is not a functional workload"),
    }
}

enum Reference {
    WordTotals(HashMap<Vec<u8>, i64>),
    OptionPrices(HashMap<u64, f64>),
}

pub struct Functional {
    shape: Shape,
    preset: Preset,
    app: Box<dyn App>,
    input: Vec<u8>,
    records: u64,
    pool: ParallelRunner,
    datagen_s: f64,
    /// Launches of the gpusim probe grid (scaled down in smoke mode).
    probe_launches: u32,
    /// Built on first use, after the first rep's wall has been taken, so
    /// that neither `setup_s` nor a rep pays for the benchmark's own
    /// reference.
    reference: OnceCell<Reference>,
}

impl Functional {
    pub fn setup(name: &str, seed: u64, mode: Mode) -> Self {
        let shape = shape(name);
        let preset = Preset::cluster1();
        let records = mode.scale(shape.records, 2_000);
        let base = hetero_apps::app_by_code(shape.code).expect("Table 2 code");

        let t = Instant::now();
        let input = base.generate_split(records, seed);
        let datagen_s = t.elapsed().as_secs_f64();

        let app: Box<dyn App> = if shape.from_c {
            Box::new(CompiledApp::new(base).expect("benchmark sources compile"))
        } else {
            base
        };
        // Backend construction, as a job pays it once per user function.
        black_box(app.mapper());
        black_box(app.combiner());
        // Staging the input, as a user loading the data set would.
        staged::hdfs_for(&preset)
            .put("/job/input", &input)
            .expect("fresh fs");

        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Functional {
            pool: ParallelRunner::new(shape.width.min(cores)),
            shape,
            preset,
            app,
            input,
            records: records as u64,
            datagen_s,
            probe_launches: mode.scale(256, 8) as u32,
            reference: OnceCell::new(),
        }
    }

    fn run_job(
        &self,
        app: &dyn App,
        dev: &Device,
        tracer: &Tracer,
    ) -> Result<FunctionalJob, String> {
        run_functional_job_pooled(
            app,
            &self.preset,
            &self.input,
            self.shape.gpu_every,
            OptFlags::all(),
            dev,
            tracer,
            &self.pool,
        )
        .map_err(|e| format!("functional job failed: {e}"))
    }

    /// Records whose output is wrong against the independent reference.
    fn failed_records(&self, output: &[Pairs]) -> u64 {
        let reference = self.reference.get_or_init(|| match self.shape.code {
            "WC" => Reference::WordTotals(verify::wc_reference(&self.input)),
            _ => Reference::OptionPrices(verify::bs_reference(&self.input)),
        });
        let wrong = match reference {
            Reference::WordTotals(want) => verify::wc_miscounted(output, want),
            Reference::OptionPrices(want) => verify::bs_mispriced(output, want),
        };
        wrong.min(self.records)
    }

    fn checked(&self, (wall_s, ref_s): (f64, f64), job: &FunctionalJob, dev: &Device) -> Rep {
        let mut h = Fnv::new();
        h.bytes(format!("{:?}", dev.totals()).as_bytes());
        let (h2d, d2h) = dev.transfer_bytes();
        Rep {
            wall_s,
            ref_s,
            units: self.records,
            failed: self.failed_records(&job.output),
            sim_fingerprint: format!(
                "out={:016x} task_s={:016x} maps={} gpu={} fallbacks={} kernels={} dev_s={:016x} \
                 h2d={h2d} d2h={d2h} counters={:016x}",
                verify::output_hash(&job.output),
                job.task_seconds.to_bits(),
                job.map_tasks,
                job.gpu_tasks,
                job.gpu_fallbacks,
                dev.kernels_launched(),
                dev.sim_time_s().to_bits(),
                h.finish(),
            ),
        }
    }
}

impl Functional {
    /// One more rep under `Tracer::new()`: what hetero-trace's own
    /// simulated-time tracer costs, and that it only observes.
    fn sim_tracer_rep(
        &self,
        log: &mut SpanLog,
        m: &mut Metrics,
        job: &FunctionalJob,
        untraced_ref_s: f64,
    ) -> Result<(), String> {
        let tracer = Tracer::new();
        let dev = Device::new(self.preset.gpu.clone());
        let t = hostspeed::timed(self.pool.threads(), || {
            log.scope("trace.sim_tracer_rep", "hetero-trace", |_| {
                self.run_job(self.app.as_ref(), &dev, &tracer)
            })
        });
        let traced = t.out.1?;
        if traced.output != job.output
            || traced.task_seconds.to_bits() != job.task_seconds.to_bits()
        {
            return Err("Tracer::new() changed the job's simulated results".to_string());
        }
        m.set(
            "trace.sim_tracer_overhead_share",
            t.ref_s / untraced_ref_s - 1.0,
        );
        m.set(
            "trace.chrome_json_bytes",
            tracer.to_chrome_json().len() as f64,
        );
        Ok(())
    }
}

/// The `cc.*` engine numbers, from what the decorators accumulated over
/// the real job. Busy time is summed over the pool's threads, so the
/// share is of the `thread_s` thread-seconds the job had, not of its
/// wall.
fn engine_metrics(m: &mut Metrics, busy: &Snap, thread_s: f64) {
    m.set("cc.map_busy_s", busy.map_ns as f64 * 1e-9);
    m.set("cc.map_calls", busy.map_calls as f64);
    m.set(
        "cc.map_ns_per_record",
        busy.map_ns as f64 / busy.map_calls.max(1) as f64,
    );
    m.set("cc.combine_busy_s", busy.combine_ns as f64 * 1e-9);
    m.set("cc.combine_calls", busy.combine_calls as f64);
    m.set("cc.charged_alu", busy.alu as f64);
    m.set("cc.charged_sfu", busy.sfu as f64);
    m.set(
        "cc.ns_per_charged_op",
        (busy.map_ns + busy.combine_ns) as f64 / (busy.alu + busy.sfu).max(1) as f64,
    );
    m.set("cc.emitted_pairs", busy.map_pairs as f64);
    m.set(
        "cc.engine_share",
        (busy.map_ns + busy.combine_ns) as f64 * 1e-9 / thread_s,
    );
    m.set("apps.reduce_busy_s", busy.reduce_ns as f64 * 1e-9);
}

/// The `gpusim.*` counts of the real job's device (drains its kernel log).
fn device_metrics(m: &mut Metrics, dev: &Device) {
    let totals = dev.totals();
    let (h2d, d2h) = dev.transfer_bytes();
    m.set("gpusim.kernels_launched", dev.kernels_launched() as f64);
    m.set(
        "gpusim.sim_cycles",
        dev.take_kernel_log().iter().map(|e| e.stats.cycles).sum(),
    );
    m.set("gpusim.dram_bytes", totals.dram_bytes as f64);
    m.set("gpusim.divergent_lanes", totals.divergent_lanes as f64);
    m.set("gpusim.h2d_bytes", h2d as f64);
    m.set("gpusim.d2h_bytes", d2h as f64);
}

/// The `runtime.*`, `hdfs.*` and `core.*` numbers the staged replay's
/// spans and tally give.
fn replay_metrics(
    m: &mut Metrics,
    spans: &BTreeMap<&'static str, Totals>,
    tally: &Tally,
    thread_s: f64,
) {
    let get = |name: &str| spans.get(name).copied().unwrap_or_default();
    m.set("runtime.locate_s", get("runtime.locate").dur_s);
    m.set("runtime.map_s", get("runtime.map").dur_s);
    m.set("runtime.map_self_s", get("runtime.map").self_s);
    m.set("runtime.aggregate_s", get("runtime.aggregate").dur_s);
    m.set("runtime.sort_s", get("runtime.sort").dur_s);
    m.set("runtime.combine_s", get("runtime.combine").dur_s);
    m.set("runtime.combine_self_s", get("runtime.combine").self_s);
    m.set("runtime.cpu_task_s", get("runtime.cpu_task").dur_s);
    m.set("runtime.cpu_task_self_s", get("runtime.cpu_task").self_s);
    m.set("runtime.reduce_s", get("runtime.reduce").dur_s);
    m.set("runtime.records", tally.records as f64);
    m.set("runtime.pairs_sorted", tally.pairs_sorted as f64);
    m.set("runtime.pairs_out", tally.pairs_out as f64);
    m.set(
        "runtime.kv_occupancy",
        tally.kv_occupancy_sum / tally.gpu_tasks.max(1) as f64,
    );
    m.set(
        "hdfs.put_s",
        get("hdfs.put").dur_s + get("hdfs.put_output").dur_s,
    );
    m.set("hdfs.read_s", get("hdfs.read").dur_s);
    m.set("hdfs.bytes_in", tally.bytes_in as f64);
    m.set("hdfs.bytes_out", tally.bytes_out as f64);
    m.set("hdfs.splits", tally.splits as f64);
    m.set("core.glue_s", get("staged.replay").self_s);
    // Serial task work (from the replay) over the thread-seconds the
    // real job had: 1 = perfect overlap and no glue.
    let task_work_s =
        get("runtime.gpu_task").dur_s + get("runtime.cpu_task").dur_s + get("runtime.reduce").dur_s;
    m.set("core.pool_efficiency", task_work_s / thread_s);
}

impl Workload for Functional {
    fn units(&self) -> u64 {
        self.records
    }

    fn sizes(&self) -> Value {
        Value::obj()
            .with("benchmark", self.shape.code)
            .with(
                "source",
                if self.shape.from_c {
                    "annotated C via CompiledApp::new"
                } else {
                    "hand-written Rust"
                },
            )
            .with("records", self.records)
            .with("input_bytes", self.input.len())
            .with("gpu_every", self.shape.gpu_every)
            .with("pool_width", self.pool.threads())
    }

    fn setup_metrics(&self, m: &mut Metrics) {
        m.set("apps.datagen_s", self.datagen_s);
        m.set("apps.input_bytes", self.input.len() as f64);
    }

    fn rep(&self) -> Result<Rep, String> {
        let dev = Device::new(self.preset.gpu.clone());
        let t = hostspeed::timed(self.pool.threads(), || {
            self.run_job(self.app.as_ref(), &dev, &Tracer::off())
        });
        Ok(self.checked((t.wall_s, t.ref_s), &t.out?, &dev))
    }

    fn traced_rep(
        &self,
        log: &mut SpanLog,
        m: &mut Metrics,
        untraced_ref_s: f64,
    ) -> Result<Rep, String> {
        let width = self.pool.threads() as f64;

        // (i) The real job, its user functions behind timing decorators.
        let timed = TimedApp::new(self.app.as_ref());
        let dev = Device::new(self.preset.gpu.clone());
        dev.enable_kernel_log();
        let t = hostspeed::timed(self.pool.threads(), || {
            log.scope("core.job", "heterodoop", |_| {
                self.run_job(&timed, &dev, &Tracer::off())
            })
        });
        let (job_span, job) = t.out;
        let job_walls = (t.wall_s, t.ref_s);
        let busy = timed.acc().snap();
        staged::busy_children(log, job_span, timed.acc(), Default::default());
        let job = job?;
        let job_s = log.spans()[job_span as usize].dur_ns() as f64 * 1e-9;

        engine_metrics(m, &busy, job_s * width);
        let totals = dev.totals();
        device_metrics(m, &dev);
        m.set("core.job_s", job_s);
        m.set("core.pool_width", width);
        m.set("core.sim_task_s", job.task_seconds);
        m.set("core.host_s_per_sim_s", job_s / job.task_seconds);

        // (ii) The same job replayed stage by stage.
        let staged_app = TimedApp::new(self.app.as_ref());
        let staged_dev = Device::new(self.preset.gpu.clone());
        let replay = staged::replay(
            log,
            &staged_app,
            staged_app.acc(),
            &self.preset,
            &self.input,
            self.shape.gpu_every,
            &staged_dev,
        )
        .map_err(|e| format!("staged replay failed: {e}"))?;

        let (_, parity) = log.scope("staged.parity", "e2e", |_| {
            staged::check_parity(
                self.app.as_ref(),
                &self.preset,
                &self.input,
                &staged_dev,
                &replay.tasks,
            )
        });
        parity?;

        let (_, rep) = log.scope("e2e.verify", "e2e", |_| {
            if replay.output != job.output {
                return Err("staged replay output differs from the real job's".to_string());
            }
            if replay.task_seconds.to_bits() != job.task_seconds.to_bits()
                || staged_dev.totals() != totals
                || staged_dev.kernels_launched() != dev.kernels_launched()
            {
                return Err("staged replay's simulated totals differ from the real job's".into());
            }
            probes::seqfile_round_trip(&job.output, m)?;
            Ok(self.checked(job_walls, &job, &dev))
        });
        let rep = rep?;

        replay_metrics(m, &log.totals(), &replay.tally, job_s * width);

        if self.shape.from_c {
            log.scope("probe.cc_front_end", "hetero-cc", |_| {
                probes::cc_front_end(self.app.as_ref(), m);
            });
        }
        log.scope("probe.gpusim_launch_grid", "hetero-gpusim", |_| {
            probes::gpusim_launch_grid(self.probe_launches, m);
        });

        if self.shape.sim_tracer_rep {
            self.sim_tracer_rep(log, m, &job, untraced_ref_s)?;
        }
        Ok(rep)
    }
}
