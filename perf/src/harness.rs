//! The measurement loop: one workload per process, single-threaded, closed
//! loop (one simulation at a time). A run is a few extra set-ups, one
//! warm-up repetition, then timed repetitions for the requested seconds;
//! each repetition is a fresh simulation from the same generated inputs.
//! A traced run adds one repetition with spans on and the layer probes.
//! Every time reported is scaled to a reference machine speed (see `Speed`).

use crate::adapter::{self, Env, Observed};
use crate::json::Json;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Inputs};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds of timed repetitions (halved in a traced run, which also
    /// pays for the traced repetition and the probes).
    pub seconds: f64,
    /// Exactly this many timed repetitions instead of `seconds`.
    pub reps: Option<usize>,
    pub trace: bool,
    pub env: Env,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Timed repetitions a run never goes below, whatever `seconds` says.
const MIN_REPS: usize = 3;
/// `setup_s` is the median over this many batches of the mean set-up time
/// within a batch. Most set-ups take microseconds, too short to time one at
/// a time, so a batch holds as many as fill `SETUP_BATCH_S`.
const SETUP_BATCHES: usize = 15;
const SETUP_BATCH_S: f64 = 0.005;
const SETUP_BATCH_MAX: usize = 5000;
/// Samples per layer probe; the median is reported.
const PROBE_SAMPLES: usize = 3;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
    pub exact: bool,
}

pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(wall seconds, machine slowdown)` of each timed repetition, in
    /// order: the raw material of `host_s`, kept in result files.
    pub samples: Vec<(f64, f64)>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `metrics` as a JSON object: value and unit, plus spread, sample count
    /// and exactness when `full`.
    fn metrics_json(&self, full: bool) -> Json {
        let encode = |m: &Metric| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ];
            if full {
                fields.push(("iqr".to_string(), Json::Num(m.iqr)));
                fields.push(("n".to_string(), Json::Num(m.n as f64)));
                fields.push(("exact".to_string(), Json::Bool(m.exact)));
            }
            (m.name.clone(), Json::Obj(fields))
        };
        Json::Obj(self.metrics.iter().map(encode).collect())
    }

    /// The result line the benchmark contract asks for.
    pub fn contract_line(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(false)),
        ])
    }

    /// The full record kept in result files: spread and sample counts too.
    pub fn to_json(&self) -> Json {
        let column = |f: fn(&(f64, f64)) -> f64| {
            Json::Arr(self.samples.iter().map(|s| Json::Num(f(s))).collect())
        };
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("trace".into(), Json::Bool(self.trace)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("error_rate".into(), Json::Num(self.error_rate())),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".into(), self.metrics_json(true)),
            ("wall_s".into(), column(|s| s.0)),
            ("slowdown".into(), column(|s| s.1)),
        ])
    }

    /// Every metric by name with unit, median, IQR and sample count.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {}: {} repetition(s) attempted, {} failed, error_rate {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            self.error_rate()
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        for m in &self.metrics {
            println!(
                "  {:<34} {:>18} {:<6} iqr {:<12} n {}",
                m.name,
                format_value(m.value),
                m.unit,
                format_value(m.iqr),
                m.n
            );
        }
    }
}

pub fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else if v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.6}")
    }
}

/// One repetition: set-up, then the timed run call, then the checks.
struct Rep {
    /// Wall seconds of the run call through result collection.
    wall_s: f64,
    /// Machine slowdown measured around this repetition (part by part, if
    /// the run has parts).
    slowdown: f64,
    cpu_s: f64,
    wait_s: f64,
    observed: Observed,
}

impl Rep {
    /// `wall_s` at reference machine speed: what `host_s` is made of.
    fn host_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Machine-speed normalisation. On a shared machine the same instructions
/// take 20 to 60 % longer for seconds to minutes at a time (a busy sibling
/// hyperthread, frequency changes, a neighbour filling the shared cache),
/// which no statistic over one run's repetitions removes. So a fixed kernel
/// of this program's own is timed before and after everything that is
/// timed (`KERNEL_RUNS` times in a row; the median is the sample, so one
/// execution that was interrupted does not count), and every reported time
/// is divided by `kernel seconds / REFERENCE_KERNEL_S`. Times are thus seconds at the speed at which the
/// kernel takes `REFERENCE_KERNEL_S`: about the quiet speed of the machine
/// the README's baseline was measured on. Both sides of a comparison are
/// scaled the same way, by code that product changes do not touch.
///
/// The kernel has two phases because the machine slows down in two ways
/// that the workloads feel in different proportions: about two thirds of
/// its time goes to what the simulator's event loop does (a binary heap,
/// small boxed allocations; all in the first-level cache), one third to
/// scattered reads and writes over 8 MiB (cache and memory contention).
/// Over 40 simulated runs each, scaling by the first phase alone cut the
/// spread of the run medians from 8.4 % to 4.0 % (`particle_match`) and from
/// 8.1 % to 5.2 % (`halo_p2p`); a 60-70 % / 30-40 % mix cut it to 2.9 % and 3.1 %.
struct Speed {
    table: Vec<u64>,
    last_kernel_s: f64,
}

const REFERENCE_KERNEL_S: f64 = 0.020;
const KERNEL_RUNS: usize = 3;
/// The machine changes speed within a second or two, so a run that says
/// where its independent parts end (see [`adapter::RunFn`]) has each part
/// scaled by the samples just before and just after it. A part shorter than
/// this is not worth a sample of its own and counts with the next one.
const MIN_PART_S: f64 = 0.1;
const KERNEL_HEAP_STEPS: usize = 420_000;
const KERNEL_TABLE_WORDS: usize = 1 << 20;
const KERNEL_TABLE_STEPS: usize = 1_200_000;

fn kernel_s(table: &mut [u64]) -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::hint::black_box;
    let lcg = |x: u64| {
        x.wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
    };
    let started = Instant::now();
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..KERNEL_HEAP_STEPS {
        x = lcg(x);
        heap.push(Reverse(x >> 20));
        if heap.len() > 2048 {
            acc ^= heap.pop().map_or(0, |r| r.0);
        }
        let boxed: Box<[u64; 4]> = Box::new([x; 4]);
        acc ^= black_box(boxed)[i & 3];
    }
    for _ in 0..KERNEL_TABLE_STEPS {
        x = lcg(x);
        let slot = &mut table[(x >> 40) as usize % KERNEL_TABLE_WORDS];
        acc = acc.wrapping_add(*slot);
        *slot = acc ^ x;
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

impl Speed {
    fn new() -> Speed {
        let mut table = vec![1u64; KERNEL_TABLE_WORDS];
        // Once untimed, so the table's pages are resident before it counts.
        kernel_s(&mut table);
        let mut speed = Speed {
            table,
            last_kernel_s: 0.0,
        };
        speed.sample();
        speed
    }

    /// Time the kernel now. Returns the machine slowdown since the sample
    /// before (1 = reference speed, 1.3 = everything takes 30 % longer): the
    /// mean of that sample and this one.
    fn sample(&mut self) -> f64 {
        let runs: Vec<f64> = (0..KERNEL_RUNS)
            .map(|_| kernel_s(&mut self.table))
            .collect();
        let before = std::mem::replace(&mut self.last_kernel_s, summarize(&runs).median);
        (before + self.last_kernel_s) / 2.0 / REFERENCE_KERNEL_S
    }

    /// Run `f`; return its result and the machine slowdown around it.
    fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let out = f();
        (out, self.sample())
    }
}

/// The clock of one repetition's timed region, part by part.
struct PartClock<'a> {
    speed: &'a mut Speed,
    part_started: Instant,
    /// Wall seconds of the parts closed so far, and the same at reference
    /// machine speed.
    wall_s: f64,
    host_s: f64,
}

impl<'a> PartClock<'a> {
    fn start(speed: &'a mut Speed) -> PartClock<'a> {
        PartClock {
            speed,
            part_started: Instant::now(),
            wall_s: 0.0,
            host_s: 0.0,
        }
    }

    /// A part of the run ends here. The speed sample belongs to no part.
    fn lap(&mut self) {
        let part_s = self.part_started.elapsed().as_secs_f64();
        if part_s < MIN_PART_S {
            return;
        }
        self.wall_s += part_s;
        self.host_s += part_s / self.speed.sample();
        self.part_started = Instant::now();
    }

    /// The run ended: `(wall seconds, machine slowdown)` of the whole.
    fn stop(mut self) -> (f64, f64) {
        let tail_s = self.part_started.elapsed().as_secs_f64();
        // A short tail after a lap is scaled by the sample taken at the lap.
        let slowdown = if tail_s < MIN_PART_S && self.wall_s > 0.0 {
            self.speed.last_kernel_s / REFERENCE_KERNEL_S
        } else {
            self.speed.sample()
        };
        self.wall_s += tail_s;
        self.host_s += tail_s / slowdown;
        (self.wall_s, self.wall_s / self.host_s)
    }
}

/// A repetition's set-up: seed to inputs, then everything `adapter::prepare`
/// builds before the run call.
fn set_up(opts: &Options, tr: &mut Tracer) -> (Inputs, adapter::RunFn) {
    let inputs = workloads::inputs(&opts.workload, opts.seed)
        .expect("the workload name was checked on entry");
    let run = adapter::prepare(&inputs, &opts.env, tr);
    (inputs, run)
}

/// Mean seconds of one set-up, per batch (see `SETUP_BATCHES`).
fn setup_samples(opts: &Options) -> Vec<f64> {
    let mut off = Tracer::off();
    let mut batch = |n: usize| {
        let t = Instant::now();
        for _ in 0..n {
            drop(std::hint::black_box(set_up(opts, &mut off)));
        }
        t.elapsed().as_secs_f64() / n as f64
    };
    let first = batch(1);
    let per_batch = ((SETUP_BATCH_S / first.max(1e-9)).ceil() as usize).clamp(1, SETUP_BATCH_MAX);
    (0..SETUP_BATCHES).map(|_| batch(per_batch)).collect()
}

fn repetition(opts: &Options, speed: &mut Speed, tr: &mut Tracer) -> Rep {
    let (inputs, run) = tr.span("setup", |tr| set_up(opts, tr));
    let children = matches!(inputs, Inputs::ReproQuick);
    let before = cpu_clock(children);
    let mut clock = PartClock::start(speed);
    // A panic in the product (a deadlock diagnostic, a broken invariant)
    // is a failed repetition, not a failed benchmark.
    let observed = catch_unwind(AssertUnwindSafe(|| {
        tr.span("run", |tr| run(tr, &mut || clock.lap()))
    }))
    .unwrap_or_else(|p| Observed::failed(format!("the run panicked: {}", panic_message(&p))));
    // Read before `stop`, whose speed sample is this process's CPU time too.
    let after = cpu_clock(children);
    let (wall_s, slowdown) = clock.stop();
    let cpu_s = after.0 - before.0;
    Rep {
        wall_s,
        slowdown,
        cpu_s,
        // A child's run-queue wait is not visible from here; for it, wall
        // time the child did not spend on a CPU stands in.
        wait_s: if children {
            (wall_s - cpu_s).max(0.0)
        } else {
            after.1 - before.1
        },
        observed,
    }
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "(no message)".into())
}

pub fn measure(opts: &Options) -> Result<Record, String> {
    let inputs = workloads::inputs(&opts.workload, opts.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of: {})",
            opts.workload,
            workloads::NAMES.join(", ")
        )
    })?;
    std::fs::create_dir_all(&opts.env.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.env.work_dir.display()))?;

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    if let Inputs::CkptRecover(w) = &inputs {
        // The closed form must be what the product computes with no fault
        // at all; only then does a mismatch after recovery blame recovery.
        attempted += 1;
        let reference = adapter::ckpt_reference(w);
        if (0..w.ranks).any(|r| reference.get(r) != Some(&w.expected(r))) {
            failed += 1;
            failures.push("the fault-free reference differs from the closed-form results".into());
        }
    }

    let mut speed = Speed::new();
    let (samples, slowdown) = speed.around(|| setup_samples(opts));
    let setup = summarize(&samples.iter().map(|s| s / slowdown).collect::<Vec<_>>());
    let mut off = Tracer::off();

    // The first repetition warms caches and the allocator and fixes the
    // fingerprint every later one must reproduce.
    let mut baseline: Option<u64> = None;
    let mut check = |rep: &Rep, what: &str, failures: &mut Vec<String>| -> bool {
        let obs = &rep.observed;
        let repeats = obs
            .fingerprint
            .is_none_or(|fp| *baseline.get_or_insert(fp) == fp);
        if !obs.ok {
            failures.push(format!("{what}: {}", obs.detail));
        } else if !repeats {
            failures.push(format!(
                "{what}: events, virtual time or results differ from the first repetition"
            ));
        }
        obs.ok && repeats
    };

    let warm = repetition(opts, &mut speed, &mut off);
    attempted += 1;
    failed += u64::from(!check(&warm, "warm-up", &mut failures));

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let done = match opts.reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= budget,
        };
        if done {
            break;
        }
        let rep = repetition(opts, &mut speed, &mut off);
        attempted += 1;
        failed += u64::from(!check(
            &rep,
            &format!("repetition {}", reps.len() + 1),
            &mut failures,
        ));
        reps.push(rep);
    }

    let host = summarize(&reps.iter().map(Rep::host_s).collect::<Vec<_>>());

    let metrics = if opts.trace {
        let mut tr = Tracer::on();
        let traced = repetition(opts, &mut speed, &mut tr);
        attempted += 1;
        failed += u64::from(!check(&traced, "traced repetition", &mut failures));
        let layers = layer_metrics(&inputs, &reps, host, &traced, &tr, &mut speed);
        if let Some(path) = &opts.trace_out {
            let doc = Json::Obj(vec![
                ("workload".into(), Json::Str(opts.workload.clone())),
                ("seed".into(), Json::Num(opts.seed as f64)),
                ("slowdown".into(), Json::Num(traced.slowdown)),
                ("spans".into(), tr.to_json()),
            ]);
            std::fs::write(path, format!("{doc}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        layers
    } else {
        let rss = peak_rss_mb(matches!(inputs, Inputs::ReproQuick))?;
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let s = match name {
                    "host_s" => host,
                    "setup_s" => setup,
                    "peak_rss_mb" => Summary {
                        median: rss,
                        iqr: 0.0,
                        n: 1,
                    },
                    other => unreachable!("end-to-end metric `{other}` has no source"),
                };
                Metric {
                    name: name.to_string(),
                    unit,
                    value: s.median,
                    iqr: s.iqr,
                    n: s.n,
                    exact: false,
                }
            })
            .collect()
    };

    Ok(Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        failures,
        metrics,
        samples: reps.iter().map(|r| (r.wall_s, r.slowdown)).collect(),
    })
}

fn layer_metrics(
    inputs: &Inputs,
    reps: &[Rep],
    host: Summary,
    traced: &Rep,
    tr: &Tracer,
    speed: &mut Speed,
) -> Vec<Metric> {
    // Every declared metric starts at 0: what a workload cannot expose.
    let mut v: BTreeMap<&str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = spec::layer(name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"));
        v.insert(slot.name, value);
    };
    let median = |f: fn(&Rep) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>()).median;

    // Counts repeat exactly, so the last timed repetition's stand for all
    // when the traced one has none of its own (`repro_quick`).
    let counts = if traced.observed.counts.is_empty() {
        &reps[reps.len() - 1].observed.counts
    } else {
        &traced.observed.counts
    };
    for &(name, value) in counts {
        set(name, value);
    }

    set("harness.reps", reps.len() as f64);
    set("harness.host_s_iqr", host.iqr);
    set("harness.wall_s", median(|r| r.wall_s));
    set("harness.slowdown", median(|r| r.slowdown));
    set("harness.cpu_s", median(|r| r.cpu_s));
    set("harness.runq_wait_s", median(|r| r.wait_s));
    set(
        "harness.trace_overhead_pct",
        (traced.host_s() - host.median) / host.median * 100.0,
    );

    let analytic = inputs.analytic();
    set("mpi-api.ranks", analytic.ranks as f64);
    set("mpi-api.calls", analytic.calls as f64);
    set("mpi-api.handoffs", analytic.handoffs as f64);
    set("softfloat.reduce_elems", analytic.reduce_elems as f64);

    for (span, metric) in [
        ("core.run", "core.run_s"),
        ("quadrics-mpi.run", "quadrics-mpi.run_s"),
    ] {
        if tr.total_s(span) > 0.0 {
            set(metric, tr.total_s(span) / traced.slowdown);
        }
    }
    for (name, secs) in tr.with_prefix("bench.exp_s.") {
        set(name, secs / traced.slowdown);
    }

    let (probes, slowdown) = speed.around(|| {
        adapter::probes().map(|(metric, sample)| {
            let samples: Vec<f64> = (0..PROBE_SAMPLES).map(|_| sample()).collect();
            (metric, summarize(&samples).median)
        })
    });
    for (metric, value) in probes {
        set(metric, value / slowdown);
    }

    // Derived figures read back what was set above.
    let events = v["simcore.events"];
    if events > 0.0 {
        v.insert("simcore.events_per_s", events / host.median);
        v.insert("simcore.ns_per_event", host.median * 1e9 / events);
    }
    if v["core.slices"] > 0.0 {
        v.insert(
            "core.replays_per_slice",
            v["core.sched_replays"] / v["core.slices"],
        );
    }

    // Outside-in attribution: each layer's exact count on this workload
    // times its probe's cost per operation, as a share of `host_s`. What no
    // layer's ceiling explains (VM dispatch, DEM delivery, allocation) is
    // left over as `unattributed_share`.
    let host_ns = host.median * 1e9;
    let (get, multicast) = if matches!(inputs, Inputs::CollRdma(_)) {
        ("rdmanet.probe_ns_per_get", "rdmanet.probe_ns_per_multicast")
    } else {
        ("qsnet.probe_ns_per_get", "qsnet.probe_ns_per_multicast")
    };
    let shares = [
        (
            "simcore.est_share",
            events * v["simcore.probe_ns_per_event"],
        ),
        (
            "mpi-api.est_share",
            v["mpi-api.handoffs"] * v["mpi-api.probe_ns_per_handoff"],
        ),
        (
            "core.match_est_share",
            v["core.matches"] * v["core.probe_ns_per_match"],
        ),
        (
            "fabric.est_share",
            (v["fabric.puts"] + v["fabric.gets"]) * v[get] + v["fabric.multicasts"] * v[multicast],
        ),
        (
            "softfloat.est_share",
            v["softfloat.reduce_elems"] * v["softfloat.probe_ns_per_add"],
        ),
    ];
    let mut explained = 0.0;
    for (name, ns) in shares {
        v.insert(name, ns / host_ns);
        explained += ns / host_ns;
    }
    v.insert("unattributed_share", 1.0 - explained);
    assert_eq!(v.len(), PER_LAYER.len(), "a derived metric is not declared");

    PER_LAYER
        .iter()
        .map(|l| Metric {
            name: l.name.to_string(),
            unit: l.unit,
            value: v[l.name],
            iqr: 0.0,
            n: 1,
            exact: l.exact,
        })
        .collect()
}

// ----------------------------------------------------------------------
// What the operating system knows about this process and its children
// ----------------------------------------------------------------------

/// `(cpu seconds, run-queue wait seconds)` so far: of this process from
/// `/proc/self/schedstat`, or of its waited-for children from `getrusage`
/// (which has no wait figure; 0).
fn cpu_clock(children: bool) -> (f64, f64) {
    if children {
        return (rusage_children().map_or(0.0, |r| r.cpu_s), 0.0);
    }
    let text = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / 1e9);
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// Peak resident set in MB: this process's `VmHWM`, or the largest
/// `ru_maxrss` among waited-for children.
fn peak_rss_mb(children: bool) -> Result<f64, String> {
    if children {
        return rusage_children()
            .map(|r| r.max_rss_kb / 1024.0)
            .ok_or_else(|| "getrusage(RUSAGE_CHILDREN) failed".to_string());
    }
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct ChildUsage {
    cpu_s: f64,
    max_rss_kb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_children() -> Option<ChildUsage> {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
    // of which the first is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` points to writable memory of the size and layout the
    // C library's `struct rusage` has on this target (checked by the cfg
    // above), and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    // SAFETY: zero-initialised above, and filled in by a successful call.
    let u = unsafe { usage.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Some(ChildUsage {
        cpu_s: secs(&u.utime) + secs(&u.stime),
        max_rss_kb: u.maxrss as f64,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_children() -> Option<ChildUsage> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_operating_system_figures_are_readable() {
        assert!(peak_rss_mb(false).unwrap() > 0.0);
        let (cpu, wait) = cpu_clock(false);
        assert!(cpu >= 0.0 && wait >= 0.0);
        let status = std::process::Command::new("true").status().unwrap();
        assert!(status.success());
        assert!(peak_rss_mb(true).unwrap() > 0.0);
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let record = Record {
            workload: "w".into(),
            seed: 1,
            trace: false,
            attempted: 6,
            failed: 0,
            failures: vec![],
            samples: vec![(1.3, 1.04)],
            metrics: vec![Metric {
                name: "host_s".into(),
                unit: "s",
                value: 1.25,
                iqr: 0.01,
                n: 5,
                exact: false,
            }],
        };
        assert_eq!(
            record.contract_line().to_string(),
            "{\"correct\": true, \"attempted\": 6, \"failed\": 0, \
             \"metrics\": {\"host_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let full = record.to_json();
        assert_eq!(full.get("error_rate").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            full.get("metrics")
                .unwrap()
                .get("host_s")
                .unwrap()
                .get("n")
                .unwrap()
                .as_f64(),
            Some(5.0)
        );
    }
}
