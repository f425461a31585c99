//! Pieces every workload shares: options, metrics, checks, the trial
//! loop and the statistics taken over trials.

use std::path::Path;
use std::time::Instant;

use mp5_compiler::CompiledProgram;
use mp5_core::RunReport;
use mp5_traffic::FlowTraceBuilder;
use mp5_types::Packet;

use crate::trace::{SpanTotals, Tracer};

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A correctness check made outside the timed region.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// What one workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Packets offered over all measured trials.
    pub attempted: u64,
    /// Offered packets a check could not account for.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run). Per-layer metrics a workload does not produce are filled
    /// in as 0 by `main`.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end figures, printed for humans only.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a human-only figure.
    pub fn note(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.notes.push(Metric { name, unit, value });
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// The directory every file the benchmark writes goes to, created on
/// first use.
pub fn out_dir() -> &'static Path {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).expect("create .bench_out");
    dir
}

/// Counts the `mp5-fabric` layer (stage FIFOs, phantom channel,
/// crossbar) leaves in the run reports of `reports`' switches.
pub fn fabric_counts(out: &mut Outcome, reports: &[&RunReport]) {
    let phantoms: u64 = reports.iter().map(|r| r.phantoms_generated).sum();
    let wasted: u64 = reports.iter().map(|r| r.wasted_cycles).sum();
    let steered: u64 = reports.iter().map(|r| r.steered).sum();
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let max_q = reports.iter().map(|r| r.max_queue_depth).max().unwrap_or(0);
    out.metric("fabric.max_queue_depth", "count", max_q as f64);
    out.metric("fabric.phantoms", "count", phantoms as f64);
    out.metric("fabric.wasted_cycles", "count", wasted as f64);
    out.metric(
        "fabric.wasted_ratio",
        "ratio",
        if phantoms == 0 {
            0.0
        } else {
            wasted as f64 / phantoms as f64
        },
    );
    out.metric(
        "fabric.steered_per_pkt",
        "ratio",
        steered as f64 / completed.max(1) as f64,
    );
}

/// Median over traced trials of the summed duration of the spans called
/// `name` in each trial, in milliseconds (0 for a trial without one).
pub fn layer_ms(totals: &SpanTotals, name: &str) -> f64 {
    median(
        totals
            .values()
            .map(|m| m.get(name).map_or(0, |t| t.total_ns) as f64 / 1e6),
    )
}

/// Records the tracing overhead (untraced over traced throughput) and
/// the share of the traced trials' wall time that falls inside a layer
/// span: one minus the top-level `trial` spans' self time over their
/// duration.
pub fn tracing_metrics(out: &mut Outcome, totals: &SpanTotals, overhead: f64) {
    let (mut total, mut own) = (0u64, 0u64);
    for t in totals.values().filter_map(|m| m.get("trial")) {
        total += t.total_ns;
        own += t.self_ns;
    }
    out.metric("trace.overhead_x", "ratio", overhead);
    out.metric(
        "trace.attributed_share",
        "ratio",
        1.0 - own as f64 / total.max(1) as f64,
    );
}

/// Writes the traced run's spans under `.bench_out/`.
pub fn write_spans(tracer: &Tracer, o: &Opts) {
    let path = out_dir().join(format!("spans-{}.tsv", o.workload));
    if let Err(e) = tracer.write(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Traced trials per traced run. Every tick is a span, so a fixed
/// count keeps the span file a few tens of MB.
const TRACED_TRIALS: usize = 3;

/// The trials of one run.
pub struct Passes<T> {
    /// Untraced trials.
    pub base: Vec<T>,
    /// Traced trials (traced run only).
    pub traced: Vec<T>,
    /// Peak resident set size after the first trial, in MB. Later
    /// trials could only push it up through allocator fragmentation.
    pub rss_mb: f64,
}

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// trial, and gives it back all of them when dropped.
///
/// Each vCPU of a shared host is slowed by its own neighbours, at its
/// own times. A thread left alone stays on one of them for a whole
/// run; taking the trials in turn on every CPU lets each run see each
/// CPU's phases, which steadies the contended level (see
/// [`rate_level`]). Still one thread: the CPUs are never used at once.
struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    fn new() -> CpuRotation {
        CpuRotation {
            cpus: affinity::allowed(),
            next: 0,
        }
    }

    /// Pins the thread to the next CPU in turn.
    fn advance(&mut self) {
        if self.cpus.len() > 1 {
            affinity::set(&[self.cpus[self.next % self.cpus.len()]]);
            self.next += 1;
        }
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if self.next > 0 {
            affinity::set(&self.cpus);
        }
    }
}

/// Thread CPU affinity through the C library's `sched_{get,set}affinity`.
#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: a mask of 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on (none if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed;
        // pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Lets the calling thread run on `cpus` only. A refusal leaves
    /// the affinity as it was, which only costs steadiness.
    pub fn set(cpus: &[usize]) {
        let mut set: CpuSet = [0; 16];
        for &c in cpus {
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a `cpu_set_t` of the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    }
}

/// Elsewhere the trials stay where the scheduler puts them.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) {}
}

/// Runs one trial under a fresh trial id, inside a top-level `trial`
/// span, on the next CPU in turn.
fn one<T>(cpus: &mut CpuRotation, tr: &mut Tracer, trial: &mut impl FnMut(&mut Tracer) -> T) -> T {
    cpus.advance();
    tr.next_run();
    tr.span("trial", trial)
}

/// Runs the trials of one run. An untraced run repeats `trial` until
/// `--seconds` have passed, at least twice. A traced run alternates
/// [`TRACED_TRIALS`] untraced and traced trials under `tracer`, so that
/// drift in the host's speed falls on both sides of the tracing
/// overhead alike.
pub fn run_trials<T>(
    o: &Opts,
    tracer: &mut Tracer,
    mut trial: impl FnMut(&mut Tracer) -> T,
) -> Passes<T> {
    let mut off = Tracer::new(false);
    let mut cpus = CpuRotation::new();
    let start = Instant::now();
    let mut base = vec![one(&mut cpus, &mut off, &mut trial)];
    let rss_mb = peak_rss_mb();
    let mut traced = Vec::new();
    if o.trace {
        while traced.len() < TRACED_TRIALS {
            if traced.len() == base.len() {
                base.push(one(&mut cpus, &mut off, &mut trial));
            }
            traced.push(one(&mut cpus, tracer, &mut trial));
        }
    } else {
        while base.len() < 2 || secs(start) < o.seconds {
            base.push(one(&mut cpus, &mut off, &mut trial));
        }
    }
    Passes {
        base,
        traced,
        rss_mb,
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linearly interpolated `q`-quantile of `v`, `q` in [0, 1].
pub fn quantile(v: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = v.into_iter().collect();
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Share of a run's trials allowed to fall below the reported level.
///
/// The host's speed moves between a contended level and faster ones in
/// phases of seconds to minutes, so the share of a run spent in each phase
/// — and with it the median trial — moves from run to run. The
/// contended level is the one nearly every run reaches, so the
/// end-to-end host-time metrics report it: the rate all but the slowest
/// tenth of trials reach, the time all but the slowest tenth stay
/// within.
const SLOW_SHARE: f64 = 0.1;

/// The rate all but the slowest tenth of trials reach.
pub fn rate_level(v: impl IntoIterator<Item = f64>) -> f64 {
    quantile(v, SLOW_SHARE)
}

/// The time all but the slowest tenth of trials stay within.
pub fn time_level(v: impl IntoIterator<Item = f64>) -> f64 {
    quantile(v, 1.0 - SLOW_SHARE)
}

/// Nearest-rank `p`-th percentile of `v`, which must be sorted.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of the host times of one trial's ticks.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    /// Ticks timed.
    pub n: u64,
    /// Their summed host time.
    pub sum_ns: u64,
    /// Median tick.
    pub p50: u64,
    /// 99th-percentile tick.
    pub p99: u64,
}

impl Ticks {
    /// Summarises `ns`, one sample per tick.
    pub fn of(mut ns: Vec<u64>) -> Ticks {
        ns.sort_unstable();
        Ticks {
            n: ns.len() as u64,
            sum_ns: ns.iter().sum(),
            p50: percentile(&ns, 50.0),
            p99: percentile(&ns, 99.0),
        }
    }

    /// Mean host nanoseconds per tick.
    pub fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.n as f64
    }
}

/// Set-up time at the contended level: the trials' own set-ups, topped
/// up by calling `setup` (which returns seconds, on each CPU in turn)
/// until there are at least nine and they add up to at least a second,
/// so that a set-up of a few milliseconds is not judged on a moment of
/// the host's noise.
pub fn setup_s(mut samples: Vec<f64>, mut setup: impl FnMut() -> f64) -> f64 {
    let mut cpus = CpuRotation::new();
    while samples.len() < 9 || samples.iter().sum::<f64>() < 1.0 {
        cpus.advance();
        samples.push(setup());
    }
    time_level(samples)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The flowlet program (`PAPER_APPS[0]`), compiled inside a
/// `compiler.compile` span.
pub fn compile_flowlet(tr: &mut Tracer) -> (&'static mp5_apps::AppSpec, CompiledProgram) {
    let app = &mp5_apps::PAPER_APPS[0];
    assert_eq!(app.name, "flowlet");
    let prog = tr.span("compiler.compile", |_| {
        app.compile().expect("bundled flowlet program compiles")
    });
    (app, prog)
}

/// The §4.4 flow trace for `app`: web-search flow sizes, bimodal
/// 200/1400 B packets, line rate on 64 ports, generated inside a
/// `traffic.gen` span and sorted into entry order. With `one_flow`,
/// every packet is filled as if it belonged to one hot flow (the
/// arrival process and sizes are unchanged), which pins the flowlet
/// registers' index to one pipeline.
pub fn flow_trace(
    tr: &mut Tracer,
    app: &mp5_apps::AppSpec,
    prog: &CompiledProgram,
    packets: usize,
    seed: u64,
    one_flow: bool,
) -> Vec<Packet> {
    tr.span("traffic.gen", |_| {
        let fill = app.fill;
        let hot = mp5_types::FlowKey {
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 7,
            dst_port: 443,
            proto: 6,
        };
        let (mut trace, _flows) =
            FlowTraceBuilder::new(packets, seed).build(prog.num_fields(), |rng, key, fields| {
                let key = if one_flow { &hot } else { key };
                fill(prog, key, rng, fields)
            });
        if let Some(id) = prog.field("arr_ts") {
            for p in &mut trace {
                p.fields[id.index()] = p.arrival as i64;
            }
        }
        trace.sort_by_key(|p| p.entry_order_key());
        trace
    })
}
