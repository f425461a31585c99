//! `switch-flowlet` and `switch-hotstate`: one k=8 switch on the
//! default configuration, the whole trace offered up front, then ticked
//! until idle through the streaming API.

use std::io::BufWriter;
use std::time::Instant;

use mp5_banzai::BanzaiSwitch;
use mp5_core::{Mp5Switch, RunReport, SwitchConfig};
use mp5_trace::{JsonlSink, TraceSink};
use mp5_types::Packet;

use crate::common::{self, median, rate_level, secs, time_level, Opts, Outcome, Ticks};
use crate::trace::Tracer;

/// Pipelines (the paper's Fig 8 setting).
const K: usize = 8;
/// Packets per trial.
const PACKETS: usize = 50_000;

/// Which input the switch is driven with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Many flows, spread over every pipeline.
    Flowlet,
    /// Every packet on one flow.
    HotState,
}

struct Trial {
    setup_s: f64,
    run_s: f64,
    ticks: Ticks,
    report: RunReport,
}

fn input(tr: &mut Tracer, which: Input, seed: u64) -> (mp5_compiler::CompiledProgram, Vec<Packet>) {
    let (app, prog) = common::compile_flowlet(tr);
    let trace = common::flow_trace(tr, app, &prog, PACKETS, seed, which == Input::HotState);
    (prog, trace)
}

/// Offers `trace`, ticks until idle and finishes. Returns the report,
/// the sink and the host time of every tick.
fn drive<S: TraceSink>(
    tr: &mut Tracer,
    mut sw: Mp5Switch<S>,
    trace: Vec<Packet>,
) -> (RunReport, S, Vec<u64>) {
    tr.span("core.offer", |_| {
        for p in trace {
            sw.offer(p);
        }
    });
    let mut tick_ns = Vec::new();
    while !sw.is_idle() {
        let t0 = Instant::now();
        sw.tick();
        let t1 = Instant::now();
        sw.drain_egress();
        tick_ns.push((t1 - t0).as_nanos() as u64);
        if tr.is_on() {
            tr.record("core.tick", t0, t1);
            tr.record("core.drain_egress", t1, Instant::now());
        }
    }
    let (report, sink) = tr.span("core.finish", |_| sw.finish_stream());
    (report, sink, tick_ns)
}

fn trial(tr: &mut Tracer, which: Input, seed: u64) -> Trial {
    let t = Instant::now();
    let (prog, trace) = input(tr, which, seed);
    let sw = tr.span("core.new", |_| Mp5Switch::new(prog, SwitchConfig::mp5(K)));
    let setup_s = secs(t);
    let t = Instant::now();
    let (report, _, tick_ns) = drive(tr, sw, trace);
    let run_s = secs(t);
    Trial {
        setup_s,
        run_s,
        ticks: Ticks::of(tick_ns),
        report,
    }
}

fn pkts_per_s(t: &Trial) -> f64 {
    t.report.completed as f64 / t.run_s
}

/// Runs the workload and returns its metrics and checks.
pub fn run(o: &Opts, which: Input) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let mut first: Option<RunReport> = None;
    let mut repeat_ok = true;
    // Keeps the first trial's full report for the checks and compares
    // every later one against it; the trials themselves keep only the
    // counters, so memory does not grow with the number of trials.
    let mut keep = |t: Trial| -> Trial {
        match &first {
            None => first = Some(t.report.clone()),
            Some(f) => repeat_ok &= *f == t.report,
        }
        Trial {
            report: RunReport {
                completions: Vec::new(),
                result: Default::default(),
                ..t.report
            },
            ..t
        }
    };
    let mut tracer = Tracer::new(true);
    let common::Passes {
        base,
        traced,
        rss_mb,
    } = common::run_trials(o, &mut tracer, |tr| keep(trial(tr, which, o.seed)));

    // Correctness, outside every timed region.
    let first = first.expect("at least one trial ran");
    let (prog, trace) = input(&mut off, which, o.seed);
    let reference = BanzaiSwitch::new(prog).run(trace);
    out.check(
        "result equivalent to the Banzai reference",
        first.result.equivalent_to(&reference),
    );
    out.check("completed == offered", first.completed == first.offered);
    out.check("every trial produced the same report", repeat_ok);
    let all = base.iter().chain(&traced);
    out.attempted = all.clone().map(|t| t.report.offered).sum();
    out.failed = all.map(|t| t.report.offered - t.report.completed).sum();

    let p50 = median(base.iter().map(|t| t.ticks.p50 as f64));
    let p99 = median(base.iter().map(|t| t.ticks.p99 as f64));
    let base_pps = median(base.iter().map(pkts_per_s));
    let sim_tp = first.normalized_throughput();

    if !o.trace {
        out.metric("pkts_per_s", "1/s", rate_level(base.iter().map(pkts_per_s)));
        out.metric(
            "cycle_ns",
            "ns",
            time_level(base.iter().map(|t| t.ticks.mean_ns())),
        );
        let setup = common::setup_s(base.iter().map(|t| t.setup_s).collect(), || {
            let t = Instant::now();
            let (prog, _trace) = input(&mut off, which, o.seed);
            Mp5Switch::new(prog, SwitchConfig::mp5(K));
            secs(t)
        });
        out.metric("setup_s", "s", setup);
        out.metric("peak_rss_mb", "MB", rss_mb);
        out.note("cycle_p50_ns", "ns", p50);
        out.note("cycle_p99_ns", "ns", p99);
        out.note(
            "cycle_samples",
            "count",
            base.iter().map(|t| t.ticks.n).sum::<u64>() as f64,
        );
        out.note("sim_throughput", "ratio", sim_tp);
        out.note("loss_rate", "ratio", 1.0 - first.delivered_fraction());
        return out;
    }

    let totals = tracer.totals();
    let layer = |name| common::layer_ms(&totals, name);
    let tick_ms = layer("core.tick");
    out.metric("compiler.compile_ms", "ms", layer("compiler.compile"));
    out.metric("traffic.gen_ms", "ms", layer("traffic.gen"));
    out.metric("core.new_ms", "ms", layer("core.new"));
    out.metric("core.offer_ms", "ms", layer("core.offer"));
    out.metric("core.tick_ms", "ms", tick_ms);
    out.metric(
        "core.tick_ns_per_pkt",
        "ns",
        tick_ms * 1e6 / first.completed as f64,
    );
    out.metric("core.drain_egress_ms", "ms", layer("core.drain_egress"));
    out.metric("core.finish_ms", "ms", layer("core.finish"));
    out.metric("core.cycles", "count", first.cycles as f64);
    out.metric("core.remap_moves", "count", first.remap_moves as f64);
    out.metric("core.cycle_p50_ns", "ns", p50);
    out.metric("core.cycle_p99_ns", "ns", p99);
    common::fabric_counts(&mut out, &[&first]);
    out.metric("sim.throughput", "ratio", sim_tp);
    let traced_pps = median(traced.iter().map(pkts_per_s));
    common::tracing_metrics(&mut out, &totals, base_pps / traced_pps);
    if which == Input::Flowlet {
        let base_run_s = median(base.iter().map(|t| t.run_s));
        let (overhead, bytes_per_pkt) = jsonl_replay(o.seed, base_run_s);
        out.metric("trace.jsonl_overhead_x", "ratio", overhead);
        out.metric("trace.bytes_per_pkt", "B", bytes_per_pkt);
    }
    common::write_spans(&tracer, o);
    out
}

/// Replays the `switch-flowlet` input once through a `JsonlSink` into
/// a temporary file. Returns the run time over `base_run_s` and the
/// bytes written per packet.
fn jsonl_replay(seed: u64, base_run_s: f64) -> (f64, f64) {
    let mut off = Tracer::new(false);
    let (prog, trace) = input(&mut off, Input::Flowlet, seed);
    let packets = trace.len() as f64;
    let path = common::out_dir().join("replay.jsonl");
    let file = std::fs::File::create(&path).expect("create the replay trace file");
    let sw = Mp5Switch::with_sink(
        prog,
        SwitchConfig::mp5(K),
        JsonlSink::new(BufWriter::new(file)),
    );
    let t = Instant::now();
    let (_, sink, _) = drive(&mut off, sw, trace);
    sink.finish().expect("replay trace written");
    let run_s = secs(t);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&path);
    (run_s / base_run_s, bytes as f64 / packets)
}
