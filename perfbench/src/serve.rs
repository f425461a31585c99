//! `serve-restore`: an `mp5serve`-style session of flowlet at k=4.
//! Every packet is offered up front; the session checkpoints to a file
//! every [`EVERY`] cycles, is killed at cycle [`KILL_AT`], resumes from
//! the last checkpoint (`Snapshot::read` + `Server::restore`) and runs
//! to the end.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mp5_core::{RunReport, SwitchConfig};
use mp5_faults::NoFaults;
use mp5_serve::{Server, Snapshot};
use mp5_trace::NopSink;

use crate::common::{self, median, ms, percentile, rate_level, secs, Opts, Outcome, Ticks};
use crate::trace::Tracer;

type Srv = Server<NopSink, NoFaults>;

/// Pipelines.
const K: usize = 4;
/// Packets per session.
const PACKETS: usize = 5_000;
/// Checkpoint cadence, in cycles.
const EVERY: u64 = 500;
/// The cycle the session is killed at; it resumes from the checkpoint
/// taken at the last multiple of [`EVERY`] before it.
const KILL_AT: u64 = 2_750;

struct Trial {
    setup_s: f64,
    run_s: f64,
    restore_s: f64,
    tick_ns: Vec<u64>,
    checkpoint_ns: Vec<u64>,
    snapshot_bytes: u64,
    /// Host time spent on work only the traced run does.
    extra_ns: u64,
    report: RunReport,
}

fn snap_path() -> PathBuf {
    common::out_dir().join(format!("serve-{}.snap", std::process::id()))
}

/// Compiles flowlet, builds its trace and boots a server.
fn setup(tr: &mut Tracer, seed: u64) -> (Srv, Vec<mp5_types::Packet>) {
    let (app, prog) = common::compile_flowlet(tr);
    let trace = common::flow_trace(tr, app, &prog, PACKETS, seed, false);
    let srv = tr.span("serve.new", |_| {
        Server::new(app.source, SwitchConfig::mp5(K), NopSink, None).expect("flowlet boots")
    });
    (srv, trace)
}

/// Takes a checkpoint and writes it atomically (fsync included), and
/// returns its host time. The traced run also encodes the snapshot on
/// its own first, to time the encoding apart from the I/O; that extra
/// encoding is left out of the returned time and added to
/// `t.extra_ns`.
fn checkpoint(tr: &mut Tracer, srv: &mut Srv, path: &Path, t: &mut Trial) -> u64 {
    let start = Instant::now();
    let mut extra = 0;
    tr.span("serve.checkpoint", |tr| {
        let snap = tr.span("core.extract_state", |_| srv.checkpoint());
        if tr.is_on() {
            let e = Instant::now();
            tr.span("serve.encode", |_| snap.encode());
            extra = e.elapsed().as_nanos() as u64;
        }
        tr.span("serve.write_atomic", |_| snap.write_atomic(path))
            .expect("checkpoint written");
    });
    t.extra_ns += extra;
    start.elapsed().as_nanos() as u64 - extra
}

/// Ticks `srv` until `stop` says so, checkpointing at every multiple
/// of [`EVERY`].
fn serve_until(
    tr: &mut Tracer,
    srv: &mut Srv,
    path: &Path,
    t: &mut Trial,
    stop: impl Fn(&Srv) -> bool,
) {
    loop {
        let cycle = srv.cycle();
        if stop(srv) {
            return;
        }
        if cycle > 0 && cycle.is_multiple_of(EVERY) {
            let ns = checkpoint(tr, srv, path, t);
            t.checkpoint_ns.push(ns);
        }
        let t0 = Instant::now();
        srv.tick();
        let t1 = Instant::now();
        srv.drain_egress();
        t.tick_ns.push((t1 - t0).as_nanos() as u64);
        if tr.is_on() {
            tr.record("core.tick", t0, t1);
            tr.record("core.drain_egress", t1, Instant::now());
        }
    }
}

fn read_snapshot(tr: &mut Tracer, path: &Path) -> Snapshot {
    if !tr.is_on() {
        return tr
            .span("serve.read", |_| Snapshot::read(path))
            .expect("snapshot reads back");
    }
    let text = tr
        .span("serve.read", |_| std::fs::read_to_string(path))
        .expect("snapshot reads back");
    tr.span("serve.decode", |_| Snapshot::decode(&text))
        .expect("snapshot decodes")
}

fn trial(tr: &mut Tracer, seed: u64) -> Trial {
    let path = snap_path();
    let t0 = Instant::now();
    let (mut srv, trace) = setup(tr, seed);
    let mut t = Trial {
        setup_s: secs(t0),
        run_s: 0.0,
        restore_s: 0.0,
        tick_ns: Vec::new(),
        checkpoint_ns: Vec::new(),
        snapshot_bytes: 0,
        extra_ns: 0,
        report: RunReport::new(),
    };
    let t0 = Instant::now();
    tr.span("core.offer", |_| srv.offer_all(trace));
    serve_until(tr, &mut srv, &path, &mut t, |s| s.cycle() >= KILL_AT);
    srv.abandon();

    let r0 = Instant::now();
    t.snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let snap = read_snapshot(tr, &path);
    let mut srv: Srv = tr
        .span("core.restore", |_| {
            Server::restore(snap, NopSink, None, None)
        })
        .expect("snapshot restores");
    t.restore_s = secs(r0);

    serve_until(tr, &mut srv, &path, &mut t, Srv::is_idle);
    t.report = tr.span("core.finish", |_| srv.finish()).0;
    t.run_s = secs(t0) - t.extra_ns as f64 / 1e9;
    t
}

/// The same session without the kill: the report a stitched session
/// must reproduce.
fn uninterrupted(seed: u64) -> RunReport {
    let mut off = Tracer::new(false);
    let (mut srv, trace) = setup(&mut off, seed);
    srv.offer_all(trace);
    while !srv.is_idle() {
        srv.tick();
        srv.drain_egress();
    }
    srv.finish().0
}

/// Encodes the first and the last checkpoint of an uninterrupted
/// session and times `Snapshot::decode` on each. Returns
/// `(early ms/MB, late ms/MB, early bytes / late bytes)`.
fn decode_scaling(seed: u64) -> (f64, f64, f64) {
    let mut off = Tracer::new(false);
    let (mut srv, trace) = setup(&mut off, seed);
    srv.offer_all(trace);
    let (mut early, mut late) = (None, String::new());
    while !srv.is_idle() {
        srv.tick();
        srv.drain_egress();
        if srv.cycle().is_multiple_of(EVERY) {
            late = srv.checkpoint().encode();
            if early.is_none() {
                early = Some(late.clone());
            }
        }
    }
    let early = early.expect("the session outlasts one checkpoint period");
    let per_mb = |text: &str| {
        let t = Instant::now();
        Snapshot::decode(text).expect("snapshot decodes");
        secs(t) * 1e3 / (text.len() as f64 / 1e6)
    };
    (
        per_mb(&early),
        per_mb(&late),
        early.len() as f64 / late.len() as f64,
    )
}

/// Runs the workload and returns its metrics and checks.
pub fn run(o: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let common::Passes {
        base,
        traced,
        rss_mb,
    } = common::run_trials(o, &mut tracer, |tr| trial(tr, o.seed));
    let path = snap_path();
    let _ = std::fs::remove_file(&path);

    // Correctness, outside every timed region.
    let first = &base[0].report;
    let whole = uninterrupted(o.seed);
    out.check("stitched report == uninterrupted report", *first == whole);
    out.check("completed == offered", first.completed == first.offered);
    out.check(
        "every trial produced the same report",
        base.iter().chain(&traced).all(|t| t.report == *first),
    );
    let all = base.iter().chain(&traced);
    out.attempted = all.clone().map(|t| t.report.offered).sum();
    out.failed = all.map(|t| t.report.offered - t.report.completed).sum();

    let pkts_per_s = |t: &Trial| t.report.completed as f64 / t.run_s;
    let ticks: Vec<Ticks> = base.iter().map(|t| Ticks::of(t.tick_ns.clone())).collect();
    let p50 = median(ticks.iter().map(|t| t.p50 as f64));
    let p99 = median(ticks.iter().map(|t| t.p99 as f64));
    let mut ckpts: Vec<u64> = base
        .iter()
        .flat_map(|t| t.checkpoint_ns.iter().copied())
        .collect();
    ckpts.sort_unstable();
    // p90: p99 would need a thousand samples to have ten beyond it.
    let ckpt_p50 = ms(percentile(&ckpts, 50.0));
    let ckpt_p90 = ms(percentile(&ckpts, 90.0));
    let restore_s = median(base.iter().map(|t| t.restore_s));
    let base_pps = median(base.iter().map(pkts_per_s));

    if !o.trace {
        out.metric("pkts_per_s", "1/s", rate_level(base.iter().map(pkts_per_s)));
        // A session ticks for only some 40 ms, in bursts between
        // checkpoints, so its mean tick is noisy on its own; over the
        // handful of sessions a run holds, the median is steadier than
        // the contended level, which would pick the noisiest session.
        out.metric("cycle_ns", "ns", median(ticks.iter().map(Ticks::mean_ns)));
        let setup = common::setup_s(base.iter().map(|t| t.setup_s).collect(), || {
            let t = Instant::now();
            setup(&mut off, o.seed);
            secs(t)
        });
        out.metric("setup_s", "s", setup);
        out.metric("peak_rss_mb", "MB", rss_mb);
        out.note("cycle_p50_ns", "ns", p50);
        out.note("cycle_p99_ns", "ns", p99);
        out.note(
            "cycle_samples",
            "count",
            ticks.iter().map(|t| t.n).sum::<u64>() as f64,
        );
        out.note("checkpoint_p50_ms", "ms", ckpt_p50);
        out.note("checkpoint_p90_ms", "ms", ckpt_p90);
        out.note("checkpoint_samples", "count", ckpts.len() as f64);
        out.note("restore_s", "s", restore_s);
        out.note("sim_throughput", "ratio", first.normalized_throughput());
        out.note("loss_rate", "ratio", 1.0 - first.delivered_fraction());
        return out;
    }

    let totals = tracer.totals();
    let layer = |name| common::layer_ms(&totals, name);
    let tick_ms = layer("core.tick");
    out.metric("compiler.compile_ms", "ms", layer("compiler.compile"));
    out.metric("traffic.gen_ms", "ms", layer("traffic.gen"));
    out.metric("serve.new_ms", "ms", layer("serve.new"));
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
    common::fabric_counts(&mut out, &[first]);
    out.metric("sim.throughput", "ratio", first.normalized_throughput());
    out.metric("core.extract_state_ms", "ms", layer("core.extract_state"));
    out.metric("serve.encode_ms", "ms", layer("serve.encode"));
    out.metric(
        "serve.io_ms",
        "ms",
        median(totals.values().map(|m| {
            let get = |n: &str| m.get(n).map_or(0, |t| t.total_ns) as f64 / 1e6;
            get("serve.write_atomic") - get("serve.encode")
        })),
    );
    out.metric(
        "serve.snapshot_bytes",
        "B",
        median(traced.iter().map(|t| t.snapshot_bytes as f64)),
    );
    out.metric("serve.checkpoint_p50_ms", "ms", ckpt_p50);
    out.metric("serve.checkpoint_p90_ms", "ms", ckpt_p90);
    out.metric("serve.read_ms", "ms", layer("serve.read"));
    out.metric("serve.decode_ms", "ms", layer("serve.decode"));
    out.metric("core.restore_ms", "ms", layer("core.restore"));
    out.metric("serve.restore_s", "s", restore_s);
    let (early, late, size_ratio) = decode_scaling(o.seed);
    out.metric("serve.decode_ms_per_mb_early", "ms/MB", early);
    out.metric("serve.decode_ms_per_mb_late", "ms/MB", late);
    out.note("serve.decode_size_ratio", "ratio", size_ratio);
    out.metric("serve.decode_scaling", "ratio", early / late);
    let traced_pps = median(traced.iter().map(pkts_per_s));
    common::tracing_metrics(&mut out, &totals, base_pps / traced_pps);
    common::write_spans(&tracer, o);
    out
}
