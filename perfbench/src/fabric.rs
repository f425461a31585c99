//! `fabric-leafspine`: heavy_hitter at k=4 with hardware FIFOs on a
//! 4×2 leaf–spine fabric (2 hosts per leaf), driven by a web-search
//! `DcWorkload` at 0.8 load.

use std::time::Instant;

use mp5_core::SwitchConfig;
use mp5_topo::{Fabric, FabricConfig, FabricRun, TopologyConfig};
use mp5_traffic::{DcPacket, DcWorkload};

use crate::common::{self, median, rate_level, secs, time_level, Opts, Outcome};
use crate::trace::Tracer;

/// Pipelines per switch.
const K: usize = 4;
const LEAVES: usize = 4;
const SPINES: usize = 2;
const HOSTS_PER_LEAF: usize = 2;
/// Flows per trial.
const FLOWS: u64 = 4_000;
/// Cap on packets per flow.
const MAX_PKTS_PER_FLOW: u32 = 16;

struct Trial {
    setup_s: f64,
    run_s: f64,
    run: FabricRun<mp5_trace::NopSink>,
}

type Ready = (
    Fabric,
    Vec<DcPacket>,
    mp5_compiler::CompiledProgram,
    &'static mp5_apps::AppSpec,
);

/// Compiles heavy_hitter, builds the topology, generates the workload
/// and constructs the fabric.
fn setup(tr: &mut Tracer, seed: u64) -> Ready {
    let app = mp5_apps::by_name("heavy_hitter").expect("bundled heavy_hitter app");
    let prog = tr.span("compiler.compile", |_| {
        app.compile()
            .expect("bundled heavy_hitter program compiles")
    });
    let topo = tr.span("topo.build", |_| {
        TopologyConfig::leaf_spine(LEAVES, SPINES, HOSTS_PER_LEAF)
            .validate()
            .expect("valid leaf-spine topology")
    });
    let packets: Vec<DcPacket> = tr.span("traffic.gen", |_| {
        DcWorkload::new(topo.num_hosts(), FLOWS, seed)
            .load(0.8)
            .max_pkts_per_flow(MAX_PKTS_PER_FLOW)
            .stream()
            .collect()
    });
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(K).with_hardware_fifos());
    cfg.seed = seed;
    let fabric = tr.span("topo.build", |_| {
        Fabric::new(topo, cfg, prog.clone()).expect("valid fabric configuration")
    });
    (fabric, packets, prog, app)
}

fn trial(tr: &mut Tracer, seed: u64) -> Trial {
    let t = Instant::now();
    let (fabric, packets, prog, app) = setup(tr, seed);
    let setup_s = secs(t);
    let t = Instant::now();
    let fill = app.fill;
    let run = tr.span("topo.run", |_| {
        fabric.run(packets, |key, rng, fields| fill(&prog, key, rng, fields))
    });
    Trial {
        setup_s,
        run_s: secs(t),
        run,
    }
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

    // Correctness, outside every timed region.
    let first = &base[0].run.report;
    out.check(
        "conservation ledger closed",
        base.iter()
            .chain(&traced)
            .all(|t| t.run.report.conservation_closed()),
    );
    out.check(
        "delivery digest stable across repeats",
        base.iter()
            .chain(&traced)
            .all(|t| t.run.report.delivery_digest == first.delivery_digest),
    );
    out.check(
        "every trial produced the same report",
        base.iter().chain(&traced).all(|t| t.run.report == *first),
    );
    // Packets dropped inside the modelled fabric are a simulated
    // outcome with a cause in the ledger; a packet the ledger cannot
    // account for is a failed operation.
    let all = base.iter().chain(&traced);
    out.attempted = all.clone().map(|t| t.run.report.injected).sum();
    out.failed = all
        .map(|t| {
            let r = &t.run.report;
            let accounted = r.delivered
                + r.dropped_links
                + r.dropped_switch
                + r.dropped_no_route
                + r.dropped_to_dead
                + r.lost_in_dead;
            r.injected.saturating_sub(accounted)
        })
        .sum();

    let pkts_per_s = |t: &Trial| t.run.report.delivered as f64 / t.run_s;
    let base_pps = median(base.iter().map(pkts_per_s));
    let loss = 1.0 - first.delivered_fraction();

    if !o.trace {
        out.metric("pkts_per_s", "1/s", rate_level(base.iter().map(pkts_per_s)));
        out.metric(
            "cycle_ns",
            "ns",
            time_level(
                base.iter()
                    .map(|t| t.run_s * 1e9 / t.run.report.ticks as f64),
            ),
        );
        let setup = common::setup_s(base.iter().map(|t| t.setup_s).collect(), || {
            let t = Instant::now();
            setup(&mut off, o.seed);
            secs(t)
        });
        out.metric("setup_s", "s", setup);
        out.metric("peak_rss_mb", "MB", rss_mb);
        out.note("loss_rate", "ratio", loss);
        out.note("sim_fct_p99", "byte-times", first.fct.p99 as f64);
        out.note("delivered", "count", first.delivered as f64);
        return out;
    }

    let totals = tracer.totals();
    let layer = |name| common::layer_ms(&totals, name);
    let run_ms = layer("topo.run");
    let reports: Vec<_> = base[0].run.switch_reports.iter().collect();
    out.metric("compiler.compile_ms", "ms", layer("compiler.compile"));
    out.metric("traffic.gen_ms", "ms", layer("traffic.gen"));
    out.metric("topo.build_ms", "ms", layer("topo.build"));
    out.metric("topo.run_ms", "ms", run_ms);
    out.metric("topo.ns_per_tick", "ns", run_ms * 1e6 / first.ticks as f64);
    out.metric("topo.ticks", "count", first.ticks as f64);
    out.metric("topo.link_drops", "count", first.dropped_links as f64);
    out.metric(
        "topo.max_link_util",
        "ratio",
        first
            .links
            .iter()
            .map(|l| l.utilization)
            .fold(0.0, f64::max),
    );
    out.metric(
        "core.cycles",
        "count",
        reports.iter().map(|r| r.cycles).sum::<u64>() as f64,
    );
    out.metric(
        "core.remap_moves",
        "count",
        reports.iter().map(|r| r.remap_moves).sum::<u64>() as f64,
    );
    common::fabric_counts(&mut out, &reports);
    out.metric("sim.fct_p99", "byte-times", first.fct.p99 as f64);
    out.metric("sim.loss_rate", "ratio", loss);
    let traced_pps = median(traced.iter().map(pkts_per_s));
    common::tracing_metrics(&mut out, &totals, base_pps / traced_pps);
    common::write_spans(&tracer, o);
    out
}
