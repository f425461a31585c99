//! One benchmark for the MP5 switch, server and fabric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, repeats the workload
//! for `--seconds`, checks the outputs outside the timed region and
//! prints every figure by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics of an untraced run (`--trace 0`)
//! or the per-layer metrics of a traced run (`--trace 1`). A failed
//! check makes the exit code 1. See `perfbench/README.md`.

mod common;
mod fabric;
mod serve;
mod switch;
mod trace;

use common::{Metric, Opts, Outcome};

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "switch-flowlet",
    "switch-hotstate",
    "serve-restore",
    "fabric-leafspine",
];

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("pkts_per_s", "1/s"),
    ("cycle_ns", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that never enters a
/// layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("compiler.compile_ms", "ms"),
    ("traffic.gen_ms", "ms"),
    ("core.new_ms", "ms"),
    ("core.offer_ms", "ms"),
    ("core.tick_ms", "ms"),
    ("core.tick_ns_per_pkt", "ns"),
    ("core.drain_egress_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.cycles", "count"),
    ("core.remap_moves", "count"),
    ("core.cycle_p50_ns", "ns"),
    ("core.cycle_p99_ns", "ns"),
    ("fabric.max_queue_depth", "count"),
    ("fabric.phantoms", "count"),
    ("fabric.wasted_cycles", "count"),
    ("fabric.wasted_ratio", "ratio"),
    ("fabric.steered_per_pkt", "ratio"),
    ("serve.new_ms", "ms"),
    ("core.extract_state_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.io_ms", "ms"),
    ("serve.snapshot_bytes", "B"),
    ("serve.checkpoint_p50_ms", "ms"),
    ("serve.checkpoint_p90_ms", "ms"),
    ("serve.read_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("serve.restore_s", "s"),
    ("serve.decode_ms_per_mb_early", "ms/MB"),
    ("serve.decode_ms_per_mb_late", "ms/MB"),
    ("serve.decode_scaling", "ratio"),
    ("topo.build_ms", "ms"),
    ("topo.run_ms", "ms"),
    ("topo.ns_per_tick", "ns"),
    ("topo.ticks", "count"),
    ("topo.link_drops", "count"),
    ("topo.max_link_util", "ratio"),
    ("sim.throughput", "ratio"),
    ("sim.fct_p99", "byte-times"),
    ("sim.loss_rate", "ratio"),
    ("trace.overhead_x", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.jsonl_overhead_x", "ratio"),
    ("trace.bytes_per_pkt", "B"),
];

fn usage() -> String {
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    let seconds = seconds.ok_or_else(usage)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace: trace.ok_or_else(usage)?,
    })
}

/// Orders the workload's metrics as the table lists them, filling the
/// ones it does not produce with 0 when `fill` is set. A name missing
/// from the table is a bug in the workload.
fn select(got: &[Metric], table: &[(&'static str, &'static str)], fill: bool) -> Vec<Metric> {
    for m in got {
        assert!(
            table.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "metric {} [{}] is not in the table",
            m.name,
            m.unit
        );
    }
    table
        .iter()
        .map(|&(name, unit)| match got.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None if fill => Metric {
                name,
                unit,
                value: 0.0,
            },
            None => panic!("workload did not report end-to-end metric {name}"),
        })
        .collect()
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out: Outcome = match opts.workload.as_str() {
        "switch-flowlet" => switch::run(&opts, switch::Input::Flowlet),
        "switch-hotstate" => switch::run(&opts, switch::Input::HotState),
        "serve-restore" => serve::run(&opts),
        "fabric-leafspine" => fabric::run(&opts),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let metrics = if opts.trace {
        select(&out.metrics, &PER_LAYER, true)
    } else {
        select(&out.metrics, &END_TO_END, false)
    };
    let finite = metrics
        .iter()
        .chain(&out.notes)
        .all(|m| m.value.is_finite());
    out.check("every figure is a finite number", finite);
    if !out.correct() {
        out.failed = out.attempted;
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    for m in metrics.iter().chain(&out.notes) {
        println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for c in &out.checks {
        println!("  check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.name);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !out.correct() {
        std::process::exit(1);
    }
}
