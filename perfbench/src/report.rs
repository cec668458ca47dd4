//! Turns passes into the named metrics the benchmark prints.

use std::hint::black_box;
use std::time::{Duration, Instant};

use indirect_abcast::types::{Decode, Encode};

use crate::hist::Hist;
use crate::run::{median, Pass, Trial};
use crate::trace::{Env, Stats};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples a timing rests on.
    pub samples: Option<u64>,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn timed(name: &'static str, unit: &'static str, value: f64, h: &Hist) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: Some(h.count()),
    }
}

fn ms(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1e6
}

fn us(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced pass: medians over its kept
/// trials.
pub fn end_to_end(p: &Pass) -> Vec<Metric> {
    let lat_n = p.kept().iter().map(|t| t.lat.count()).sum();
    let all_n = p.kept().iter().map(|t| t.lat_all.count()).sum();
    vec![
        m("setup_s", "s", median(&p.setup_s)),
        m("goodput_msgs_s", "msgs/s", p.median_of(Trial::goodput)),
        Metric {
            samples: Some(lat_n),
            ..m(
                "lat_p50_ms",
                "ms",
                p.median_of(|t| t.lat.quantile(0.5)) / 1e6,
            )
        },
        Metric {
            samples: Some(all_n),
            ..m(
                "lat_all_p50_ms",
                "ms",
                p.median_of(|t| t.lat_all.quantile(0.5)) / 1e6,
            )
        },
        m("cpu_ms_per_kmsg", "ms", p.median_of(Trial::cpu_ms_per_kmsg)),
        m("peak_rss_mib", "MiB", p.peak_rss_mib),
    ]
}

/// Tail figures of a pass: medians over its kept trials of each trial's
/// p99. Also the p50 over every trial, kept or not, which shows how far
/// the host slowed the trials the end-to-end figures leave out.
fn tails(p: &Pass) -> [Metric; 4] {
    let p99 = |f: fn(&Trial) -> &Hist, name| Metric {
        samples: Some(p.kept().iter().map(|t| f(t).count()).sum()),
        ..m(name, "ms", p.median_of(|t| f(t).quantile(0.99)) / 1e6)
    };
    let every: Vec<f64> = p.trials.iter().map(|t| t.lat.quantile(0.5)).collect();
    [
        p99(|t| &t.lat, "workload.lat_p99_ms"),
        p99(|t| &t.lat_all, "workload.lat_all_p99_ms"),
        p99(|t| &t.gen_lag, "workload.gen_lag_p99_ms"),
        Metric {
            samples: Some(p.trials.iter().map(|t| t.lat.count()).sum()),
            ..m(
                "workload.lat_p50_every_trial_ms",
                "ms",
                median(&every) / 1e6,
            )
        },
    ]
}

/// Mean encode and decode time per frame over `frames`, in ns.
pub fn codec_ns(frames: &[Env]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let budget = Duration::from_millis(50);
    let mut buf = Vec::new();
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < budget {
        for f in frames {
            buf.clear();
            black_box(f).encode(&mut buf);
            black_box(&buf);
        }
        ops += frames.len() as u64;
    }
    let enc = t0.elapsed().as_nanos() as f64 / ops as f64;
    let bytes: Vec<Vec<u8>> = frames.iter().map(Encode::to_bytes).collect();
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed() < budget {
        for b in &bytes {
            let env = Env::decode_in_place(black_box(b)).expect("a captured frame decodes");
            black_box(env);
        }
        ops += bytes.len() as u64;
    }
    let dec = t0.elapsed().as_nanos() as f64 / ops as f64;
    (enc, dec)
}

/// Inputs of the per-layer report besides the traced pass.
#[derive(Debug)]
pub struct Layers<'a> {
    /// The untraced pass of the same invocation.
    pub base: &'a Pass,
    /// The traced pass.
    pub traced: &'a Pass,
    /// What the wrappers recorded during the traced pass.
    pub stats: &'a Stats,
    /// Echo-node frames/s over the same transport.
    pub ceiling_frames_s: f64,
    /// Number of processes.
    pub n: usize,
}

/// The per-layer metrics of a traced invocation.
pub fn per_layer(l: &Layers<'_>) -> Vec<Metric> {
    let s = l.stats;
    let t = l.traced;
    let b = l.base;
    let win = t.sum(|t| t.window_s);
    let msgs = s.msgs_broadcast as f64;
    // Process figures come from the untraced pass, per message delivered
    // at the slowest process, over the CPU sampling windows.
    let delivered = b.sum(|t| t.delivered_min as f64 * t.usage_s / t.window_s);
    let per_msg_us = |ns: f64| ratio(ns / 1e3, delivered);
    let base_goodput = b.median_of(Trial::goodput);
    let traced_goodput = t.median_of(Trial::goodput);
    let base_p50 = b.median_of(|t| t.lat.quantile(0.5));
    let traced_p50 = t.median_of(|t| t.lat.quantile(0.5));
    let (enc_o, dec_o) = codec_ns(&s.ordering_frames);
    let (enc_b, dec_b) = codec_ns(&s.bulk_frames);
    let [flood, gate, cons, apply] = &s.stages;
    let lat50 = s.latency.quantile(0.5);
    let h = &s.handlers;
    let mut v = vec![
        timed("broadcast.flood_ms.p50", "ms", ms(flood, 0.5), flood),
        timed("broadcast.flood_ms.p99", "ms", ms(flood, 0.99), flood),
        m(
            "broadcast.frames_per_msg",
            "frames",
            ratio(s.bcast_frames as f64, msgs),
        ),
        m(
            "broadcast.bytes_per_msg",
            "B",
            ratio(s.bcast_bytes as f64, msgs),
        ),
        timed("core.gate_ms.p50", "ms", ms(gate, 0.5), gate),
        timed("core.gate_ms.p99", "ms", ms(gate, 0.99), gate),
        m(
            "core.ids_per_proposal",
            "ids",
            ratio(s.proposal_ids as f64, s.proposals as f64),
        ),
        m("core.proposals_per_s", "1/s", s.proposals as f64 / win),
        timed("core.apply_ms.p50", "ms", ms(apply, 0.5), apply),
        timed("core.apply_ms.p99", "ms", ms(apply, 0.99), apply),
        timed("core.handler_us.command.p50", "us", us(&h[0], 0.5), &h[0]),
        timed("core.handler_us.bcast.p50", "us", us(&h[1], 0.5), &h[1]),
        timed("core.handler_us.cons.p50", "us", us(&h[2], 0.5), &h[2]),
        timed("core.handler_us.timer.p50", "us", us(&h[3], 0.5), &h[3]),
        m(
            "core.busy_frac",
            "ratio",
            s.busy_ns as f64 / (l.n as f64 * win * 1e9),
        ),
        m(
            "core.cpu_us_per_msg",
            "us",
            per_msg_us(b.sum(|t| t.usage.node_cpu_ns as f64)),
        ),
        timed(
            "core.log_append_us.p50",
            "us",
            us(&s.log_append, 0.5),
            &s.log_append,
        ),
        timed(
            "core.log_append_us.p99",
            "us",
            us(&s.log_append, 0.99),
            &s.log_append,
        ),
        m(
            "core.log_appends_per_s",
            "1/s",
            s.log_append.count() as f64 / win,
        ),
        timed(
            "core.pending_record_us.p50",
            "us",
            us(&s.pending_record, 0.5),
            &s.pending_record,
        ),
        timed(
            "consensus.instance_ms.p50",
            "ms",
            ms(&s.instance, 0.5),
            &s.instance,
        ),
        timed(
            "consensus.instance_ms.p99",
            "ms",
            ms(&s.instance, 0.99),
            &s.instance,
        ),
        m(
            "consensus.rounds_per_instance",
            "rounds",
            ratio(s.rounds as f64, s.instances as f64),
        ),
        m(
            "consensus.nack_frac",
            "ratio",
            ratio(s.nacked as f64, s.instances as f64),
        ),
        m(
            "consensus.frames_per_instance",
            "frames",
            ratio(s.cons_frames as f64, s.instances as f64),
        ),
        m(
            "consensus.bytes_per_instance",
            "B",
            ratio(s.cons_bytes as f64, s.instances as f64),
        ),
        m("consensus.round_changes", "count", s.round_changes as f64),
        m("fd.frames_per_s", "frames/s", s.fd_frames as f64 / win),
        m(
            "fd.round_changes",
            "count",
            s.suspicion_round_changes as f64,
        ),
        m(
            "fd.outage_ms",
            "ms",
            b.trials.iter().map(|t| t.outage_ns).max().unwrap_or(0) as f64 / 1e6,
        ),
        timed(
            "net.hop_ms.ordering.p50",
            "ms",
            ms(&s.hop_ordering, 0.5),
            &s.hop_ordering,
        ),
        timed(
            "net.hop_ms.ordering.p99",
            "ms",
            ms(&s.hop_ordering, 0.99),
            &s.hop_ordering,
        ),
        timed(
            "net.hop_ms.bulk.p50",
            "ms",
            ms(&s.hop_bulk, 0.5),
            &s.hop_bulk,
        ),
        timed(
            "net.hop_ms.bulk.p99",
            "ms",
            ms(&s.hop_bulk, 0.99),
            &s.hop_bulk,
        ),
        m(
            "net.cpu_us_per_msg",
            "us",
            per_msg_us(b.sum(|t| t.usage.io_cpu_ns as f64)),
        ),
        m(
            "net.ctxsw_per_msg",
            "count",
            ratio(b.sum(|t| t.usage.cluster_ctxsw as f64), delivered),
        ),
        m("net.ceiling_frames_s", "frames/s", l.ceiling_frames_s),
        m(
            "net.frac_of_ceiling",
            "ratio",
            ratio(s.net_frames as f64 / win, l.ceiling_frames_s),
        ),
        m(
            "net.reconnect_ms",
            "ms",
            b.median_of(|t| t.reconnect_ns.unwrap_or(0) as f64) / 1e6,
        ),
        m("net.reconnects", "count", b.sum(|t| t.reconnects as f64)),
        m("net.frames_shed", "count", b.sum(|t| t.frames_shed as f64)),
        m("types.encode_ns.ordering", "ns", enc_o),
        m("types.encode_ns.bulk", "ns", enc_b),
        m("types.decode_ns.ordering", "ns", dec_o),
        m("types.decode_ns.bulk", "ns", dec_b),
        m(
            "workload.generator_cpu_frac",
            "ratio",
            ratio(
                b.sum(|t| t.usage.gen_cpu_ns as f64) / 1e9,
                b.sum(|t| t.usage_s),
            ),
        ),
        timed("ledger.lat_p50_ms", "ms", lat50 / 1e6, &s.latency),
        m(
            "ledger.flood_share",
            "ratio",
            ratio(flood.quantile(0.5), lat50),
        ),
        m(
            "ledger.gate_share",
            "ratio",
            ratio(gate.quantile(0.5), lat50),
        ),
        m(
            "ledger.consensus_share",
            "ratio",
            ratio(cons.quantile(0.5), lat50),
        ),
        m(
            "ledger.apply_share",
            "ratio",
            ratio(apply.quantile(0.5), lat50),
        ),
        m(
            "ledger.clamped_frac",
            "ratio",
            ratio(s.clamped as f64, s.latency.count() as f64),
        ),
        m(
            "trace.overhead.goodput_frac",
            "ratio",
            ratio(base_goodput - traced_goodput, base_goodput),
        ),
        m(
            "trace.overhead.lat_p50_frac",
            "ratio",
            ratio(traced_p50 - base_p50, base_p50),
        ),
    ];
    v.extend(tails(b));
    v
}

/// Formats a number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
