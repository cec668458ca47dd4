//! Self-tests of the benchmark's own instruments.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use indirect_abcast::broadcast::BcastMsg;
use indirect_abcast::core::stacks::{self, StackParams};
use indirect_abcast::core::{AbcastCommand, AbcastEvent, Envelope};
use indirect_abcast::runtime::{Context, Node, TimerId};
use indirect_abcast::sim::{NetworkParams, SimBuilder};
use indirect_abcast::types::{self, AppMessage, Encode, MsgId, Payload, ProcessId, Time};
use perfbench::gate::{Arrivals, Gate, Payloads};
use perfbench::run::{self, Config, Load, Workload};
use perfbench::trace::{Env, Traced, Tracer};

/// Sent frames as (from, to, encoded bytes), in send order.
type FrameLog = Vec<(ProcessId, ProcessId, Vec<u8>)>;

fn params() -> StackParams {
    StackParams::with_heartbeat(
        3,
        types::Duration::from_millis(25),
        types::Duration::from_secs(2),
    )
}

/// Runs three processes in the simulator with a seeded script of
/// broadcasts; returns each process's delivery sequence and every frame
/// sent, in order, as encoded bytes.
fn sim_run<N>(make: impl FnMut(ProcessId) -> N) -> (Vec<Vec<MsgId>>, FrameLog)
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent>,
{
    let payloads = Payloads::new(11, 64);
    let mut world = SimBuilder::new(3, NetworkParams::setup1()).build(make);
    let frames: Rc<RefCell<FrameLog>> = Rc::default();
    let sink = Rc::clone(&frames);
    world.set_drop_filter(Box::new(move |from, to, msg: &Env| {
        sink.borrow_mut().push((from, to, msg.to_bytes()));
        false
    }));
    let mut seq = [0u64; 3];
    for (i, (off, origin)) in Arrivals::new(5, 2_000.0, 3).take(200).enumerate() {
        let o = origin.as_usize();
        let id = MsgId::new(origin, seq[o]);
        seq[o] += 1;
        let at = Time::from_nanos(1_000_000 + off + i as u64);
        world.schedule_command(origin, at, AbcastCommand::Broadcast(payloads.make(id)));
    }
    world.run_until(Time::from_nanos(2_000_000_000));
    let mut seqs = vec![Vec::new(); 3];
    for r in world.outputs() {
        if let AbcastEvent::Delivered { msg } = &r.output {
            seqs[r.process.as_usize()].push(msg.id());
        }
    }
    let frames = frames.borrow().clone();
    (seqs, frames)
}

#[test]
fn node_wrapper_is_transparent_in_the_simulator() {
    let p = params();
    let (plain_seqs, plain_frames) = sim_run(|q| stacks::indirect_ct(q, &p));
    let tracer = Tracer::new();
    let (traced_seqs, traced_frames) =
        sim_run(|q| Traced::new(stacks::indirect_ct(q, &p), q, tracer.clone()));
    assert_eq!(plain_seqs[0].len(), 200, "every message is delivered");
    assert_eq!(
        plain_seqs, traced_seqs,
        "delivery sequences differ with the wrapper"
    );
    assert!(plain_frames.len() > 1000);
    assert_eq!(
        plain_frames, traced_frames,
        "sent-frame streams differ with the wrapper"
    );
}

#[test]
fn open_loop_schedule_is_a_pure_function_of_the_seed() {
    let a: Vec<_> = Arrivals::new(42, 15_000.0, 3).take(10_000).collect();
    let b: Vec<_> = Arrivals::new(42, 15_000.0, 3).take(10_000).collect();
    let c: Vec<_> = Arrivals::new(43, 15_000.0, 3).take(10_000).collect();
    assert_eq!(a, b);
    assert_ne!(a, c);
    // 10 000 arrivals at 15k/s span about two thirds of a second.
    let span_s = a.last().map_or(0, |x| x.0) as f64 / 1e9;
    assert!((span_s - 10_000.0 / 15_000.0).abs() < 0.05, "span {span_s}");
    assert!(
        a.windows(2).all(|w| w[0].0 <= w[1].0),
        "due times are monotone"
    );
    assert_eq!(
        Payloads::new(9, 64).make(MsgId::new(ProcessId::new(1), 3)),
        Payloads::new(9, 64).make(MsgId::new(ProcessId::new(1), 3))
    );
}

#[test]
fn stage_ledger_adds_up_to_the_origin_latency() {
    let w = Workload {
        name: "ledger-test",
        n: 3,
        payload: 64,
        load: Load::Open { rate: 2_000.0 },
        durable: false,
        partition: false,
        trials: 1,
        rss_after: 1_000,
    };
    let cfg = Config {
        seed: 3,
        window: Duration::from_secs(1),
        warmup: Duration::from_millis(200),
        setups: 1,
        drain: Duration::from_secs(10),
        tmp: PathBuf::from(".bench_tmp"), // unused: no durable store
    };
    let tracer = Tracer::new();
    let pass = run::run_pass(&w, &cfg, Some(&tracer));
    assert!(pass.correct());
    let stats = tracer.take_stats();
    assert!(stats.rows.len() > 1000, "rows: {}", stats.rows.len());
    let origin: std::collections::HashMap<MsgId, u64> =
        pass.trials[0].origin_lat.iter().copied().collect();
    for row in &stats.rows {
        assert_eq!(
            row.stages.iter().sum::<u64>(),
            row.latency,
            "stages of {:?} do not add up",
            row.id
        );
        // The generator sees the delivery on the cluster's own stamp,
        // taken just after the wrapper returns.
        let seen = origin[&row.id];
        assert!(
            seen + 50_000 >= row.latency,
            "{:?}: generator {seen} ns < ledger {} ns",
            row.id,
            row.latency
        );
        assert!(
            seen <= row.latency + 2_000_000,
            "{:?}: generator {seen} ns, ledger {} ns",
            row.id,
            row.latency
        );
    }
    // The stages sum to the latency by construction, because every
    // stage end is clamped into order; what shows a misattributed stage
    // is how often that clamp had to move an end.
    assert_eq!(
        stats.clamped,
        0,
        "{} of {} ledger rows had stage ends out of order",
        stats.clamped,
        stats.latency.count()
    );
    assert_eq!(stats.suspicion_round_changes, 0);
}

/// Drops the last payload byte of one message as it arrives at p1.
struct Corrupt<N> {
    inner: N,
    victim: MsgId,
}

impl<N: Node<Msg = Env, Output = AbcastEvent>> Node for Corrupt<N> {
    type Msg = Env;
    type Command = N::Command;
    type Output = AbcastEvent;

    fn on_start(&mut self, ctx: &mut Context<Env, AbcastEvent>) {
        self.inner.on_start(ctx);
    }

    fn on_command(&mut self, cmd: N::Command, ctx: &mut Context<Env, AbcastEvent>) {
        self.inner.on_command(cmd, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Env, ctx: &mut Context<Env, AbcastEvent>) {
        let msg = match msg {
            Envelope::Bcast(BcastMsg::Data(m))
                if ctx.me() == ProcessId::new(1) && m.id() == self.victim =>
            {
                let bytes = m.payload().bytes();
                let short = Payload::new(bytes[..bytes.len() - 1].to_vec());
                Envelope::Bcast(BcastMsg::Data(AppMessage::new(
                    m.id(),
                    short,
                    m.broadcast_at(),
                )))
            }
            other => other,
        };
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Env, AbcastEvent>) {
        self.inner.on_timer(timer, ctx);
    }
}

fn gate_verdict(victim: Option<MsgId>) -> perfbench::gate::Verdict {
    let p = params();
    let payloads = Payloads::new(11, 64);
    let never = MsgId::new(ProcessId::new(2), u64::MAX);
    let mut world = SimBuilder::new(3, NetworkParams::setup1()).build(|q| Corrupt {
        inner: stacks::indirect_ct(q, &p),
        victim: victim.unwrap_or(never),
    });
    for i in 0..30u64 {
        let origin = ProcessId::new((i % 3) as u16);
        let id = MsgId::new(origin, i / 3);
        world.schedule_command(
            origin,
            Time::from_nanos(1_000_000 * (i + 1)),
            AbcastCommand::Broadcast(payloads.make(id)),
        );
    }
    world.run_until(Time::from_nanos(1_000_000_000));
    let mut gate = Gate::new(3, payloads);
    for r in world.outputs() {
        gate.record(r.process, &r.output);
    }
    gate.verdict()
}

#[test]
fn a_payload_byte_removed_in_flight_is_caught() {
    let clean = gate_verdict(None);
    assert_eq!(
        (clean.safety, clean.incomplete, clean.mismatches),
        (0, 0, 0)
    );
    let victim = MsgId::new(ProcessId::new(0), 4);
    let bad = gate_verdict(Some(victim));
    assert_eq!(bad.mismatches, 1, "{bad:?}");
}

#[test]
fn passes_open_their_durable_stores_afresh() {
    let w = Workload {
        name: "durable-test",
        n: 3,
        payload: 64,
        load: Load::Open { rate: 1_000.0 },
        durable: true,
        partition: false,
        trials: 1,
        rss_after: 100,
    };
    let cfg = Config {
        seed: 4,
        window: Duration::from_millis(500),
        warmup: Duration::from_millis(100),
        setups: 1,
        drain: Duration::from_secs(10),
        tmp: PathBuf::from(".bench_tmp").join(format!("selftest-{}", std::process::id())),
    };
    let base = run::run_pass(&w, &cfg, None);
    let tracer = Tracer::new();
    let traced = run::run_pass(&w, &cfg, Some(&tracer));
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    for pass in [&base, &traced] {
        assert!(pass.correct());
        assert_eq!(pass.failed(), 0);
    }
}
