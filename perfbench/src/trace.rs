//! The traced run's instruments, all outside the program.
//!
//! [`Traced`] wraps each process's node. It calls the real node with a
//! fresh [`Context`], timestamps the input and every emitted `Send` and
//! `Output` on one shared clock, and re-emits the actions unchanged and in
//! order. [`TimedLog`] and [`TimedPending`] wrap the storage handed to
//! `set_decided_log` / `set_pending_store` and time their calls.
//!
//! The stage ledger splits each message's origin latency (due time to
//! `Delivered` at its origin) into four stages along one process chain:
//!
//! * **flood** ends when the id is first available at the process whose
//!   proposal first carried it: an RB `Data`/`Relay` arriving there, or
//!   the origin's own command when that process proposed it. A
//!   coordinator may propose ids it does not hold yet (from an estimate
//!   it adopted); then the flood ends at the id's first arrival anywhere;
//! * **gate** ends when that coordinator emits the `CtProposal`;
//! * **consensus** ends when the origin first sends or receives `Decide`
//!   for the instance that ordered the id;
//! * **apply** ends with the origin's `Delivered` output.
//!
//! Each stage starts where the previous one ended (clamped so none is
//! negative), so the four stages of a message sum exactly to its latency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use indirect_abcast::broadcast::BcastMsg;
use indirect_abcast::consensus::ConsMsg;
use indirect_abcast::core::{AbcastEvent, DecidedEntry, DecidedLog, Envelope, PendingStore};
use indirect_abcast::runtime::{Action, Context, Node, TimerId};
use indirect_abcast::types::{AppMessage, IdSet, MsgId, ProcessId, TrafficClass, WireSize};

use crate::hist::Hist;

/// The envelope type of `stacks::indirect_ct`.
pub type Env = Envelope<IdSet>;

/// Largest cluster the ledger tracks per-process arrival times for.
pub const MAX_N: usize = 8;
/// Frames of each traffic class kept for the codec timing.
const FRAME_SAMPLES: usize = 64;
/// Ledger rows kept for inspection (first ones in the window).
const ROW_SAMPLES: usize = 4096;

/// Handler kinds timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// `on_command`.
    Command,
    /// `on_message` carrying an RB frame.
    Bcast,
    /// `on_message` carrying a consensus frame.
    Cons,
    /// `on_timer`.
    Timer,
    /// Anything else: start, heartbeats, catch-up frames.
    Other,
}

/// One message's stage times, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The message.
    pub id: MsgId,
    /// flood, gate, consensus, apply.
    pub stages: [u64; 4],
    /// Origin latency (due to `Delivered` at the origin).
    pub latency: u64,
}

#[derive(Debug, Clone, Copy)]
struct Ledger {
    due: u64,
    arrive: [u64; MAX_N],
    gate: u64,
    gate_proc: usize,
    cons: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Inst {
    start: u64,
    /// Highest round with a proposal.
    max_round: u64,
    /// Any `CtNack` seen.
    nack: bool,
    /// A `CtNack` sent by a process that had not seen that round's
    /// proposal: it suspected the coordinator.
    suspicion: bool,
    /// Per process, the highest round whose proposal it sent or received.
    prop_round: [u64; MAX_N],
    round1_proposer: Option<usize>,
    decided: bool,
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Default)]
pub struct Stats {
    /// Stage histograms: flood, gate, consensus, apply.
    pub stages: [Hist; 4],
    /// Origin latency as the ledger saw it.
    pub latency: Hist,
    /// Send-to-receive hop times of ordering frames.
    pub hop_ordering: Hist,
    /// Send-to-receive hop times of bulk frames.
    pub hop_bulk: Hist,
    /// Handler durations, indexed like [`Handler`].
    pub handlers: [Hist; 5],
    /// Total handler time of every node.
    pub busy_ns: u64,
    /// Instance durations (first consensus frame to first `Decide`).
    pub instance: Hist,
    /// Messages a-broadcast in the window.
    pub msgs_broadcast: u64,
    /// RB frames and bytes sent to other processes.
    pub bcast_frames: u64,
    /// RB bytes sent to other processes.
    pub bcast_bytes: u64,
    /// Consensus frames sent to other processes.
    pub cons_frames: u64,
    /// Consensus bytes sent to other processes.
    pub cons_bytes: u64,
    /// Failure-detector frames sent to other processes.
    pub fd_frames: u64,
    /// Every frame sent to another process.
    pub net_frames: u64,
    /// Distinct proposals emitted.
    pub proposals: u64,
    /// Ids carried by those proposals.
    pub proposal_ids: u64,
    /// Instances decided in the window.
    pub instances: u64,
    /// Sum over decided instances of the highest round with a proposal.
    pub rounds: u64,
    /// Decided instances not decided by their round-1 proposer.
    pub round_changes: u64,
    /// Of those, the ones where a process nacked a round whose proposal
    /// it had not seen: the failure detector suspected the coordinator.
    pub suspicion_round_changes: u64,
    /// Decided instances that saw a `CtNack`.
    pub nacked: u64,
    /// Decided-log append times.
    pub log_append: Hist,
    /// Pending-store record times.
    pub pending_record: Hist,
    /// Ledger rows whose stage ends had to be clamped into order.
    pub clamped: u64,
    /// The first ledger rows of the window.
    pub rows: Vec<Row>,
    /// Sampled ordering frames (for codec timing).
    pub ordering_frames: Vec<Env>,
    /// Sampled bulk frames (for codec timing).
    pub bulk_frames: Vec<Env>,
}

#[derive(Debug, Default)]
struct State {
    w0: u64,
    w1: u64,
    ledger: HashMap<MsgId, Ledger>,
    hops: HashMap<(usize, usize, u64), u64>,
    instances: HashMap<u64, Inst>,
    max_k: u64,
    stats: Stats,
}

/// Shared state of the traced run: one clock, one ledger.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Copies of the window for the storage wrappers, which run inside
    /// the node call and must not take the state lock.
    w0: AtomicU64,
    w1: AtomicU64,
    state: Mutex<State>,
    store: Mutex<(Hist, Hist)>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a traced node thread panicked while recording")
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            w0: AtomicU64::new(0),
            w1: AtomicU64::new(0),
            state: Mutex::default(),
            store: Mutex::default(),
        })
    }

    /// `t` on the tracer clock, in ns.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// Starts a trial on a fresh cluster: forgets the in-flight state of
    /// the previous one (ids and instance numbers restart) and sets the
    /// measured window. Figures keep accumulating over trials.
    pub fn begin_trial(&self, from: Instant, to: Instant) {
        let mut st = lock(&self.state);
        st.ledger.clear();
        st.hops.clear();
        st.instances.clear();
        st.max_k = 0;
        st.w0 = self.at(from);
        st.w1 = self.at(to);
        self.w0.store(st.w0, Ordering::Relaxed);
        self.w1.store(st.w1, Ordering::Relaxed);
    }

    /// Registers a message's due time, before its command is sent.
    pub fn note_due(&self, id: MsgId, due: Instant) {
        let due = self.at(due);
        lock(&self.state).ledger.insert(
            id,
            Ledger {
                due,
                arrive: [0; MAX_N],
                gate: 0,
                gate_proc: MAX_N,
                cons: 0,
            },
        );
    }

    /// Takes the figures recorded so far.
    pub fn take_stats(&self) -> Stats {
        let mut stats = std::mem::take(&mut lock(&self.state).stats);
        let (log_append, pending_record) = std::mem::take(&mut *lock(&self.store));
        stats.log_append = log_append;
        stats.pending_record = pending_record;
        stats
    }

    fn in_window(&self, t: u64) -> bool {
        t >= self.w0.load(Ordering::Relaxed) && t < self.w1.load(Ordering::Relaxed)
    }
}

/// Strips the catch-up frontier piggyback.
fn strip(env: &Env) -> &Env {
    match env {
        Envelope::WithFrontier { inner, .. } => inner,
        other => other,
    }
}

/// A per-link fingerprint of a frame, used to match a send with its
/// receipt without relying on FIFO order (a partition drops and replays).
fn fingerprint(env: &Env) -> u64 {
    let mix = |a: u64, b: u64| a.wrapping_mul(0x100_0000_01B3) ^ b;
    match strip(env) {
        Envelope::Bcast(b) => {
            let tag = match b {
                BcastMsg::Data(_) => 1,
                BcastMsg::Relay(_) => 2,
                BcastMsg::UrbData(_) => 3,
                BcastMsg::UrbEcho(_) => 4,
            };
            let id = b.app_message().id();
            mix(mix(tag, id.sender().as_usize() as u64), id.seq())
        }
        Envelope::Cons { k, msg } => {
            let tag = match msg {
                ConsMsg::CtEstimate { .. } => 10,
                ConsMsg::CtProposal { .. } => 11,
                ConsMsg::CtAck { .. } => 12,
                ConsMsg::CtNack { .. } => 13,
                ConsMsg::MrPhase1 { .. } => 14,
                ConsMsg::MrPhase2 { .. } => 15,
                ConsMsg::Decide { .. } => 16,
            };
            mix(mix(tag, *k), msg.round().unwrap_or(0))
        }
        Envelope::Fd(f) => {
            let indirect_abcast::fd::FdMsg::Heartbeat(seq) = f;
            mix(20, *seq)
        }
        Envelope::CatchUpRequest { from_k, to_k } => mix(mix(30, *from_k), *to_k),
        Envelope::CatchUpReply { entries } => mix(
            mix(31, entries.first().map_or(0, |e| e.k)),
            entries.len() as u64,
        ),
        Envelope::WithFrontier { .. } => 40,
    }
}

impl State {
    fn in_window(&self, t: u64) -> bool {
        t >= self.w0 && t < self.w1
    }

    fn arrive(&mut self, id: MsgId, me: usize, t: u64) {
        if let Some(l) = self.ledger.get_mut(&id) {
            if l.arrive[me] == 0 {
                l.arrive[me] = t;
            }
        }
    }

    /// A consensus frame for instance `k` at process `me` at time `t`:
    /// sent by `me` when `src == me`, else received from `src`.
    fn cons_seen(&mut self, me: usize, src: usize, k: u64, msg: &ConsMsg<IdSet>, t: u64) {
        if k + 2048 < self.max_k {
            return; // long decided and pruned
        }
        self.max_k = self.max_k.max(k);
        let inst = self.instances.entry(k).or_insert(Inst {
            start: t,
            ..Inst::default()
        });
        match msg {
            ConsMsg::CtProposal { round, .. } => {
                inst.max_round = inst.max_round.max(*round);
                inst.prop_round[me] = inst.prop_round[me].max(*round);
                if *round == 1 {
                    inst.round1_proposer.get_or_insert(src);
                }
            }
            ConsMsg::CtNack { round } => {
                inst.nack = true;
                inst.suspicion |= src == me && inst.prop_round[me] < *round;
            }
            _ => {}
        }
        if let ConsMsg::Decide { value } = msg {
            if !inst.decided {
                inst.decided = true;
                // The first Decide is the decider's own send: a round
                // change is a decision by anyone but round 1's proposer.
                let changed = inst.round1_proposer != Some(src);
                let inst = *inst;
                if self.in_window(t) {
                    let s = &mut self.stats;
                    s.instances += 1;
                    s.instance.record(t.saturating_sub(inst.start));
                    s.rounds += inst.max_round.max(1);
                    s.round_changes += u64::from(changed);
                    s.suspicion_round_changes += u64::from(changed && inst.suspicion);
                    s.nacked += u64::from(inst.nack);
                }
            }
            // The origin's consensus stage ends at its first Decide.
            for id in value.iter().filter(|id| id.sender().as_usize() == me) {
                if let Some(l) = self.ledger.get_mut(&id) {
                    if l.cons == 0 {
                        l.cons = t;
                    }
                }
            }
        }
        if self.instances.len() > 4096 {
            let floor = self.max_k.saturating_sub(2048);
            self.instances.retain(|&k, _| k >= floor);
        }
    }

    fn input(&mut self, me: usize, from: usize, env: &Env, t: u64) {
        if from != me {
            if let Some(sent) = self.hops.remove(&(from, me, fingerprint(env))) {
                if self.in_window(t) {
                    let hop = t.saturating_sub(sent);
                    match env.traffic_class() {
                        TrafficClass::Ordering => self.stats.hop_ordering.record(hop),
                        TrafficClass::Bulk => self.stats.hop_bulk.record(hop),
                    }
                }
            }
        }
        match strip(env) {
            Envelope::Bcast(BcastMsg::Data(m) | BcastMsg::Relay(m)) => self.arrive(m.id(), me, t),
            Envelope::Cons { k, msg } => self.cons_seen(me, from, *k, msg, t),
            _ => {}
        }
    }

    fn send(&mut self, me: usize, to: usize, env: &Env, t: u64, last_prop: &mut (u64, u64)) {
        let win = self.in_window(t);
        if to != me {
            self.hops.insert((me, to, fingerprint(env)), t);
            if win {
                let bytes = env.wire_size() as u64;
                let s = &mut self.stats;
                s.net_frames += 1;
                match strip(env) {
                    Envelope::Bcast(_) => {
                        s.bcast_frames += 1;
                        s.bcast_bytes += bytes;
                    }
                    Envelope::Cons { .. } => {
                        s.cons_frames += 1;
                        s.cons_bytes += bytes;
                    }
                    Envelope::Fd(_) => s.fd_frames += 1,
                    _ => {}
                }
                let sample = match env.traffic_class() {
                    TrafficClass::Ordering => &mut s.ordering_frames,
                    TrafficClass::Bulk => &mut s.bulk_frames,
                };
                if sample.len() < FRAME_SAMPLES {
                    sample.push(env.clone());
                }
            }
        }
        if let Envelope::Cons { k, msg } = strip(env) {
            if let ConsMsg::CtProposal { round, estimate } = msg {
                if *last_prop != (*k, *round) {
                    *last_prop = (*k, *round);
                    if win {
                        self.stats.proposals += 1;
                        self.stats.proposal_ids += estimate.len() as u64;
                    }
                    for id in estimate.iter() {
                        if let Some(l) = self.ledger.get_mut(&id) {
                            if l.gate == 0 {
                                l.gate = t;
                                l.gate_proc = me;
                            }
                        }
                    }
                }
            }
            self.cons_seen(me, me, *k, msg, t);
        }
    }

    fn delivered(&mut self, me: usize, m: &AppMessage, t: u64) {
        let id = m.id();
        if id.sender().as_usize() != me {
            return;
        }
        let Some(l) = self.ledger.remove(&id) else {
            return;
        };
        // The flood ends at the proposer's first sight of the id; when the
        // proposer did not hold it yet (a coordinator may propose an
        // estimate adopted from another process, or a later-round
        // coordinator relay ids it has not received), at the first sight
        // anywhere.
        let held = |a: u64| a != 0 && a <= l.gate;
        let flood_end = if l.gate_proc < MAX_N && held(l.arrive[l.gate_proc]) {
            l.arrive[l.gate_proc]
        } else {
            l.arrive
                .iter()
                .copied()
                .filter(|&a| a != 0)
                .min()
                .unwrap_or(l.gate)
        };
        let raw = [flood_end, l.gate, l.cons, t];
        let mut ends = [0u64; 4];
        let mut prev = l.due;
        let mut clamped = false;
        for (i, &e) in raw.iter().enumerate() {
            let e2 = e.clamp(prev, t.max(prev));
            clamped |= e2 != e;
            ends[i] = e2;
            prev = e2;
        }
        if !self.in_window(l.due) {
            return;
        }
        let mut stages = [0u64; 4];
        let mut start = l.due;
        for (i, &e) in ends.iter().enumerate() {
            stages[i] = e - start;
            self.stats.stages[i].record(stages[i]);
            start = e;
        }
        let latency = t.saturating_sub(l.due);
        self.stats.latency.record(latency);
        self.stats.clamped += u64::from(clamped);
        if self.stats.rows.len() < ROW_SAMPLES {
            self.stats.rows.push(Row {
                id,
                stages,
                latency,
            });
        }
    }
}

/// A node wrapper that traces every call from outside the node.
pub struct Traced<N> {
    inner: N,
    me: ProcessId,
    tracer: Arc<Tracer>,
    last_prop: (u64, u64),
}

impl<N> Traced<N> {
    /// Wraps `inner`, the node of process `me`.
    pub fn new(inner: N, me: ProcessId, tracer: Arc<Tracer>) -> Self {
        assert!(
            me.as_usize() < MAX_N,
            "the ledger tracks at most {MAX_N} processes"
        );
        Traced {
            inner,
            me,
            tracer,
            last_prop: (u64::MAX, u64::MAX),
        }
    }
}

impl<N> Traced<N>
where
    N: Node<Msg = Env, Output = AbcastEvent>,
{
    /// Calls the node with a fresh context; records the input (a copy of
    /// the envelope) as arriving when the call starts, the call's duration
    /// and every emitted action as happening when it ends; then re-emits
    /// the actions unchanged and in order.
    fn run(
        &mut self,
        kind: Handler,
        input: Option<(usize, Env)>,
        ctx: &mut Context<Env, AbcastEvent>,
        call: impl FnOnce(&mut N, &mut Context<Env, AbcastEvent>),
    ) {
        let me = self.me.as_usize();
        let mut inner_ctx = Context::new(self.me, ctx.n(), ctx.now());
        let t_in = self.tracer.now();
        call(&mut self.inner, &mut inner_ctx);
        let t_out = self.tracer.now();
        let actions = inner_ctx.take_actions();
        {
            let mut st = lock(&self.tracer.state);
            if let Some((from, env)) = &input {
                st.input(me, *from, env, t_in);
            }
            if st.in_window(t_in) {
                let d = t_out - t_in;
                st.stats.handlers[kind as usize].record(d);
                st.stats.busy_ns += d;
            }
            for a in &actions {
                match a {
                    Action::Send { to, msg } => {
                        st.send(me, to.as_usize(), msg, t_out, &mut self.last_prop)
                    }
                    Action::Output(AbcastEvent::Broadcast { id }) => {
                        st.arrive(*id, me, t_in);
                        if st.in_window(t_in) {
                            st.stats.msgs_broadcast += 1;
                        }
                    }
                    Action::Output(AbcastEvent::Delivered { msg }) => st.delivered(me, msg, t_out),
                    Action::SetTimer { .. } | Action::Work { .. } => {}
                }
            }
        }
        for a in actions {
            match a {
                Action::Send { to, msg } => ctx.send(to, msg),
                Action::SetTimer { delay, timer } => ctx.set_timer(delay, timer),
                Action::Work { duration } => ctx.work(duration),
                Action::Output(o) => ctx.output(o),
            }
        }
    }
}

impl<N> Node for Traced<N>
where
    N: Node<Msg = Env, Output = AbcastEvent>,
{
    type Msg = Env;
    type Command = N::Command;
    type Output = AbcastEvent;

    fn on_start(&mut self, ctx: &mut Context<Env, AbcastEvent>) {
        self.run(Handler::Other, None, ctx, |n, c| n.on_start(c));
    }

    fn on_command(&mut self, cmd: N::Command, ctx: &mut Context<Env, AbcastEvent>) {
        self.run(Handler::Command, None, ctx, |n, c| n.on_command(cmd, c));
    }

    fn on_message(&mut self, from: ProcessId, msg: Env, ctx: &mut Context<Env, AbcastEvent>) {
        let kind = match strip(&msg) {
            Envelope::Bcast(_) => Handler::Bcast,
            Envelope::Cons { .. } => Handler::Cons,
            _ => Handler::Other,
        };
        let seen = msg.clone();
        self.run(kind, Some((from.as_usize(), seen)), ctx, |n, c| {
            n.on_message(from, msg, c)
        });
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<Env, AbcastEvent>) {
        self.run(Handler::Timer, None, ctx, |n, c| n.on_timer(timer, c));
    }
}

/// Times `append` on a decided log.
pub struct TimedLog<L> {
    inner: L,
    tracer: Arc<Tracer>,
}

impl<L> TimedLog<L> {
    /// Wraps `inner`.
    pub fn new(inner: L, tracer: Arc<Tracer>) -> Self {
        TimedLog { inner, tracer }
    }
}

impl<V, L: DecidedLog<V>> DecidedLog<V> for TimedLog<L> {
    fn reload(&mut self) {
        self.inner.reload();
    }

    fn append(&mut self, entry: DecidedEntry<V>) -> bool {
        let t0 = Instant::now();
        let ok = self.inner.append(entry);
        let d = t0.elapsed().as_nanos() as u64;
        if self.tracer.in_window(self.tracer.at(t0)) {
            lock(&self.tracer.store).0.record(d);
        }
        ok
    }

    fn frontier(&self) -> u64 {
        self.inner.frontier()
    }

    fn get(&self, k: u64) -> Option<&DecidedEntry<V>> {
        self.inner.get(k)
    }

    fn range(&self, from_k: u64, to_k: u64) -> &[DecidedEntry<V>] {
        self.inner.range(from_k, to_k)
    }
}

/// Times `record` on a pending-broadcast store.
pub struct TimedPending<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TimedPending<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TimedPending { inner, tracer }
    }
}

impl<S: PendingStore> PendingStore for TimedPending<S> {
    fn reload(&mut self) {
        self.inner.reload();
    }

    fn record(&mut self, m: AppMessage) {
        let t0 = Instant::now();
        self.inner.record(m);
        let d = t0.elapsed().as_nanos() as u64;
        if self.tracer.in_window(self.tracer.at(t0)) {
            lock(&self.tracer.store).1.record(d);
        }
    }

    fn settle(&mut self, id: MsgId) {
        self.inner.settle(id);
    }

    fn entries(&self) -> &[AppMessage] {
        self.inner.entries()
    }
}
