//! The per-process event loop of the TCP transport, hosting that
//! process's node.
//!
//! One thread per process (`iabc-io-<p>`) owns *everything* the process
//! does: its node's handlers, the node's timers, the `n-1` inbound
//! streams (peers → us), the `n-1` outbound streams (us → peers), the
//! process's listener (mid-run re-accepts), and a command channel whose
//! doorbell is the [`Waker`]. Nothing here ever blocks on the network —
//! the loop parks only in [`Poller::wait`] with a bounded timeout; reads,
//! writes, accepts and loop-back connects are nonblocking (`WouldBlock`
//! re-arms interest instead of parking a thread); and the outbound queues
//! are pushed and drained without waiting ([`PeerQueue::push_nowait`],
//! [`PeerQueue::try_take_batch`]). Lint rule `E1` enforces this shape
//! mechanically: the only sanctioned kernel doorway is [`crate::poll`].
//! The one exception is the node's own storage: a durable decided log or
//! pending store does its file I/O inside the handlers, on this thread.
//!
//! # One pass
//!
//! Each pass of the loop:
//!
//! 1. samples readiness (or skips the sample on a command doorbell — see
//!    [`MAX_FAST_PASSES`]), parking at most until the next node timer is
//!    due, and at most one [`TICK`];
//! 2. reads every readable stream straight into a pooled [`RecvBuffer`]
//!    and decodes frames **in place**
//!    ([`iabc_types::Decode::decode_in_place`]) into the node's inbox —
//!    no re-assembly copy and no cross-thread hand-off;
//! 3. fires the node's due timers, then admits queued commands (unless an
//!    outbound queue is full — see [`crate::queue`]'s backpressure notes);
//! 4. hands the inbox to `on_message` until it is empty: the pass's
//!    frames and every self-send its handlers produce, in arrival order
//!    (self-sends never touch a socket);
//! 5. drains every outbound queue the handlers pushed into: the
//!    [`PeerQueue`] batch, ordering frames first, is encoded into pooled
//!    scratch and pushed with one vectored write. A **partial write parks
//!    the remainder in the pooled scratch** and re-arms `POLLOUT`; when
//!    the kernel drains, the suffix goes out and the next batch is
//!    pulled.
//!
//! Every clock the loop reads — handler `now`, [`NetOutput::at`], fault
//! windows, reconnect backoff — counts from one epoch shared by the whole
//! cluster, so output times compare across processes.
//!
//! # Partition healing (reconnect with backoff)
//!
//! A write error or reader EOF no longer closes the peer's queue for
//! good. When the link has a reconnect address, the loop instead flips
//! the queue into **down-mode** (nonblocking pushes; ordering retained,
//! bulk shed past a watermark — see [`crate::queue`]), salvages the
//! half-sent scratch for replay, and hands the peer to the
//! [`Reconnector`]: an immediate first attempt, then exponential backoff
//! with deterministic jitter capped at ~1 s, at most one attempt in
//! flight. A successful loop-back connect re-runs the 2-byte id
//! handshake, reopens the queue, and the next drain flushes the parked
//! ordering backlog — the decided-frontier piggyback on those frames is
//! what pulls both sides back together. Inbound, the loop polls its
//! listener, accepts replacement connections mid-run, and consumes their
//! handshake bytes before promoting them to readers.
//!
//! An optional [`NetFaultPlan`] drives nemesis runs: partition windows
//! sever the matching links once per tick (and gate reconnect attempts
//! until the window closes); per-frame drop/duplicate verdicts apply at
//! encode time. Without a plan, none of that code runs on the frame path.
//!
//! # Fairness
//!
//! Reads are capped per stream per pass ([`MAX_READS_PER_TICK`]) so a
//! loop-back peer that refills its socket as fast as we drain it cannot
//! starve the other connections; level-triggered polling re-arms the
//! stream on the next pass. Commands are capped per pass
//! ([`MAX_COMMANDS_PER_PASS`]), so a client issuing them faster than the
//! node handles them cannot keep the loop off its sockets.

use std::collections::{BinaryHeap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use iabc_runtime::{Action, Context, Node, TimerId};
use iabc_types::{Decode, Duration, Encode, ProcessId, Time, WireSize};

use crate::cluster::PendingTimer;
use crate::codec::{write_frame_into, RecvBuffer, Tagged, TaggedOwned, RECV_CHUNK};
use crate::netfault::{LinkJudge, NetFaultPlan, NetFaultStats, NetVerdict};
use crate::poll::{self, wake_channel, Interest, PollSource, Poller, Readiness, WakeRx, WakeTx};
use crate::pool::{BufferPool, PooledBuf};
use crate::queue::{BatchStatus, PeerQueue};
use crate::reconnect::Reconnector;
use crate::NetOutput;

/// The longest the loop sleeps in `poll` (a node timer due sooner cuts
/// the sleep short). Shutdown latency is bounded by this even if a wake
/// byte is lost (it never is — the wake channel is a pipe / loop-back
/// stream — but the timeout means correctness never rests on that).
/// Reconnect scheduling runs at this granularity too: a due attempt fires
/// within one tick of its deadline.
pub(crate) const TICK: StdDuration = StdDuration::from_millis(25);

/// Reads one stream may issue per tick before yielding to its siblings.
const MAX_READS_PER_TICK: usize = 4;

/// Consecutive fast passes before the loop must sample socket readiness
/// again. A doorbell means *commands* arrived — handling them and
/// draining the sends they produce into sockets that were writable
/// moments ago needs no `poll` — but inbound bytes must not be deferred
/// forever, so every few fast passes the loop takes a full readiness pass
/// (where the deferred frames arrive as one bigger, cheaper read).
const MAX_FAST_PASSES: u32 = 8;

/// Commands one pass admits before it returns to its sockets and timers;
/// the rest wait in the channel for the next pass, which does not park.
const MAX_COMMANDS_PER_PASS: usize = 256;

/// The event loop's doorbell: rung by [`EventLoopHandle::send_command`]
/// and [`EventLoopHandle::stop`] from other threads.
///
/// Two flags make the hot path syscall-free:
///
/// * `signal` — "a command or stop arrived since the loop last looked".
///   Set by every wake, consumed (swapped false) by the loop each pass.
/// * `sleeping` — "the loop is parked (or about to park) in `poll` with a
///   real timeout". Only a wake that observes this writes the one-byte
///   pipe nudge; while the loop is busy servicing, a wake is two atomic
///   ops and the loop picks the signal up on its next pass.
///
/// The no-lost-wakeup argument is the classic sleeper/waker handshake:
/// the loop *stores* `sleeping = true` and then *loads* `signal`; a waker
/// *stores* `signal = true` and then *loads* `sleeping`. Both sides are
/// `SeqCst`, so in every interleaving at least one of them sees the
/// other's store — the loop aborts the park, or the waker sends the byte.
/// (And even an impossible miss only costs one [`TICK`]: the park timeout
/// means correctness never rests on the byte.)
pub(crate) struct Waker {
    tx: WakeTx,
    signal: AtomicBool,
    sleeping: AtomicBool,
}

impl Waker {
    pub(crate) fn new(tx: WakeTx) -> Waker {
        Waker { tx, signal: AtomicBool::new(false), sleeping: AtomicBool::new(false) }
    }

    /// Signals the loop that a command (or a stop request) is waiting.
    /// While the loop is busy this is two uncontended atomic ops; only a
    /// park pays a syscall.
    pub(crate) fn wake(&self) {
        self.signal.store(true, Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            // A full pipe already wakes the loop; errors mean the loop is
            // gone, and then there is nothing left to wake.
            let _ = self.tx.notify();
        }
    }

    /// Loop side: consumes the pending signal.
    fn take_signal(&self) -> bool {
        self.signal.swap(false, Ordering::SeqCst)
    }

    /// Loop side: announces intent to park. Returns `false` — park
    /// aborted — if a signal raced in; the caller must rescan instead.
    fn announce_sleep(&self) -> bool {
        self.sleeping.store(true, Ordering::SeqCst);
        if self.signal.load(Ordering::SeqCst) {
            self.sleeping.store(false, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Loop side: back from the park.
    fn finish_sleep(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }
}

/// One inbound (peer → us) connection.
struct Inbound {
    stream: TcpStream,
    recv: RecvBuffer,
    open: bool,
}

/// A freshly accepted connection whose 2-byte id handshake has not fully
/// arrived yet; promoted to an [`Inbound`] once it has.
struct PendingAccept {
    stream: TcpStream,
    id: [u8; 2],
    got: usize,
}

/// The live half of one outbound connection (present while connected).
struct Conn {
    stream: TcpStream,
    /// Encoded-but-unsent bytes live in `scratch[sent..]`; the buffer is
    /// pooled, so an anomalous batch is clamped on return instead of
    /// staying resident.
    scratch: PooledBuf,
    sent: usize,
    /// Per-frame end offsets within a freshly encoded batch (vectored
    /// write slices).
    bounds: Vec<usize>,
}

impl Conn {
    fn new(stream: TcpStream, pool: &BufferPool) -> Conn {
        Conn { stream, scratch: pool.get(), sent: 0, bounds: Vec::new() }
    }

    /// Rescues the un-sent whole-frame suffix of a dying connection:
    /// everything from the first frame boundary at or past `sent`. The
    /// frame straddling `sent` is replayed in full — the receiver
    /// discards a partial tail on EOF — and frames fully handed to the
    /// kernel are not (a graceful shutdown delivers them). Replays over
    /// a seeded scratch (no boundary data) fall back to offset 0; the
    /// worst case is a duplicated frame, which every protocol layer
    /// dedupes.
    fn salvage(self) -> Vec<u8> {
        if self.scratch.len() <= self.sent {
            return Vec::new();
        }
        let start =
            self.bounds.iter().copied().filter(|&b| b <= self.sent).max().unwrap_or(0);
        self.scratch[start..].to_vec()
    }
}

/// One outbound (us → peer) link: the queue always, a [`Conn`] while the
/// connection is up, and the reconnect address if the link may heal.
struct Writer<M> {
    peer: ProcessId,
    /// Where to reconnect after a connection loss. `None` pins the legacy
    /// semantics: loss is permanent and closes the queue.
    addr: Option<SocketAddr>,
    /// Fed by the hosted node's sends, drained by this writer — both on
    /// the loop thread.
    queue: PeerQueue<M>,
    conn: Option<Conn>,
    /// Reusable batch vector for `try_take_batch`.
    batch: Vec<M>,
    /// Shed frames already folded into the shared stats (delta tracking
    /// against the queue's monotone counter).
    shed_reported: u64,
    /// Frame bytes rescued from a dying connection ([`Conn::salvage`]),
    /// replayed ahead of any new batch once the link heals. This is what
    /// makes a healed link quasi-reliable: a consensus frame lost
    /// mid-severance has no protocol-level retransmit (catch-up repairs
    /// only *decided* instances), so the transport must not lose it.
    carryover: Vec<u8>,
}

enum WriterState {
    /// Nothing pending; no write interest needed.
    Idle,
    /// Parked on a partial write; needs `POLLOUT`.
    Parked,
    /// Write error; the connection is gone.
    Dead,
}

/// One outbound link handed to [`spawn`].
pub(crate) struct OutboundLink {
    pub(crate) peer: ProcessId,
    /// Reconnect target (the peer's listener). `None` disables healing
    /// for this link: a connection loss closes the queue permanently.
    pub(crate) addr: Option<SocketAddr>,
    pub(crate) stream: TcpStream,
}

/// Everything one event loop owns, handed to [`spawn`].
pub(crate) struct LoopTopology {
    /// This process's listener (nonblocking), polled for mid-run
    /// re-accepts. `None` fixes the inbound set at spawn time.
    pub(crate) listener: Option<TcpListener>,
    /// Accepted streams (already handshaken, nonblocking).
    pub(crate) inbound: Vec<TcpStream>,
    /// Connected streams (already handshaken, nonblocking).
    pub(crate) outbound: Vec<OutboundLink>,
    /// Nemesis fault plan; `None` keeps the frame path fault-layer-free.
    pub(crate) faults: Option<NetFaultPlan>,
    /// Shared fault/reconnect counters (always live: reconnects happen
    /// with or without a fault plan).
    pub(crate) stats: Arc<NetFaultStats>,
}

/// The node one loop hosts, handed to [`spawn`].
pub(crate) struct Hosted<N: Node> {
    pub(crate) node: N,
    /// System size, for the node's [`Context`].
    pub(crate) n: usize,
    /// The cluster's shared clock origin (see the module docs).
    pub(crate) epoch: Instant,
    /// Where the node's outputs go, stamped against `epoch`.
    pub(crate) outputs: Sender<NetOutput<N::Output>>,
}

/// A running event loop plus the handles the cluster needs to feed and
/// stop it.
pub(crate) struct EventLoopHandle<C> {
    commands: Sender<C>,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl<C> EventLoopHandle<C> {
    /// Queues an application command for the hosted node and rings the
    /// doorbell. The loop admits it on its next pass, unless an outbound
    /// queue is full; then it waits here until the backlog drains.
    pub(crate) fn send_command(&self, cmd: C) {
        // A stopped loop dropped its receiver: a command to a stopped
        // node is not an error for the caller.
        let _ = self.commands.send(cmd);
        self.waker.wake();
    }

    /// Asks the loop to exit: it does one final best-effort nonblocking
    /// flush pass, shuts its sockets down, drops its node, and returns.
    /// Never blocks on a dead peer — unflushed frames to one are dropped,
    /// as sends to a crashed process are.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Joins the loop thread (call [`EventLoopHandle::stop`] first).
    pub(crate) fn join(mut self) {
        if let Some(t) = self.thread.take() {
            // lint:allow(E1): shutdown path on the caller's thread — the loop itself never joins
            let _ = t.join();
        }
    }
}

/// Spawns the event loop of process `me`, hosting `host.node`, over the
/// given topology.
///
/// # Panics
///
/// Panics if the wake channel or the thread cannot be created (local
/// resource exhaustion at cluster bootstrap).
pub(crate) fn spawn<N>(
    me: ProcessId,
    topo: LoopTopology,
    host: Hosted<N>,
) -> EventLoopHandle<N::Command>
where
    N: Node + Send + 'static,
    N::Msg: Encode + Decode + Send + 'static,
    N::Command: Send + 'static,
    N::Output: Send + 'static,
{
    // lint:allow(P1): bootstrap wake channel, documented panic, no remote input yet
    let (wake_tx, wake_rx) = wake_channel().expect("wake channel");
    let waker = Arc::new(Waker::new(wake_tx));
    let (commands, command_rx) = unbounded();
    let stop = Arc::new(AtomicBool::new(false));
    let loop_waker = Arc::clone(&waker);
    let loop_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name(format!("iabc-io-{}", me.as_usize()))
        // lint:allow(E1): run_loop executes on the thread being spawned here, not on the caller
        .spawn(move || run_loop(me, topo, host, command_rx, wake_rx, loop_waker, loop_stop))
        // lint:allow(P1): thread spawn at cluster bootstrap, no remote input yet
        .expect("spawn event loop thread");
    EventLoopHandle { commands, waker, stop, thread: Some(thread) }
}

/// Monotonic loop time: `Duration` since `start`, in our nanosecond
/// `Duration` (no narrowing cast — seconds and subseconds recombined).
fn loop_time(start: Instant) -> Duration {
    let e = start.elapsed();
    Duration::from_nanos(
        e.as_secs().saturating_mul(1_000_000_000).saturating_add(u64::from(e.subsec_nanos())),
    )
}

/// The loop-side runtime of the hosted node: where its actions go.
struct NodeRuntime<M, O> {
    me: ProcessId,
    epoch: Instant,
    /// `route[p]`: index into the writers of the link to `p`, if any.
    route: Vec<Option<usize>>,
    timers: BinaryHeap<PendingTimer>,
    /// Decoded frames and self-sends awaiting `on_message`, in arrival
    /// order; empty after every pass.
    inbox: VecDeque<(ProcessId, M)>,
    outputs: Sender<NetOutput<O>>,
}

impl<M: WireSize, O> NodeRuntime<M, O> {
    /// Handler time: since the cluster epoch.
    fn now(&self) -> Time {
        Time::from_nanos(loop_time(self.epoch).as_nanos())
    }

    /// Performs the actions one handler left in `ctx`. Remote sends go
    /// straight into the peer's queue — this pass's `service_writers`
    /// drains them, no wake needed; a send to a peer with no link is
    /// dropped, like one to a crashed process. Self-sends join the inbox.
    fn perform_actions(&mut self, ctx: &mut Context<M, O>, writers: &[Writer<M>]) {
        for action in ctx.take_actions() {
            match action {
                Action::Send { to, msg } if to == self.me => self.inbox.push_back((to, msg)),
                Action::Send { to, msg } => {
                    if let Some(&Some(w)) = self.route.get(to.as_usize()) {
                        writers[w].queue.push_nowait(msg);
                    }
                }
                Action::SetTimer { delay, timer } => {
                    self.timers.push(PendingTimer { due: Instant::now() + delay.into(), timer });
                }
                Action::Work { .. } => {} // real CPUs charge themselves
                Action::Output(output) => {
                    // The receiver is gone only once the cluster is being
                    // torn down; nobody is left to read the output.
                    let _ = self.outputs.send(NetOutput { at: self.now(), process: self.me, output });
                }
            }
        }
    }

    /// Pops the next timer due by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<TimerId> {
        if self.timers.peek().is_some_and(|t| t.due <= now) {
            self.timers.pop().map(|t| t.timer)
        } else {
            None
        }
    }
}

/// Whether a connected writer's queue is at capacity: the loop then
/// admits no commands (see [`crate::queue`]'s backpressure notes).
fn backlogged<M: WireSize>(writers: &[Writer<M>]) -> bool {
    writers.iter().any(|w| w.conn.is_some() && w.queue.is_full())
}

fn run_loop<N>(
    me: ProcessId,
    topo: LoopTopology,
    host: Hosted<N>,
    commands: Receiver<N::Command>,
    mut wake_rx: WakeRx,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
) where
    N: Node,
    N::Msg: Encode + Decode,
{
    let Hosted { mut node, n, epoch, outputs } = host;
    let pool = BufferPool::new();
    let listener = topo.listener;
    let stats = topo.stats;
    let mut readers: Vec<Inbound> = topo
        .inbound
        .into_iter()
        .map(|stream| Inbound { stream, recv: RecvBuffer::new(&pool), open: true })
        .collect();
    let mut pending: Vec<PendingAccept> = Vec::new();
    let mut writers: Vec<Writer<N::Msg>> = topo
        .outbound
        .into_iter()
        .map(|link| Writer {
            peer: link.peer,
            addr: link.addr,
            queue: PeerQueue::new(),
            conn: Some(Conn::new(link.stream, &pool)),
            batch: Vec::new(),
            shed_reported: 0,
            carryover: Vec::new(),
        })
        .collect();
    let slots = writers.iter().map(|w| w.peer.as_usize() + 1).max().unwrap_or(0);
    // The jitter seed only desynchronizes concurrent probers; derive it
    // from the fault seed when a plan exists so nemesis runs are stable.
    let mut reconnect = Reconnector::new(slots, u64::from(me.index()) ^ 0x1abc);
    let mut judge: Option<LinkJudge> = topo.faults.map(|plan| LinkJudge::new(plan, me, slots));

    let mut route = vec![None; slots];
    for (i, w) in writers.iter().enumerate() {
        route[w.peer.as_usize()] = Some(i);
    }
    let mut rt = NodeRuntime {
        me,
        epoch,
        route,
        timers: BinaryHeap::new(),
        inbox: VecDeque::new(),
        outputs,
    };
    let mut ctx = Context::new(me, n, rt.now());
    // lint:allow(E1): node dispatch — a durable store's recovery read in on_start, record appends and the optional fdatasync are the node's own file I/O; the network path never blocks
    node.on_start(&mut ctx);
    rt.perform_actions(&mut ctx, &writers);

    let mut poller = Poller::new();
    let mut readiness: Vec<Readiness> = Vec::new();
    let mut fast_passes = 0u32;
    // A command taken off the channel but not yet admitted (the channel
    // offers no peek).
    let mut waiting: Option<N::Command> = None;
    // Work a pass left over — admissible commands, and before the first
    // pass on_start's sends: the next pass must not park.
    let mut leftover = true;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let signaled = waker.take_signal();
        // A doorbell means commands are waiting: handle them and drain the
        // sends they produce straight into the sockets without a readiness
        // syscall ([`MAX_FAST_PASSES`] bounds how long inbound bytes can
        // be deferred this way).
        if signaled && !stopping && fast_passes < MAX_FAST_PASSES {
            fast_passes += 1;
        } else {
            fast_passes = 0;
            let now = loop_time(epoch);
            // Link maintenance before interests: sever freshly partitioned
            // connections, dial due reconnect attempts.
            maintain_links(me, now, &mut writers, &mut reconnect, judge.as_ref(), &stats, &pool);
            // With a doorbell, a stop, or leftover work pending the poll is
            // a zero-timeout sample; otherwise announce the park — a wake
            // racing in aborts it (see [`Waker`] for the handshake) — and
            // sleep until the next node timer is due, at most one tick.
            let mut timeout = StdDuration::ZERO;
            let mut parked = false;
            if !(signaled || stopping || leftover) {
                if waker.announce_sleep() {
                    // While links are down the tick doubles as the
                    // reconnect clock; it already bounds the wait.
                    timeout = rt.timers.peek().map_or(TICK, |t| {
                        t.due.saturating_duration_since(Instant::now()).min(TICK)
                    });
                    parked = true;
                } else {
                    waker.take_signal();
                }
            }
            // Interest layout: [wake_rx, listener?, pending..., readers...,
            // writers-with-conn...]. Writers only need POLLOUT while parked
            // on a partial write; fresh batches are attempted
            // opportunistically below without waiting for an event.
            let listener_slot;
            let pending_base;
            let reader_base;
            {
                let mut interests: Vec<(&dyn PollSource, Interest)> =
                    Vec::with_capacity(2 + pending.len() + readers.len() + writers.len());
                interests.push((&wake_rx, Interest::READ));
                listener_slot = listener.as_ref().map(|l| {
                    interests.push((l, Interest::READ));
                    interests.len() - 1
                });
                pending_base = interests.len();
                for p in &pending {
                    interests.push((&p.stream, Interest::READ));
                }
                reader_base = interests.len();
                for r in &readers {
                    interests.push((&r.stream, if r.open { Interest::READ } else { Interest::NONE }));
                }
                for c in writers.iter().filter_map(|w| w.conn.as_ref()) {
                    let parked_write = c.scratch.len() > c.sent;
                    interests.push((
                        &c.stream,
                        if parked_write { Interest::WRITE } else { Interest::NONE },
                    ));
                }
                // A poll failure is unrecoverable for this loop; treat it
                // as a stop request rather than spinning on the error.
                // lint:allow(E1): poll(2) with a bounded tick is the loop's one sanctioned parking point
                if poller.wait(&interests, &mut readiness, timeout).is_err() {
                    stop.store(true, Ordering::Release);
                }
            }
            if parked {
                waker.finish_sleep();
                // Consume the signal of any wake that landed mid-park: the
                // command intake below covers it either way.
                waker.take_signal();
            }
            // Wake bytes exist only when a waker caught the loop parked;
            // everything else stays out of the pipe entirely.
            if readiness.first().is_some_and(|r| r.readable) {
                wake_rx.drain_wakes();
            }

            // Mid-run accepts: drain the listener backlog into the pending
            // set; their handshake bytes promote them to readers below.
            if let (Some(l), Some(slot)) = (listener.as_ref(), listener_slot) {
                if readiness.get(slot).is_some_and(|r| r.readable) {
                    while let Ok(Some(stream)) = poll::try_accept(l) {
                        pending.push(PendingAccept { stream, id: [0; 2], got: 0 });
                    }
                }
            }
            let mut i = 0;
            while i < pending.len() {
                if readiness.get(pending_base + i).is_some_and(|r| r.readable) {
                    match service_pending(&mut pending[i]) {
                        PendingOutcome::Wait => i += 1,
                        PendingOutcome::Dead => {
                            pending.swap_remove(i);
                        }
                        PendingOutcome::Ready => {
                            let p = pending.swap_remove(i);
                            readers.push(Inbound {
                                stream: p.stream,
                                recv: RecvBuffer::new(&pool),
                                open: true,
                            });
                        }
                    }
                } else {
                    i += 1;
                }
            }

            let inbox = &mut rt.inbox;
            for (i, r) in readers.iter_mut().enumerate() {
                if r.open && readiness.get(reader_base + i).is_some_and(|rd| rd.readable) {
                    service_reader(r, &mut |from, msg| inbox.push_back((from, msg)));
                }
            }
            // Dead readers leave the set: with a listener the peer's
            // reconnect will accept a replacement; without one the slot is
            // simply gone (legacy fixed topology).
            readers.retain(|r| r.open);
        }

        // The node's turn: due timers, then commands (paused while a
        // connected queue is full — reads and timers go on regardless, so
        // two loops backlogged on each other still drain each other), then
        // the inbox: this pass's frames and every self-send so far.
        let due_by = Instant::now();
        while let Some(timer) = rt.pop_due(due_by) {
            ctx.set_now(rt.now());
            // lint:allow(E1): node dispatch — a durable store's recovery read in on_start, record appends and the optional fdatasync are the node's own file I/O; the network path never blocks
            node.on_timer(timer, &mut ctx);
            rt.perform_actions(&mut ctx, &writers);
        }
        for _ in 0..MAX_COMMANDS_PER_PASS {
            if backlogged(&writers) {
                break;
            }
            let Some(cmd) = waiting.take().or_else(|| commands.try_recv().ok()) else { break };
            ctx.set_now(rt.now());
            // lint:allow(E1): node dispatch — a durable store's recovery read in on_start, record appends and the optional fdatasync are the node's own file I/O; the network path never blocks
            node.on_command(cmd, &mut ctx);
            rt.perform_actions(&mut ctx, &writers);
        }
        while let Some((from, msg)) = rt.inbox.pop_front() {
            ctx.set_now(rt.now());
            // lint:allow(E1): node dispatch — a durable store's recovery read in on_start, record appends and the optional fdatasync are the node's own file I/O; the network path never blocks
            node.on_message(from, msg, &mut ctx);
            rt.perform_actions(&mut ctx, &writers);
        }

        // Every connected writer gets a service pass: the handlers above
        // may have refilled any queue, and an idle pass is one
        // uncontended try_take_batch lock per peer.
        let now = loop_time(epoch);
        service_writers(me, now, &mut writers, &mut judge, &stats, &mut reconnect);
        // Commands that the cap, or a backlog the writers just drained,
        // held back keep the next pass from parking.
        if waiting.is_none() {
            waiting = commands.try_recv().ok();
        }
        leftover = waiting.is_some() && !backlogged(&writers);

        if stopping {
            // Final pass already flushed what the kernel would take
            // without blocking; everything else is dropped (crashed-peer
            // semantics). Tear the sockets down and exit.
            for w in &writers {
                if let Some(c) = &w.conn {
                    poll::shutdown_stream(&c.stream, Shutdown::Both);
                }
            }
            for r in &readers {
                poll::shutdown_stream(&r.stream, Shutdown::Both);
            }
            for p in &pending {
                poll::shutdown_stream(&p.stream, Shutdown::Both);
            }
            return;
        }
    }
}

/// What [`service_pending`] decided about a half-handshaken accept.
enum PendingOutcome {
    /// Still waiting for handshake bytes.
    Wait,
    /// EOF or error before the handshake completed; drop it.
    Dead,
    /// Handshake complete; promote to a reader.
    Ready,
}

/// Reads the outstanding handshake bytes of one pending accept.
fn service_pending(p: &mut PendingAccept) -> PendingOutcome {
    while p.got < p.id.len() {
        let got = p.got;
        match poll::try_read(&mut p.stream, &mut p.id[got..]) {
            Ok(Some(0)) | Err(_) => {
                poll::shutdown_stream(&p.stream, Shutdown::Both);
                return PendingOutcome::Dead;
            }
            Ok(Some(n)) => p.got += n,
            Ok(None) => return PendingOutcome::Wait,
        }
    }
    // The id is advisory (frames carry their own `from` tag); consuming
    // it is what matters, so the frame decoder starts at a frame boundary.
    PendingOutcome::Ready
}

/// Once-per-tick link maintenance: sever connections a partition window
/// now covers, and dial the reconnect attempts that have come due (gated
/// off while the pair is partitioned).
fn maintain_links<M: WireSize>(
    me: ProcessId,
    now: Duration,
    writers: &mut [Writer<M>],
    reconnect: &mut Reconnector,
    judge: Option<&LinkJudge>,
    stats: &NetFaultStats,
    pool: &BufferPool,
) {
    for w in writers.iter_mut() {
        // Fold newly shed frames (down-mode bulk watermark) into the
        // shared counters; the queue's counter is monotone, so a delta
        // against what was already reported is exact.
        if w.conn.is_none() {
            let shed = w.queue.shed_count();
            if shed > w.shed_reported {
                stats.frames_shed.fetch_add(shed - w.shed_reported, Ordering::Relaxed);
                w.shed_reported = shed;
            }
        }
        let partitioned =
            judge.is_some_and(|j| j.plan().partitioned_at(now, me, w.peer));
        if partitioned {
            if let Some(c) = w.conn.take() {
                // The window opened: kill the connection the way a real
                // partition would — mid-stream. The counter lands before
                // the shutdown so an observer who sees the EOF also sees
                // the severance recorded. Un-sent frames are salvaged for
                // replay after the heal: the *link* is the unit of
                // reliability, not the connection, and losing them here
                // would wedge any consensus instance they carried.
                stats.links_severed.fetch_add(1, Ordering::Relaxed);
                w.queue.set_link_down(true);
                reconnect.mark_down(w.peer, now);
                poll::shutdown_stream(&c.stream, Shutdown::Both);
                let mut rescued = c.salvage();
                rescued.extend_from_slice(&w.carryover);
                w.carryover = rescued;
            }
            // No dialing into an open window; the deadline stays due and
            // fires on the first tick after the heal.
            continue;
        }
        if let Some(addr) = w.addr.filter(|_| w.conn.is_none() && reconnect.due_attempt(w.peer, now)) {
            match poll::connect_loopback(&addr) {
                Ok(mut stream) => {
                    // Re-run the 2-byte id handshake. Two bytes into a
                    // fresh socket buffer cannot short-write; anything but
                    // a complete write means the connection is already
                    // broken, which is just a failed attempt.
                    match poll::try_write(&mut stream, &me.index().to_le_bytes()) {
                        Ok(Some(2)) => {
                            let mut conn = Conn::new(stream, pool);
                            // Replay the salvaged suffix of the dead
                            // connection before any fresh batch: frame
                            // order within the link is preserved, and the
                            // peer's decoder starts clean (it discarded
                            // any partial tail at EOF).
                            if !w.carryover.is_empty() {
                                conn.scratch.extend_from_slice(&w.carryover);
                                w.carryover.clear();
                            }
                            w.conn = Some(conn);
                            w.queue.set_link_down(false);
                            reconnect.mark_up(w.peer);
                            stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            poll::shutdown_stream(&stream, Shutdown::Both);
                            reconnect.attempt_failed(w.peer, now);
                        }
                    }
                }
                Err(_) => reconnect.attempt_failed(w.peer, now),
            }
        }
    }
}

/// Drains one inbound stream: read into the pooled arena, decode frames
/// in place, hand each to `on_frame`. Stops at `WouldBlock`, EOF, a
/// decode error (poisoned framing ⇒ drop the connection), or the
/// per-pass read cap.
fn service_reader<M>(r: &mut Inbound, on_frame: &mut impl FnMut(ProcessId, M))
where
    M: Decode + WireSize,
{
    let mut reads = 0;
    let mut drained = false;
    loop {
        loop {
            match r.recv.next_frame::<TaggedOwned<M>>() {
                Ok(Some(t)) => on_frame(t.from, t.msg),
                Ok(None) => break,
                Err(_) => {
                    poll::shutdown_stream(&r.stream, Shutdown::Both);
                    r.open = false;
                    return;
                }
            }
        }
        if drained || reads >= MAX_READS_PER_TICK {
            return;
        }
        let spare = r.recv.spare(RECV_CHUNK);
        let want = spare.len();
        match poll::try_read(&mut r.stream, spare) {
            Ok(Some(0)) | Err(_) => {
                // EOF or error: the connection is gone. Frames already
                // decoded were delivered; the peer's reconnect (via our
                // listener) replaces the stream if the pair heals.
                r.open = false;
                return;
            }
            Ok(Some(n)) => {
                r.recv.commit(n);
                reads += 1;
                // A short read means the socket is (momentarily) empty:
                // decode what arrived and skip the would-be-EAGAIN read.
                // Level-triggered polling re-arms the stream if more lands.
                drained = n < want;
            }
            Ok(None) => return,
        }
    }
}

/// One service pass over every connected writer, applying the state
/// transitions ([`service_writer`] reports them, this applies them).
fn service_writers<M: Encode + WireSize>(
    me: ProcessId,
    now: Duration,
    writers: &mut [Writer<M>],
    judge: &mut Option<LinkJudge>,
    stats: &NetFaultStats,
    reconnect: &mut Reconnector,
) {
    for w in writers.iter_mut() {
        if w.conn.is_none() {
            continue;
        }
        match service_writer(me, now, w, judge.as_mut(), stats) {
            WriterState::Idle | WriterState::Parked => {}
            WriterState::Dead => {
                if let Some(c) = w.conn.take() {
                    poll::shutdown_stream(&c.stream, Shutdown::Both);
                    if w.addr.is_some() {
                        let mut rescued = c.salvage();
                        rescued.extend_from_slice(&w.carryover);
                        w.carryover = rescued;
                    }
                }
                if w.addr.is_some() {
                    // Healable link: park the queue in down-mode, salvage
                    // the un-sent scratch suffix for replay, and let the
                    // reconnector dial. Catch-up repairs only *decided*
                    // instances and the pending re-flood only payloads,
                    // so an in-flight consensus frame lost here would
                    // wedge its instance for good.
                    w.queue.set_link_down(true);
                    reconnect.mark_down(w.peer, now);
                } else {
                    // Legacy fixed topology: loss is permanent, and the
                    // closed queue drops whatever the node still sends.
                    w.queue.close();
                }
            }
        }
    }
}

/// Pushes one outbound connection as far as the kernel allows: flush any
/// parked suffix, then keep pulling and encoding batches until the queue
/// is empty (Idle), the socket is full (Parked), or the connection died
/// (Dead).
///
/// # Panics
///
/// Panics if called for a writer with no live connection (the service
/// pass filters those).
fn service_writer<M: Encode + WireSize>(
    from: ProcessId,
    now: Duration,
    w: &mut Writer<M>,
    mut judge: Option<&mut LinkJudge>,
    stats: &NetFaultStats,
) -> WriterState {
    let peer = w.peer;
    // lint:allow(P1): service_writers only dispatches connected writers
    let c = w.conn.as_mut().expect("service_writer needs a live conn");
    loop {
        if c.scratch.len() > c.sent {
            match poll::try_write(&mut c.stream, &c.scratch[c.sent..]) {
                Ok(Some(n)) => {
                    c.sent += n;
                    if c.sent < c.scratch.len() {
                        continue; // short write: try once more / park below
                    }
                    c.scratch.clear();
                    c.sent = 0;
                }
                Ok(None) => return WriterState::Parked,
                Err(_) => return WriterState::Dead,
            }
        }
        w.batch.clear();
        match w.queue.try_take_batch(&mut w.batch) {
            // Only a dead link's queue is ever closed, and a dead link has
            // no connection to serve.
            BatchStatus::Empty | BatchStatus::Closed => return WriterState::Idle,
            BatchStatus::Took => {}
        }
        c.bounds.clear();
        for msg in &w.batch {
            // The nemesis fault layer judges each frame as it leaves the
            // queue for the wire; without a plan this is a no-op branch.
            let copies = match judge.as_mut() {
                None => 1,
                Some(j) => match j.judge_frame(now, peer) {
                    NetVerdict::Pass => 1,
                    NetVerdict::Drop => {
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        0
                    }
                    NetVerdict::Duplicate => {
                        stats.frames_duplicated.fetch_add(1, Ordering::Relaxed);
                        2
                    }
                },
            };
            for _ in 0..copies {
                // An oversized frame is unencodable, not a transport
                // error: skip it (write_frame_into already rolled the
                // scratch back).
                if write_frame_into(&Tagged { from, msg }, &mut c.scratch).is_ok() {
                    c.bounds.push(c.scratch.len());
                }
            }
        }
        if c.scratch.is_empty() {
            continue;
        }
        // One vectored write over the per-frame slices: the kernel gathers
        // the whole batch in one syscall, no second userspace copy. A
        // partial acceptance leaves a contiguous suffix in scratch, which
        // the parked branch above flushes as plain bytes.
        let mut slices: Vec<std::io::IoSlice<'_>> = Vec::with_capacity(c.bounds.len());
        let mut start = 0;
        for &end in &c.bounds {
            slices.push(std::io::IoSlice::new(&c.scratch[start..end]));
            start = end;
        }
        match poll::try_write_vectored(&mut c.stream, &slices) {
            Ok(Some(n)) => {
                drop(slices);
                c.sent = n;
                if c.sent == c.scratch.len() {
                    c.scratch.clear();
                    c.sent = 0;
                }
            }
            Ok(None) => {
                drop(slices);
                c.sent = 0;
                return WriterState::Parked;
            }
            Err(_) => return WriterState::Dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_frame, FrameBuffer};
    use crate::queue::tests::Classed;
    use std::io::{Read, Write};

    fn blocking_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// What the [`Scripted`] node reports.
    #[derive(Debug, PartialEq)]
    enum Seen<M> {
        /// A frame arrived from this sender.
        Frame(ProcessId, M),
        /// The loop admitted a command.
        Command,
    }

    /// Test node: sends its start script from `on_start`, each command's
    /// sends once the loop admits it, and reports every frame and command.
    struct Scripted<M> {
        start: Vec<(ProcessId, M)>,
    }

    impl<M: Clone + std::fmt::Debug + WireSize> Node for Scripted<M> {
        type Msg = M;
        type Command = Vec<(ProcessId, M)>;
        type Output = Seen<M>;
        fn on_start(&mut self, ctx: &mut Context<M, Seen<M>>) {
            for (to, m) in std::mem::take(&mut self.start) {
                ctx.send(to, m);
            }
        }
        fn on_command(&mut self, sends: Vec<(ProcessId, M)>, ctx: &mut Context<M, Seen<M>>) {
            ctx.output(Seen::Command);
            for (to, m) in sends {
                ctx.send(to, m);
            }
        }
        fn on_message(&mut self, from: ProcessId, m: M, ctx: &mut Context<M, Seen<M>>) {
            ctx.output(Seen::Frame(from, m));
        }
    }

    /// A loop hosting a [`Scripted`] node, plus its output channel.
    struct Harness<M> {
        handle: EventLoopHandle<Vec<(ProcessId, M)>>,
        outputs: Receiver<NetOutput<Seen<M>>>,
    }

    impl<M> Harness<M> {
        /// The next frame the node reported, skipping command reports.
        fn next_frame(&self, timeout: StdDuration) -> Option<(ProcessId, M)> {
            let deadline = Instant::now() + timeout;
            loop {
                let left = deadline.checked_duration_since(Instant::now())?;
                match self.outputs.recv_timeout(left).ok()?.output {
                    Seen::Frame(from, m) => return Some((from, m)),
                    Seen::Command => {}
                }
            }
        }

        fn stop(self) {
            self.handle.stop();
            self.handle.join();
        }
    }

    /// Process `me` of `n`, hosting a [`Scripted`] node over `topo`.
    fn spawn_scripted<M>(
        me: ProcessId,
        n: usize,
        topo: LoopTopology,
        start: Vec<(ProcessId, M)>,
    ) -> Harness<M>
    where
        M: Encode + Decode + Clone + std::fmt::Debug + WireSize + Send + 'static,
    {
        for s in topo.inbound.iter().chain(topo.outbound.iter().map(|l| &l.stream)) {
            s.set_nonblocking(true).unwrap();
            s.set_nodelay(true).unwrap();
        }
        let (tx, outputs) = unbounded();
        let host = Hosted { node: Scripted { start }, n, epoch: Instant::now(), outputs: tx };
        Harness { handle: spawn(me, topo, host), outputs }
    }

    /// A fixed, heal-free topology: no listener, no reconnect addresses,
    /// no faults. Outbound streams lead to peers 1, 2, … in order.
    fn fixed(inbound: Vec<TcpStream>, outbound: Vec<TcpStream>) -> LoopTopology {
        LoopTopology {
            listener: None,
            inbound,
            outbound: outbound
                .into_iter()
                .enumerate()
                .map(|(i, stream)| OutboundLink {
                    peer: ProcessId::new(i as u16 + 1),
                    addr: None,
                    stream,
                })
                .collect(),
            faults: None,
            stats: Arc::new(NetFaultStats::default()),
        }
    }

    fn to_p1<M>(msgs: impl IntoIterator<Item = M>) -> Vec<(ProcessId, M)> {
        msgs.into_iter().map(|m| (ProcessId::new(1), m)).collect()
    }

    #[test]
    fn outbound_batch_drains_ordering_ahead_of_bulk_over_the_wire() {
        let (ours, mut theirs) = blocking_pair();
        // Sent from on_start, before the first drain: the whole burst is
        // one batch.
        let start = to_p1([2, 4, 1, 6, 3, 8, 5].map(Classed));
        let h = spawn_scripted(ProcessId::new(0), 2, fixed(vec![], vec![ours]), start);

        let mut frames = FrameBuffer::new();
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = [0u8; 4096];
        while got.len() < 7 {
            let read = std::io::Read::read(&mut theirs, &mut chunk).unwrap();
            assert!(read > 0, "stream closed before the batch arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Classed>>().unwrap() {
                assert_eq!(t.from, ProcessId::new(0));
                got.push(t.msg.0);
            }
        }
        assert_eq!(got, vec![1, 3, 5, 2, 4, 6, 8], "ordering lane must drain first");
        h.stop();
    }

    #[test]
    fn corrupt_inbound_frame_tears_the_connection_after_delivering_the_good_prefix() {
        let (theirs, ours) = blocking_pair();
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 2, fixed(vec![ours], vec![]), vec![]);
        let mut theirs = theirs;
        write_frame(&Tagged { from: ProcessId::new(1), msg: &Classed(42) }, &mut theirs).unwrap();
        // A malformed frame: the length prefix says 2 bytes, which can
        // never decode as a Tagged<Classed>.
        theirs.write_all(&2u32.to_le_bytes()).unwrap();
        theirs.write_all(&[0xAB, 0xCD]).unwrap();
        // A good frame after the corruption must never be delivered (the
        // loop may already have torn the socket down — ignore errors).
        let _ = write_frame(&Tagged { from: ProcessId::new(1), msg: &Classed(7) }, &mut theirs);

        let first = h.next_frame(StdDuration::from_secs(5)).unwrap();
        assert_eq!(first, (ProcessId::new(1), Classed(42)));
        assert!(
            h.next_frame(StdDuration::from_secs(2)).is_none(),
            "no frame may be delivered after a decode error"
        );
        h.stop();
    }

    #[test]
    fn writer_death_reconnects_through_the_peer_listener_and_drains_the_parked_backlog() {
        // The peer: a listener we control. The initial connection is torn
        // down by "the peer" mid-run; the loop must flip the queue into
        // down-mode, redial our listener with the 2-byte handshake, and
        // flush the ordering frames parked while the link was down.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer_listener.local_addr().unwrap();
        let initial = TcpStream::connect(peer_addr).unwrap();
        let (their_end, _) = peer_listener.accept().unwrap();
        let topo = LoopTopology {
            listener: None,
            inbound: vec![],
            outbound: vec![OutboundLink { peer: ProcessId::new(1), addr: Some(peer_addr), stream: initial }],
            faults: None,
            stats: Arc::new(NetFaultStats::default()),
        };
        let stats = Arc::clone(&topo.stats);
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 2, topo, vec![]);

        // Kill the peer end: the loop's next write hits EPIPE/RST.
        drop(their_end);
        // Keep pushing ordering frames (odd ids) until the loop redials.
        let (accepted, hs) = {
            peer_listener.set_nonblocking(true).unwrap();
            let deadline = Instant::now() + StdDuration::from_secs(10);
            let mut accepted = None;
            while accepted.is_none() {
                assert!(Instant::now() < deadline, "loop never redialed the peer listener");
                h.handle.send_command(to_p1([Classed(1)]));
                std::thread::sleep(StdDuration::from_millis(5));
                if let Ok((s, _)) = peer_listener.accept() {
                    accepted = Some(s);
                }
            }
            let mut s = accepted.unwrap();
            s.set_nonblocking(false).unwrap();
            let mut hs = [0u8; 2];
            s.read_exact(&mut hs).unwrap();
            (s, hs)
        };
        assert_eq!(u16::from_le_bytes(hs), 0, "handshake must carry the dialer's id");
        // A post-reconnect frame must arrive on the new stream (parked
        // backlog first — all odd, all ordering — then this one).
        h.handle.send_command(to_p1([Classed(9)]));
        let mut frames = FrameBuffer::new();
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut accepted = accepted;
        while !got.contains(&9) {
            let read = std::io::Read::read(&mut accepted, &mut chunk).unwrap();
            assert!(read > 0, "reconnected stream closed early");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Classed>>().unwrap() {
                got.push(t.msg.0);
            }
        }
        // Frame 9 went in *after* the reconnect: its arrival proves the
        // queue was parked in down-mode rather than closed for good. (How
        // many pre-heal frames survive depends on when the kernel raised
        // the write error — the parking policy itself is unit-tested in
        // `queue`.) The ordering lane is FIFO, so 9 drains last.
        assert_eq!(got.last(), Some(&9));
        assert!(stats.report().reconnects >= 1);
        h.stop();
    }

    #[test]
    fn partition_window_severs_the_link_and_heals_after_it_closes() {
        // A fault-plan partition: the loop must kill its own healthy
        // connection when the window opens, refuse to redial inside the
        // window, and reconnect after it closes.
        let peer_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer_addr = peer_listener.local_addr().unwrap();
        let initial = TcpStream::connect(peer_addr).unwrap();
        let (their_end, _) = peer_listener.accept().unwrap();
        let window_from = Duration::from_millis(0);
        let window_until = Duration::from_millis(400);
        let topo = LoopTopology {
            listener: None,
            inbound: vec![],
            outbound: vec![OutboundLink { peer: ProcessId::new(1), addr: Some(peer_addr), stream: initial }],
            faults: Some(
                NetFaultPlan::new(11)
                    .partition(ProcessId::new(0), ProcessId::new(1), window_from, window_until),
            ),
            stats: Arc::new(NetFaultStats::default()),
        };
        let stats = Arc::clone(&topo.stats);
        let started = Instant::now();
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 2, topo, vec![]);

        // The severance arrives within a few ticks: our end sees EOF.
        let mut their_end = their_end;
        their_end
            .set_read_timeout(Some(StdDuration::from_secs(5)))
            .unwrap();
        let mut sink = [0u8; 64];
        let eof_at = loop {
            match their_end.read(&mut sink) {
                Ok(0) => break Instant::now(),
                Ok(_) => continue,
                Err(e) => panic!("expected EOF from the severed link, got {e}"),
            }
        };
        assert!(stats.report().links_severed >= 1);
        // The redial may only land after the window closes.
        peer_listener.set_nonblocking(false).unwrap();
        peer_listener
            .set_ttl(1) // no-op; keeps the handle warm on some platforms
            .ok();
        let (mut healed, _) = peer_listener.accept().unwrap();
        let healed_at = started.elapsed();
        assert!(
            healed_at >= StdDuration::from_millis(350),
            "redial landed inside the partition window ({healed_at:?}, eof at {eof_at:?})"
        );
        let mut hs = [0u8; 2];
        healed.read_exact(&mut hs).unwrap();
        assert_eq!(u16::from_le_bytes(hs), 0);
        assert!(stats.report().reconnects >= 1);
        // Frames flow again on the healed link.
        h.handle.send_command(to_p1([Classed(5)]));
        let mut frames = FrameBuffer::new();
        let mut chunk = [0u8; 1024];
        'outer: loop {
            let read = healed.read(&mut chunk).unwrap();
            assert!(read > 0, "healed stream closed early");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Classed>>().unwrap() {
                if t.msg.0 == 5 {
                    break 'outer;
                }
            }
        }
        h.stop();
    }

    #[test]
    fn mid_run_accept_promotes_after_the_handshake_and_frames_flow() {
        // The loop owns a listener: a peer that connects mid-run, sends
        // its 2-byte id, and then frames, must be read like any inbound.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let topo = LoopTopology {
            listener: Some(listener),
            inbound: vec![],
            outbound: vec![],
            faults: None,
            stats: Arc::new(NetFaultStats::default()),
        };
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 4, topo, vec![]);
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&3u16.to_le_bytes()).unwrap();
        write_frame(&Tagged { from: ProcessId::new(3), msg: &Classed(21) }, &mut peer).unwrap();
        let got = h.next_frame(StdDuration::from_secs(5)).unwrap();
        assert_eq!(got, (ProcessId::new(3), Classed(21)));
        h.stop();
    }

    /// A bulk frame big enough that a few thousand of them overflow any
    /// socket buffer, forcing the loop to park on a partial write.
    #[derive(Clone, Debug, PartialEq)]
    struct Huge(u32);
    const HUGE_LEN: usize = 4096;
    impl iabc_types::WireSize for Huge {
        fn wire_size(&self) -> usize {
            4 + HUGE_LEN
        }
    }
    impl Encode for Huge {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
            buf.extend(std::iter::repeat_n((self.0 % 251) as u8, HUGE_LEN));
        }
    }
    impl Decode for Huge {
        fn decode(buf: &mut &[u8]) -> Result<Self, iabc_types::CodecError> {
            let id = u32::decode(buf)?;
            if buf.len() < HUGE_LEN {
                return Err(iabc_types::CodecError::Truncated { need: HUGE_LEN, have: buf.len() });
            }
            let (body, rest) = buf.split_at(HUGE_LEN);
            assert!(body.iter().all(|&b| b == (id % 251) as u8), "frame body corrupted");
            *buf = rest;
            Ok(Huge(id))
        }
    }

    #[test]
    fn shutdown_never_hangs_on_a_peer_that_stopped_reading() {
        // The peer end exists but never reads: our writes eventually
        // WouldBlock with a parked remainder. stop() must still return
        // promptly — the backlog to a dead peer is dropped, not awaited.
        let (ours, theirs) = blocking_pair();
        // ~16 MiB sent (within queue capacity, far past socket buffers):
        // the loop must park on a partial write.
        let start = to_p1((0..4096u32).map(Huge));
        let h = spawn_scripted(ProcessId::new(0), 2, fixed(vec![], vec![ours]), start);
        std::thread::sleep(StdDuration::from_millis(100));
        let t0 = Instant::now();
        h.stop();
        assert!(
            t0.elapsed() < StdDuration::from_secs(2),
            "shutdown must not wait for a peer that never drains"
        );
        drop(theirs);
    }

    #[test]
    fn vectored_drain_survives_partial_writes_on_huge_batches() {
        // One ~16 MiB pre-filled batch, far past the socket buffer: the
        // single vectored write cannot take it all, so the loop must park
        // the remainder and resume on writability — every frame must
        // still arrive intact and in FIFO order.
        const FRAMES: u32 = 2048;
        let (ours, mut theirs) = blocking_pair();
        let start = to_p1((0..FRAMES).map(Huge));
        let h = spawn_scripted(ProcessId::new(2), 3, fixed(vec![], vec![ours]), start);
        let mut frames = FrameBuffer::new();
        let mut got: Vec<u32> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        while got.len() < FRAMES as usize {
            let read = std::io::Read::read(&mut theirs, &mut chunk).unwrap();
            assert!(read > 0, "stream closed before the batch arrived");
            frames.extend(&chunk[..read]);
            while let Some(t) = frames.next_frame::<TaggedOwned<Huge>>().unwrap() {
                assert_eq!(t.from, ProcessId::new(2));
                got.push(t.msg.0);
            }
        }
        // Every frame arrived intact (the Decode impl checks the body),
        // in FIFO order — whichever frame the short write split.
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>());
        h.stop();
    }

    #[test]
    fn wake_coalescing_still_delivers_every_burst() {
        // Many small commands, each ringing the doorbell: regardless of
        // how the flag coalesces the wakes, every command's frame must
        // arrive, exactly once.
        let (ours, mut theirs) = blocking_pair();
        theirs.set_nodelay(true).unwrap();
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 2, fixed(vec![], vec![ours]), vec![]);
        let total = 500u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 0..total {
                    h.handle.send_command(to_p1([Classed(v)]));
                }
            });
            let mut frames = FrameBuffer::new();
            let mut got = vec![false; total as usize];
            let mut seen = 0usize;
            let mut chunk = [0u8; 4096];
            while seen < total as usize {
                let read = std::io::Read::read(&mut theirs, &mut chunk).unwrap();
                assert!(read > 0, "stream closed early");
                frames.extend(&chunk[..read]);
                while let Some(t) = frames.next_frame::<TaggedOwned<Classed>>().unwrap() {
                    let idx = t.msg.0 as usize;
                    assert!(!got[idx], "duplicate frame {idx}");
                    got[idx] = true;
                    seen += 1;
                }
            }
        });
        h.stop();
    }

    #[test]
    fn a_peer_that_never_reads_pauses_commands_but_not_the_other_peer() {
        // Peer 1 never reads. Its socket fills, the writer parks, and the
        // queue behind it grows to capacity: from then on the loop must
        // leave commands waiting in the channel — and yet keep reading
        // and handling peer 2's frames, and still stop promptly.
        let (to_p1_ours, _p1_never_reads) = blocking_pair();
        let (to_p2_ours, _p2_end) = blocking_pair();
        let (p2_writes, from_p2_ours) = blocking_pair();
        let topo = fixed(vec![from_p2_ours], vec![to_p1_ours, to_p2_ours]);
        let h = spawn_scripted::<Classed>(ProcessId::new(0), 3, topo, vec![]);
        // Each command sends 4096 small frames to peer 1: a few hundred
        // commands are far more than socket buffers plus a full queue hold.
        const COMMANDS: usize = 400;
        for c in 0..COMMANDS {
            let base = (c * 4096) as u32;
            h.handle.send_command(to_p1((base..base + 4096).map(|v| Classed(v * 2))));
        }
        let admitted = |h: &Harness<Classed>, settle: StdDuration| {
            let deadline = Instant::now() + settle;
            let mut n = 0;
            while let Some(left) = deadline.checked_duration_since(Instant::now()) {
                match h.outputs.recv_timeout(left) {
                    Ok(o) if o.output == Seen::Command => n += 1,
                    Ok(o) => panic!("unexpected output {:?}", o.output),
                    Err(_) => break,
                }
            }
            n
        };
        let first = admitted(&h, StdDuration::from_millis(500));
        assert!(first > 0, "no command was admitted at all");
        assert!(first < COMMANDS, "all {COMMANDS} commands admitted past a full queue");
        // Still paused: the rest wait in the channel, not in the queue.
        assert_eq!(admitted(&h, StdDuration::from_millis(200)), 0, "admission resumed while full");
        // The other peer's frames are still read and handled.
        let mut p2_writes = p2_writes;
        write_frame(&Tagged { from: ProcessId::new(2), msg: &Classed(77) }, &mut p2_writes).unwrap();
        assert_eq!(
            h.next_frame(StdDuration::from_secs(5)),
            Some((ProcessId::new(2), Classed(77))),
            "a backlogged loop must keep handling the other peer's frames"
        );
        let t0 = Instant::now();
        h.stop();
        assert!(
            t0.elapsed() < StdDuration::from_secs(2),
            "shutdown must not wait for the backlog to a peer that never reads"
        );
    }

    /// A classed frame sized for the short-write storm: odd ids ride the
    /// ordering lane, even ids the bulk lane, and the 2 KiB body means a
    /// pre-filled batch of a few hundred frames overflows the socket
    /// buffer many times over, so the vectored drain keeps short-writing
    /// and parking mid-frame. The `Decode` impl checks the body, so a
    /// suffix spliced back at the wrong offset fails loudly.
    #[derive(Clone, Debug, PartialEq)]
    struct Storm(u32);
    const STORM_LEN: usize = 2048;
    impl iabc_types::WireSize for Storm {
        fn wire_size(&self) -> usize {
            4 + STORM_LEN
        }
        fn traffic_class(&self) -> iabc_types::TrafficClass {
            if self.0 % 2 == 1 {
                iabc_types::TrafficClass::Ordering
            } else {
                iabc_types::TrafficClass::Bulk
            }
        }
    }
    impl Encode for Storm {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
            buf.extend(std::iter::repeat_n((self.0 % 251) as u8, STORM_LEN));
        }
    }
    impl Decode for Storm {
        fn decode(buf: &mut &[u8]) -> Result<Self, iabc_types::CodecError> {
            let id = u32::decode(buf)?;
            if buf.len() < STORM_LEN {
                return Err(iabc_types::CodecError::Truncated { need: STORM_LEN, have: buf.len() });
            }
            let (body, rest) = buf.split_at(STORM_LEN);
            assert!(body.iter().all(|&b| b == (id % 251) as u8), "frame body corrupted");
            *buf = rest;
            Ok(Storm(id))
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Short-write storm: an arbitrary lane mix far past the socket
        /// buffer, drained against a reader whose chunk size is also
        /// arbitrary. However the kernel slices the vectored writes, no
        /// frame may be dropped, duplicated, corrupted, or reordered
        /// within its lane — the parked scratch suffix must resume at
        /// exactly the byte where the short write stopped.
        #[test]
        fn short_write_storm_preserves_per_lane_fifo(
            vals in proptest::collection::vec(any::<u32>(), 64..320),
            read_cap in 32usize..4096,
        ) {
            let (ours, mut theirs) = blocking_pair();
            // Sent from on_start, before the first drain: the storm is one
            // huge batch.
            let start = to_p1(vals.iter().map(|&v| Storm(v)));
            let h = spawn_scripted(ProcessId::new(3), 4, fixed(vec![], vec![ours]), start);
            let mut frames = FrameBuffer::new();
            let mut got: Vec<u32> = Vec::new();
            let mut chunk = vec![0u8; read_cap];
            while got.len() < vals.len() {
                let read = std::io::Read::read(&mut theirs, &mut chunk).unwrap();
                prop_assert!(read > 0, "stream closed before the storm arrived");
                frames.extend(&chunk[..read]);
                while let Some(t) = frames.next_frame::<TaggedOwned<Storm>>().unwrap() {
                    prop_assert_eq!(t.from, ProcessId::new(3));
                    got.push(t.msg.0);
                }
            }
            h.stop();
            // Nothing extra arrived, and each lane is FIFO end to end.
            prop_assert_eq!(got.len(), vals.len());
            let lane = |seq: &[u32], odd: bool| -> Vec<u32> {
                seq.iter().copied().filter(|v| (v % 2 == 1) == odd).collect()
            };
            prop_assert_eq!(lane(&got, true), lane(&vals, true), "ordering lane reordered");
            prop_assert_eq!(lane(&got, false), lane(&vals, false), "bulk lane reordered");
        }
    }
}
