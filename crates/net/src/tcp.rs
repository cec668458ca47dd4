//! TCP cluster: nodes connected by loop-back TCP sockets, each process
//! one thread — an event loop that runs the node and all of its I/O.
//!
//! Links are real sockets and messages travel through the wire codec —
//! the closest in-process analogue of the paper's cluster deployment.
//!
//! # The architecture: one thread per process
//!
//! Each process is a single [`crate::event_loop`] thread, `iabc-io-<p>`.
//! It hosts the process's node and drives all of its `2·(n−1)` streams
//! through a `poll(2)`-based readiness loop ([`crate::poll`]):
//!
//! * **Inbound**: sockets read straight into pooled receive buffers and
//!   frames decode **in place** from those bytes
//!   ([`iabc_types::Decode::decode_in_place`]), then go to the node's
//!   `on_message` on the same thread — no channel, no wake-up, no copy.
//! * **Outbound**: the node's `Send` actions enqueue into the peer's
//!   two-lane [`crate::queue::PeerQueue`], and the same pass drains each
//!   queue — ordering frames ahead of bulk — encodes the batch into
//!   pooled scratch and pushes it with a single vectored write; partial
//!   writes park the remainder and re-arm writability. Under load this
//!   coalesces many frames per syscall and keeps consensus traffic from
//!   queueing behind payload floods inside the transport, mirroring the
//!   simulator's priority lane. Self-sends never leave the loop.
//! * **Timers and commands**: the loop keeps the node's timers in a heap
//!   and sleeps in `poll` no longer than the next is due; application
//!   commands arrive over a channel whose doorbell wakes the loop.
//!
//! The earlier architectures survive as controls: the node-on-a-thread,
//! blocking-reader-and-flusher transport
//! ([`crate::tcp_threaded::ThreadedTcpCluster`], `2·(n−1)` I/O threads per
//! process) is the measured control of the `loopback_cluster` bench.
//!
//! # Lock discipline
//!
//! All transport locking lives in [`crate::queue`] (one mutex per peer
//! queue, uncontended here because the loop is its only user, no I/O
//! under a guard — see its module docs) and [`crate::pool`]. The event
//! loop never blocks on the network: lint rule `E1` mechanically enforces
//! that its module set reaches the kernel only through the sanctioned
//! nonblocking shims in [`crate::poll`] — apart from a durable store's
//! file I/O inside the node's handlers.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver};
use iabc_runtime::Node;
use iabc_types::{Decode, Encode, ProcessId};

use crate::cluster::collect_outputs;
use crate::event_loop::{self, EventLoopHandle, Hosted, LoopTopology, OutboundLink};
use crate::netfault::{NetFaultPlan, NetFaultReport, NetFaultStats};
use crate::NetOutput;

/// A mesh of loop-back TCP connections between `n` local "processes",
/// each one event-loop thread that runs its node and all of its I/O.
///
/// A test/demo vehicle, not a deployment platform — but every message
/// crosses a real socket through the wire codec, so the full
/// encode → TCP → decode-in-place path is exercised.
pub struct TcpCluster<N: Node>
where
    N::Msg: Encode,
{
    io_loops: Vec<EventLoopHandle<N::Command>>,
    outputs: Receiver<NetOutput<N::Output>>,
    fault_stats: Vec<Arc<NetFaultStats>>,
}

impl<N> TcpCluster<N>
where
    N: Node + Send + 'static,
    N::Msg: Encode + Decode + Send,
    N::Command: Send,
    N::Output: Send,
{
    /// Binds `n` loop-back listeners, connects the full mesh (blocking
    /// handshakes, so the cluster is fully wired before this returns),
    /// and starts one event loop per process, hosting its node.
    ///
    /// # Panics
    ///
    /// Panics if sockets cannot be bound or connected (loop-back only, so
    /// this indicates local resource exhaustion).
    pub fn start(n: usize, factory: impl FnMut(ProcessId) -> N) -> Self {
        Self::start_with_faults(n, None, factory)
    }

    /// [`TcpCluster::start`] with an optional nemesis fault plan. Every
    /// process's event loop gets a clone of the plan, so both endpoints
    /// of a partitioned pair sever their half of the link. `None` keeps
    /// the frame path entirely fault-layer-free (the plan is never
    /// consulted), so fault-off wire traffic is byte-identical to a
    /// cluster started through [`TcpCluster::start`].
    ///
    /// # Panics
    ///
    /// Panics as [`TcpCluster::start`] does.
    pub fn start_with_faults(
        n: usize,
        faults: Option<NetFaultPlan>,
        mut factory: impl FnMut(ProcessId) -> N,
    ) -> Self {
        assert!(n > 0, "need at least one process");
        // Process ids travel as u16 in the handshake and frame tags; every
        // `i as u16` below is bounded by this assert.
        assert!(n <= usize::from(u16::MAX) + 1, "process ids are u16 on the wire");
        // Bind one listener per process on an ephemeral port.
        // Setup-time expects below are documented under `# Panics`: they run
        // before any remote bytes exist, on loop-back sockets only, where a
        // failure means local resource exhaustion and there is no
        // connection to poison yet.
        let listeners: Vec<TcpListener> = (0..n)
            // lint:allow(P1): bootstrap bind, documented panic, no remote input yet
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loop-back listener"))
            .collect();
        let addrs: Vec<_> =
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listeners.iter().map(|l| l.local_addr().expect("local addr")).collect();

        // Outbound side: from i to j (i != j), a connected stream owned by
        // process i's event loop.
        let mut outbound: Vec<Vec<OutboundLink>> = (0..n).map(|_| vec![]).collect();
        for (i, links) in outbound.iter_mut().enumerate() {
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    continue;
                }
                // lint:allow(P1): bootstrap connect, documented panic, no remote input yet
                let mut stream = TcpStream::connect(addr).expect("connect to peer");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nodelay(true).expect("nodelay");
                // Identify ourselves so the acceptor can route. Written
                // while the stream is still blocking — the handshake is
                // part of the start barrier.
                // lint:allow(P1): bootstrap handshake, documented panic, no remote input yet — lint:allow(W2): i < n and start() asserts n fits in u16
                stream.write_all(&(i as u16).to_le_bytes()).expect("handshake");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nonblocking(true).expect("nonblocking");
                // lint:allow(W2): j < n and start() asserts n fits in u16
                links.push(OutboundLink { peer: ProcessId::new(j as u16), addr: Some(*addr), stream });
            }
        }

        // Inbound side: accept n-1 connections per listener (blocking — the
        // start barrier again), read the 2-byte sender handshake, then flip
        // the stream nonblocking for the event loop.
        let mut inbound_conns: Vec<Vec<TcpStream>> = Vec::with_capacity(n);
        for listener in &listeners {
            let mut accepted = Vec::with_capacity(n - 1);
            for _ in 0..(n - 1) {
                // lint:allow(P1): bootstrap accept, documented panic, no remote input yet
                let (mut stream, _) = listener.accept().expect("accept peer connection");
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nodelay(true).expect("nodelay");
                let mut id = [0u8; 2];
                // lint:allow(P1): bootstrap handshake, documented panic, no remote input yet
                stream.read_exact(&mut id).expect("handshake");
                let _claimed_sender = ProcessId::new(u16::from_le_bytes(id));
                // lint:allow(P1): bootstrap, documented panic, no remote input yet
                stream.set_nonblocking(true).expect("nonblocking");
                accepted.push(stream);
            }
            inbound_conns.push(accepted);
        }

        // One clock for the whole cluster, started before the first node
        // is built: `NetOutput::at` compares across processes.
        let epoch = Instant::now();
        let (out_tx, outputs) = unbounded();
        // Each loop keeps its process's listener (flipped nonblocking) so
        // severed peers can redial mid-run.
        let mut io_loops = Vec::with_capacity(n);
        let mut fault_stats = Vec::with_capacity(n);
        for (j, ((inbound, links), listener)) in
            inbound_conns.into_iter().zip(outbound).zip(listeners).enumerate()
        {
            // lint:allow(W2): j < n and start() asserts n fits in u16
            let me = ProcessId::new(j as u16);
            // lint:allow(P1): bootstrap, documented panic, no remote input yet
            listener.set_nonblocking(true).expect("nonblocking listener");
            let stats = Arc::new(NetFaultStats::default());
            fault_stats.push(Arc::clone(&stats));
            io_loops.push(event_loop::spawn(
                me,
                LoopTopology {
                    listener: Some(listener),
                    inbound,
                    outbound: links,
                    faults: faults.clone(),
                    stats,
                },
                Hosted { node: factory(me), n, epoch, outputs: out_tx.clone() },
            ));
        }

        TcpCluster { io_loops, outputs, fault_stats }
    }

    /// Per-process fault/reconnect counter snapshots (indexed by process
    /// id). All zeros unless a fault plan armed or a link actually died.
    pub fn fault_reports(&self) -> Vec<NetFaultReport> {
        self.fault_stats.iter().map(|s| s.report()).collect()
    }

    /// Sends an application command to process `p`. Its loop admits it on
    /// the next pass — unless one of `p`'s outbound queues is full, in
    /// which case the command waits until that backlog drains.
    pub fn send_command(&self, p: ProcessId, cmd: N::Command) {
        self.io_loops[p.as_usize()].send_command(cmd);
    }

    /// Collects outputs for (wall-clock) `dur`.
    pub fn run_for(&mut self, dur: std::time::Duration) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, usize::MAX, dur)
    }

    /// Collects outputs until `count` have arrived or `timeout` elapses —
    /// the latency-friendly alternative to [`TcpCluster::run_for`] when
    /// the caller knows how many outputs to expect (benches, tests).
    pub fn wait_for_outputs(
        &mut self,
        count: usize,
        timeout: std::time::Duration,
    ) -> Vec<NetOutput<N::Output>> {
        collect_outputs(&self.outputs, count, timeout)
    }

    /// Stops every process: each loop makes one last nonblocking flush
    /// pass, shuts its sockets down and drops its node. Never hangs on a
    /// dead peer: outbound backlog is flushed best-effort, not awaited.
    pub fn shutdown(self) {
        for l in &self.io_loops {
            l.stop();
        }
        for l in self.io_loops {
            l.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::TICK;
    use iabc_runtime::{Context, TimerId};
    use iabc_types::{CodecError, Time, TrafficClass, WireSize};
    use std::time::Duration;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u32);
    impl WireSize for Num {
        fn wire_size(&self) -> usize {
            4
        }
    }
    impl Encode for Num {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Num {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Num(u32::decode(buf)?))
        }
    }

    struct Echo;
    impl Node for Echo {
        type Msg = Num;
        type Command = u32;
        type Output = (ProcessId, u32);
        fn on_command(&mut self, cmd: u32, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.send_to_all(Num(cmd));
        }
        fn on_message(&mut self, from: ProcessId, m: Num, ctx: &mut Context<Num, (ProcessId, u32)>) {
            ctx.output((from, m.0));
        }
    }

    #[test]
    fn fanout_over_tcp() {
        let mut cluster = TcpCluster::start(3, |_| Echo);
        cluster.send_command(ProcessId::new(1), 77);
        let outs = cluster.wait_for_outputs(3, Duration::from_secs(5));
        assert_eq!(outs.len(), 3, "all three processes must receive the fanout");
        assert!(outs.iter().all(|o| o.output == (ProcessId::new(1), 77)));
        cluster.shutdown();
    }

    /// A classed test frame: odd values are ordering, even values bulk.
    #[derive(Clone, Debug, PartialEq)]
    struct Classed(u32);
    impl WireSize for Classed {
        fn wire_size(&self) -> usize {
            4
        }
        fn traffic_class(&self) -> TrafficClass {
            if self.0 % 2 == 1 { TrafficClass::Ordering } else { TrafficClass::Bulk }
        }
    }
    impl Encode for Classed {
        fn encode(&self, buf: &mut Vec<u8>) {
            self.0.encode(buf);
        }
    }
    impl Decode for Classed {
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Classed(u32::decode(buf)?))
        }
    }

    #[test]
    fn mixed_class_traffic_over_tcp_delivers_everything() {
        struct MixedEcho;
        impl Node for MixedEcho {
            type Msg = Classed;
            type Command = u32;
            type Output = (ProcessId, u32);
            fn on_command(&mut self, cmd: u32, ctx: &mut Context<Classed, (ProcessId, u32)>) {
                ctx.send_to_all(Classed(cmd));
            }
            fn on_message(
                &mut self,
                from: ProcessId,
                m: Classed,
                ctx: &mut Context<Classed, (ProcessId, u32)>,
            ) {
                ctx.output((from, m.0));
            }
        }
        let mut cluster = TcpCluster::start(3, |_| MixedEcho);
        for v in 0..20u32 {
            cluster.send_command(ProcessId::new((v % 3) as u16), v);
        }
        let outs = cluster.wait_for_outputs(20 * 3, Duration::from_secs(10));
        assert_eq!(outs.len(), 20 * 3, "every classed frame must reach all processes");
        cluster.shutdown();
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        struct Alarm;
        impl Node for Alarm {
            type Msg = Num;
            type Command = ();
            type Output = u64;
            fn on_start(&mut self, ctx: &mut Context<Num, u64>) {
                ctx.set_timer(iabc_types::Duration::from_millis(20), TimerId::new(1, 5));
            }
            fn on_timer(&mut self, t: TimerId, ctx: &mut Context<Num, u64>) {
                ctx.output(t.data());
            }
        }
        let mut cluster = TcpCluster::start(2, |_| Alarm);
        let outs = cluster.wait_for_outputs(2, Duration::from_secs(5));
        assert_eq!(outs.len(), 2, "every process's timer must fire");
        for o in &outs {
            assert_eq!(o.output, 5);
            // The epoch precedes on_start, so a timer can only be early if
            // the loop fired it early.
            assert!(o.at >= Time::from_nanos(20_000_000), "fired too early: {:?}", o.at);
        }
        cluster.shutdown();
    }

    #[test]
    fn a_command_to_an_idle_loop_is_handled_well_within_a_tick() {
        // The doorbell must pull a parked loop out of poll at once, not
        // at the end of its TICK-long sleep.
        let mut cluster = TcpCluster::start(2, |_| Echo);
        let mut fastest = Duration::MAX;
        for round in 0..5u32 {
            std::thread::sleep(Duration::from_millis(100));
            let t0 = Instant::now();
            cluster.send_command(ProcessId::new(0), round);
            // The self-delivery: output on the same pass as the command.
            let outs = cluster.wait_for_outputs(1, Duration::from_secs(5));
            assert_eq!(outs.len(), 1);
            fastest = fastest.min(t0.elapsed());
            cluster.wait_for_outputs(1, Duration::from_secs(5));
        }
        assert!(fastest < TICK / 2, "idle loop took {fastest:?} to handle a command");
        cluster.shutdown();
    }

    #[test]
    fn self_sends_are_delivered() {
        // A chain of self-sends never touches a socket: each one must
        // still reach on_message, from the sender itself.
        struct Countdown;
        impl Node for Countdown {
            type Msg = Num;
            type Command = u32;
            type Output = (ProcessId, u32);
            fn on_command(&mut self, k: u32, ctx: &mut Context<Num, (ProcessId, u32)>) {
                ctx.send(ctx.me(), Num(k));
            }
            fn on_message(&mut self, from: ProcessId, m: Num, ctx: &mut Context<Num, (ProcessId, u32)>) {
                ctx.output((from, m.0));
                if m.0 > 0 {
                    ctx.send(ctx.me(), Num(m.0 - 1));
                }
            }
        }
        let mut cluster = TcpCluster::start(2, |_| Countdown);
        cluster.send_command(ProcessId::new(1), 5);
        let outs = cluster.wait_for_outputs(6, Duration::from_secs(5));
        let got: Vec<(ProcessId, u32)> = outs.iter().map(|o| o.output).collect();
        let me = ProcessId::new(1);
        assert_eq!(got, (0..=5).rev().map(|k| (me, k)).collect::<Vec<_>>());
        assert!(outs.iter().all(|o| o.process == me));
        cluster.shutdown();
    }

    #[test]
    fn output_times_share_one_epoch_across_processes() {
        // A token relayed around the ring: every hop is caused by the one
        // before it, on another process. With one epoch for the cluster
        // the stamps can only grow along the chain; per-process clocks
        // would let a later hop carry an earlier time.
        struct Ring;
        impl Node for Ring {
            type Msg = Num;
            type Command = u32;
            type Output = u32;
            fn on_command(&mut self, hops: u32, ctx: &mut Context<Num, u32>) {
                ctx.send(ctx.me(), Num(hops));
            }
            fn on_message(&mut self, _: ProcessId, m: Num, ctx: &mut Context<Num, u32>) {
                ctx.output(m.0);
                if m.0 > 0 {
                    let next = ProcessId::new(((ctx.me().as_usize() + 1) % ctx.n()) as u16);
                    ctx.send(next, Num(m.0 - 1));
                }
            }
        }
        const HOPS: u32 = 30;
        let mut cluster = TcpCluster::start(3, |_| Ring);
        cluster.send_command(ProcessId::new(0), HOPS);
        let outs = cluster.wait_for_outputs(HOPS as usize + 1, Duration::from_secs(5));
        assert_eq!(outs.len(), HOPS as usize + 1, "the token must make every hop");
        let mut chain: Vec<(u32, Time, ProcessId)> =
            outs.iter().map(|o| (o.output, o.at, o.process)).collect();
        chain.sort_by_key(|&(left, _, _)| std::cmp::Reverse(left));
        for w in chain.windows(2) {
            assert!(w[0].1 <= w[1].1, "hop {:?} stamped before its cause {:?}", w[1], w[0]);
        }
        cluster.shutdown();
    }

    #[test]
    fn sequential_clusters_reuse_cleanly() {
        // The respawn pattern: a second cluster starting after the first
        // one's shutdown must come up clean (no leaked loops or wedged
        // sockets from the first).
        for round in 0..2u32 {
            let mut cluster = TcpCluster::start(2, |_| Echo);
            cluster.send_command(ProcessId::new(0), round);
            let outs = cluster.wait_for_outputs(2, Duration::from_secs(5));
            assert_eq!(outs.len(), 2);
            cluster.shutdown();
        }
    }
}
