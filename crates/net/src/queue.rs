//! The two-lane bounded outbound queue of one peer connection.
//!
//! Shared by both TCP transports. The event-driven [`crate::tcp`] loop
//! is the queue's only pusher *and* only drainer: its hosted node pushes
//! with [`PeerQueue::push_nowait`] and the same pass drains with
//! [`PeerQueue::try_take_batch`]. The thread-per-connection control
//! [`crate::tcp_threaded`] pushes from node threads with the blocking
//! [`PeerQueue::enqueue`] and parks a flusher thread on
//! [`PeerQueue::next_batch`]. Draining always takes *everything* pending
//! in one batch, ordering lane first.
//!
//! # Backpressure
//!
//! The queue is **bounded** at [`MAX_OUTBOUND_FRAMES`], but how the bound
//! bites depends on who pushes. A threaded pusher blocks until the
//! flusher catches up — backpressure reaching the node thread exactly as
//! the old one-write-per-frame path did via a full TCP buffer. The event
//! loop must never wait on its own queue (nobody else would ever drain
//! it), so `push_nowait` always accepts and the loop enforces the bound
//! one level up: while any connected queue [`PeerQueue::is_full`], it
//! admits no new application commands, and keeps reading sockets and
//! firing timers so that neither side of a slow pair stops draining the
//! other.
//!
//! # Lock discipline
//!
//! Each queue owns exactly one `Mutex` (its lane state) plus the two
//! condvars that pair with it; no code path ever holds two queue locks at
//! once (queues belong to distinct connections and never reference each
//! other), so there is no acquisition order to get wrong. The rule that
//! *does* carry weight: **no socket I/O while a queue guard is live.**
//! Drainers take the lock only to swap the batch out, drop the guard, and
//! encode/write from buffers they own. Condvar waits release the lock for
//! the duration of the wait and are the one sanctioned way to block with a
//! guard in scope — and they exist only on the *threaded* paths
//! (`enqueue`, `next_batch`); the event loop's `push_nowait` and
//! `try_take_batch` never wait, which lint rule `E1` checks mechanically.
//!
//! Lock poisoning is recovered, not propagated: the queue state (two
//! deques and a flag) is valid after any partial mutation, and a panic in
//! one node thread must not cascade into the I/O threads of every peer
//! sharing the mesh.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use iabc_types::{TrafficClass, WireSize};

/// Frames a [`PeerQueue`] holds across both lanes before it counts as
/// full: [`PeerQueue::enqueue`] blocks the sending node thread, and the
/// event loop stops admitting commands. The old one-write-per-frame path
/// got backpressure for free (the node thread blocked once the peer's
/// TCP receive buffer filled); the queue must re-establish it, or a slow
/// peer turns into unbounded sender-side memory growth under exactly the
/// payload-flood workloads this repo benches.
pub(crate) const MAX_OUTBOUND_FRAMES: usize = 16 * 1024;

/// Bulk-lane watermark while the peer connection is **down**: past this
/// many parked bulk frames the oldest is shed on every push. Ordering
/// frames (consensus rounds, acks, frontiers) are retained up to the full
/// queue capacity — they are what lets the pair converge after the link
/// heals — while payload floods degrade gracefully instead of either
/// blocking the pusher against a dead link or growing without bound.
/// Shed payloads are re-delivered by the protocol layer (catch-up plus
/// the sender's pending-set re-flood), not the transport.
pub(crate) const DOWN_BULK_WATERMARK: usize = 1024;

/// The two-lane outbound queue of one peer connection (see module docs).
pub(crate) struct PeerQueue<M> {
    state: Mutex<PeerQueueState<M>>,
    /// Signalled when work arrives or the queue closes (threaded flushers
    /// wait here; the event loop drains its queues in the pass that
    /// filled them).
    ready: Condvar,
    /// Signalled when a drain frees space or the queue closes (pushers
    /// blocked on a full queue wait here).
    space: Condvar,
    capacity: usize,
}

struct PeerQueueState<M> {
    ordering: VecDeque<M>,
    bulk: VecDeque<M>,
    /// Set on shutdown or on a dead peer: pushes are dropped (a crashed
    /// process loses messages — the quasi-reliable channel model).
    closed: bool,
    /// Set while the peer connection is down but expected back (reconnect
    /// in progress): pushes never block — ordering frames are retained up
    /// to capacity, bulk frames shed their oldest past
    /// [`DOWN_BULK_WATERMARK`]. The connected path (`down == false`) is
    /// untouched by this flag.
    down: bool,
    /// Frames shed (bulk watermark or ordering overflow) while down.
    shed: u64,
}

impl<M> PeerQueueState<M> {
    fn len(&self) -> usize {
        self.ordering.len() + self.bulk.len()
    }
}

/// What [`PeerQueue::try_take_batch`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchStatus {
    /// Frames were appended to the caller's batch.
    Took,
    /// Nothing pending right now; the queue is still open.
    Empty,
    /// The queue is closed and fully drained — no more batches ever.
    Closed,
}

impl<M: WireSize> PeerQueue<M> {
    pub(crate) fn new() -> Self {
        PeerQueue::with_capacity(MAX_OUTBOUND_FRAMES)
    }

    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PeerQueue {
            state: Mutex::new(PeerQueueState {
                ordering: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
                down: false,
                shed: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues one message into its class lane, blocking while the queue
    /// is at capacity (backpressure from a slow peer reaches the node
    /// thread, as the old blocking write did). Dropped if closed.
    ///
    /// While the link is **down** ([`PeerQueue::set_link_down`]) the push
    /// never blocks: there is no drainer to apply backpressure for, so
    /// ordering frames park up to capacity (newest dropped past it) and
    /// bulk frames shed their oldest past [`DOWN_BULK_WATERMARK`].
    pub(crate) fn enqueue(&self, msg: M) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !s.closed && !s.down && s.len() >= self.capacity {
            s = self.space.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        if self.admit(&mut s, msg) {
            drop(s);
            self.ready.notify_one();
        }
    }

    /// Enqueues one message without ever waiting — the event loop's push,
    /// which must not block on a queue only it drains. While connected
    /// the message is always kept, even past capacity (a connected link
    /// loses nothing); the loop bounds the backlog by pausing command
    /// admission while [`PeerQueue::is_full`]. Closed and down-mode
    /// queues behave as in [`PeerQueue::enqueue`].
    pub(crate) fn push_nowait(&self, msg: M) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.admit(&mut s, msg);
    }

    /// Whether a connected queue holds its capacity or more: the point at
    /// which [`PeerQueue::enqueue`] blocks and the event loop stops
    /// admitting commands. Closed and down-mode queues never count as
    /// full — nothing will drain them sooner by waiting.
    pub(crate) fn is_full(&self) -> bool {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        !s.closed && !s.down && s.len() >= self.capacity
    }

    /// Files `msg` into its lane under the lock. Returns whether it landed
    /// on the connected path (the only case a parked drainer needs to
    /// hear about): closed queues drop it, down-mode queues park or shed.
    fn admit(&self, s: &mut PeerQueueState<M>, msg: M) -> bool {
        if s.closed {
            return false;
        }
        if s.down {
            match msg.traffic_class() {
                TrafficClass::Ordering => {
                    if s.len() < self.capacity {
                        s.ordering.push_back(msg);
                    } else {
                        s.shed += 1;
                    }
                }
                TrafficClass::Bulk => {
                    s.bulk.push_back(msg);
                    while s.bulk.len() > DOWN_BULK_WATERMARK {
                        s.bulk.pop_front();
                        s.shed += 1;
                    }
                }
            }
            return false;
        }
        match msg.traffic_class() {
            TrafficClass::Ordering => s.ordering.push_back(msg),
            TrafficClass::Bulk => s.bulk.push_back(msg),
        }
        true
    }

    /// Marks the queue closed and wakes everyone (drainers and any pushers
    /// blocked on a full queue).
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Flips down-mode (see [`PeerQueue::enqueue`]). Entering down-mode
    /// releases any pusher blocked on a full queue — there is no drainer
    /// left to make space, so blocking it would wedge the pusher for as
    /// long as the peer stays gone. Leaving down-mode resumes normal
    /// backpressure; parked frames drain with the next batch.
    pub(crate) fn set_link_down(&self, down: bool) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).down = down;
        if down {
            self.space.notify_all();
        } else {
            self.ready.notify_all();
        }
    }

    /// Frames shed so far while down (monotone; never reset).
    pub(crate) fn shed_count(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).shed
    }

    /// Blocks until messages are pending (or the queue closed empty), then
    /// takes the whole backlog: every ordering frame first, then every
    /// bulk frame. Returns `None` when closed and fully drained.
    ///
    /// Threaded-transport only — the event loop must use the nonblocking
    /// [`PeerQueue::try_take_batch`].
    pub(crate) fn next_batch(&self) -> Option<Vec<M>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !s.ordering.is_empty() || !s.bulk.is_empty() {
                let mut batch: Vec<M> = Vec::with_capacity(s.len());
                batch.extend(s.ordering.drain(..));
                batch.extend(s.bulk.drain(..));
                drop(s);
                self.space.notify_all();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Nonblocking drain for the event loop: appends the whole backlog to
    /// `into` — every ordering frame first, then every bulk frame — and
    /// returns immediately. Never waits; `into`'s allocation is the
    /// caller's to reuse across batches.
    pub(crate) fn try_take_batch(&self, into: &mut Vec<M>) -> BatchStatus {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.ordering.is_empty() && s.bulk.is_empty() {
            return if s.closed { BatchStatus::Closed } else { BatchStatus::Empty };
        }
        into.reserve(s.len());
        into.extend(s.ordering.drain(..));
        into.extend(s.bulk.drain(..));
        drop(s);
        self.space.notify_all();
        BatchStatus::Took
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;
    use iabc_types::{CodecError, Decode, Encode};

    /// A classed test frame: odd values are ordering, even values bulk.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct Classed(pub u32);
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
    fn queue_drains_ordering_ahead_of_bulk() {
        let q: PeerQueue<Classed> = PeerQueue::new();
        for v in [2, 4, 1, 6, 3] {
            q.enqueue(Classed(v));
        }
        let batch = q.next_batch().expect("queue not closed");
        let vals: Vec<u32> = batch.iter().map(|c| c.0).collect();
        // Ordering lane first (FIFO within the lane), then bulk FIFO.
        assert_eq!(vals, vec![1, 3, 2, 4, 6]);
        // Queue now empty: close makes next_batch return None.
        q.close();
        assert!(q.next_batch().is_none());
        // Pushes after close are dropped (crashed-peer semantics).
        q.enqueue(Classed(9));
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn try_take_batch_never_blocks_and_mirrors_the_lane_order() {
        let q: PeerQueue<Classed> = PeerQueue::new();
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Empty);
        for v in [2, 4, 1, 6, 3] {
            q.enqueue(Classed(v));
        }
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert_eq!(batch.iter().map(|c| c.0).collect::<Vec<_>>(), vec![1, 3, 2, 4, 6]);
        batch.clear();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Empty);
        q.close();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Closed);
        assert!(batch.is_empty());
    }

    #[test]
    fn closed_queue_with_backlog_still_hands_the_backlog_out() {
        // close() drops *future* pushes; frames already accepted are the
        // drainer's to flush (shutdown drains the backlog best-effort).
        let q: PeerQueue<Classed> = PeerQueue::new();
        q.enqueue(Classed(1));
        q.close();
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert_eq!(batch.len(), 1);
        batch.clear();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Closed);
    }

    #[test]
    fn down_mode_parks_ordering_and_sheds_oldest_bulk_past_the_watermark() {
        let q: PeerQueue<Classed> = PeerQueue::new();
        q.set_link_down(true);
        // Ordering frames (odd) park; bulk frames (even) shed their oldest
        // once the watermark is exceeded.
        for v in 0..(2 * DOWN_BULK_WATERMARK as u32 + 11) {
            q.enqueue(Classed(v));
        }
        let mut batch = Vec::new();
        q.set_link_down(false);
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        let ordering: Vec<u32> = batch.iter().map(|c| c.0).filter(|v| v % 2 == 1).collect();
        let bulk: Vec<u32> = batch.iter().map(|c| c.0).filter(|v| v % 2 == 0).collect();
        // Every ordering frame survived, FIFO.
        assert_eq!(ordering.len(), DOWN_BULK_WATERMARK + 5);
        assert!(ordering.windows(2).all(|w| w[0] < w[1]));
        // Bulk kept exactly the watermark, and it is the *newest* suffix.
        assert_eq!(bulk.len(), DOWN_BULK_WATERMARK);
        assert_eq!(bulk[0], 2 * ((DOWN_BULK_WATERMARK as u32 + 6) - DOWN_BULK_WATERMARK as u32));
        assert!(bulk.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.shed_count(), 6, "six oldest bulk frames shed");
    }

    #[test]
    fn down_mode_never_blocks_and_releases_a_blocked_pusher() {
        let q: Arc<PeerQueue<Classed>> = Arc::new(PeerQueue::with_capacity(4));
        for v in 0..4 {
            q.enqueue(Classed(v));
        }
        // A pusher is parked on the full queue when the link dies: flipping
        // down-mode must release it (no drainer will ever free space).
        let pq = Arc::clone(&q);
        let pusher = std::thread::spawn(move || pq.enqueue(Classed(101)));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!pusher.is_finished(), "push past capacity must block while up");
        q.set_link_down(true);
        pusher.join().unwrap();
        // Ordering pushes past capacity are dropped (counted), not parked.
        q.enqueue(Classed(103));
        assert!(q.shed_count() >= 1);
        q.set_link_down(false);
        // Reconnected: parked frames drain normally.
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert!(batch.len() >= 4);
    }

    #[test]
    fn up_path_is_untouched_by_the_down_flag_machinery() {
        // The connected path must behave exactly as before down-mode
        // existed: FIFO lanes, ordering first, blocking backpressure
        // (covered below) — this guards the `down == false` branch.
        let q: PeerQueue<Classed> = PeerQueue::new();
        for v in [2, 4, 1, 6, 3] {
            q.enqueue(Classed(v));
        }
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert_eq!(batch.iter().map(|c| c.0).collect::<Vec<_>>(), vec![1, 3, 2, 4, 6]);
        assert_eq!(q.shed_count(), 0);
    }

    #[test]
    fn push_nowait_keeps_every_frame_past_capacity_and_reports_full() {
        // The event loop's push never waits and never drops on a
        // connected link; fullness is a signal for the loop, not a wall.
        let q: PeerQueue<Classed> = PeerQueue::with_capacity(4);
        for v in 0..3 {
            q.push_nowait(Classed(v));
        }
        assert!(!q.is_full());
        for v in 3..7 {
            q.push_nowait(Classed(v));
        }
        assert!(q.is_full());
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert_eq!(batch.len(), 7, "nothing shed while connected");
        assert!(!q.is_full());
        // Down-mode and closed queues never count as full.
        for v in 0..8 {
            q.push_nowait(Classed(v));
        }
        q.set_link_down(true);
        assert!(!q.is_full());
        q.set_link_down(false);
        q.close();
        assert!(!q.is_full());
    }

    #[test]
    fn full_queue_blocks_the_pusher_until_a_drain_frees_space() {
        let q: Arc<PeerQueue<Classed>> = Arc::new(PeerQueue::with_capacity(4));
        for v in 0..4 {
            q.enqueue(Classed(v));
        }
        // The fifth push must block (backpressure), not grow the queue.
        let pq = Arc::clone(&q);
        let pusher = std::thread::spawn(move || pq.enqueue(Classed(99)));
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!pusher.is_finished(), "push past capacity must block");
        // Draining frees space and unblocks it — via the nonblocking
        // event-loop drain this time.
        let mut batch = Vec::new();
        assert_eq!(q.try_take_batch(&mut batch), BatchStatus::Took);
        assert_eq!(batch.len(), 4);
        pusher.join().unwrap();
        let batch = q.next_batch().expect("open queue");
        assert_eq!(batch.iter().map(|c| c.0).collect::<Vec<_>>(), vec![99]);
        // close() releases blocked pushers too (message dropped).
        for v in 0..4 {
            q.enqueue(Classed(v));
        }
        let pq = Arc::clone(&q);
        let pusher = std::thread::spawn(move || pq.enqueue(Classed(100)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        pusher.join().unwrap();
    }
}
