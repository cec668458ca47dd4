//! Seeded inputs and the correctness gate every run passes through.
//!
//! Inputs are a pure function of the benchmark seed: the open-loop
//! arrival schedule ([`Arrivals`]) and the payload bytes of every message
//! ([`Payloads`]). The gate ([`Gate`]) feeds every `Broadcast` and
//! `Delivered` event to the program's own [`AbcastChecker`] and compares
//! every delivered payload with the bytes sent under its `MsgId`.
//!
//! A real cluster does not hand out its outputs in causal order: the
//! origin's node enqueues its RB frames before its `Broadcast` output
//! reaches the shared output channel, so a fast peer's `Delivered` can
//! overtake it. The checker assumes a-broadcast is recorded before any
//! delivery, so the gate holds back a process's deliveries (in order)
//! until the `Broadcast` of the one at their head has been recorded. A
//! delivery still held at the end goes to the checker as is, which then
//! reports it as a delivery of an unknown message.

use std::collections::VecDeque;

use indirect_abcast::core::{AbcastChecker, AbcastEvent, Violation};
use indirect_abcast::types::{MsgId, Payload, ProcessId};

/// One step of the splitmix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed hash of `(seed, id)`: the tag that makes each payload unique.
fn id_tag(seed: u64, id: MsgId) -> u64 {
    let mut s = seed
        ^ (u64::from(id.sender().as_usize() as u16) << 48)
        ^ id.seq().wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// Seeded open-loop arrivals: exponential inter-arrival gaps at a fixed
/// total rate, each arrival at a uniformly drawn origin.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: u64,
    mean_gap_ns: f64,
    n: usize,
    at_ns: f64,
}

impl Arrivals {
    /// Arrivals at `rate` messages per second spread over `n` origins.
    pub fn new(seed: u64, rate: f64, n: usize) -> Self {
        Arrivals {
            rng: seed ^ 0xA5A5_5A5A_0F0F_F0F0,
            mean_gap_ns: 1e9 / rate,
            n,
            at_ns: 0.0,
        }
    }
}

impl Iterator for Arrivals {
    /// (offset of the due time from the schedule start in ns, origin).
    type Item = (u64, ProcessId);

    fn next(&mut self) -> Option<(u64, ProcessId)> {
        let u = (splitmix64(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.at_ns += -(1.0 - u).ln() * self.mean_gap_ns;
        let origin = (splitmix64(&mut self.rng) % self.n as u64) as u16;
        Some((self.at_ns as u64, ProcessId::new(origin)))
    }
}

const POOL: usize = 64;

/// Seeded payload bytes. Each payload is one of a pool of seeded blocks
/// with its first 8 bytes replaced by a per-id tag, so every message's
/// bytes are distinct and can be checked without storing them.
#[derive(Debug, Clone)]
pub struct Payloads {
    seed: u64,
    size: usize,
    pool: Vec<Vec<u8>>,
}

impl Payloads {
    /// Payloads of `size` bytes (at least 8) for the given seed.
    pub fn new(seed: u64, size: usize) -> Self {
        assert!(size >= 8, "payloads carry an 8-byte tag");
        let mut s = seed ^ 0x5151_7E7E_3C3C_C3C3;
        let pool = (0..POOL)
            .map(|_| (0..size).map(|_| splitmix64(&mut s) as u8).collect())
            .collect();
        Payloads { seed, size, pool }
    }

    /// The bytes sent under `id`.
    pub fn make(&self, id: MsgId) -> Payload {
        let tag = id_tag(self.seed, id);
        let mut bytes = self.pool[(tag % POOL as u64) as usize].clone();
        bytes[..8].copy_from_slice(&tag.to_le_bytes());
        Payload::new(bytes)
    }

    /// Whether `bytes` are exactly the bytes sent under `id`.
    pub fn matches(&self, id: MsgId, bytes: &[u8]) -> bool {
        let tag = id_tag(self.seed, id);
        bytes.len() == self.size
            && bytes[..8] == tag.to_le_bytes()
            && bytes[8..] == self.pool[(tag % POOL as u64) as usize][8..]
    }
}

/// The correctness gate: the program's checker plus a payload check.
#[derive(Debug)]
pub struct Gate {
    n: usize,
    checker: AbcastChecker,
    payloads: Payloads,
    mismatches: u64,
    /// Per origin: one past the highest sequence number a-broadcast so
    /// far (the program numbers each origin's messages 0, 1, 2, ...).
    broadcast_upto: Vec<u64>,
    /// Per process: deliveries held until their `Broadcast` is recorded.
    held: Vec<VecDeque<AbcastEvent>>,
}

/// What the gate found at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `check_safety()` violations.
    pub safety: usize,
    /// `check_complete()` violations (includes the safety ones).
    pub incomplete: usize,
    /// Delivered payloads that differ from the bytes sent.
    pub mismatches: u64,
    /// The first few violations, for the log.
    pub first: Vec<String>,
}

impl Gate {
    /// A gate for an `n`-process run with the given payloads.
    pub fn new(n: usize, payloads: Payloads) -> Self {
        Gate {
            n,
            checker: AbcastChecker::new(n),
            payloads,
            mismatches: 0,
            broadcast_upto: vec![0; n],
            held: vec![VecDeque::new(); n],
        }
    }

    fn known(&self, ev: &AbcastEvent) -> bool {
        match ev {
            AbcastEvent::Delivered { msg } => {
                let id = msg.id();
                self.broadcast_upto
                    .get(id.sender().as_usize())
                    .is_some_and(|&u| id.seq() < u)
            }
            AbcastEvent::Broadcast { .. } => true,
        }
    }

    /// The payloads this gate checks against.
    pub fn payloads(&self) -> &Payloads {
        &self.payloads
    }

    /// Records one event observed at `p`. Returns `false` when it is a
    /// delivery whose payload differs from the bytes sent.
    pub fn record(&mut self, p: ProcessId, ev: &AbcastEvent) -> bool {
        match ev {
            AbcastEvent::Broadcast { id } => {
                self.checker.record(p, ev);
                let upto = &mut self.broadcast_upto[id.sender().as_usize()];
                *upto = (*upto).max(id.seq() + 1);
                for q in 0..self.n {
                    while self.held[q].front().is_some_and(|e| self.known(e)) {
                        let e = self.held[q].pop_front().expect("front exists");
                        self.checker.record(ProcessId::new(q as u16), &e);
                    }
                }
                true
            }
            AbcastEvent::Delivered { msg } => {
                let i = p.as_usize();
                if self.held[i].is_empty() && self.known(ev) {
                    self.checker.record(p, ev);
                } else {
                    self.held[i].push_back(ev.clone());
                }
                let ok = self.payloads.matches(msg.id(), msg.payload().bytes());
                self.mismatches += u64::from(!ok);
                ok
            }
        }
    }

    /// Hands every held delivery to the checker and runs it over
    /// everything recorded.
    pub fn verdict(&mut self) -> Verdict {
        for q in 0..self.n {
            while let Some(e) = self.held[q].pop_front() {
                self.checker.record(ProcessId::new(q as u16), &e);
            }
        }
        let complete: Vec<Violation> = self.checker.check_complete(&vec![false; self.n]);
        Verdict {
            safety: self.checker.check_safety().len(),
            incomplete: complete.len(),
            mismatches: self.mismatches,
            first: complete.iter().take(5).map(ToString::to_string).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indirect_abcast::types::{AppMessage, Time};

    #[test]
    fn payloads_are_unique_and_checked() {
        let p = Payloads::new(7, 64);
        let a = MsgId::new(ProcessId::new(0), 1);
        let b = MsgId::new(ProcessId::new(1), 1);
        assert_ne!(p.make(a), p.make(b));
        assert!(p.matches(a, p.make(a).bytes()));
        assert!(!p.matches(b, p.make(a).bytes()));
        let mut bytes = p.make(a).bytes().to_vec();
        bytes[40] ^= 1;
        assert!(!p.matches(a, &bytes));
    }

    fn delivered(p: &Payloads, id: MsgId) -> AbcastEvent {
        AbcastEvent::Delivered {
            msg: AppMessage::new(id, p.make(id), Time::ZERO),
        }
    }

    #[test]
    fn deliveries_that_overtake_their_broadcast_are_held_in_order() {
        let p = Payloads::new(1, 16);
        let mut g = Gate::new(2, p.clone());
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let a = MsgId::new(p0, 0);
        let b = MsgId::new(p1, 0);
        g.record(p1, &AbcastEvent::Broadcast { id: b });
        // p1 delivers a before p0's Broadcast of a reaches the gate; its
        // later delivery of b must wait behind it.
        assert!(g.record(p1, &delivered(&p, a)));
        assert!(g.record(p1, &delivered(&p, b)));
        g.record(p0, &AbcastEvent::Broadcast { id: a });
        g.record(p0, &delivered(&p, a));
        g.record(p0, &delivered(&p, b));
        let v = g.verdict();
        assert_eq!((v.safety, v.incomplete, v.mismatches), (0, 0, 0), "{v:?}");
    }

    #[test]
    fn a_delivery_never_broadcast_is_a_violation() {
        let p = Payloads::new(1, 16);
        let mut g = Gate::new(2, p.clone());
        g.record(
            ProcessId::new(1),
            &delivered(&p, MsgId::new(ProcessId::new(0), 0)),
        );
        assert!(g.verdict().safety > 0);
    }
}
