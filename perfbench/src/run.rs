//! One pass of a workload over the real `TcpCluster`.
//!
//! A pass first times a series of cluster set-ups back to back, then runs
//! the workload's trials: each trial starts a fresh cluster, warms it up,
//! measures its share of the window and drains it. Splitting the window
//! over independent clusters and reporting medians keeps one cluster's
//! luck (thread placement, a slow stretch of the host) out of the figure.
//!
//! The load generator is the calling thread: it issues the commands and
//! collects every output, feeding the correctness gate and the bounded
//! recorders. The only per-message state is the in-flight map from
//! `MsgId` to due time (plus which processes delivered it).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indirect_abcast::core::stacks::{self, StackParams};
use indirect_abcast::core::{AbcastCommand, AbcastEvent, DurableDecidedLog, DurablePendingStore};
use indirect_abcast::net::{NetFaultPlan, NetOutput, TcpCluster};
use indirect_abcast::runtime::Node;
use indirect_abcast::types::{self, MsgId, Payload, ProcessId};

use crate::gate::{splitmix64, Arrivals, Gate, Payloads, Verdict};
use crate::hist::Hist;
use crate::procstat::{self, Usage};
use crate::trace::{Env, TimedLog, TimedPending, Traced, Tracer};

/// How commands arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: seeded arrivals at a fixed total rate (msgs/s).
    Open {
        /// Total offered rate.
        rate: f64,
    },
    /// Closed loop: a fixed number of outstanding broadcasts per origin;
    /// each origin delivery releases the next command.
    Closed {
        /// Outstanding broadcasts per origin.
        per_origin: usize,
    },
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Number of processes.
    pub n: usize,
    /// Payload bytes per message.
    pub payload: usize,
    /// Arrival process.
    pub load: Load,
    /// Catch-up with a `DurableDecidedLog` and `DurablePendingStore`.
    pub durable: bool,
    /// Isolate p0 for a window in the middle of the measured window.
    pub partition: bool,
    /// Independent clusters the measured time is split over; the
    /// end-to-end figures are medians over them.
    pub trials: usize,
    /// `peak_rss_mib` is read once the first trial has issued this many
    /// messages. The program keeps every payload it receives, so memory
    /// follows the message count; a fixed count keeps a closed loop's
    /// goodput out of the memory figure.
    pub rss_after: u64,
}

/// Every workload of the benchmark. Why each exists is recorded in
/// `BENCHMARK.json` and the README next to this file.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paced-64b-n3",
        n: 3,
        payload: 64,
        load: Load::Open { rate: 10_000.0 },
        durable: false,
        partition: false,
        // Latency varies from cluster to cluster about as much as from
        // run to run; the median of many short trials damps it.
        trials: 10,
        rss_after: 25_000,
    },
    Workload {
        name: "bulk-4k-n3",
        n: 3,
        payload: 4096,
        load: Load::Closed { per_origin: 32 },
        durable: false,
        partition: false,
        // Short trials: the program keeps every payload, ~12 KB per
        // message here, so a trial's memory follows its length.
        trials: 10,
        rss_after: 40_000,
    },
    Workload {
        name: "durable-n3",
        n: 3,
        payload: 256,
        load: Load::Open { rate: 8_000.0 },
        durable: true,
        partition: false,
        trials: 10,
        rss_after: 10_000,
    },
    // Each majority-side link to p0 carries about two thirds of the
    // payload frames. At this rate the frames parked for p0 over the
    // isolation and the reconnect back-off (under 4 s) stay well below
    // the transport's 1024-frame shed watermark, so nothing is shed.
    Workload {
        name: "partition-n3",
        n: 3,
        payload: 64,
        load: Load::Open { rate: 300.0 },
        durable: false,
        partition: true,
        trials: 2,
        rss_after: 4_000,
    },
    // Not in `BENCHMARK.json`: it reproduces a known liveness defect.
    // Five times the rate of `partition-n3` overflows the shed watermark
    // while p0 is cut off; the shed payloads are never re-sent and p0
    // stops delivering (operations fail, `net.frames_shed` > 0).
    Workload {
        name: "partition-shed-n3",
        n: 3,
        payload: 64,
        load: Load::Open { rate: 1_500.0 },
        durable: false,
        partition: true,
        trials: 2,
        rss_after: 4_000,
    },
];

/// Settings shared by every pass of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Load before the window opens.
    pub warmup: Duration,
    /// Cluster set-ups timed back to back before the trials.
    pub setups: usize,
    /// How long the drain may take before leftovers count as failed.
    pub drain: Duration,
    /// Directory for durable stores; removed by the caller.
    pub tmp: PathBuf,
}

/// How long the partition workloads cut p0 off: past the failure
/// detector's 2 s timeout, so the majority side suspects p0 and changes
/// rounds, with about a second of majority-only service before the heal.
const ISOLATION: Duration = Duration::from_secs(3);

/// The isolation window of a partition workload, relative to the
/// cluster's start: it opens a fifth into the trial's measured window.
fn isolation(warmup: Duration, window: Duration) -> (Duration, Duration) {
    let from = warmup + window / 5;
    (from, from + ISOLATION)
}

/// How many trials of a pass its figures come from. A stretch in which
/// the host runs other tenants' work on this machine's vCPUs puts a trial
/// into a regime several times slower (p50 ×2–10, with less CPU per
/// message as batches grow); such stretches last from seconds to
/// minutes, so the median over all trials flips with them. The program
/// itself slows every trial alike, so the fastest trials still show it.
pub const KEPT_TRIALS: usize = 3;

/// The median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        l if l % 2 == 1 => v[l / 2],
        l => (v[l / 2 - 1] + v[l / 2]) / 2.0,
    }
}

/// What one trial (one cluster) measured.
#[derive(Debug)]
pub struct Trial {
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// Deliveries inside the window at the slowest process.
    pub delivered_min: u64,
    /// Origin latency of messages due in the window (ns).
    pub lat: Hist,
    /// Latency to the last process's delivery (ns).
    pub lat_all: Hist,
    /// Generator lateness against the schedule (ns).
    pub gen_lag: Hist,
    /// Longest interval with commands due and no majority-side delivery.
    pub outage_ns: u64,
    /// Thread CPU and context switches over the window.
    pub usage: Usage,
    /// Wall time between the two CPU samples, seconds.
    pub usage_s: f64,
    /// Broadcasts issued.
    pub attempted: u64,
    /// Broadcasts not delivered everywhere by the end of the drain, plus
    /// deliveries whose payload differs from the bytes sent.
    pub failed: u64,
    /// The gate's findings.
    pub verdict: Verdict,
    /// Heal to all severed links re-established (partition only).
    pub reconnect_ns: Option<u64>,
    /// Reconnects reported by the transport.
    pub reconnects: u64,
    /// Frames the transport shed while a link was down.
    pub frames_shed: u64,
    /// Origin latency of the first messages due in the window.
    pub origin_lat: Vec<(MsgId, u64)>,
    /// `VmHWM` once `Workload::rss_after` messages were issued.
    pub peak_rss_mib: f64,
}

impl Trial {
    /// Goodput at the slowest process, msgs/s.
    pub fn goodput(&self) -> f64 {
        self.delivered_min as f64 / self.window_s
    }

    /// Cluster CPU (all threads but the generator) per 1000 messages
    /// delivered at the slowest process, in ms.
    pub fn cpu_ms_per_kmsg(&self) -> f64 {
        let rate = self.usage.cluster_cpu_ns() as f64 / 1e6 / self.usage_s;
        rate / (self.goodput() / 1000.0)
    }
}

/// Every trial of one pass, plus what spans them.
#[derive(Debug)]
pub struct Pass {
    /// Set-up times measured before the trials, seconds.
    pub setup_s: Vec<f64>,
    /// The trials, in order.
    pub trials: Vec<Trial>,
    /// `VmHWM` once the first trial issued `Workload::rss_after`
    /// messages (or at its end). Later trials run in memory the allocator
    /// kept from earlier ones, which would blur the figure.
    pub peak_rss_mib: f64,
    /// Whether `check_complete` must come out empty.
    pub complete_required: bool,
}

impl Pass {
    /// No safety violation, no payload mismatch, and complete delivery
    /// where the workload injects no fault, in every trial.
    pub fn correct(&self) -> bool {
        self.trials.iter().all(|t| {
            let v = &t.verdict;
            v.safety == 0 && v.mismatches == 0 && (!self.complete_required || v.incomplete == 0)
        })
    }

    /// Broadcasts issued over all trials.
    pub fn attempted(&self) -> u64 {
        self.trials.iter().map(|t| t.attempted).sum()
    }

    /// Failed broadcasts over all trials.
    pub fn failed(&self) -> u64 {
        self.trials.iter().map(|t| t.failed).sum()
    }

    /// The trials the figures are taken from: the `KEPT_TRIALS` with the
    /// lowest origin p50 latency (all of them when there are fewer).
    pub fn kept(&self) -> Vec<&Trial> {
        let mut kept: Vec<&Trial> = self.trials.iter().collect();
        kept.sort_by(|a, b| a.lat.quantile(0.5).total_cmp(&b.lat.quantile(0.5)));
        kept.truncate(KEPT_TRIALS);
        kept
    }

    /// The median of `f` over the kept trials.
    pub fn median_of(&self, f: impl Fn(&Trial) -> f64) -> f64 {
        median(&self.kept().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Sum over trials of `f`.
    pub fn sum(&self, f: impl Fn(&Trial) -> f64) -> f64 {
        self.trials.iter().map(f).sum()
    }
}

type Abcast = indirect_abcast::core::AbcastNode<
    types::IdSet,
    indirect_abcast::consensus::CtIndirect<types::IdSet>,
>;

/// The paper's stack for process `p`, with durable stores (wrapped in
/// timers when traced) when the workload asks for them.
fn build(
    p: ProcessId,
    params: &StackParams,
    dir: Option<&Path>,
    tracer: Option<&Arc<Tracer>>,
) -> Abcast {
    let mut node = stacks::indirect_ct(p, params);
    if let Some(dir) = dir {
        let i = p.as_usize();
        // The log's default fsync policy (none: crash-safe through the
        // page cache). An fdatasync on the node thread puts the shared
        // disk's other tenants into the latency; see the README.
        let log = DurableDecidedLog::open(dir.join(format!("p{i}.decided")))
            .expect("open the decided log under the run directory");
        let pending = DurablePendingStore::open(dir.join(format!("p{i}.pending")))
            .expect("open the pending store under the run directory");
        match tracer {
            None => {
                node.set_decided_log(Box::new(log));
                node.set_pending_store(Box::new(pending));
            }
            Some(t) => {
                node.set_decided_log(Box::new(TimedLog::new(log, Arc::clone(t))));
                node.set_pending_store(Box::new(TimedPending::new(pending, Arc::clone(t))));
            }
        }
    }
    node
}

/// Runs one pass of `w` (all its trials), traced when `tracer` is given.
pub fn run_pass(w: &Workload, cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Pass {
    // Each pass opens its durable stores in directories of its own: a
    // store left by another pass would be recovered as this one's past.
    let pass_dir = if tracer.is_some() {
        "traced"
    } else {
        "untraced"
    };
    let cfg = &Config {
        tmp: cfg.tmp.join(pass_dir),
        ..cfg.clone()
    };
    let setup_s = time_setups(w, cfg, |p, params, dir| build(p, params, dir, None));
    let trials: Vec<Trial> = (0..w.trials)
        .map(|i| match tracer {
            None => trial(w, cfg, i, None, |p, params, dir| {
                build(p, params, dir, None)
            }),
            Some(t) => trial(w, cfg, i, Some(t), |p, params, dir| {
                Traced::new(build(p, params, dir, Some(t)), p, Arc::clone(t))
            }),
        })
        .collect();
    let peak_rss_mib = trials[0].peak_rss_mib;
    Pass {
        setup_s,
        trials,
        peak_rss_mib,
        complete_required: !w.partition,
    }
}

#[derive(Debug)]
struct Flight {
    due: Instant,
    /// Due inside the measured window.
    measured: bool,
    delivered: u16,
    majority: bool,
}

/// The generator's state while a trial runs.
struct Gen<'a> {
    n: usize,
    majority_side: Vec<bool>,
    gate: Gate,
    tracer: Option<&'a Arc<Tracer>>,
    flights: HashMap<MsgId, Flight>,
    /// Ids in issue (= due) order; the front is the oldest command not
    /// yet delivered at any majority-side process, after lazy pops.
    order: VecDeque<MsgId>,
    next_seq: Vec<u64>,
    /// Upper bound of the cluster's output clock origin.
    epoch: Instant,
    w0: Instant,
    w1: Instant,
    closed: bool,
    issuing: bool,
    lat: Hist,
    lat_all: Hist,
    gen_lag: Hist,
    delivered: Vec<u64>,
    last_majority: Option<Instant>,
    outage: Duration,
    attempted: u64,
    origin_lat: Vec<(MsgId, u64)>,
    rss_after: u64,
    peak_rss_mib: Option<f64>,
}

impl Gen<'_> {
    fn in_window(&self, t: Instant) -> bool {
        t >= self.w0 && t < self.w1
    }

    fn issue<N>(&mut self, cluster: &TcpCluster<N>, origin: ProcessId, due: Instant)
    where
        N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    {
        let o = origin.as_usize();
        let id = MsgId::new(origin, self.next_seq[o]);
        self.next_seq[o] += 1;
        if let Some(t) = self.tracer {
            t.note_due(id, due);
        }
        let measured = self.in_window(due);
        self.flights.insert(
            id,
            Flight {
                due,
                measured,
                delivered: 0,
                majority: false,
            },
        );
        self.order.push_back(id);
        let payload = self.gate.payloads().make(id);
        if measured {
            let lag = Instant::now().saturating_duration_since(due);
            self.gen_lag.record(lag.as_nanos() as u64);
        }
        cluster.send_command(origin, AbcastCommand::Broadcast(payload));
        self.attempted += 1;
        if self.attempted == self.rss_after {
            self.peak_rss_mib = Some(procstat::peak_rss_mib());
        }
    }

    fn absorb<N>(
        &mut self,
        cluster: &TcpCluster<N>,
        outs: Vec<NetOutput<AbcastEvent>>,
        recv: Instant,
    ) where
        N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
    {
        let all = (1u16 << self.n) - 1;
        for o in outs {
            let at = Duration::from_nanos(o.at.as_nanos());
            if let Some(e) = recv.checked_sub(at) {
                self.epoch = self.epoch.min(e);
            }
            let t = self.epoch + at;
            let p = o.process.as_usize();
            self.gate.record(o.process, &o.output);
            let AbcastEvent::Delivered { msg } = &o.output else {
                continue;
            };
            let id = msg.id();
            if self.in_window(t) {
                self.delivered[p] += 1;
            }
            if self.majority_side[p] {
                self.majority_delivery(id, t);
            }
            let Some(f) = self.flights.get_mut(&id) else {
                continue;
            };
            let bit = 1u16 << p;
            if f.delivered & bit != 0 {
                continue; // a duplicate; the checker reports it
            }
            f.delivered |= bit;
            let (due, measured) = (f.due, f.measured);
            let done = f.delivered == all;
            if done {
                self.flights.remove(&id);
            }
            let lat = t.saturating_duration_since(due).as_nanos() as u64;
            if id.sender().as_usize() == p {
                if measured {
                    self.lat.record(lat);
                    if self.origin_lat.len() < 4096 {
                        self.origin_lat.push((id, lat));
                    }
                }
                if self.closed && self.issuing {
                    self.issue(cluster, id.sender(), t);
                }
            }
            if done && measured {
                self.lat_all.record(lat);
            }
        }
    }

    /// A delivery at a majority-side process at `t`: closes the current
    /// stall when it is the first such delivery of `id`.
    fn majority_delivery(&mut self, id: MsgId, t: Instant) {
        if self.flights.get(&id).is_some_and(|f| !f.majority) {
            while let Some(front) = self.order.front() {
                match self.flights.get(front) {
                    Some(f) if !f.majority => break,
                    _ => {
                        self.order.pop_front();
                    }
                }
            }
            if let Some(front) = self.order.front().and_then(|f| self.flights.get(f)) {
                let since = self.last_majority.map_or(front.due, |l| l.max(front.due));
                if self.in_window(since) && t > since {
                    self.outage = self.outage.max(t - since);
                }
            }
            if let Some(f) = self.flights.get_mut(&id) {
                f.majority = true;
            }
        }
        self.last_majority = Some(self.last_majority.map_or(t, |l| l.max(t)));
    }
}

/// Longest the generator sleeps between two looks at the outputs.
const POLL: Duration = Duration::from_micros(200);

/// Hands every output already queued to the generator.
fn drain<N>(cluster: &mut TcpCluster<N>, g: &mut Gen<'_>)
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    loop {
        let outs = cluster.wait_for_outputs(1024, Duration::from_micros(20));
        let full = outs.len() == 1024;
        g.absorb(cluster, outs, Instant::now());
        if !full {
            return;
        }
    }
}

fn poll_reconnect<N>(cluster: &TcpCluster<N>, heal: Instant, slot: &mut Option<u64>)
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    let now = Instant::now();
    if slot.is_some() || now < heal {
        return;
    }
    let reports = cluster.fault_reports();
    let severed: u64 = reports.iter().map(|r| r.links_severed).sum();
    let reconnects: u64 = reports.iter().map(|r| r.reconnects).sum();
    if severed > 0 && reconnects >= severed {
        *slot = Some(now.saturating_duration_since(heal).as_nanos() as u64);
    }
}

/// A cluster that has accepted its first command.
struct Started<N>
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    cluster: TcpCluster<N>,
    /// Upper bound of the cluster's output clock origin.
    epoch: Instant,
    /// When `TcpCluster::start` returned.
    started: Instant,
    /// Outputs seen while waiting for the first command's acceptance.
    outs: Vec<NetOutput<AbcastEvent>>,
    /// Start (plus durable-store open) until the first command was
    /// accepted, in seconds.
    setup_s: f64,
}

/// Sets a cluster up: opens its stores under `dir`, starts it, and
/// sends p0 its first command (`probe`, which becomes `MsgId` p0#0),
/// waiting until the cluster accepts it.
fn set_up<N>(
    w: &Workload,
    probe: Payload,
    dir: Option<PathBuf>,
    tracer: Option<&Arc<Tracer>>,
    plan: Option<&NetFaultPlan>,
    params: &StackParams,
    make: &mut impl FnMut(ProcessId, &StackParams, Option<&Path>) -> N,
) -> Started<N>
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    let p0 = ProcessId::new(0);
    let t0 = Instant::now();
    if let Some(d) = &dir {
        std::fs::create_dir_all(d).expect("create the run directory");
    }
    let mut first_build = None;
    let mut cluster = TcpCluster::start_with_faults(w.n, plan.cloned(), |p| {
        first_build.get_or_insert_with(Instant::now);
        make(p, params, dir.as_deref())
    });
    let started = Instant::now();
    if let Some(t) = tracer {
        t.note_due(MsgId::new(p0, 0), started);
    }
    cluster.send_command(p0, AbcastCommand::Broadcast(probe));
    let mut outs = Vec::new();
    loop {
        let got = cluster.wait_for_outputs(1, Duration::from_secs(10));
        assert!(
            !got.is_empty(),
            "the cluster did not accept its first command within 10 s"
        );
        let accepted = got
            .iter()
            .any(|o| matches!(o.output, AbcastEvent::Broadcast { .. }));
        outs.extend(got);
        if accepted {
            break;
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Started {
        cluster,
        epoch: first_build.unwrap_or(started),
        started,
        outs,
        setup_s,
    }
}

/// The stack parameters of a workload.
fn stack_params(w: &Workload) -> StackParams {
    let params = StackParams::with_heartbeat(
        w.n,
        types::Duration::from_millis(25),
        types::Duration::from_secs(2),
    );
    // Catch-up is what repairs a process's downtime; the durable workload
    // also attaches its stores through it.
    params.with_catch_up(w.durable || w.partition)
}

/// Times `cfg.setups` set-ups back to back, each torn down at once.
fn time_setups<N>(
    w: &Workload,
    cfg: &Config,
    mut make: impl FnMut(ProcessId, &StackParams, Option<&Path>) -> N,
) -> Vec<f64>
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    let params = stack_params(w);
    let probe = Payloads::new(cfg.seed, w.payload).make(MsgId::new(ProcessId::new(0), 0));
    (0..cfg.setups)
        .map(|i| {
            let dir = w.durable.then(|| cfg.tmp.join(format!("setup{i}")));
            let s = set_up(w, probe.clone(), dir, None, None, &params, &mut make);
            s.cluster.shutdown();
            s.setup_s
        })
        .collect()
}

fn trial<N>(
    w: &Workload,
    cfg: &Config,
    index: usize,
    tracer: Option<&Arc<Tracer>>,
    mut make: impl FnMut(ProcessId, &StackParams, Option<&Path>) -> N,
) -> Trial
where
    N: Node<Msg = Env, Command = AbcastCommand, Output = AbcastEvent> + Send + 'static,
{
    let n = w.n;
    let p0 = ProcessId::new(0);
    let window = cfg.window / w.trials as u32;
    let params = stack_params(w);
    let (iso_from, iso_until) = isolation(cfg.warmup, window);
    let plan = w
        .partition
        .then(|| NetFaultPlan::new(cfg.seed).isolate(p0, n, iso_from.into(), iso_until.into()));
    let gen_tid = procstat::current_tid();
    let payloads = Payloads::new(cfg.seed, w.payload);
    let probe = payloads.make(MsgId::new(p0, 0));
    let dir = w.durable.then(|| cfg.tmp.join(format!("trial{index}")));
    let Started {
        mut cluster,
        epoch,
        started,
        outs: probe_outs,
        ..
    } = set_up(w, probe, dir, tracer, plan.as_ref(), &params, &mut make);

    let load_start = Instant::now();
    let w0 = load_start + cfg.warmup;
    let w1 = w0 + window;
    if let Some(t) = tracer {
        t.begin_trial(w0, w1);
    }
    let mut majority_side = vec![true; n];
    if w.partition {
        majority_side[0] = false;
    }
    let mut g = Gen {
        n,
        majority_side,
        gate: Gate::new(n, payloads),
        tracer,
        flights: HashMap::new(),
        order: VecDeque::new(),
        next_seq: vec![0; n],
        epoch,
        w0,
        w1,
        closed: matches!(w.load, Load::Closed { .. }),
        issuing: true,
        lat: Hist::new(),
        lat_all: Hist::new(),
        gen_lag: Hist::new(),
        delivered: vec![0; n],
        last_majority: None,
        outage: Duration::ZERO,
        attempted: 1,
        origin_lat: Vec::new(),
        rss_after: w.rss_after,
        peak_rss_mib: None,
    };
    let probe = MsgId::new(p0, 0);
    g.next_seq[0] = 1;
    g.flights.insert(
        probe,
        Flight {
            due: started,
            measured: false,
            delivered: 0,
            majority: false,
        },
    );
    g.order.push_back(probe);
    g.absorb(&cluster, probe_outs, Instant::now());

    let heal = started + iso_until;
    let mut reconnect_ns = None;
    // Each trial draws its own arrivals from the seed (hashed, so that
    // neighbouring seeds share no trial's schedule).
    let mut trial_seed = cfg.seed ^ ((index as u64) << 48);
    let mut arrivals = match w.load {
        Load::Open { rate } => Some(Arrivals::new(splitmix64(&mut trial_seed), rate, n)),
        Load::Closed { per_origin } => {
            for _ in 0..per_origin {
                for p in ProcessId::all(n) {
                    g.issue(&cluster, p, load_start);
                }
            }
            None
        }
    };
    let mut next = arrivals.as_mut().and_then(Iterator::next);
    let mut u0 = None;
    loop {
        let now = Instant::now();
        if u0.is_none() && now >= w0 {
            u0 = Some((procstat::sample(gen_tid), now));
        }
        if now >= w1 {
            break;
        }
        while let Some((off, origin)) = next {
            let due = load_start + Duration::from_nanos(off);
            if due > now {
                break;
            }
            g.issue(&cluster, origin, due);
            next = arrivals.as_mut().and_then(Iterator::next);
        }
        if w.partition {
            poll_reconnect(&cluster, heal, &mut reconnect_ns);
        }
        // Sleep until the next command is due instead of waiting on the
        // output channel: a waiting receiver makes every node thread pay
        // a wake-up per output, which would be the generator's cost
        // charged to the cluster. Outputs carry their own timestamps.
        let until = next.map_or(w1, |(off, _)| {
            (load_start + Duration::from_nanos(off)).min(w1)
        });
        let wait = until.saturating_duration_since(Instant::now()).min(POLL);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        drain(&mut cluster, &mut g);
    }
    let u1 = (procstat::sample(gen_tid), Instant::now());
    let (u0, t_u0) = u0.unwrap_or(u1);
    g.issuing = false;

    let deadline = Instant::now() + cfg.drain;
    while (!g.flights.is_empty() || (w.partition && reconnect_ns.is_none()))
        && Instant::now() < deadline
    {
        let outs = cluster.wait_for_outputs(1024, Duration::from_millis(20));
        g.absorb(&cluster, outs, Instant::now());
        if w.partition {
            poll_reconnect(&cluster, heal, &mut reconnect_ns);
        }
    }
    let reports = cluster.fault_reports();
    let reconnects = reports.iter().map(|r| r.reconnects).sum();
    let frames_shed = reports.iter().map(|r| r.frames_shed).sum();
    cluster.shutdown();

    let verdict = g.gate.verdict();
    for v in &verdict.first {
        println!("gate: {v}");
    }
    Trial {
        window_s: window.as_secs_f64(),
        delivered_min: g.delivered.iter().copied().min().unwrap_or(0),
        failed: (g.flights.len() as u64 + verdict.mismatches).min(g.attempted),
        lat: g.lat,
        lat_all: g.lat_all,
        gen_lag: g.gen_lag,
        outage_ns: g.outage.as_nanos() as u64,
        usage: u1.0.since(&u0),
        usage_s: u1.1.saturating_duration_since(t_u0).as_secs_f64(),
        attempted: g.attempted,
        verdict,
        reconnect_ns,
        reconnects,
        frames_shed,
        origin_lat: g.origin_lat,
        peak_rss_mib: g.peak_rss_mib.unwrap_or_else(procstat::peak_rss_mib),
    }
}
