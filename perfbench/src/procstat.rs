//! CPU, context-switch and memory figures read from `/proc/self`.
//!
//! Threads are told apart by name: `iabc-io-*` threads are the
//! transport's event loops; every other thread except the load
//! generator's own belongs to the cluster's node threads.

use std::fs;

/// Which part of the process a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The load generator (the thread that took the snapshot).
    Generator,
    /// A transport event loop (`iabc-io-*`).
    Io,
    /// Anything else: the node threads.
    Node,
}

/// CPU time and context switches summed per [`Role`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// CPU nanoseconds of the generator thread.
    pub gen_cpu_ns: u64,
    /// CPU nanoseconds of the event-loop threads.
    pub io_cpu_ns: u64,
    /// CPU nanoseconds of the node threads.
    pub node_cpu_ns: u64,
    /// Voluntary plus involuntary context switches of every thread but
    /// the generator.
    pub cluster_ctxsw: u64,
}

impl Usage {
    /// Cluster CPU (everything but the generator) in nanoseconds.
    pub fn cluster_cpu_ns(&self) -> u64 {
        self.io_cpu_ns + self.node_cpu_ns
    }

    /// `self - earlier`, saturating per field (threads may come and go).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            gen_cpu_ns: self.gen_cpu_ns.saturating_sub(earlier.gen_cpu_ns),
            io_cpu_ns: self.io_cpu_ns.saturating_sub(earlier.io_cpu_ns),
            node_cpu_ns: self.node_cpu_ns.saturating_sub(earlier.node_cpu_ns),
            cluster_ctxsw: self.cluster_ctxsw.saturating_sub(earlier.cluster_ctxsw),
        }
    }
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u64> {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time of one task in ns: `schedstat` when the kernel has it
/// (nanosecond resolution), else `stat` utime+stime in clock ticks.
fn task_cpu_ns(dir: &str) -> u64 {
    if let Ok(s) = fs::read_to_string(format!("{dir}/schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return ns;
        }
    }
    let Ok(stat) = fs::read_to_string(format!("{dir}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised name; utime and stime are fields 14
    // and 15 of the whole line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    // USER_HZ is 100 on every Linux the benchmark targets.
    ticks * 10_000_000
}

fn task_ctxsw(dir: &str) -> u64 {
    let Ok(status) = fs::read_to_string(format!("{dir}/status")) else {
        return 0;
    };
    status
        .lines()
        .filter(|l| {
            l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_ctxt_switches")
        })
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Samples every thread of this process. `generator` is the tid of the
/// load generator's thread.
pub fn sample(generator: Option<u64>) -> Usage {
    let mut u = Usage::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return u;
    };
    for t in tasks.flatten() {
        let name = t.file_name();
        let Some(tid) = name.to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let dir = format!("/proc/self/task/{tid}");
        let comm = fs::read_to_string(format!("{dir}/comm")).unwrap_or_default();
        let role = if Some(tid) == generator {
            Role::Generator
        } else if comm.starts_with("iabc-io-") {
            Role::Io
        } else {
            Role::Node
        };
        let cpu = task_cpu_ns(&dir);
        match role {
            Role::Generator => u.gen_cpu_ns += cpu,
            Role::Io => u.io_cpu_ns += cpu,
            Role::Node => u.node_cpu_ns += cpu,
        }
        if role != Role::Generator {
            u.cluster_ctxsw += task_ctxsw(&dir);
        }
    }
    u
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
