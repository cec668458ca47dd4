//! Transport ceiling: an echo node over the real `TcpCluster`.
//!
//! Every process keeps a fixed window of frames in flight to each peer;
//! a peer answers each ping with an echo and each returning echo releases
//! the next ping. Frames received per second across all processes is the
//! most the transport carries at this `n` and frame size, which turns the
//! workload's own frame rate into a hardware-independent ratio.

use std::time::{Duration, Instant};

use indirect_abcast::net::TcpCluster;
use indirect_abcast::runtime::{Context, Node};
use indirect_abcast::types::{CodecError, Decode, Encode, Payload, ProcessId, WireSize};

/// Frames kept in flight per directed link.
const WINDOW: usize = 64;

/// An echo-protocol frame.
#[derive(Debug, Clone)]
pub struct Frame {
    echo: bool,
    body: Payload,
}

impl WireSize for Frame {
    fn wire_size(&self) -> usize {
        1 + self.body.wire_size()
    }
}

impl Encode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(self.echo));
        self.body.encode(buf);
    }
}

impl Decode for Frame {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let echo = u8::decode(buf)? != 0;
        Ok(Frame {
            echo,
            body: Payload::decode(buf)?,
        })
    }
}

/// Commands to an echo node.
#[derive(Debug, Clone, Copy)]
pub enum Cmd {
    /// Fill the window towards every peer.
    Start,
    /// Output the number of frames received so far.
    Report,
}

/// The echo node of one process.
#[derive(Debug)]
pub struct Echo {
    body: Payload,
    received: u64,
}

impl Node for Echo {
    type Msg = Frame;
    type Command = Cmd;
    type Output = u64;

    fn on_command(&mut self, cmd: Cmd, ctx: &mut Context<Frame, u64>) {
        match cmd {
            Cmd::Start => {
                for _ in 0..WINDOW {
                    ctx.send_to_others(Frame {
                        echo: false,
                        body: self.body.clone(),
                    });
                }
            }
            Cmd::Report => ctx.output(self.received),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Frame, ctx: &mut Context<Frame, u64>) {
        self.received += 1;
        ctx.send(
            from,
            Frame {
                echo: !msg.echo,
                body: msg.body,
            },
        );
    }
}

fn report(cluster: &mut TcpCluster<Echo>, n: usize) -> u64 {
    for p in ProcessId::all(n) {
        cluster.send_command(p, Cmd::Report);
    }
    let outs = cluster.wait_for_outputs(n, Duration::from_secs(10));
    assert_eq!(outs.len(), n, "echo nodes stopped answering");
    outs.iter().map(|o| o.output).sum()
}

/// Frames per second the transport carries between `n` processes with
/// `payload`-byte frame bodies, measured over `measure` after a warm-up.
pub fn ceiling_frames_s(n: usize, payload: usize, measure: Duration) -> f64 {
    let body = Payload::new(vec![0x5Au8; payload]);
    let mut cluster = TcpCluster::start(n, |_| Echo {
        body: body.clone(),
        received: 0,
    });
    for p in ProcessId::all(n) {
        cluster.send_command(p, Cmd::Start);
    }
    std::thread::sleep(Duration::from_millis(200));
    let t0 = Instant::now();
    let r0 = report(&mut cluster, n);
    std::thread::sleep(measure);
    let r1 = report(&mut cluster, n);
    let secs = t0.elapsed().as_secs_f64();
    cluster.shutdown();
    (r1 - r0) as f64 / secs
}
