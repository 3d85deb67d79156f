//! # rt-chaos
//!
//! A seeded, in-process fault-injection proxy for the `rt-proto` wire.
//! [`ChaosProxy::spawn`] sits on a loopback socket between a client and a
//! real server, relaying bytes and injecting exactly one class of wire
//! fault per connection, chosen and positioned by a [`ChaosPlan`] that is
//! a pure function of a `u64` seed:
//!
//! * **mid-frame sever** — forward a prefix of a response, then cut the
//!   connection with the frame unfinished;
//! * **torn frame** — half-close the server→client direction mid-frame
//!   (requests still flow; replies never finish);
//! * **byte corruption** — flip one bit at a seeded offset;
//! * **partial writes** — deliver the stream one byte per write;
//! * **coalesced flushes** — buffer and deliver in large delayed bursts.
//!
//! Faults are injected on the server→client direction: that is the side a
//! resilient driver must survive (the repo's recovery tests assert every
//! outcome is a typed error — no hangs, no panics). Fault selection is
//! deterministic — no OS randomness, byte positions only; the one timing
//! element is a bounded pause-flush in the coalescing relay, there so a
//! stashed burst can never be withheld forever.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// SplitMix64 (same constants as the repo's `rand` shim): one u64 in, one
/// decorrelated u64 out.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The wire-fault class a [`ChaosPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Relay faithfully (the control arm).
    None,
    /// Forward `trigger_bytes` of server output, then sever both
    /// directions abruptly — the client sees a connection lost mid-frame.
    SeverMidFrame,
    /// Forward `trigger_bytes` of server output, then half-close the
    /// server→client direction: the torn reply never completes, while the
    /// client's own writes still succeed.
    TornFrame,
    /// Flip one bit of the server output at offset `trigger_bytes` (or the
    /// first later non-delimiter byte — the `\n` framing is never touched,
    /// so the corruption surfaces as a typed decode error, not a stall).
    CorruptByte,
    /// Deliver the server output one byte per write (worst-case
    /// fragmentation for the client's frame reader).
    PartialWrites,
    /// Buffer server output and deliver it in bursts of `trigger_bytes`
    /// (delayed, coalesced flushes).
    CoalescedFlush,
}

/// A deterministic per-connection fault schedule: which fault, and at
/// which byte of the server→client stream it triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan was derived from (kept for reporting).
    pub seed: u64,
    /// The fault class to inject.
    pub fault: WireFault,
    /// Byte position/parameter of the fault (see [`WireFault`]).
    pub trigger_bytes: u64,
}

impl ChaosPlan {
    /// Derives a plan from a seed: fault class and trigger position are
    /// both seeded draws, so a fuzz loop over consecutive seeds covers
    /// every class at many positions.
    pub fn from_seed(seed: u64) -> ChaosPlan {
        let fault = match splitmix64(seed) % 6 {
            0 => WireFault::None,
            1 => WireFault::SeverMidFrame,
            2 => WireFault::TornFrame,
            3 => WireFault::CorruptByte,
            4 => WireFault::PartialWrites,
            _ => WireFault::CoalescedFlush,
        };
        // 1..=256: early enough to hit the first response frames.
        let trigger_bytes = splitmix64(seed ^ 0x000C_4A05) % 256 + 1;
        ChaosPlan {
            seed,
            fault,
            trigger_bytes,
        }
    }

    /// A faithful relay (control arm).
    pub fn clean() -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            fault: WireFault::None,
            trigger_bytes: 0,
        }
    }

    /// A plan that severs the connection after exactly `after_bytes` of
    /// server output — the mid-frame-disconnect regression fixture.
    pub fn sever_after(after_bytes: u64) -> ChaosPlan {
        ChaosPlan {
            seed: 0,
            fault: WireFault::SeverMidFrame,
            trigger_bytes: after_bytes,
        }
    }
}

/// The per-direction relay state machine.
struct FaultState {
    plan: ChaosPlan,
    seen: u64,
    fired: bool,
    stash: Vec<u8>,
}

enum Flow {
    Continue,
    Stop,
}

impl FaultState {
    fn new(plan: ChaosPlan) -> FaultState {
        FaultState {
            plan,
            seen: 0,
            fired: false,
            stash: Vec::new(),
        }
    }

    /// Relays one chunk from the server towards the client, injecting the
    /// plan's fault when its trigger byte falls inside the chunk.
    fn relay_chunk(&mut self, chunk: &mut [u8], to: &mut TcpStream) -> Flow {
        let trigger = self.plan.trigger_bytes;
        let within =
            !self.fired && self.seen <= trigger && trigger < self.seen + chunk.len() as u64;
        let offset = (trigger - self.seen.min(trigger)) as usize;
        let result = match self.plan.fault {
            WireFault::None => self.forward(chunk, to),
            WireFault::SeverMidFrame if within => {
                self.fired = true;
                let _ = to.write_all(&chunk[..offset]);
                let _ = to.flush();
                let _ = to.shutdown(Shutdown::Both);
                Flow::Stop
            }
            WireFault::TornFrame if within => {
                self.fired = true;
                let _ = to.write_all(&chunk[..offset]);
                let _ = to.flush();
                // Half-close: the client's read side sees EOF mid-frame,
                // its write side stays usable.
                let _ = to.shutdown(Shutdown::Write);
                Flow::Stop
            }
            WireFault::CorruptByte => {
                if within {
                    if let Some(o) = (offset..chunk.len()).find(|&k| chunk[k] != b'\n') {
                        self.fired = true;
                        chunk[o] ^= 0x01;
                    } else {
                        // Every remaining byte is a frame delimiter;
                        // corrupting one would erase the framing itself —
                        // a silent stall, not the typed decode error this
                        // class is meant to provoke. Slide the trigger to
                        // the first byte of the next chunk instead.
                        self.plan.trigger_bytes = self.seen + chunk.len() as u64;
                    }
                }
                self.forward(chunk, to)
            }
            WireFault::PartialWrites => {
                for byte in chunk.iter() {
                    if to.write_all(std::slice::from_ref(byte)).is_err() {
                        return Flow::Stop;
                    }
                    let _ = to.flush();
                }
                Flow::Continue
            }
            WireFault::CoalescedFlush => {
                self.stash.extend_from_slice(chunk);
                if self.stash.len() as u64 >= trigger.max(1) {
                    let burst = std::mem::take(&mut self.stash);
                    return self.forward(&burst, to);
                }
                Flow::Continue
            }
            // Trigger not reached (or already fired): faithful relay.
            _ => self.forward(chunk, to),
        };
        self.seen += chunk.len() as u64;
        result
    }

    fn forward(&self, bytes: &[u8], to: &mut TcpStream) -> Flow {
        match to.write_all(bytes) {
            Ok(()) => {
                let _ = to.flush();
                Flow::Continue
            }
            Err(_) => Flow::Stop,
        }
    }

    /// End-of-stream: deliver anything a coalescing fault still holds.
    fn drain(&mut self, to: &mut TcpStream) {
        if !self.stash.is_empty() {
            let burst = std::mem::take(&mut self.stash);
            let _ = to.write_all(&burst);
            let _ = to.flush();
        }
    }
}

/// A running chaos proxy: accepts loopback connections, relays each to the
/// upstream server with the plan's fault injected on the reply direction.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds a fresh loopback port and starts proxying to `upstream`
    /// (a `host:port` TCP address). Every accepted connection gets the
    /// same plan, so each connection's fault schedule is independent of
    /// how many came before it.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for client in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(client) = client else { continue };
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                spawn_relays(client, server, plan);
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The listen address as a `Client::connect` target string.
    pub fn target(&self) -> String {
        self.addr.to_string()
    }

    /// Stops accepting new connections (in-flight relays finish on their
    /// own when either peer hangs up).
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Self-connect to unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One thread per direction. The client→server direction is always
/// faithful (requests must reach the server unmodified, or the run would
/// not be comparable to its fault-free twin); the server→client direction
/// carries the plan's fault.
fn spawn_relays(client: TcpStream, server: TcpStream, plan: ChaosPlan) {
    // Both legs forward frames as they arrive; Nagle's algorithm would
    // hold a frame's tail for the peer's delayed ACK.
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_read), Ok(server_read)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    std::thread::spawn(move || relay(client_read, server, None));
    std::thread::spawn(move || relay(server_read, client, Some(FaultState::new(plan))));
}

fn relay(mut from: TcpStream, mut to: TcpStream, mut fault: Option<FaultState>) {
    // A coalescing fault delays bursts but must never withhold one forever:
    // a request/response client waiting on a sub-trigger reply would hang.
    // When the upstream pauses, the stash is flushed. The poll interval is
    // a bounded OS timeout, not a schedule input — on a quiet wire the
    // burst boundaries are still dictated by the seeded trigger.
    let coalescing = fault
        .as_ref()
        .is_some_and(|f| f.plan.fault == WireFault::CoalescedFlush);
    if coalescing {
        let _ = from.set_read_timeout(Some(std::time::Duration::from_millis(25)));
    }
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Err(e)
                if coalescing
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                if let Some(state) = fault.as_mut() {
                    state.drain(&mut to);
                }
                continue;
            }
            Err(_) => break,
            Ok(n) => n,
        };
        let flow = match fault.as_mut() {
            Some(state) => state.relay_chunk(&mut buf[..n], &mut to),
            None => match to.write_all(&buf[..n]).and_then(|()| to.flush()) {
                Ok(()) => Flow::Continue,
                Err(_) => Flow::Stop,
            },
        };
        if matches!(flow, Flow::Stop) {
            let _ = from.shutdown(Shutdown::Read);
            return;
        }
    }
    if let Some(state) = fault.as_mut() {
        state.drain(&mut to);
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// A one-connection-at-a-time line-echo server for exercising the
    /// proxy without dragging the real repair server in.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                    if line.trim() == "quit" {
                        return; // ends the whole server
                    }
                    let mut out = stream.try_clone().unwrap();
                    if out.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn ask(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
        stream.write_all(line.as_bytes())?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut reply = String::new();
        let n = reader.read_line(&mut reply)?;
        if n == 0 || !reply.ends_with('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "reply truncated",
            ));
        }
        Ok(reply)
    }

    #[test]
    fn plans_are_deterministic_and_cover_every_fault() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let a = ChaosPlan::from_seed(seed);
            assert_eq!(a, ChaosPlan::from_seed(seed));
            assert!(a.trigger_bytes >= 1);
            kinds.insert(format!("{:?}", a.fault));
        }
        assert_eq!(kinds.len(), 6, "64 seeds must cover all six classes");
    }

    #[test]
    fn clean_partial_and_coalesced_relays_preserve_bytes() {
        for plan in [
            ChaosPlan::clean(),
            ChaosPlan {
                seed: 0,
                fault: WireFault::PartialWrites,
                trigger_bytes: 1,
            },
            ChaosPlan {
                seed: 0,
                fault: WireFault::CoalescedFlush,
                trigger_bytes: 7,
            },
        ] {
            let (addr, server) = echo_server();
            let mut proxy = ChaosProxy::spawn(addr, plan).unwrap();
            let mut stream = TcpStream::connect(proxy.addr()).unwrap();
            for i in 0..3 {
                let line = format!("hello-{i}-{:?}\n", plan.fault);
                assert_eq!(ask(&mut stream, &line).unwrap(), line);
            }
            stream.write_all(b"quit\n").unwrap();
            server.join().unwrap();
            proxy.shutdown();
        }
    }

    #[test]
    fn sever_mid_frame_cuts_the_reply_short() {
        let (addr, _server) = echo_server();
        // The echo of a 26-byte line is severed after 5 bytes.
        let mut proxy = ChaosProxy::spawn(addr, ChaosPlan::sever_after(5)).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let err = ask(&mut stream, "abcdefghijklmnopqrstuvwxy\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        proxy.shutdown();
    }

    #[test]
    fn corrupt_byte_flips_exactly_one_bit() {
        let (addr, server) = echo_server();
        let plan = ChaosPlan {
            seed: 0,
            fault: WireFault::CorruptByte,
            trigger_bytes: 2,
        };
        let mut proxy = ChaosProxy::spawn(addr, plan).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let reply = ask(&mut stream, "abcdef\n").unwrap();
        assert_eq!(reply.as_bytes()[2], b'c' ^ 0x01);
        let rest: Vec<u8> = reply
            .bytes()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, b)| b)
            .collect();
        assert_eq!(rest, b"abdef\n".to_vec());
        stream.write_all(b"quit\n").unwrap();
        server.join().unwrap();
        proxy.shutdown();
    }
}
