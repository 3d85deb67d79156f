//! # rt-client
//!
//! Driver for the relative-trust repair service, in the style of a
//! database driver: [`Client::connect`] opens one connection,
//! [`Client::create_session`] yields a [`Session`], and the session's
//! typed methods speak the `rt-proto` wire protocol underneath.
//!
//! ```no_run
//! use rt_client::Client;
//! use rt_proto::EngineOpts;
//!
//! let client = Client::connect("127.0.0.1:7171").unwrap();
//! let mut session = client
//!     .create_session("demo", EngineOpts::new(0))
//!     .unwrap();
//! session
//!     .load_csv("A,B\n1,1\n1,2\n", false, &["A->B"])
//!     .unwrap();
//! let spectrum = session.spectrum().unwrap();
//! assert!(!spectrum.is_empty());
//! ```
//!
//! Repairs arrive bit-identical to what an in-process engine would
//! produce: the codec ships raw `f64` bits and fresh-variable counters, so
//! `Spectrum::bit_identical` holds across the wire (the protocol
//! round-trip tests assert exactly that).
//!
//! ## Resilience
//!
//! A severed connection — including one cut mid-frame — always surfaces
//! immediately as the typed [`ClientError::Io`]; the driver never hangs on
//! a dead peer and never panics on a partial frame. With a
//! [`RetryPolicy`], *idempotent* requests (ping, repair, sweep pages,
//! spectrum, stats — see `Request::is_idempotent`) additionally reconnect
//! and retry with deterministic seeded exponential backoff. Backoff is
//! expressed in **logical units**, not wall time: the policy derives every
//! delay from its seed, the client just accounts for them, and the whole
//! retry schedule is reproducible bit-for-bit (the repo-wide D003 lint
//! forbids wall-clock reads). Mutations (`load_csv`, `apply`,
//! `create_session`, `close`, …) are never resent — a lost ack does not
//! mean a lost mutation, and replaying one could double-apply it.
//!
//! The connection is shared behind a mutex; a request and its response are
//! paired under one lock hold, so independent sessions may share a
//! [`Client`] from multiple threads without interleaving frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod session;

pub use error::ClientError;
pub use session::Session;

use rt_proto::{read_frame, write_frame, LoadSummary, Request, Response};
use rt_relation::Schema;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The stream types the driver can speak over.
trait Transport: Read + Write + Send {}
impl Transport for TcpStream {}
#[cfg(unix)]
impl Transport for std::os::unix::net::UnixStream {}

/// Deterministic retry schedule for idempotent requests.
///
/// Every quantity is logical: `max_attempts` counts tries, and the
/// exponential backoff between them is measured in abstract *units*
/// derived from `seed` — the same seed always yields the same schedule,
/// and nothing ever reads a clock. The accumulated units are visible via
/// [`Client::retry_stats`] so tests (and operators) can assert the
/// schedule that actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per request (initial attempt + retries). `1` disables
    /// retrying entirely.
    pub max_attempts: usize,
    /// Backoff before retry `k` starts at `base_units << (k-1)` …
    pub base_units: u64,
    /// … and is capped here, plus a seeded jitter below `base_units`.
    pub cap_units: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retrying: fail on the first transport loss (the default).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_units: 1,
            cap_units: 1,
            seed: 0,
        }
    }

    /// `max_attempts` tries with seeded jittered exponential backoff
    /// (base 4 units, capped at 64).
    pub fn new(max_attempts: usize, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_units: 4,
            cap_units: 64,
            seed,
        }
    }

    /// The backoff, in logical units, charged before retry number
    /// `attempt` (1 = the first retry). Deterministic in `(self, attempt)`.
    pub fn backoff_units(&self, attempt: usize) -> u64 {
        let shift = (attempt.saturating_sub(1)).min(32) as u32;
        let raw = self.base_units.saturating_shl(shift);
        let capped = raw.min(self.cap_units);
        let jitter = splitmix64(self.seed ^ attempt as u64) % self.base_units.max(1);
        capped + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// SplitMix64 — the repo's standard seeded stream (same constants as the
/// `rand` shim), inlined so the driver stays dependency-free.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

pub(crate) struct Conn {
    target: String,
    reader: BufReader<Box<dyn Transport>>,
}

fn dial(target: &str) -> Result<Box<dyn Transport>, ClientError> {
    match target.strip_prefix("unix:") {
        Some(_path) => {
            #[cfg(unix)]
            {
                Ok(Box::new(std::os::unix::net::UnixStream::connect(_path)?))
            }
            #[cfg(not(unix))]
            {
                Err(ClientError::Protocol {
                    code: "unsupported".to_string(),
                    message: "unix sockets are not available on this platform".to_string(),
                })
            }
        }
        None => {
            // Frames are small request/response pairs: without NODELAY a
            // frame's tail can wait out the peer's delayed ACK (~40 ms).
            let stream = TcpStream::connect(target)?;
            stream.set_nodelay(true)?;
            Ok(Box::new(stream))
        }
    }
}

impl Conn {
    /// Sends `request` and reads its reply under one lock hold.
    fn round_trip(
        &mut self,
        request: &Request,
        schema: Option<&Schema>,
    ) -> Result<Response, ClientError> {
        write_frame(self.reader.get_mut(), &request.encode())?;
        let payload = read_frame(&mut self.reader)?;
        let response = Response::decode(&payload, schema).map_err(ClientError::Decode)?;
        if let Response::Error(frame) = response {
            return Err(match frame.engine {
                Some(err) => ClientError::Engine(err),
                None => ClientError::Protocol {
                    code: frame.code,
                    message: frame.message,
                },
            });
        }
        Ok(response)
    }

    /// Replaces the dead socket with a fresh dial to the remembered target.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.reader = BufReader::new(dial(&self.target)?);
        Ok(())
    }
}

/// One connection to a repair server. Cheap to clone; clones share the
/// underlying socket and retry accounting.
#[derive(Clone)]
pub struct Client {
    conn: Arc<Mutex<Conn>>,
    policy: RetryPolicy,
    reconnects: Arc<AtomicU64>,
    backoff_spent: Arc<AtomicU64>,
}

impl Client {
    /// Connects to `target`: `"host:port"` for TCP, or `"unix:/path"` for
    /// a Unix-domain socket. No retrying — see [`Client::connect_with`].
    pub fn connect(target: &str) -> Result<Client, ClientError> {
        Client::connect_with(target, RetryPolicy::none())
    }

    /// Connects with a retry policy: idempotent requests that hit a
    /// transport loss reconnect and resend, up to the policy's budget.
    pub fn connect_with(target: &str, policy: RetryPolicy) -> Result<Client, ClientError> {
        let stream = dial(target)?;
        Ok(Client {
            conn: Arc::new(Mutex::new(Conn {
                target: target.to_string(),
                reader: BufReader::new(stream),
            })),
            policy,
            reconnects: Arc::new(AtomicU64::new(0)),
            backoff_spent: Arc::new(AtomicU64::new(0)),
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Conn> {
        self.conn.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Retry accounting so far: `(reconnects, backoff_units_spent)`. Both
    /// are deterministic for a given policy and failure pattern.
    pub fn retry_stats(&self) -> (u64, u64) {
        (
            self.reconnects.load(Ordering::Relaxed),
            self.backoff_spent.load(Ordering::Relaxed),
        )
    }

    /// Sends one raw request and returns the raw response — the escape
    /// hatch the `rtclean connect` REPL is built on. `schema` is needed to
    /// decode responses that carry repairs.
    ///
    /// Transport losses on idempotent requests are retried per the
    /// client's [`RetryPolicy`]; every other failure — and *any* failure
    /// of a non-idempotent request — returns immediately.
    pub fn request(
        &self,
        request: &Request,
        schema: Option<&Schema>,
    ) -> Result<Response, ClientError> {
        let mut conn = self.lock();
        let budget = if request.is_idempotent() {
            self.policy.max_attempts
        } else {
            1
        };
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            match conn.round_trip(request, schema) {
                Err(ClientError::Io(message)) => {
                    if attempts >= budget {
                        return if budget > 1 {
                            Err(ClientError::Exhausted { attempts })
                        } else {
                            Err(ClientError::Io(message))
                        };
                    }
                    self.backoff_spent
                        .fetch_add(self.policy.backoff_units(attempts), Ordering::Relaxed);
                    // A failed redial consumes an attempt too: keep
                    // looping until the budget runs out rather than
                    // failing on a server that is still coming back up.
                    if conn.reconnect().is_ok() {
                        self.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                other => return other,
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&self) -> Result<(), ClientError> {
        match self.request(&Request::Ping, None)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Server-wide counters, in the server's stable order.
    pub fn server_stats(&self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.request(&Request::ServerStats, None)? {
            Response::ServerStats(counters) => Ok(counters),
            other => Err(unexpected("server_stats", &other)),
        }
    }

    /// Asks the server to shut down; returns once it acknowledges.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown, None)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Creates a named session and returns its handle.
    pub fn create_session(
        &self,
        name: &str,
        opts: rt_proto::EngineOpts,
    ) -> Result<Session, ClientError> {
        match self.request(
            &Request::CreateSession {
                name: name.to_string(),
                opts,
            },
            None,
        )? {
            Response::Created { session } => Ok(Session::new(self.clone(), session)),
            other => Err(unexpected("created", &other)),
        }
    }

    /// Reattaches to a session from the server's durable store (after a
    /// server restart or an eviction). Returns the session handle — with
    /// its schema already known, so repairs decode immediately — plus the
    /// load summary and the number of WAL records the server replayed.
    pub fn restore_session(
        &self,
        name: &str,
    ) -> Result<(Session, LoadSummary, usize), ClientError> {
        match self.request(
            &Request::Restore {
                session: name.to_string(),
            },
            None,
        )? {
            Response::Restored { summary, replayed } => {
                let schema = summary.schema().map_err(ClientError::Decode)?;
                let session = Session::with_schema(self.clone(), name.to_string(), schema);
                Ok((session, summary, replayed))
            }
            other => Err(unexpected("restored", &other)),
        }
    }
}

pub(crate) fn unexpected(expected: &'static str, got: &Response) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: got.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_exponential() {
        let policy = RetryPolicy::new(8, 42);
        let a: Vec<u64> = (1..=7).map(|k| policy.backoff_units(k)).collect();
        let b: Vec<u64> = (1..=7).map(|k| policy.backoff_units(k)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // Base doubles each retry until the cap; jitter stays below base.
        for (k, units) in a.iter().enumerate() {
            let exp = (policy.base_units << k.min(32)).min(policy.cap_units);
            assert!(
                *units >= exp && *units < exp + policy.base_units,
                "attempt {k}: {units}"
            );
        }
        // A different seed jitters differently somewhere in the schedule.
        let other = RetryPolicy::new(8, 43);
        assert_ne!(
            a,
            (1..=7).map(|k| other.backoff_units(k)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn huge_attempt_numbers_never_overflow() {
        let policy = RetryPolicy::new(usize::MAX, 7);
        assert_eq!(
            policy.backoff_units(10_000),
            policy.cap_units + splitmix64(7 ^ 10_000) % policy.base_units
        );
    }
}
