//! The request half of the protocol.

use crate::opts::EngineOpts;
use crate::value::{array_field, bool_field, f64_field, field, num, obj, str_field, usize_field};
use rt_engine::json::{self, JsonValue};

/// A cell budget, absolute or relative — the wire form of the CLI's
/// `--tau` / `--tau-r` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TauSpec {
    /// At most this many cell changes.
    Absolute(usize),
    /// Relative trust in `[0, 1]` (scaled by the session's `δ_P`).
    Relative(f64),
}

impl TauSpec {
    /// Validates a relative trust level — the one range check shared by
    /// the CLI's `--tau-r`, the REPL and the wire decoder.
    pub fn relative(f: f64) -> Result<TauSpec, String> {
        if (0.0..=1.0).contains(&f) {
            Ok(TauSpec::Relative(f))
        } else {
            Err(format!("relative trust must be in [0,1], got {f}"))
        }
    }
}

/// One client→server command.
///
/// This enum is the public command surface of the whole system: everything
/// a repair session can be asked to do is one of these variants, whether it
/// arrives over a socket, from the REPL, or from the CLI front end.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Creates a named session with the given engine options. The engine
    /// itself is built by the following `load_csv`.
    CreateSession {
        /// Session name (unique per server).
        name: String,
        /// Engine configuration for the session.
        opts: EngineOpts,
    },
    /// Loads CSV/TSV text and FD specs into a session, building its engine
    /// (the session's one conflict-graph build).
    LoadCsv {
        /// Target session.
        session: String,
        /// The raw CSV/TSV text.
        text: String,
        /// Treat `text` as tab-separated.
        tsv: bool,
        /// FD specs (`"X1,X2->A"`).
        fds: Vec<String>,
    },
    /// Applies a mutation log (the `rt_engine::mutation_log` JSON array,
    /// embedded verbatim) as one atomic batch.
    Apply {
        /// Target session.
        session: String,
        /// The mutation-log array.
        ops: JsonValue,
    },
    /// One repair at a trust level.
    RepairAt {
        /// Target session.
        session: String,
        /// The budget.
        tau: TauSpec,
    },
    /// A page of the spectrum sweep over `lo..=hi`: skip `offset` points,
    /// return at most `limit`. Server-side sweep checkpointing makes
    /// successive pages resume, not restart.
    SweepPage {
        /// Target session.
        session: String,
        /// Low end of the τ range (inclusive).
        lo: usize,
        /// High end of the τ range (inclusive).
        hi: usize,
        /// Points to skip.
        offset: usize,
        /// Maximum points to return.
        limit: usize,
    },
    /// The full spectrum.
    Spectrum {
        /// Target session.
        session: String,
    },
    /// The session's cumulative engine statistics.
    Stats {
        /// Target session.
        session: String,
    },
    /// Closes a session, releasing its engine.
    Close {
        /// Target session.
        session: String,
    },
    /// Forces a durable snapshot of a session to the server's data
    /// directory (snapshot rotation: engine blob written atomically, then
    /// the session's WAL truncated).
    Snapshot {
        /// Target session.
        session: String,
    },
    /// Re-opens a session from its durable files, replacing whatever
    /// in-memory state the server holds for it. This is the recovery path a
    /// client can trigger by hand — e.g. after a `needs_reload` error.
    Restore {
        /// Target session.
        session: String,
    },
    /// Server-wide counters (sessions, frames, evictions).
    ServerStats,
    /// Asks the server to shut down gracefully.
    Shutdown,
}

impl Request {
    /// The frame discriminator of this request.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::CreateSession { .. } => "create_session",
            Request::LoadCsv { .. } => "load_csv",
            Request::Apply { .. } => "apply",
            Request::RepairAt { .. } => "repair_at",
            Request::SweepPage { .. } => "sweep_page",
            Request::Spectrum { .. } => "spectrum",
            Request::Stats { .. } => "stats",
            Request::Close { .. } => "close",
            Request::Snapshot { .. } => "snapshot",
            Request::Restore { .. } => "restore",
            Request::ServerStats => "server_stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether this request is safe to retry blindly after a transport
    /// failure: it either reads state or probes liveness, and re-executing
    /// it cannot double-apply anything. Mutating requests (`apply`,
    /// `load_csv`, `create_session`, `close`, `snapshot`, `restore`,
    /// `shutdown`) are NOT idempotent from the client's point of view —
    /// the first send may have been applied before the connection died —
    /// so the client's auto-reconnect must never replay them.
    pub fn is_idempotent(&self) -> bool {
        matches!(
            self,
            Request::Ping
                | Request::RepairAt { .. }
                | Request::SweepPage { .. }
                | Request::Spectrum { .. }
                | Request::Stats { .. }
                | Request::ServerStats
        )
    }

    /// Renders this request as one frame payload (compact JSON, one line).
    pub fn encode(&self) -> String {
        let mut fields = vec![("type", JsonValue::Str(self.kind().to_string()))];
        match self {
            Request::Ping | Request::ServerStats | Request::Shutdown => {}
            Request::CreateSession { name, opts } => {
                fields.push(("name", JsonValue::Str(name.clone())));
                fields.push(("opts", opts.encode()));
            }
            Request::LoadCsv {
                session,
                text,
                tsv,
                fds,
            } => {
                fields.push(("session", JsonValue::Str(session.clone())));
                fields.push(("text", JsonValue::Str(text.clone())));
                fields.push(("tsv", JsonValue::Bool(*tsv)));
                fields.push((
                    "fds",
                    JsonValue::Arr(fds.iter().map(|s| JsonValue::Str(s.clone())).collect()),
                ));
            }
            Request::Apply { session, ops } => {
                fields.push(("session", JsonValue::Str(session.clone())));
                fields.push(("ops", ops.clone()));
            }
            Request::RepairAt { session, tau } => {
                fields.push(("session", JsonValue::Str(session.clone())));
                match tau {
                    TauSpec::Absolute(t) => fields.push(("tau", num(*t))),
                    TauSpec::Relative(f) => fields.push(("tau_r", JsonValue::Num(*f))),
                }
            }
            Request::SweepPage {
                session,
                lo,
                hi,
                offset,
                limit,
            } => {
                fields.push(("session", JsonValue::Str(session.clone())));
                fields.push(("lo", num(*lo)));
                fields.push(("hi", num(*hi)));
                fields.push(("offset", num(*offset)));
                fields.push(("limit", num(*limit)));
            }
            Request::Spectrum { session }
            | Request::Stats { session }
            | Request::Close { session }
            | Request::Snapshot { session }
            | Request::Restore { session } => {
                fields.push(("session", JsonValue::Str(session.clone())));
            }
        }
        json::render(&obj(fields))
    }

    /// Parses a frame payload into a request. Malformed frames produce a
    /// one-line message naming the offending field.
    pub fn decode(payload: &str) -> Result<Request, String> {
        let v = json::parse(payload).map_err(|e| format!("invalid JSON: {e}"))?;
        let session =
            |v: &JsonValue| -> Result<String, String> { Ok(str_field(v, "session")?.to_string()) };
        match str_field(&v, "type")? {
            "ping" => Ok(Request::Ping),
            "server_stats" => Ok(Request::ServerStats),
            "shutdown" => Ok(Request::Shutdown),
            "create_session" => Ok(Request::CreateSession {
                name: str_field(&v, "name")?.to_string(),
                opts: EngineOpts::decode(field(&v, "opts")?)?,
            }),
            "load_csv" => Ok(Request::LoadCsv {
                session: session(&v)?,
                text: str_field(&v, "text")?.to_string(),
                tsv: bool_field(&v, "tsv")?,
                fds: array_field(&v, "fds")?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "field `fds` must contain spec strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "apply" => Ok(Request::Apply {
                session: session(&v)?,
                ops: field(&v, "ops")?.clone(),
            }),
            "repair_at" => Ok(Request::RepairAt {
                session: session(&v)?,
                tau: if v.get("tau").is_some() {
                    TauSpec::Absolute(usize_field(&v, "tau")?)
                } else {
                    TauSpec::relative(f64_field(&v, "tau_r")?)
                        .map_err(|e| format!("field `tau_r`: {e}"))?
                },
            }),
            "sweep_page" => Ok(Request::SweepPage {
                session: session(&v)?,
                lo: usize_field(&v, "lo")?,
                hi: usize_field(&v, "hi")?,
                offset: usize_field(&v, "offset")?,
                limit: usize_field(&v, "limit")?,
            }),
            "spectrum" => Ok(Request::Spectrum {
                session: session(&v)?,
            }),
            "stats" => Ok(Request::Stats {
                session: session(&v)?,
            }),
            "close" => Ok(Request::Close {
                session: session(&v)?,
            }),
            "snapshot" => Ok(Request::Snapshot {
                session: session(&v)?,
            }),
            "restore" => Ok(Request::Restore {
                session: session(&v)?,
            }),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
            Request::Ping,
            Request::CreateSession {
                name: "s1".into(),
                opts: EngineOpts::new(17),
            },
            Request::LoadCsv {
                session: "s1".into(),
                text: "A,B\n1,1\n1,2\n".into(),
                tsv: false,
                fds: vec!["A->B".into()],
            },
            Request::Apply {
                session: "s1".into(),
                ops: json::parse(r#"[{"op": "delete", "rows": [0]}]"#).unwrap(),
            },
            Request::RepairAt {
                session: "s1".into(),
                tau: TauSpec::Absolute(3),
            },
            Request::RepairAt {
                session: "s1".into(),
                tau: TauSpec::Relative(0.5),
            },
            Request::SweepPage {
                session: "s1".into(),
                lo: 0,
                hi: 9,
                offset: 2,
                limit: 4,
            },
            Request::Spectrum {
                session: "s1".into(),
            },
            Request::Stats {
                session: "s1".into(),
            },
            Request::Close {
                session: "s1".into(),
            },
            Request::Snapshot {
                session: "s1".into(),
            },
            Request::Restore {
                session: "s1".into(),
            },
            Request::ServerStats,
            Request::Shutdown,
        ];
        for request in requests {
            let payload = request.encode();
            assert!(!payload.contains('\n'), "frames must be one line");
            assert_eq!(Request::decode(&payload).unwrap(), request);
        }
    }

    #[test]
    fn large_load_csv_frame_round_trips() {
        // ~2 MB of CSV text: string decoding is linear in the frame, so
        // this takes milliseconds (a per-character decoder that re-scanned
        // the rest of the frame took 14 s on 816 KB).
        let mut text = String::from("id,name,city,price\n");
        for i in 0..50_000 {
            text.push_str(&format!(
                "{i},\"Caf\u{e9} \\{i}\",K\u{f8}benhavn,\u{20ac}{i}.5\n"
            ));
        }
        assert!(text.len() > 2_000_000);
        let request = Request::LoadCsv {
            session: "s1".into(),
            text,
            tsv: false,
            fds: vec!["id->name".into(), "name->city".into()],
        };
        let payload = request.encode();
        assert!(payload.len() < crate::MAX_FRAME_BYTES);
        assert!(!payload.contains('\n'), "frames must be one line");
        assert_eq!(Request::decode(&payload).unwrap(), request);
    }

    #[test]
    fn only_read_only_requests_are_idempotent() {
        // The retry layer keys off this predicate; a mutating request
        // slipping into the idempotent set would let auto-reconnect
        // double-apply it.
        assert!(Request::Ping.is_idempotent());
        assert!(Request::ServerStats.is_idempotent());
        let s = || "s".to_string();
        assert!(Request::RepairAt {
            session: s(),
            tau: TauSpec::Absolute(1)
        }
        .is_idempotent());
        assert!(Request::SweepPage {
            session: s(),
            lo: 0,
            hi: 1,
            offset: 0,
            limit: 1
        }
        .is_idempotent());
        assert!(Request::Spectrum { session: s() }.is_idempotent());
        assert!(Request::Stats { session: s() }.is_idempotent());

        assert!(!Request::Shutdown.is_idempotent());
        assert!(!Request::Close { session: s() }.is_idempotent());
        assert!(!Request::Snapshot { session: s() }.is_idempotent());
        assert!(!Request::Restore { session: s() }.is_idempotent());
        assert!(!Request::CreateSession {
            name: s(),
            opts: EngineOpts::new(0)
        }
        .is_idempotent());
        assert!(!Request::LoadCsv {
            session: s(),
            text: String::new(),
            tsv: false,
            fds: vec![]
        }
        .is_idempotent());
        assert!(!Request::Apply {
            session: s(),
            ops: JsonValue::Arr(vec![])
        }
        .is_idempotent());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Request::decode("{\"type\":\"frobnicate\"}").is_err());
        assert!(Request::decode("{\"type\":\"stats\"}").is_err()); // no session
        assert!(Request::decode("{\"type\":\"repair_at\",\"session\":\"s\"}").is_err());
        assert!(
            Request::decode("{\"type\":\"repair_at\",\"session\":\"s\",\"tau_r\":1.5}").is_err()
        );
        assert!(Request::decode("{\"type\":\"create_session\",\"name\":\"s\"}").is_err());
    }
}
