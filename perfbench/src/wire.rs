//! The wire path: an `rtclean serve`-equivalent server on loopback in this
//! process, one client and one connection. Used by `session-mutate` and,
//! in traced runs, by the wire-layer replay of every workload.

use crate::common::{check_spectrum, mutation_ops, timed, OpMix, Scratch, TAU_R};
use crate::replay::{traced, Layers};
use crate::stats::{median, tail, Samples, Series, Tally};
use crate::trace::Tracer;
use rt_client::Client;
use rt_constraints::FdSet;
use rt_core::{MutationOp, Parallelism, Repair};
use rt_engine::json;
use rt_engine::{MutationBatch, RepairEngine, RepairPoint};
use rt_proto::{EngineOpts, Request, Response};
use rt_relation::work::WorkSnapshot;
use rt_relation::{Instance, Schema};
use rt_server::{Server, ServerConfig, SessionStore};
use std::path::PathBuf;
use std::thread::JoinHandle;

/// Wire pings per traced run.
const PINGS: usize = 100;

/// The inputs of one wire session: CSV text, FD specs and a log of
/// single-op mutation batches (each rendered as a mutation-log array).
pub struct WireInputs {
    pub text: String,
    pub fds: Vec<String>,
    pub schema: Schema,
    pub op_texts: Vec<String>,
    pub opts: EngineOpts,
}

impl WireInputs {
    /// `instance` (its first `max_rows` rows) sent as CSV text, with `ops`
    /// seeded single-op batches against it.
    pub fn from_instance(
        instance: &Instance,
        fds: &FdSet,
        max_rows: usize,
        ops: usize,
        seed: u64,
    ) -> Result<WireInputs, String> {
        let text = crate::common::csv_text(&instance.truncate(max_rows));
        let specs: Vec<String> = fds
            .iter()
            .map(|(_, fd)| fd.display_with(instance.schema()))
            .collect();
        let (loaded, sigma) = load_text(&text, &specs)?;
        let ops = mutation_ops(&loaded, &sigma, ops, OpMix::Mixed, seed);
        WireInputs::with_ops(text, specs, &ops, seed)
    }

    /// CSV text and FD specs with a chosen op log, one op per batch. `seed`
    /// seeds the session's data repair.
    pub fn with_ops(
        text: String,
        fds: Vec<String>,
        ops: &[MutationOp],
        seed: u64,
    ) -> Result<WireInputs, String> {
        let (instance, _) = load_text(&text, &fds)?;
        let op_texts = ops
            .iter()
            .map(|op| rt_engine::render_mutation_log(std::slice::from_ref(op), instance.schema()))
            .collect();
        let mut opts = EngineOpts::new(seed);
        opts.threads = Parallelism::Serial;
        Ok(WireInputs {
            text,
            fds,
            schema: instance.schema().clone(),
            op_texts,
            opts,
        })
    }

    fn fd_refs(&self) -> Vec<&str> {
        self.fds.iter().map(String::as_str).collect()
    }
}

/// Parses wire CSV text the way the server does (relation name `input`).
pub fn load_text(text: &str, fds: &[String]) -> Result<(Instance, FdSet), String> {
    let report = rt_io::read_instance(text.as_bytes(), &rt_io::CsvOptions::csv().relation("input"))
        .map_err(|e| e.to_string())?;
    let refs: Vec<&str> = fds.iter().map(String::as_str).collect();
    let sigma = FdSet::parse(&refs, report.instance.schema())?;
    Ok((report.instance, sigma))
}

/// A server thread plus one connected client.
struct Loopback {
    addr: String,
    client: Client,
    worker: JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    fn start(data_dir: PathBuf) -> Result<Loopback, String> {
        let config = ServerConfig {
            data_dir: Some(data_dir),
            wal_sync: false,
            ..ServerConfig::default()
        };
        let server = Server::bind_tcp_with("127.0.0.1:0", config).map_err(|e| e.to_string())?;
        let addr = server
            .local_addr()
            .ok_or("server has no address")?
            .to_string();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());
        match Client::connect(&addr) {
            Ok(client) => Ok(Loopback {
                addr,
                client,
                worker,
            }),
            Err(e) => {
                handle.shutdown();
                let _ = worker.join();
                Err(e.to_string())
            }
        }
    }

    /// Shuts the server down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        let asked = self.client.shutdown().map_err(|e| e.to_string());
        drop(self.client);
        let joined = match self.worker.join() {
            Ok(run) => run.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".to_string()),
        };
        asked.and(joined)
    }
}

/// Bit-identity of two repairs (the wire ≡ in-process contract).
fn same_repair(a: &Repair, b: &Repair) -> bool {
    a.tau == b.tau
        && a.state == b.state
        && a.modified_fds == b.modified_fds
        && a.dist_c.to_bits() == b.dist_c.to_bits()
        && a.delta_p == b.delta_p
        && a.repaired_instance == b.repaired_instance
        && a.changed_cells == b.changed_cells
}

/// The in-process twin: the same text, options and op log as a wire
/// session, queried in the same order. Returns the τ_r = 0.5 repair after
/// each op.
fn twin_rounds(inputs: &WireInputs) -> Result<Vec<Repair>, String> {
    let (instance, sigma) = load_text(&inputs.text, &inputs.fds)?;
    let mut engine = inputs
        .opts
        .configure(RepairEngine::builder(instance, sigma))
        .build()
        .map_err(|e| e.to_string())?;
    let delta_p = engine.delta_p_original();
    for p in engine.sweep(0..=delta_p) {
        p.map_err(|e| e.to_string())?;
    }
    let mut repairs = Vec::new();
    for text in &inputs.op_texts {
        let ops = rt_engine::parse_mutation_log(text, &inputs.schema)?;
        engine
            .apply(&ops.into_iter().collect::<MutationBatch>())
            .map_err(|e| e.to_string())?;
        repairs.push(
            engine
                .repair_at_relative(TAU_R)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(repairs)
}

/// One page of the sweep over `0..=hi` of session `name`, read over
/// `reader` (see [`rt_client::Session::sweep_page`]).
fn read_page(
    reader: &Client,
    name: &str,
    schema: Option<&Schema>,
    hi: usize,
    offset: usize,
    limit: usize,
) -> Result<(Vec<RepairPoint>, bool), String> {
    let request = Request::SweepPage {
        session: name.to_string(),
        lo: 0,
        hi,
        offset,
        limit,
    };
    match reader
        .request(&request, schema)
        .map_err(|e| e.to_string())?
    {
        Response::SweepPage { points, done } => Ok((points, done)),
        other => Err(format!("expected a sweep page, got `{}`", other.kind())),
    }
}

/// The samples of the session loop.
#[derive(Default)]
pub struct SessionMeasured {
    pub samples: Samples,
    pub apply_s: Series,
    pub epochs: usize,
}

/// [`timed`], adding the seconds to `busy`.
fn clock<T>(busy: &mut f64, f: impl FnOnce() -> T) -> (T, f64) {
    let (out, s) = timed(f);
    *busy += s;
    (out, s)
}

/// Epochs of {create_session + load_csv, first sweep page and rest of the
/// sweep (on a reader connection), then one round of {apply one op, repair
/// at τ_r = 0.5} per op}
/// until `seconds` have been spent waiting on the server (at least
/// `min_epochs`). Every epoch starts from the same loaded text, so the
/// samples do not drift with the loop's length. Every wire repair must
/// equal the in-process twin's bit for bit.
pub fn measure_session(
    inputs: &WireInputs,
    seconds: f64,
    min_epochs: usize,
    tally: &mut Tally,
    scratch: &Scratch,
) -> SessionMeasured {
    let mut m = SessionMeasured::default();
    let Some(expected) = tally.take("session: in-process twin", twin_rounds(inputs)) else {
        return m;
    };
    let Some(lb) = tally.take(
        "session: server start",
        Loopback::start(scratch.path("data")),
    ) else {
        return m;
    };
    let fds = inputs.fd_refs();
    'epochs: while m.epochs < min_epochs || m.samples.busy_s < seconds {
        let name = format!("bench-{}", m.epochs);
        // A fresh connection per epoch: every epoch starts from the same TCP
        // state. On one long-lived connection, which small frames wait for
        // a delayed ACK drifts over the run and moves whole runs' figures.
        let Some(client) = tally.take("session: connect", Client::connect(&lb.addr)) else {
            break;
        };
        let (setup, s) = clock(&mut m.samples.busy_s, || {
            let mut session = client.create_session(&name, inputs.opts)?;
            let summary = session.load_csv(&inputs.text, false, &fds)?;
            Ok::<_, rt_client::ClientError>((session, summary))
        });
        m.samples.calls += 2;
        let Some((mut session, summary)) = tally.take("session: create + load_csv", setup) else {
            break;
        };
        m.samples.setup_s.push(s);

        // The sweep is read on a second fresh connection, as by a reader
        // that attaches to a loaded session. Read on the loading
        // connection, the first page waited for a delayed ACK in some runs
        // and not in others, which moved its time by ~20 ms run to run; a
        // connection's first requests are acknowledged at once.
        let Some(reader) = tally.take("session: connect reader", Client::connect(&lb.addr)) else {
            break;
        };
        let delta_p = summary.delta_p;
        let schema = session.schema();
        let (first, s_first) = clock(&mut m.samples.busy_s, || {
            read_page(&reader, &name, schema, delta_p, 0, 1)
        });
        let (rest, s_rest) = clock(&mut m.samples.busy_s, || {
            read_page(&reader, &name, schema, delta_p, 1, 0)
        });
        m.samples.calls += 2;
        let (Some((mut points, _)), Some((more, done))) = (
            tally.take("session: first sweep page", first),
            tally.take("session: rest of the sweep", rest),
        ) else {
            break;
        };
        m.samples.first_s.push(s_first);
        m.samples.spectrum_s.push(s_first + s_rest);
        if m.epochs == 0 {
            points.extend(more);
            tally.check(done, || "session: the sweep did not finish".into());
            check_spectrum(tally, "session", &points, delta_p);
        }

        for (i, op) in inputs.op_texts.iter().enumerate() {
            let (applied, s) = clock(&mut m.samples.busy_s, || session.apply_text(op));
            m.samples.calls += 1;
            if tally.take("session: apply", applied).is_none() {
                break 'epochs;
            }
            m.apply_s.push(s);
            let (repair, s) = clock(&mut m.samples.busy_s, || session.repair_at_relative(TAU_R));
            m.samples.calls += 1;
            let Some(repair) = tally.take("session: repair_at_relative", repair) else {
                break 'epochs;
            };
            m.samples.repair_s.push(s);
            tally.check(same_repair(&repair, &expected[i]), || {
                format!("session: wire repair after op {i} differs from the in-process twin")
            });
        }
        tally.take("session: close", session.close());
        m.epochs += 1;
    }
    tally.take("session: server stop", lb.stop());
    m
}

/// Traced replay of the wire layers on `inputs`: pings, then one session
/// whose request and response payloads are captured and decoded and
/// encoded again from outside, with each mutation also appended to a WAL
/// of the benchmark's own.
pub fn replay_wire(
    tracer: &Tracer,
    layers: &mut Layers,
    inputs: &WireInputs,
    tally: &mut Tally,
    scratch: &Scratch,
) {
    let Some(lb) = tally.take(
        "replay: server start",
        Loopback::start(scratch.path("replay-data")),
    ) else {
        return;
    };
    let mut pings = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let (r, s) = traced(tracer, "rt-client", "ping", 1, || lb.client.ping());
        tally.take("replay: ping", r);
        pings.push(s * 1e3);
    }
    layers.set("net.ping_p50_ms", median(&pings));
    if let Some((_, p90)) = tail(&pings) {
        layers.set("net.ping_p90_ms", p90);
    }

    let name = "replay".to_string();
    let load = Request::LoadCsv {
        session: name.clone(),
        text: inputs.text.clone(),
        tsv: false,
        fds: inputs.fds.clone(),
    }
    .encode();
    layers.add("proto.frame_bytes", load.len() as f64);
    let (decoded, s) = traced(
        tracer,
        "rt-proto",
        "Request::decode",
        load.len() as u64,
        || Request::decode(&load),
    );
    tally.take("replay: decode load_csv", decoded);
    layers.add("proto.load_decode_s", s);

    let session = lb
        .client
        .create_session(&name, inputs.opts)
        .and_then(|mut s| {
            let fds = inputs.fd_refs();
            traced(tracer, "rt-client", "load_csv", 1, || {
                s.load_csv(&inputs.text, false, &fds)
            })
            .0
            .map(|_| s)
        });
    let store = SessionStore::open(scratch.path("replay-wal"), false);
    if let (Some(mut session), Some(store)) = (
        tally.take("replay: create + load_csv", session),
        tally.take("replay: open WAL", store),
    ) {
        for (seq, text) in inputs.op_texts.iter().enumerate() {
            let Some(ops) = tally.take("replay: parse op log", json::parse(text)) else {
                break;
            };
            let frame = Request::Apply {
                session: name.clone(),
                ops: ops.clone(),
            }
            .encode();
            layers.add("proto.frame_bytes", frame.len() as f64);
            let (decoded, s) = traced(
                tracer,
                "rt-proto",
                "Request::decode",
                frame.len() as u64,
                || Request::decode(&frame),
            );
            tally.take("replay: decode apply", decoded);
            layers.sample("proto.request_decode_ms", s * 1e3);

            let (applied, s) = traced(tracer, "rt-client", "apply", 1, || {
                session.apply(ops.clone())
            });
            tally.take("replay: apply", applied);
            layers.sample("wire.apply_ms", s * 1e3);
            let (appended, s) = traced(tracer, "rt-server", "SessionStore::append_wal", 1, || {
                store.append_wal(&name, seq as u64 + 1, &ops)
            });
            tally.take("replay: append_wal", appended.map_err(|e| format!("{e:?}")));
            layers.sample("server.wal_append_ms", s * 1e3);

            let (repair, s) = traced(tracer, "rt-client", "repair_at_relative", 1, || {
                session.repair_at_relative(TAU_R)
            });
            layers.sample("wire.repair_ms", s * 1e3);
            let Some(repair) = tally.take("replay: repair", repair) else {
                break;
            };
            let response = Response::Repaired(Box::new(repair));
            let (payload, s) = traced(tracer, "rt-proto", "Response::encode", 1, || {
                response.encode()
            });
            layers.sample("proto.response_encode_ms", s * 1e3);
            layers.add("proto.frame_bytes", payload.len() as f64);
            let (decoded, s) = traced(
                tracer,
                "rt-proto",
                "Response::decode",
                payload.len() as u64,
                || Response::decode(&payload, Some(&inputs.schema)),
            );
            // `Repair` has no `PartialEq`: a byte-identical re-encode is
            // the round-trip check.
            let again = decoded.map(|r| r.encode());
            tally.check(again.as_deref() == Ok(payload.as_str()), || {
                "replay: a repair response did not survive encode + decode".into()
            });
            layers.sample("proto.response_decode_ms", s * 1e3);
        }
    }
    if let Some(counters) = tally.take("replay: server_stats", lb.client.server_stats()) {
        for (key, metric) in [
            ("requests_served", "server.requests_served"),
            ("frames_decoded", "server.frames_decoded"),
            ("snapshots_written", "server.snapshots_written"),
        ] {
            let v = counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v);
            layers.add(metric, v as f64);
        }
    }
    tally.take("replay: server stop", lb.stop());
}

/// Traced replay of the in-process twin of a session: ingest, build, the
/// op log with a repair after each op, and the problem-level replay.
pub fn replay_twin(tracer: &Tracer, layers: &mut Layers, inputs: &WireInputs, tally: &mut Tally) {
    rt_relation::work::reset();
    let (loaded, s) = traced(tracer, "rt-io", "read_instance", 1, || {
        load_text(&inputs.text, &inputs.fds)
    });
    layers.add("io.ingest_s", s);
    let Some((instance, sigma)) = tally.take("twin: read_instance", loaded) else {
        return;
    };
    layers.add("io.rows", instance.len() as f64);
    let (engine, s) = traced(tracer, "rt-engine", "RepairEngineBuilder::build", 1, || {
        inputs
            .opts
            .configure(RepairEngine::builder(instance, sigma))
            .build()
    });
    layers.add("engine.build_s", s);
    let Some(mut engine) = tally.take("twin: build", engine) else {
        return;
    };
    let delta_p = engine.delta_p_original();
    let points: Result<Vec<_>, _> = traced(tracer, "rt-engine", "sweep", 1, || {
        engine.sweep(0..=delta_p).collect()
    })
    .0;
    let Some(points) = tally.take("twin: sweep", points) else {
        return;
    };
    crate::replay::add_search_stats(layers, &engine.stats());
    let mut replay_work = WorkSnapshot::default();
    let ok = crate::replay::excluding_work(&mut replay_work, || {
        crate::replay::replay_problem(tracer, layers, &engine, &points)
    });
    tally.check(ok, || {
        "twin: a replayed layer call disagreed with the engine".into()
    });
    for text in &inputs.op_texts {
        let Some(ops) = tally.take(
            "twin: parse op log",
            rt_engine::parse_mutation_log(text, &inputs.schema),
        ) else {
            return;
        };
        let batch: MutationBatch = ops.into_iter().collect();
        let (applied, s) = traced(tracer, "rt-engine", "apply", 1, || engine.apply(&batch));
        tally.take("twin: apply", applied);
        layers.sample("engine.apply_ms", s * 1e3);
        let (repair, s) = traced(tracer, "rt-engine", "repair_at_relative", 1, || {
            engine.repair_at_relative(TAU_R)
        });
        tally.take("twin: repair", repair);
        layers.sample("engine.repair_ms", s * 1e3);
    }
    crate::replay::add_mutation_stats(layers, &engine.stats());
    crate::replay::add_work_counters(layers, &replay_work);
}
