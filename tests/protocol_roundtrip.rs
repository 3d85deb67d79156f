//! Wire-protocol round trips: everything a client sees over a socket must
//! be bit-identical to what an in-process engine produces.
//!
//! These tests spin up a real `rt-server` on a loopback TCP port, drive it
//! with `rt-client`, and mirror every workload on a locally built
//! `RepairEngine`:
//!
//! * spectra compare with [`Spectrum::bit_identical`] — raw `f64` bits,
//!   dictionary codes, fresh-variable counters and all;
//! * each session builds its conflict graph exactly once
//!   (`conflict_graph_builds == 1`), mutations included;
//! * a seeded fuzz loop throws malformed, truncated and oversized frames
//!   at the socket and requires a typed error (never a hang, never a
//!   disconnect-without-reason) and a live server afterwards.

use relative_trust::engine::{decode_mutation_log, MutationBatch};
use relative_trust::io as rt_io;
use relative_trust::prelude::*;
use relative_trust::proto::MAX_FRAME_BYTES;
use relative_trust::scenarios::HOSPITAL_CSV;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const HOSPITAL_FDS: [&str; 5] = [
    "zip->city",
    "zip->state",
    "provider_id->hospital_name",
    "provider_id->phone",
    "measure_code->measure_name",
];

/// Binds a server on an ephemeral loopback port, runs it on a worker
/// thread, and hands the caller a connected client plus the join handle.
fn loopback(
    config: ServerConfig,
) -> (
    Client,
    ServerHandle,
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind_tcp_with("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let worker = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr.to_string()).unwrap();
    (client, handle, addr, worker)
}

fn opts() -> EngineOpts {
    let mut o = EngineOpts::new(7);
    o.threads = Parallelism::Serial;
    o
}

/// In-process twin of a wire session: same CSV text, same FDs, same
/// engine options.
fn local_engine(text: &str, fds: &[&str]) -> RepairEngine {
    let report =
        rt_io::read_instance(text.as_bytes(), &CsvOptions::csv().relation("input")).unwrap();
    let schema = report.instance.schema().clone();
    let sigma = FdSet::parse(fds, &schema).unwrap();
    opts()
        .configure(RepairEngine::builder(report.instance, sigma))
        .build()
        .unwrap()
}

/// The first `rows` data rows of the hospital fixture, as CSV text — big
/// enough to exercise dictionary codes, floats and nulls, small enough
/// for debug-build sweeps.
fn hospital_head(rows: usize) -> String {
    let mut lines = HOSPITAL_CSV.lines();
    let mut out = String::new();
    out.push_str(lines.next().unwrap());
    out.push('\n');
    for line in lines.take(rows) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn wire_spectrum_is_bit_identical_to_in_process() {
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());

    let text = "A,B\n1,1\n1,2\n2,5\n2,5\n3,7\n";
    let mut session = client.create_session("twin", opts()).unwrap();
    let summary = session.load_csv(text, false, &["A->B"]).unwrap();
    assert_eq!(summary.rows, 5);
    assert_eq!(summary.attributes, vec!["A".to_string(), "B".to_string()]);

    let engine = local_engine(text, &["A->B"]);
    assert_eq!(summary.delta_p, engine.delta_p_original());

    // The full spectrum, the pointwise repairs, and the stats all agree.
    let wire = session.spectrum().unwrap();
    let local = engine.spectrum().unwrap();
    assert!(wire.bit_identical(&local), "wire spectrum diverged");

    let wire_repair = session.repair_at(1).unwrap();
    let local_repair = engine.repair_at(1).unwrap();
    assert_eq!(wire_repair.tau, local_repair.tau);
    assert_eq!(wire_repair.dist_c.to_bits(), local_repair.dist_c.to_bits());
    assert_eq!(wire_repair.changed_cells, local_repair.changed_cells);
    assert!(
        wire_repair.repaired_instance == local_repair.repaired_instance,
        "repaired instances (incl. var counters) must match"
    );

    let stats = session.stats().unwrap();
    assert_eq!(stats.conflict_graph_builds, 1);
    assert_eq!(
        stats.conflict_graph_builds,
        engine.stats().conflict_graph_builds
    );

    session.close().unwrap();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn hospital_mutation_workload_stays_bit_identical_over_the_wire() {
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());
    let text = hospital_head(30);

    let mut session = client.create_session("hosp", opts()).unwrap();
    session.load_csv(&text, false, &HOSPITAL_FDS).unwrap();
    let mut engine = local_engine(&text, &HOSPITAL_FDS);

    // A mixed batch: corrupt a city (violating zip->city), add rows with a
    // fresh zip, and drop one FD — the same log applied on both sides.
    let ops_text = r#"[
        {"op": "update", "row": 2, "attr": "city", "value": "Mobile"},
        {"op": "insert", "rows": [
            [77001, "Bayou City Medical", "1 Main St", "Houston", "TX", 77001,
             "Harris", 7135550100, "AMI-1", "Aspirin at arrival", "Heart Attack", 88.5, 10],
            [77001, "Bayou City Medical", "1 Main St", "Austin", "TX", 77001,
             "Harris", 7135550100, "AMI-2", "Aspirin at discharge", "Heart Attack", 77.25, 12]
        ]},
        {"op": "remove_fd", "index": 4}
    ]"#;

    let (wire_effect, _) = session.apply_text(ops_text).unwrap();

    let doc = relative_trust::engine::json::parse(ops_text).unwrap();
    let decoded = decode_mutation_log(&doc, engine.problem().instance().schema()).unwrap();
    let local_outcome = engine
        .apply(&decoded.into_iter().collect::<MutationBatch>())
        .unwrap();
    assert_eq!(wire_effect, local_outcome.effect);

    let wire = session.spectrum().unwrap();
    let local = engine.spectrum().unwrap();
    assert!(
        wire.bit_identical(&local),
        "post-mutation wire spectrum diverged"
    );

    // Mutations maintain the graph incrementally on both sides of the wire.
    let stats = session.stats().unwrap();
    assert_eq!(stats.conflict_graph_builds, 1);
    assert_eq!(stats.mutation_batches, 1);
    assert_eq!(engine.stats().conflict_graph_builds, 1);

    session.close().unwrap();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn sweep_pages_reassemble_the_exact_spectrum() {
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());
    let text = hospital_head(24);

    let mut session = client.create_session("paged", opts()).unwrap();
    let summary = session.load_csv(&text, false, &HOSPITAL_FDS).unwrap();
    let engine = local_engine(&text, &HOSPITAL_FDS);

    // Page through the sweep two points at a time and reassemble.
    let hi = summary.delta_p;
    let mut pages = Vec::new();
    let mut offset = 0;
    loop {
        let (points, done) = session.sweep_page(0, hi, offset, 2).unwrap();
        offset += points.len();
        pages.extend(points);
        if done {
            break;
        }
    }
    let local = engine.spectrum().unwrap();
    let paged = Spectrum {
        points: pages,
        search_stats: SearchStats::default(),
    };
    assert!(paged.bit_identical(&local), "paged spectrum diverged");

    // Pagination resumes the server-side sweep instead of restarting it.
    let stats = session.stats().unwrap();
    assert_eq!(stats.conflict_graph_builds, 1);
    assert_eq!(stats.sweeps_started, 1);

    session.close().unwrap();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn closing_twice_is_a_typed_error_not_a_hang() {
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());
    let session = client.create_session("once", opts()).unwrap();
    let name = session.name().to_string();
    session.close().unwrap();

    let err = client
        .request(&Request::Close { session: name }, None)
        .unwrap_err();
    match err {
        ClientError::Protocol { code, .. } => assert_eq!(code, "unknown_session"),
        other => panic!("expected a protocol error, got {other}"),
    }

    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn small_round_trips_do_not_stall_on_delayed_acks() {
    // Each frame leaves in one write on a NODELAY socket, so a ping costs
    // microseconds on loopback. A frame whose newline is sent in a second
    // write waits out the peer's delayed ACK (~40 ms each way, ~88 ms per
    // ping), and 200 pings would take ~17 s.
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());
    let start = std::time::Instant::now();
    for _ in 0..200 {
        client.ping().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "200 loopback pings took {elapsed:?}"
    );
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

/// Tiny deterministic generator for the fuzz loop (xorshift64*); the
/// protocol tests must not depend on ambient randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    let (client, _handle, addr, worker) = loopback(ServerConfig::default());

    // A valid request to mutate: every case starts from this and breaks it.
    let valid = Request::Stats {
        session: "nope".to_string(),
    }
    .encode();

    let mut rng = Rng(0x5EED_CA5E);
    let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
    for case in 0..48 {
        let mut payload = match case % 4 {
            // Random garbage that is not JSON.
            0 => {
                let mut s = String::new();
                for _ in 0..(1 + rng.below(40)) {
                    // Printable non-brace ASCII, so it can never parse.
                    s.push((b'a' + rng.below(26) as u8) as char);
                }
                s
            }
            // Structurally valid JSON, wrong shape.
            1 => format!("{{\"type\": \"frob_{}\"}}", rng.below(1000)),
            // A valid frame with a chunk deleted.
            2 => {
                let cut = 1 + rng.below(valid.len() - 2);
                let mut s = valid.clone();
                s.replace_range(cut..valid.len().min(cut + 1 + rng.below(8)), "");
                s
            }
            // A valid frame with garbage injected mid-stream.
            _ => {
                let at = 1 + rng.below(valid.len() - 1);
                let mut s = valid.clone();
                s.insert_str(at, "\u{1}\u{2}garbage");
                s
            }
        };
        payload.retain(|c| c != '\n');

        stream.get_mut().write_all(payload.as_bytes()).unwrap();
        stream.get_mut().write_all(b"\n").unwrap();
        let mut line = String::new();
        stream.read_line(&mut line).unwrap();
        let response = Response::decode(line.trim_end(), None).unwrap();
        match response {
            Response::Error(frame) => assert!(
                frame.code == "malformed" || frame.code == "unknown_session",
                "case {case}: unexpected error code {} for payload {payload:?}",
                frame.code
            ),
            other => {
                // A mutated frame may still parse as a valid request; the
                // only valid non-error answer to a `stats` probe is stats.
                assert!(
                    matches!(other, Response::Stats(_)),
                    "case {case}: expected an error or stats, got {}",
                    other.kind()
                );
            }
        }
    }

    // One oversized frame: rejected with a typed error, connection intact.
    let huge = "x".repeat(MAX_FRAME_BYTES + 1);
    stream.get_mut().write_all(huge.as_bytes()).unwrap();
    stream.get_mut().write_all(b"\n").unwrap();
    let mut line = String::new();
    stream.read_line(&mut line).unwrap();
    match Response::decode(line.trim_end(), None).unwrap() {
        Response::Error(frame) => assert_eq!(frame.code, "oversized"),
        other => panic!("expected an oversized error, got {}", other.kind()),
    }

    // After all that abuse the same connection still answers correctly...
    stream
        .get_mut()
        .write_all((Request::Ping.encode() + "\n").as_bytes())
        .unwrap();
    line.clear();
    stream.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim_end(), None).unwrap(),
        Response::Pong
    ));

    // ...and so does a fresh client-side session.
    let mut session = client.create_session("alive", opts()).unwrap();
    session
        .load_csv("A,B\n1,1\n1,2\n", false, &["A->B"])
        .unwrap();
    assert!(!session.spectrum().unwrap().is_empty());
    session.close().unwrap();

    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}
