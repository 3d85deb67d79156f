//! `rtclean` — command-line front end for relative-trust repair.
//!
//! Reads a CSV/TSV file (typed ingestion: column types are inferred and
//! the data is parsed directly into dictionary codes) and a set of
//! functional dependencies, and either
//!
//! * produces one repair for a chosen trust level (`--tau` / `--tau-r`), or
//! * enumerates the whole spectrum of non-dominated repairs (`--spectrum`),
//!   or
//! * replays a JSON mutation log against a live engine (`apply`), keeping
//!   the prepared state maintained incrementally — the conflict graph is
//!   never rebuilt, or
//! * builds and repairs a named workload from the scenario catalog
//!   (`scenario`), or
//! * writes the prepared engine to a snapshot file (`snapshot`) and
//!   answers repair queries from one (`restore`), or
//! * hosts repair sessions as a service (`serve`) / drives one
//!   interactively (`connect`).
//!
//! Examples:
//!
//! ```text
//! rtclean employees.csv --fd "Surname,GivenName->Income" --spectrum
//! rtclean employees.csv --fd "Surname,GivenName->Income" --tau-r 0.5 \
//!         --output repaired.csv
//! rtclean apply employees.csv --fd "Surname,GivenName->Income" \
//!         --log mutations.json --verify
//! rtclean scenario list
//! rtclean scenario hospital --seed 3
//! rtclean serve --listen 127.0.0.1:7171
//! rtclean connect 127.0.0.1:7171
//! ```
//!
//! Every subcommand shares the `rt-proto` option surface: the engine flags
//! (`--weight`, `--seed`, `--max-expansions`, `--threads`, `--shard-rows`)
//! parse through
//! [`EngineOpts::consume_flag`] whether they come from the command line,
//! the `connect` REPL, or a `create_session` wire request.

use relative_trust::prelude::*;
use std::process::ExitCode;

/// Reads the value following `args[*i]`, advancing `i` past it.
fn take_value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = args[*i].clone();
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after `{flag}`"))
}

/// [`take_value`], parsed as a number.
fn take_number<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = args[*i].clone();
    let v = take_value(args, i)?;
    v.parse().map_err(|_| format!("invalid {flag} value `{v}`"))
}

/// Tries to consume `args[*i]` as one of the repair-selection options
/// (`--tau`, `--tau-r`, `--spectrum`, `--output`), shared by the command
/// line and the `connect` REPL.
fn consume_mode_option(
    args: &[String],
    i: &mut usize,
    mode: &mut Mode,
    output: &mut Option<String>,
) -> Result<bool, String> {
    match args[*i].as_str() {
        "--tau" => *mode = Mode::Repair(TauSpec::Absolute(take_number(args, i)?)),
        "--tau-r" => {
            let f = take_number(args, i)?;
            *mode = Mode::Repair(TauSpec::relative(f).map_err(|e| format!("--tau-r: {e}"))?);
        }
        "--spectrum" => *mode = Mode::Spectrum,
        "--output" => *output = Some(take_value(args, i)?),
        _ => return Ok(false),
    }
    Ok(true)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Single repair at a budget — the wire's [`TauSpec`], so the CLI and
    /// the protocol validate trust levels through the same code.
    Repair(TauSpec),
    /// Enumerate the full spectrum of repairs.
    Spectrum,
}

/// The subcommand a command line names; the main form is [`Command::Run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Apply,
    Scenario,
    Snapshot,
    Restore,
    Serve,
    Connect,
}

impl Command {
    /// Splits the subcommand word off the front of the command line.
    fn split(argv: &[String]) -> (Command, &[String]) {
        let command = match argv.first().map(String::as_str) {
            Some("apply") => Command::Apply,
            Some("scenario") => Command::Scenario,
            Some("snapshot") => Command::Snapshot,
            Some("restore") => Command::Restore,
            Some("serve") => Command::Serve,
            Some("connect") => Command::Connect,
            _ => return (Command::Run, argv),
        };
        (command, &argv[1..])
    }

    /// Whether this subcommand takes `flag`. Every other flag is an
    /// unknown option, rejected before any value is parsed.
    fn accepts(self, flag: &str) -> bool {
        const ENGINE: &str = "--weight --seed --max-expansions --threads --shard-rows";
        const MODE: &str = "--tau --tau-r --spectrum --output";
        const LOAD: &str = "--fd --tsv";
        let groups: &[&str] = match self {
            Command::Run => &[ENGINE, MODE, LOAD],
            Command::Apply => &[ENGINE, LOAD, "--log --per-op --batch --verify"],
            Command::Scenario => &[ENGINE, MODE, "--rows"],
            Command::Snapshot => &[ENGINE, LOAD, "--output"],
            Command::Restore => &[MODE],
            Command::Serve => &["--listen --unix --max-sessions --max-cells --idle-ops \
                                 --max-connections --data-dir --wal-sync"],
            Command::Connect => &[],
        };
        groups
            .iter()
            .any(|group| group.split_whitespace().any(|f| f == flag))
    }

    /// The usage error for an argument this subcommand does not take.
    fn reject(self, arg: &str, positional: bool) -> Usage {
        Usage::Error(match self {
            Command::Serve => format!("unknown serve option `{arg}`"),
            Command::Connect => "usage: rtclean connect [<host:port> | unix:<path>]".to_string(),
            _ if positional => format!("unexpected positional argument `{arg}`"),
            _ => format!("unknown option `{arg}`"),
        })
    }
}

/// A command line that is not run.
#[derive(Debug, PartialEq)]
enum Usage {
    /// `--help`: the usage text on stdout, exit 0.
    Help,
    /// A bad command line: the message on stderr, exit 1.
    Error(String),
}

impl From<String> for Usage {
    fn from(message: String) -> Usage {
        Usage::Error(message)
    }
}

/// The parsed command line of every subcommand.
#[derive(Debug, PartialEq)]
struct Args {
    command: Command,
    /// The positional argument: input file, scenario name, snapshot file
    /// or `connect` target.
    input: String,
    fd_specs: Vec<String>,
    mode: Mode,
    /// Repaired CSV (single-repair modes) or snapshot file (`snapshot`).
    output: Option<String>,
    tsv: bool,
    /// Scenario size override.
    rows: Option<usize>,
    /// `apply`: the JSON mutation log to replay.
    log: Option<String>,
    /// `apply`: one engine batch per log entry (streaming replay) vs one
    /// atomic batch for the whole log.
    per_op: bool,
    /// `apply`: compare against a freshly built engine afterwards.
    verify: bool,
    /// Engine options. The seed doubles as the scenario seed (generation
    /// + injection), so one `--seed` controls a whole scenario run.
    engine: EngineOpts,
    listen: String,
    unix: Option<String>,
    server: ServerConfig,
}

/// The one parser of every subcommand's command line.
fn parse(argv: &[String]) -> Result<Args, Usage> {
    let (command, argv) = Command::split(argv);
    let mut a = Args {
        command,
        input: String::new(),
        fd_specs: Vec::new(),
        mode: Mode::Spectrum,
        output: None,
        tsv: false,
        rows: None,
        log: None,
        per_op: true,
        verify: false,
        engine: EngineOpts::new(if command == Command::Scenario { 17 } else { 0 }),
        listen: "127.0.0.1:7171".to_string(),
        unix: None,
        server: ServerConfig::default(),
    };
    let mut input = None;
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        if arg == "--help" || arg == "-h" {
            return Err(Usage::Help);
        }
        if !arg.starts_with("--") {
            if input.is_some() || command == Command::Serve {
                return Err(command.reject(arg, true));
            }
            input = Some(arg.to_string());
        } else if !command.accepts(arg) {
            return Err(command.reject(arg, false));
        } else if !(a.engine.consume_flag(argv, &mut i)?
            || consume_mode_option(argv, &mut i, &mut a.mode, &mut a.output)?)
        {
            match arg {
                "--fd" => a.fd_specs.push(take_value(argv, &mut i)?),
                "--tsv" => a.tsv = true,
                "--rows" => a.rows = Some(take_number(argv, &mut i)?),
                "--log" => a.log = Some(take_value(argv, &mut i)?),
                "--per-op" => a.per_op = true,
                "--batch" => a.per_op = false,
                "--verify" => a.verify = true,
                "--listen" => a.listen = take_value(argv, &mut i)?,
                "--unix" => a.unix = Some(take_value(argv, &mut i)?),
                "--max-sessions" => a.server.max_sessions = take_number(argv, &mut i)?,
                "--max-cells" => a.server.max_session_cells = take_number(argv, &mut i)?,
                "--idle-ops" => a.server.idle_ops = take_number(argv, &mut i)?,
                "--max-connections" => a.server.max_connections = take_number(argv, &mut i)?,
                "--data-dir" => a.server.data_dir = Some(take_value(argv, &mut i)?.into()),
                "--wal-sync" => a.server.wal_sync = true,
                other => unreachable!("`{other}` is accepted but not parsed"),
            }
        }
        i += 1;
    }

    a.input = match (input, command) {
        (Some(input), _) => input,
        (None, Command::Connect) => "127.0.0.1:7171".to_string(),
        (None, Command::Serve) => String::new(),
        (None, _) => return Err(Usage::Error(USAGE.to_string())),
    };
    let loads_csv = matches!(command, Command::Run | Command::Apply | Command::Snapshot);
    let problem = match command {
        _ if loads_csv && a.fd_specs.is_empty() => "at least one --fd is required",
        Command::Apply if a.log.is_none() => "apply requires --log <mutations.json>",
        Command::Snapshot if a.output.is_none() => "snapshot requires --output <file.snap>",
        Command::Run | Command::Scenario | Command::Restore
            if a.mode == Mode::Spectrum && a.output.is_some() =>
        {
            "--output writes one repair: choose it with --tau <N> or --tau-r <F> \
             (the spectrum is only printed)"
        }
        _ => return Ok(a),
    };
    Err(Usage::Error(problem.to_string()))
}

const USAGE: &str = "\
usage: rtclean <input.csv> --fd \"X1,X2->A\" [--fd ...] [options]
       rtclean apply <input.csv> --fd \"X1,X2->A\" [--fd ...] --log <mutations.json> [options]
       rtclean scenario list
       rtclean scenario <name> [--seed N] [--rows N] [options]
       rtclean snapshot <input.csv> --fd <spec> [--fd ...] --output <file.snap> [options]
       rtclean restore <file.snap> [--tau N | --tau-r F | --spectrum] [--output <file.csv>]
       rtclean serve [--listen <host:port>] [--unix <path>] [serve options]
       rtclean connect [<host:port> | unix:<path>]

Input files load through the typed ingestion layer: column types
(int/float/str) are inferred, a configurable null policy applies per cell,
and the data is parsed directly into dictionary codes. Use --tsv for
tab-separated input.

`rtclean apply` replays a JSON mutation log (inserts / deletes / cell
updates / FD edits) against a live engine session, maintaining the prepared
state incrementally, then reports the session and prints the post-mutation
spectrum. With --verify it additionally rebuilds an engine from scratch on
the mutated inputs and checks the outputs are bit-identical.

`rtclean scenario <name>` builds a named workload from the scenario
catalog (seeded generation or a bundled fixture + seeded error injection)
and repairs it; `rtclean scenario list` prints the catalog.

`rtclean snapshot` builds an engine and writes its full prepared state
(dictionaries, code columns, conflict graph, heuristic warm-start) to a
versioned, checksummed binary snapshot; `rtclean restore` rebuilds the
engine from such a file — without ever rebuilding the conflict graph —
and answers repair queries from it.

`rtclean serve` hosts named repair sessions over TCP (and optionally a
Unix socket) speaking the line-delimited JSON protocol of rt-proto;
`rtclean connect` opens an interactive REPL against a running server
(type `help` at the prompt). Results over the wire are bit-identical to
in-process runs. With --data-dir, sessions are durable: every mutation is
journaled to a per-session WAL, snapshots rotate atomically, and a
restarted server recovers every session by restore + replay.

serve options:
  --listen <host:port> TCP listen address (default: 127.0.0.1:7171)
  --unix <path>        listen on a Unix socket instead of TCP
  --max-sessions <N>   resident session cap; LRU-evicts beyond it (default: 16)
  --max-cells <N>      per-session instance cell cap (default: 4000000)
  --idle-ops <N>       evict sessions idle for N logical ops; 0 = never
  --max-connections <N> concurrently served connections (default: 8)
  --data-dir <dir>     durable session store: snapshot + WAL per session,
                       recovered on restart (default: in-memory only)
  --wal-sync           fsync the WAL on every mutation (stronger durability,
                       slower acks)

scenario options:
  --seed <N>           scenario seed (generation + injection; default: 17)
  --rows <N>           override the scenario's default size

apply options:
  --log <file>         JSON mutation log to replay (required)
  --per-op | --batch   replay one engine batch per log entry (default) or
                       apply the whole log as a single atomic batch
  --verify             compare against a freshly built engine afterwards

options:
  --fd <spec>          functional dependency, e.g. \"Surname,GivenName->Income\"
                       (repeat the flag for several FDs; at least one required)
  --tsv                treat the input as tab-separated
  --tau <N>            allow at most N cell changes (single repair)
  --tau-r <F>          relative trust in [0,1]; 0 = trust the data (default: --spectrum)
  --spectrum           enumerate all non-dominated repairs
  --weight <kind>      distinct | count | entropy   (default: distinct)
  --output <file>      write the repaired instance as CSV (single-repair modes)
  --seed <N>           seed for the data-repair step (default: 0)
  --max-expansions <N> search budget (default: 500000)
  --threads <T>        worker threads: auto | serial | <count>  (default: auto)
                       results are identical for every setting; more threads
                       only make the repair faster
  --shard-rows <S>     shard the conflict-graph build: auto | off | <row
                       threshold> (default: auto = shard at 100000 rows).
                       Shards are blocking-closed row groups built
                       independently and merged; results are bit-identical
                       to the monolithic build at every setting
  --help               print this help
";

/// Maps a CSV read or write failure onto the engine boundary: access
/// problems become `Io`, syntax/typing problems become `Parse` (with the
/// line number), substrate problems stay `Relation`.
fn csv_error(path: &str, e: IoError) -> EngineError {
    match e {
        IoError::Io(message) => EngineError::Io {
            path: path.to_string(),
            message,
        },
        IoError::Parse { line, message } => EngineError::Parse {
            path: path.to_string(),
            line,
            message,
        },
        IoError::Relation(e) => EngineError::Relation(e),
    }
}

/// Loads the input through the typed ingestion layer (inferred column
/// types, dictionary-direct encoding) and reports what was inferred.
fn load_input(path: &str, tsv: bool) -> Result<Instance, EngineError> {
    let base = if tsv {
        CsvOptions::tsv()
    } else {
        CsvOptions::csv()
    };
    let report = relative_trust::io::load_path(path, &base.relation("input"))
        .map_err(|e| csv_error(path, e))?;
    let types: Vec<String> = report
        .instance
        .schema()
        .attributes()
        .zip(report.columns.iter())
        .map(|((_, name), ty)| format!("{name}:{ty}"))
        .collect();
    println!(
        "loaded {} tuples × {} attributes from {path} ({} null cells)",
        report.instance.len(),
        report.instance.schema().arity(),
        report.null_cells,
    );
    println!("inferred column types: {}", types.join(", "));
    Ok(report.instance)
}

/// The one load step of every offline subcommand: CSV + `--fd` specs, a
/// catalog scenario, or a snapshot file, built into an engine. There is
/// no pre-check that the FDs already hold: a clean input simply yields
/// the one zero-change repair.
fn open(args: &Args) -> Result<RepairEngine, EngineError> {
    let (instance, fds) = match args.command {
        Command::Restore => {
            let bytes = std::fs::read(&args.input).map_err(|e| EngineError::io(&args.input, e))?;
            return RepairEngine::restore(&bytes);
        }
        Command::Scenario => {
            let config = ScenarioConfig {
                seed: args.engine.seed,
                rows: args.rows,
            };
            let scenario = relative_trust::scenarios::build(&args.input, &config)
                .map_err(EngineError::InvalidConfig)?;
            let schema = scenario.dirty.schema();
            println!("scenario `{}`: {}", scenario.name, scenario.description);
            println!(
                "  {} tuples × {} attributes (seed {})",
                scenario.dirty.len(),
                schema.arity(),
                config.seed
            );
            println!("  FDs: {}", scenario.dirty_fds.display_with(schema));
            let r = &scenario.report;
            println!(
                "  injected errors: {} typos, {} swaps, {} corruptions, {} FD attrs dropped",
                r.typos, r.swaps, r.corruptions, r.fd_attrs_dropped
            );
            (scenario.dirty, scenario.dirty_fds)
        }
        _ => {
            let instance = load_input(&args.input, args.tsv)?;
            let specs: Vec<&str> = args.fd_specs.iter().map(String::as_str).collect();
            let fds = FdSet::parse(&specs, instance.schema()).map_err(EngineError::Fd)?;
            (instance, fds)
        }
    };
    args.engine
        .configure(RepairEngine::builder(instance, fds))
        .build()
}

/// Runs an offline subcommand: everything but `serve` and `connect`.
fn run(args: &Args) -> Result<(), EngineError> {
    if args.command == Command::Scenario && args.input == "list" {
        println!("available scenarios:");
        for info in relative_trust::scenarios::catalog() {
            println!("  {:<10} {}", info.name, info.description);
        }
        println!("\nrun one with: rtclean scenario <name> [--seed N] [--rows N]");
        return Ok(());
    }
    let engine = open(args)?;
    let problem = engine.problem();
    let schema = problem.instance().schema();
    let edges = problem.conflict_graph().edge_count();
    match args.command {
        Command::Apply => return replay(args, engine),
        Command::Snapshot => {
            let blob = engine.snapshot()?;
            let path = args.output.as_deref().expect("parse requires --output");
            std::fs::write(path, &blob).map_err(|e| EngineError::io(path, e))?;
            println!(
                "snapshot: {} bytes ({} tuples, {} FDs, {edges} conflict edges) written to {path}",
                blob.len(),
                problem.instance().len(),
                problem.fd_count(),
            );
            println!("restore it with: rtclean restore {path}");
            return Ok(());
        }
        Command::Scenario => println!(
            "  {edges} conflicting tuple pairs; δP reference {}\n",
            engine.delta_p_original()
        ),
        Command::Restore => {
            println!(
                "restored {} tuples × {} attributes, {} FDs, {edges} conflict edges from {}",
                problem.instance().len(),
                schema.arity(),
                problem.fd_count(),
                args.input,
            );
            println!(
                "prepared state came back warm: conflict graph builds since restore = {}\n",
                engine.stats().conflict_graph_builds
            );
        }
        _ => {
            println!("FDs: {}", problem.sigma().display_with(schema));
            println!(
                "{edges} conflicting tuple pairs; repairing everything by cell changes would \
                 touch at most {} cells\n",
                engine.delta_p_original()
            );
        }
    }

    let budget = engine.delta_p_original();
    match args.mode {
        Mode::Spectrum => {
            // The sweep is lazy: each repair is materialized as it is
            // printed, off one shared Range-Repair traversal.
            let mut count = 0usize;
            for point in engine.sweep(0..=budget) {
                count += 1;
                println!("{}", point_line(&point?, Some(schema)));
            }
            println!("{count} non-dominated repairs.");
            println!(
                "\nre-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one."
            );
        }
        Mode::Repair(spec) => {
            let tau = match spec {
                TauSpec::Absolute(t) => t.min(budget),
                TauSpec::Relative(f) => engine.absolute_tau(f),
            };
            let repair = engine.repair_at(tau)?;
            println!(
                "{}",
                repair_text(&repair, Some(schema), Some(problem.instance()))
            );
            if let Some(path) = &args.output {
                relative_trust::io::write_instance_to_path(
                    &repair.repaired_instance,
                    path,
                    &CsvOptions::csv(),
                )
                .map_err(|e| csv_error(path, e))?;
                println!("repaired instance written to {path}");
            }
        }
    }
    Ok(())
}

/// `apply`: replays the JSON mutation log against the live engine, then
/// reports the session and its post-mutation spectrum.
fn replay(args: &Args, mut engine: RepairEngine) -> Result<(), EngineError> {
    let log = args.log.as_deref().expect("parse requires --log");
    let text = std::fs::read_to_string(log).map_err(|e| EngineError::io(log, e))?;
    let schema = engine.problem().instance().schema().clone();
    let ops = relative_trust::engine::parse_mutation_log(&text, &schema)
        .map_err(EngineError::Mutation)?;
    println!("{} log entries from {log}", ops.len());

    if args.per_op {
        for (i, op) in ops.iter().enumerate() {
            let outcome = engine.apply(&MutationBatch::new().push(op.clone()))?;
            println!(
                "  op #{i:<3} {}  components {}  sweep cache {}",
                effect_line(&outcome.effect),
                outcome.effect.components_dirtied,
                cache_text(outcome.sweep_cache_retained)
            );
        }
    } else {
        let batch: MutationBatch = ops.into_iter().collect();
        let effect = engine.apply(&batch)?.effect;
        println!(
            "  batch of {}: {}  components {}",
            batch.len(),
            effect_line(&effect),
            effect.components_dirtied
        );
    }

    let problem = engine.problem();
    let stats = engine.stats();
    println!(
        "\nlive session after replay: {} tuples, {} FDs, {} conflict edges",
        problem.instance().len(),
        problem.fd_count(),
        problem.conflict_graph().edge_count()
    );
    println!(
        "  conflict graph builds : {} (rebuilds avoided: {})",
        stats.conflict_graph_builds, stats.graph_rebuild_avoided
    );
    println!(
        "  incremental edge delta: +{} / -{}  ({} components dirtied)",
        stats.edges_added, stats.edges_removed, stats.components_dirtied
    );

    println!(
        "\npost-mutation spectrum (δP reference {}):",
        engine.delta_p_original()
    );
    let spectrum = engine.spectrum()?;
    for point in &spectrum.points {
        println!("{}", point_line(point, Some(&schema)));
    }

    if args.verify {
        let fresh = args
            .engine
            .configure(RepairEngine::builder(
                problem.instance().clone(),
                problem.sigma().clone(),
            ))
            .build()?;
        if !spectrum.bit_identical(&fresh.spectrum()?) {
            return Err(EngineError::Mutation(
                "verification failed: incremental session diverged from a fresh rebuild".into(),
            ));
        }
        println!(
            "\nverify: OK — incremental session is bit-identical to a fresh rebuild \
             ({} spectrum points)",
            spectrum.len()
        );
    }
    Ok(())
}

// Rendering: the command line and the REPL print results only through
// these functions. The REPL knows the schema only once a session has
// loaded data, so it is optional.

/// `Σ'` with attribute names, or just its size without a schema.
fn fds_text(fds: &FdSet, schema: Option<&Schema>) -> String {
    match schema {
        Some(schema) => fds.display_with(schema),
        None => format!("{} FDs", fds.len()),
    }
}

/// One point of a spectrum.
fn point_line(point: &RepairPoint, schema: Option<&Schema>) -> String {
    format!(
        "  τ ∈ [{:>4}, {:>4}]  FD cost {:>10.1}  cell changes {:>5}   {}",
        point.tau_range.0,
        point.tau_range.1,
        point.repair.dist_c,
        point.repair.data_changes(),
        fds_text(&point.repair.modified_fds, schema)
    )
}

/// One materialized repair. Given the instance it repaired, the first 25
/// changed cells are listed with their old and new values.
fn repair_text(repair: &Repair, schema: Option<&Schema>, original: Option<&Instance>) -> String {
    let mut out = format!(
        "repair for τ = {}:\n  modified FDs : {}\n  FD distance  : {:.1}\n  cell changes : {}",
        repair.tau,
        fds_text(&repair.modified_fds, schema),
        repair.dist_c,
        repair.data_changes()
    );
    let Some(original) = original else {
        return out;
    };
    let value = |instance: &Instance, cell| {
        instance
            .cell(cell)
            .map(|v| v.to_string())
            .unwrap_or_default()
    };
    for &cell in repair.changed_cells.iter().take(25) {
        out.push_str(&format!(
            "\n    row {} [{}]: {} -> {}",
            cell.row,
            original.schema().attr_name(cell.attr).unwrap_or("?"),
            value(original, cell),
            value(&repair.repaired_instance, cell)
        ));
    }
    if repair.changed_cells.len() > 25 {
        out.push_str(&format!(
            "\n    ... and {} more",
            repair.changed_cells.len() - 25
        ));
    }
    out
}

/// What one applied mutation batch changed.
fn effect_line(e: &MutationEffect) -> String {
    format!(
        "rows +{}/-{}  cells ~{}  fds +{}/-{}  edges +{}/-{}",
        e.rows_inserted,
        e.rows_deleted,
        e.cells_updated,
        e.fds_added,
        e.fds_removed,
        e.edges_added,
        e.edges_removed
    )
}

fn cache_text(retained: bool) -> &'static str {
    if retained {
        "kept"
    } else {
        "reset"
    }
}

/// A session's engine statistics.
fn stats_block(stats: &EngineStats) -> String {
    format!(
        "conflict graph builds {} (rebuilds avoided {})\n\
         repair queries {}  sweeps {}  points {}\n\
         states expanded {}  generated {}  truncated {}",
        stats.conflict_graph_builds,
        stats.graph_rebuild_avoided,
        stats.repair_queries,
        stats.sweeps_started,
        stats.points_materialized,
        stats.states_expanded,
        stats.states_generated,
        stats.truncated,
    )
}

fn serve(args: &Args) -> Result<(), String> {
    let config = args.server.clone();
    let server = match &args.unix {
        Some(path) => {
            #[cfg(unix)]
            {
                Server::bind_unix_with(path, config)
                    .map_err(|e| format!("cannot bind unix socket {path}: {e}"))?
            }
            #[cfg(not(unix))]
            {
                return Err("unix sockets are not available on this platform".to_string());
            }
        }
        None => Server::bind_tcp_with(&args.listen, config)
            .map_err(|e| format!("cannot bind {}: {e}", args.listen))?,
    };
    match server.local_addr() {
        Some(addr) => println!("rtclean serve: listening on {addr}"),
        None => println!(
            "rtclean serve: listening on unix socket {}",
            args.unix.as_deref().unwrap_or("?")
        ),
    }
    if let Some(dir) = &args.server.data_dir {
        println!(
            "durable sessions in {} ({}); restarts recover them by restore + WAL replay",
            dir.display(),
            if args.server.wal_sync {
                "WAL fsynced per mutation"
            } else {
                "WAL buffered"
            }
        );
    }
    println!("send a `shutdown` request (or `shutdown` in the REPL) to stop");
    server.run().map_err(|e| format!("server failed: {e}"))
}

const REPL_HELP: &str = "\
commands:
  open <name> [--weight K] [--seed N] [--max-expansions N] [--threads T]
              [--shard-rows S]
                         create a session and make it current
  load <file.csv> --fd <spec> [--fd ...] [--tsv]
                         load CSV/TSV + FDs, building the session's engine
  apply <log.json>       replay a JSON mutation log as one atomic batch
  repair --tau <N> | --tau-r <F>
                         one repair at an absolute / relative budget
  sweep <lo> <hi> [<offset> [<limit>]]
                         one page of the spectrum sweep
  spectrum               the full spectrum
  stats                  the session's engine statistics
  server-stats           server-wide counters
  snapshot               rotate the session's durable snapshot now
                         (server must run with --data-dir)
  restore <name>         reattach to a session from the server's durable
                         store (after a restart or eviction)
  close                  close the current session
  ping                   liveness probe
  shutdown               stop the server
  quit | exit            leave the REPL (the session stays resident)";

/// Evaluates one REPL line against the server; returns the text to print.
/// Every engine/protocol failure comes back as `Err` with the server's
/// typed message — the REPL never panics on bad input.
fn repl_eval(client: &Client, session: &mut Option<Session>, line: &str) -> Result<String, String> {
    let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let command = tokens.first().map(String::as_str).unwrap_or("");
    let need_session = |session: &mut Option<Session>| -> Result<(), String> {
        if session.is_none() {
            return Err("no open session — use `open <name>` first".to_string());
        }
        Ok(())
    };
    match command {
        "help" => Ok(REPL_HELP.to_string()),
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            Ok("pong".to_string())
        }
        "open" => {
            let name = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: open <name> [engine flags]")?
                .clone();
            // The REPL parses engine flags through the same EngineOpts
            // path as the command line and the wire.
            let mut opts = EngineOpts::new(0);
            let mut i = 2;
            while i < tokens.len() {
                if !opts.consume_flag(&tokens, &mut i)? {
                    return Err(format!("unknown open option `{}`", tokens[i]));
                }
                i += 1;
            }
            let created = client
                .create_session(&name, opts)
                .map_err(|e| e.to_string())?;
            *session = Some(created);
            Ok(format!("session `{name}` opened"))
        }
        "load" => {
            need_session(session)?;
            let path = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: load <file.csv> --fd <spec> [--fd ...] [--tsv]")?;
            let mut fds = Vec::new();
            let mut tsv = false;
            let mut i = 2;
            while i < tokens.len() {
                match tokens[i].as_str() {
                    "--fd" => fds.push(take_value(&tokens, &mut i)?),
                    "--tsv" => tsv = true,
                    other => return Err(format!("unknown load option `{other}`")),
                }
                i += 1;
            }
            if fds.is_empty() {
                return Err("at least one --fd is required".to_string());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let specs: Vec<&str> = fds.iter().map(String::as_str).collect();
            let active = session.as_mut().expect("checked above");
            let summary = active
                .load_csv(&text, tsv, &specs)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "loaded {} rows × {} attributes ({}; {} null cells)\n\
                 {} conflict edges; δP reference {}",
                summary.rows,
                summary.attributes.len(),
                summary
                    .attributes
                    .iter()
                    .zip(summary.types.iter())
                    .map(|(a, t)| format!("{a}:{t}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                summary.null_cells,
                summary.conflict_edges,
                summary.delta_p,
            ))
        }
        "apply" => {
            need_session(session)?;
            let path = tokens.get(1).ok_or("usage: apply <log.json>")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let active = session.as_mut().expect("checked above");
            let (effect, retained) = active.apply_text(&text).map_err(|e| e.to_string())?;
            Ok(format!(
                "applied: {}  sweep cache {}",
                effect_line(&effect),
                cache_text(retained)
            ))
        }
        "repair" => {
            need_session(session)?;
            let mut mode = Mode::Spectrum;
            let mut output = None;
            let mut i = 1;
            while i < tokens.len() {
                if !consume_mode_option(&tokens, &mut i, &mut mode, &mut output)? {
                    return Err(format!("unknown repair option `{}`", tokens[i]));
                }
                i += 1;
            }
            let (Mode::Repair(spec), None) = (mode, output) else {
                return Err("usage: repair --tau <N> | --tau-r <F>".to_string());
            };
            let active = session.as_mut().expect("checked above");
            let repair = match spec {
                TauSpec::Absolute(t) => active.repair_at(t),
                TauSpec::Relative(f) => active.repair_at_relative(f),
            }
            .map_err(|e| e.to_string())?;
            // The session holds no copy of the data, so no cell listing.
            Ok(repair_text(&repair, active.schema(), None))
        }
        "sweep" | "spectrum" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let (points, trailer) = if command == "spectrum" {
                let spectrum = active.spectrum().map_err(|e| e.to_string())?;
                let n = spectrum.len();
                (spectrum.points, format!("{n} non-dominated repairs."))
            } else {
                let parse_at = |idx: usize, what: &str, default: usize| -> Result<usize, String> {
                    match tokens.get(idx) {
                        None => Ok(default),
                        Some(v) => v.parse().map_err(|_| format!("invalid {what} `{v}`")),
                    }
                };
                let lo = parse_at(1, "lo", 0)?;
                let hi = match tokens.get(2) {
                    Some(v) => v.parse().map_err(|_| format!("invalid hi `{v}`"))?,
                    None => return Err("usage: sweep <lo> <hi> [<offset> [<limit>]]".to_string()),
                };
                let offset = parse_at(3, "offset", 0)?;
                let limit = parse_at(4, "limit", 0)?;
                let (points, done) = active
                    .sweep_page(lo, hi, offset, limit)
                    .map_err(|e| e.to_string())?;
                let n = points.len();
                (
                    points,
                    format!("{n} points{}", if done { " (range exhausted)" } else { "" }),
                )
            };
            let mut out = String::new();
            for point in &points {
                out.push_str(&point_line(point, active.schema()));
                out.push('\n');
            }
            out.push_str(&trailer);
            Ok(out)
        }
        "stats" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            Ok(stats_block(&active.stats().map_err(|e| e.to_string())?))
        }
        "server-stats" => {
            let counters = client.server_stats().map_err(|e| e.to_string())?;
            Ok(counters
                .iter()
                .map(|(name, value)| format!("  {name:<20} {value}"))
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "snapshot" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let bytes = active.snapshot().map_err(|e| e.to_string())?;
            Ok(format!("snapshot rotated ({bytes} bytes)"))
        }
        "restore" => {
            let name = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: restore <name>")?
                .clone();
            let (restored, summary, replayed) =
                client.restore_session(&name).map_err(|e| e.to_string())?;
            *session = Some(restored);
            Ok(format!(
                "session `{name}` restored: {} rows × {} attributes, {} WAL records replayed",
                summary.rows,
                summary.attributes.len(),
                replayed,
            ))
        }
        "close" => {
            need_session(session)?;
            let active = session.take().expect("checked above");
            let name = active.name().to_string();
            active.close().map_err(|e| e.to_string())?;
            Ok(format!("session `{name}` closed"))
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            *session = None;
            Ok("server is shutting down".to_string())
        }
        "" => Ok(String::new()),
        other => Err(format!("unknown command `{other}` — type `help`")),
    }
}

fn connect(target: &str) -> Result<(), String> {
    let client = Client::connect(target).map_err(|e| format!("cannot connect to {target}: {e}"))?;
    client.ping().map_err(|e| e.to_string())?;
    println!("connected to {target} — type `help` for commands, `quit` to leave");
    let mut session: Option<Session> = None;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        use std::io::Write;
        print!("rt> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("stdin: {e}")),
        }
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match repl_eval(&client, &mut session, trimmed) {
            Ok(output) if output.is_empty() => {}
            Ok(output) => println!("{output}"),
            Err(message) => eprintln!("error: {message}"),
        }
        if trimmed == "shutdown" {
            break;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Err(Usage::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(Usage::Error(message)) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
        Ok(args) => match args.command {
            Command::Serve => serve(&args),
            Command::Connect => connect(&args.input),
            _ => run(&args).map_err(|e| e.to_string()),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses a command line that must be valid.
    fn parsed(list: &[&str]) -> Args {
        parse(&args(list)).unwrap()
    }

    fn usage_error(list: &[&str]) -> String {
        match parse(&args(list)) {
            Err(Usage::Error(message)) => message,
            other => panic!("expected a usage error for {list:?}, got {other:?}"),
        }
    }

    /// Small, serial, fast engine settings for end-to-end tests.
    const FAST: [&str; 6] = [
        "--weight",
        "count",
        "--max-expansions",
        "1000",
        "--threads",
        "serial",
    ];

    fn fast(list: &[&str]) -> Args {
        let mut all = list.to_vec();
        all.extend_from_slice(&FAST);
        parsed(&all)
    }

    #[test]
    fn parses_minimal_spectrum_invocation() {
        let o = parsed(&["data.csv", "--fd", "A->B"]);
        assert_eq!(o.command, Command::Run);
        assert_eq!(o.input, "data.csv");
        assert_eq!(o.fd_specs, vec!["A->B".to_string()]);
        assert_eq!(o.mode, Mode::Spectrum);
        assert_eq!(o.engine.weight, WeightKind::DistinctCount);
        assert_eq!(o.engine.seed, 0);
    }

    #[test]
    fn parses_full_single_repair_invocation() {
        let o = parsed(&[
            "d.csv",
            "--fd",
            "A->B",
            "--fd",
            "C,D->E",
            "--tau-r",
            "0.25",
            "--weight",
            "entropy",
            "--output",
            "out.csv",
            "--seed",
            "9",
            "--max-expansions",
            "1234",
        ]);
        assert_eq!(o.fd_specs.len(), 2);
        assert_eq!(o.mode, Mode::Repair(TauSpec::Relative(0.25)));
        assert_eq!(o.engine.weight, WeightKind::Entropy);
        assert_eq!(o.output.as_deref(), Some("out.csv"));
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.engine.max_expansions, 1234);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(usage_error(&["--fd", "A->B"]), USAGE); // no input file
        assert!(usage_error(&["d.csv"]).contains("--fd")); // no FDs
        assert!(parse(&args(&["d.csv", "--fd", "A->B", "--tau", "x"])).is_err());
        assert!(parse(&args(&["d.csv", "--fd", "A->B", "--tau-r", "1.5"])).is_err());
        assert!(parse(&args(&["d.csv", "--fd", "A->B", "--weight", "bogus"])).is_err());
        assert!(parse(&args(&["d.csv", "--fd", "A->B", "--bogus"])).is_err());
        assert!(parse(&args(&["d.csv", "extra.csv", "--fd", "A->B"])).is_err());
        // --output writes one repair, so the spectrum mode refuses it.
        let message = usage_error(&["d.csv", "--fd", "A->B", "--output", "o.csv"]);
        assert!(message.contains("--tau") && message.contains("--tau-r"));
        assert_eq!(parse(&args(&["--help"])), Err(Usage::Help));
        assert_eq!(parse(&args(&["restore", "-h"])), Err(Usage::Help));
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        let cases: [(&[&str], &str); 6] = [
            (&["d.csv", "--log", "m.json"], "unknown option `--log`"),
            (
                &["apply", "d.csv", "--output", "o"],
                "unknown option `--output`",
            ),
            (
                &["snapshot", "d.csv", "--tau", "1"],
                "unknown option `--tau`",
            ),
            (
                &["restore", "s.snap", "--seed", "3"],
                "unknown option `--seed`",
            ),
            (
                &["scenario", "hospital", "--fd", "A->B"],
                "unknown option `--fd`",
            ),
            (&["serve", "--seed", "1"], "unknown serve option `--seed`"),
        ];
        for (line, expected) in cases {
            assert_eq!(usage_error(line), expected, "{line:?}");
        }
        assert_eq!(usage_error(&["serve", "x"]), "unknown serve option `x`");
        let connect = "usage: rtclean connect [<host:port> | unix:<path>]";
        assert_eq!(usage_error(&["connect", "--tau", "1"]), connect);
        assert_eq!(usage_error(&["connect", "a:1", "b:2"]), connect);
        assert_eq!(parsed(&["connect"]).input, "127.0.0.1:7171");
    }

    #[test]
    fn tau_mode_parses_absolute_budget() {
        let o = parsed(&["d.csv", "--fd", "A->B", "--tau", "7"]);
        assert_eq!(o.mode, Mode::Repair(TauSpec::Absolute(7)));
    }

    #[test]
    fn threads_flag_parses_all_spellings() {
        let o = parsed(&["d.csv", "--fd", "A->B"]);
        assert_eq!(o.engine.threads, Parallelism::Auto);
        let o = parsed(&["d.csv", "--fd", "A->B", "--threads", "serial"]);
        assert_eq!(o.engine.threads, Parallelism::Serial);
        let o = parsed(&["d.csv", "--fd", "A->B", "--threads", "4"]);
        assert_eq!(o.engine.threads, Parallelism::Fixed(4));
        assert!(parse(&args(&["d.csv", "--fd", "A->B", "--threads", "x"])).is_err());
    }

    #[test]
    fn missing_input_file_is_a_typed_error_not_a_panic() {
        let options = fast(&[
            "/nonexistent/definitely_missing.csv",
            "--fd",
            "A->B",
            "--tau",
            "1",
        ]);
        let err = run(&options).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }), "got {err:?}");
        assert!(err.to_string().contains("definitely_missing.csv"));
    }

    #[test]
    fn malformed_csv_is_a_typed_error_not_a_panic() {
        let dir = std::env::temp_dir().join("rtclean_test_bad_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("ragged.csv");
        // Second data row has the wrong number of fields.
        std::fs::write(&input, "A,B\n1,1\n2\n").unwrap();
        let err = run(&fast(&[
            &input.to_string_lossy(),
            "--fd",
            "A->B",
            "--tau",
            "1",
        ]))
        .unwrap_err();
        // A parse failure is not an access failure: it surfaces as the
        // structured Parse error with the offending line, not Io.
        assert!(
            matches!(err, EngineError::Parse { line: 3, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("line 3"));
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn unknown_fd_attribute_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rtclean_test_bad_fd");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        std::fs::write(&input, "A,B\n1,1\n1,2\n").unwrap();
        let err = run(&fast(&[&input.to_string_lossy(), "--fd", "A->Nope"])).unwrap_err();
        assert!(matches!(err, EngineError::Fd(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn apply_arg_parsing() {
        let o = parsed(&[
            "apply", "d.csv", "--fd", "A->B", "--log", "m.json", "--verify", "--batch", "--weight",
            "count",
        ]);
        assert_eq!(o.command, Command::Apply);
        assert_eq!(o.input, "d.csv");
        assert_eq!(o.log.as_deref(), Some("m.json"));
        assert!(o.verify);
        assert!(!o.per_op);
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // apply accepts --tsv like the main form (the usage text promises
        // it for input files generally).
        let o = parsed(&["apply", "d.tsv", "--fd", "A->B", "--log", "m.json", "--tsv"]);
        assert!(o.tsv);
        assert!(o.per_op);
        // --log is mandatory, as is an input and at least one FD.
        assert!(parse(&args(&["apply", "d.csv", "--fd", "A->B"])).is_err());
        assert!(parse(&args(&["apply", "d.csv", "--log", "m.json"])).is_err());
        assert!(parse(&args(&["apply", "--fd", "A->B", "--log", "m.json"])).is_err());
        assert!(parse(&args(&["apply", "d.csv", "--fd", "A->B", "--log"])).is_err());
    }

    #[test]
    fn apply_replays_a_log_and_verifies() {
        let dir = std::env::temp_dir().join("rtclean_test_apply");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let log = dir.join("mutations.json");
        std::fs::write(&input, "A,B,C\n1,1,1\n1,2,1\n2,5,3\n2,5,4\n").unwrap();
        std::fs::write(
            &log,
            r#"[
              {"op": "insert", "rows": [[1, 3, 9], [7, 7, 7]]},
              {"op": "update", "row": 0, "attr": "B", "value": 2},
              {"op": "delete", "rows": [3]},
              {"op": "add_fd", "fd": "C->B"},
              {"op": "remove_fd", "index": 0}
            ]"#,
        )
        .unwrap();
        for replay in ["--per-op", "--batch"] {
            let (input, log) = (input.to_string_lossy(), log.to_string_lossy());
            let options = parsed(&[
                "apply",
                &input,
                "--fd",
                "A->B",
                "--log",
                &log,
                replay,
                "--verify",
                "--weight",
                "count",
                "--seed",
                "3",
                "--threads",
                "serial",
            ]);
            run(&options).unwrap();
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn apply_rejects_invalid_logs_without_mutating() {
        let dir = std::env::temp_dir().join("rtclean_test_apply_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let log = dir.join("bad.json");
        std::fs::write(&input, "A,B\n1,1\n1,2\n").unwrap();
        std::fs::write(&log, r#"[{"op": "delete", "rows": [99]}]"#).unwrap();
        let options = fast(&[
            "apply",
            &input.to_string_lossy(),
            "--fd",
            "A->B",
            "--log",
            &log.to_string_lossy(),
        ]);
        let err = run(&options).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn scenario_arg_parsing() {
        let o = parsed(&[
            "scenario",
            "hospital",
            "--seed",
            "9",
            "--rows",
            "25",
            "--tau",
            "2",
            "--weight",
            "count",
            "--threads",
            "serial",
        ]);
        assert_eq!(o.command, Command::Scenario);
        assert_eq!(o.input, "hospital");
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.rows, Some(25));
        assert_eq!(o.mode, Mode::Repair(TauSpec::Absolute(2)));
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // Defaults: catalog seed, scenario-default rows, spectrum mode.
        let o = parsed(&["scenario", "sensors"]);
        assert_eq!(o.engine.seed, 17);
        assert_eq!(o.rows, None);
        assert_eq!(o.mode, Mode::Spectrum);
        assert!(parse(&args(&["scenario"])).is_err());
        assert!(parse(&args(&["scenario", "sensors", "--rows", "x"])).is_err());
        assert!(parse(&args(&["scenario", "sensors", "--bogus"])).is_err());
    }

    #[test]
    fn scenario_list_and_unknown_names() {
        run(&fast(&["scenario", "list"])).unwrap();
        let err = run(&fast(&["scenario", "nope"])).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
        assert!(err.to_string().contains("hospital"));
    }

    #[test]
    fn scenario_end_to_end_single_repair() {
        // τ far above δP: the search accepts the unmodified FDs immediately
        // and only the data-repair half runs, keeping this test fast in
        // debug builds.
        let options = parsed(&[
            "scenario",
            "hospital",
            "--rows",
            "30",
            "--tau",
            "100000",
            "--weight",
            "count",
            "--seed",
            "3",
            "--max-expansions",
            "200000",
            "--threads",
            "serial",
        ]);
        run(&options).unwrap();
    }

    #[test]
    fn end_to_end_on_a_temporary_csv() {
        // Write a tiny violating instance, run the single-repair path.
        let dir = std::env::temp_dir().join("rtclean_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let output = dir.join("out.csv");
        std::fs::write(&input, "A,B\n1,1\n1,2\n2,5\n").unwrap();
        let options = parsed(&[
            &input.to_string_lossy(),
            "--fd",
            "A->B",
            "--tau",
            "2",
            "--output",
            &output.to_string_lossy(),
            "--weight",
            "count",
            "--seed",
            "1",
            "--max-expansions",
            "10000",
            "--threads",
            "2",
        ]);
        run(&options).unwrap();
        let repaired = Instance::from_csv(&output, &CsvOptions::csv()).unwrap();
        assert_eq!(repaired.len(), 3);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn serve_args_parse_every_flag() {
        let options = parsed(&[
            "serve",
            "--listen",
            "0.0.0.0:9000",
            "--max-sessions",
            "3",
            "--max-cells",
            "1000",
            "--idle-ops",
            "50",
            "--max-connections",
            "2",
        ]);
        assert_eq!(options.command, Command::Serve);
        assert_eq!(options.listen, "0.0.0.0:9000");
        assert_eq!(options.unix, None);
        assert_eq!(options.server.max_sessions, 3);
        assert_eq!(options.server.max_session_cells, 1000);
        assert_eq!(options.server.idle_ops, 50);
        assert_eq!(options.server.max_connections, 2);

        let defaults = parsed(&["serve"]);
        assert_eq!(defaults.listen, "127.0.0.1:7171");
        assert_eq!(defaults.server, ServerConfig::default());

        assert!(parse(&args(&["serve", "--max-sessions", "x"])).is_err());
        assert!(parse(&args(&["serve", "--bogus"])).is_err());
    }

    #[test]
    fn repl_drives_a_loopback_server_end_to_end() {
        let server = Server::bind_tcp_with("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join("rtclean_repl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("in.csv");
        std::fs::write(&csv, "A,B\n1,1\n1,2\n2,5\n").unwrap();

        let client = Client::connect(&addr.to_string()).unwrap();
        let mut session: Option<Session> = None;
        let eval = |session: &mut Option<Session>, line: &str| repl_eval(&client, session, line);

        assert_eq!(eval(&mut session, "ping").unwrap(), "pong");
        assert!(eval(&mut session, "repair --tau 1")
            .unwrap_err()
            .contains("no open session"));
        assert!(eval(&mut session, "frobnicate")
            .unwrap_err()
            .contains("unknown command"));
        assert!(eval(&mut session, "help").unwrap().contains("spectrum"));

        eval(&mut session, "open s1 --seed 1 --threads serial").unwrap();
        let loaded = eval(
            &mut session,
            &format!("load {} --fd A->B", csv.to_string_lossy()),
        )
        .unwrap();
        assert!(loaded.contains("3 rows"), "got {loaded}");
        // Bad relative trust is rejected by the shared TauSpec validation.
        assert!(eval(&mut session, "repair --tau-r 1.5")
            .unwrap_err()
            .contains("[0,1]"));
        let repaired = eval(&mut session, "repair --tau 1").unwrap();
        assert!(repaired.contains("cell changes"), "got {repaired}");
        let spectrum = eval(&mut session, "spectrum").unwrap();
        assert!(spectrum.contains("non-dominated"), "got {spectrum}");
        let stats = eval(&mut session, "stats").unwrap();
        assert!(stats.contains("conflict graph builds 1"), "got {stats}");
        let counters = eval(&mut session, "server-stats").unwrap();
        assert!(counters.contains("sessions_created"), "got {counters}");
        assert_eq!(eval(&mut session, "close").unwrap(), "session `s1` closed");
        assert!(session.is_none());

        assert_eq!(
            eval(&mut session, "shutdown").unwrap(),
            "server is shutting down"
        );
        worker.join().unwrap().unwrap();
        assert!(handle.is_shutting_down());
        std::fs::remove_file(&csv).ok();
    }
}
