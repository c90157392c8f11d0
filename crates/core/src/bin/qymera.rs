//! `qymera` — the command-line face of the system (the demo's UI, minus the
//! browser): load a circuit from JSON/QASM or the built-in library, inspect
//! the generated SQL, run it on any backend, trace intermediate states, or
//! benchmark all methods.
//!
//! ```text
//! qymera sql     --circuit ghz:3                    # print the Fig. 2c SQL
//! qymera sql     --circuit qft:4 --no-fusion        # one CTE per gate
//! qymera run     --circuit qft:5 --backend sql      # simulate & print state
//! qymera run     --file my_circuit.json --auto      # method selector picks
//! qymera trace   --circuit ghz:3                    # per-gate state tables
//! qymera bench   --circuit ghz:12                   # all backends compared
//! qymera sample  --circuit w:4 --shots 1000         # measurement sampling
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::process::ExitCode;

use qymera_circuit::{json, library, qasm, QuantumCircuit};
use qymera_core::{select_method, BackendKind, Engine};
use qymera_sim::SimOptions;
use qymera_translate::runner::wal_summary;
use qymera_translate::{CancelHandle, SqlSimConfig, SqlSimulator};

/// Ctrl-C → cooperative cancellation of the SQL engine's statement in
/// flight: the first SIGINT flips the shared [`CancelHandle`] (an atomic
/// store, the only async-signal-safe thing a handler may do here) and the
/// run winds down through the ordinary error path — ledger restored, spill
/// files reclaimed, no partial WAL frame. A second SIGINT exits hard with
/// the conventional 130 for users who will not wait for the drain.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;

    use qymera_translate::CancelHandle;

    static HANDLE: OnceLock<CancelHandle> = OnceLock::new();
    static SEEN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if SEEN.swap(true, Ordering::Relaxed) {
            unsafe { _exit(130) }
        }
        if let Some(h) = HANDLE.get() {
            h.cancel();
        }
    }

    /// Install the handler (idempotent) and return the shared handle.
    pub fn install() -> CancelHandle {
        let handle = HANDLE.get_or_init(CancelHandle::new).clone();
        // SAFETY: on_sigint has the required `extern "C" fn(i32)` ABI and
        // only touches lock-free atomics; registering it cannot race with
        // anything that matters (worst case the old disposition runs once).
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        handle
    }
}

#[cfg(not(unix))]
mod sigint {
    use qymera_translate::CancelHandle;

    /// No signal wiring off Unix; the handle still threads through so the
    /// engine sees a (never-tripped) cancel flag.
    pub fn install() -> CancelHandle {
        CancelHandle::new()
    }
}

/// Rust ignores SIGPIPE, so once a reader has gone (`qymera run … | head -1`)
/// a write to stdout returns `BrokenPipe`, on which `print!` panics. Nobody is
/// left to read the rest: end quietly, as a tool killed by the signal would.
fn or_quit(written: std::io::Result<()>) {
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1)
        }
    }
}

/// `print!` / `println!` for stdout that go through [`or_quit`].
macro_rules! out {
    ($($arg:tt)*) => { or_quit(write!(std::io::stdout(), $($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { or_quit(writeln!(std::io::stdout(), $($arg)*)) };
}

/// Why a command did not finish. The usage text answers a mistake in the
/// arguments; it says nothing about a circuit file that does not load or a
/// simulation that ran and failed.
enum Failure {
    /// The command line cannot be carried out: unknown command or backend,
    /// bad option value, a circuit spec that does not parse.
    Arguments(String),
    /// The command line was fine, what it asked for failed: the circuit
    /// file cannot be read or parsed, or the simulation itself failed
    /// (timeout, cancel, memory limit, SQL error).
    Execution(String),
}

impl<S: Into<String>> From<S> for Failure {
    fn from(message: S) -> Self {
        Failure::Arguments(message.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Arguments(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Execution(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    // One literal whose lines keep their indentation: only the first line
    // break is escaped.
    "\
usage: qymera <command> [options]
commands:
  sql      print the SQL translation of a circuit
  run      simulate a circuit (--backend NAME | --auto)
  trace    show the state table after every gate (SQL backend)
  profile  EXPLAIN ANALYZE the translated query (rows/time per operator)
  bench    run the circuit on every backend and compare
  sample   sample measurement outcomes (--shots N)
options:
  --circuit SPEC   built-in circuit, e.g. ghz:3, eqsup:4, qft:5,
                   w:4, bell, parity:10110, grover:3:5, bv:5:19,
                   dj:4 (constant) or dj:4:5 (balanced by mask 5),
                   qpe:4:3, sparse:8, dense:8, hea:6 (two layers)
  --file PATH      load a circuit from .json or .qasm
  --backend NAME   sql | statevector | sparse | mps | dd (default sql)
  --auto           let the method selector choose the backend
  --memory BYTES   memory budget for the simulation
  --no-fusion      one query per gate (default: consecutive gates fuse
                   into blocks of up to 6 qubits where the block joins
                   no more rows than its gates would; `trace` never
                   fuses, so it does not take this)
  --db DIR         persist the SQL engine's state in DIR (write-ahead
                   logged, crash-recoverable; default: in-memory)
  --timeout-ms MS  per-statement deadline for the SQL engine
                   (0/unset = none)
  --shots N        samples for the `sample` command (default 1024)
  --top K          state rows to print (default 16)
An option the command does not read is an error, not ignored: `run`
reads --db, --no-fusion and --timeout-ms with the sql backend only,
so not with --auto.
Ctrl-C cancels the SQL statement in flight cooperatively (engine
rolled back cleanly); a second Ctrl-C exits immediately (130)."
}

/// The options that take a value, and the flags that do not. Anything else
/// after the command is a mistake, not something to ignore.
const VALUE_OPTIONS: [&str; 8] =
    ["--circuit", "--file", "--backend", "--memory", "--db", "--timeout-ms", "--shots", "--top"];
const FLAGS: [&str; 2] = ["--auto", "--no-fusion"];

/// The options `command` reads besides `--circuit` and `--file`, which every
/// command reads; `None` for an unknown command.
fn options_of(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "sql" => &["--no-fusion"],
        "run" => &["--backend", "--auto", "--memory", "--no-fusion", "--db", "--timeout-ms", "--top"],
        "trace" => &["--memory", "--db", "--timeout-ms", "--top"],
        "profile" | "bench" => &["--memory", "--no-fusion", "--db", "--timeout-ms"],
        "sample" => &["--memory", "--no-fusion", "--db", "--timeout-ms", "--shots", "--top"],
        _ => return None,
    })
}

/// Refuse any argument after the command that is not one of the known
/// options (with its value) or flags, or that the command would not read.
fn check_arguments(command: &str, args: &[String]) -> Result<(), String> {
    let reads = options_of(command).ok_or(format!("unknown command `{command}`"))?;
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if VALUE_OPTIONS.contains(&arg.as_str()) {
            rest.next().ok_or(format!("`{arg}` needs a value"))?;
        } else if !FLAGS.contains(&arg.as_str()) {
            return Err(format!("unknown option `{arg}`"));
        }
        if !["--circuit", "--file"].contains(&arg.as_str()) && !reads.contains(&arg.as_str()) {
            return Err(format!("`{command}` does not read `{arg}`"));
        }
    }
    Ok(())
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// The value of option `name` parsed as a `T`, `None` when it is absent.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    opt(args, name)
        .map(|v| v.parse().map_err(|_| format!("bad {name} value `{v}`")))
        .transpose()
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn run(args: &[String]) -> Result<(), Failure> {
    let command = args.first().ok_or("missing command")?.clone();
    check_arguments(&command, args)?;
    let circuit = load_circuit(args)?;
    let opts = match parsed(args, "--memory")? {
        Some(bytes) => SimOptions::with_memory_limit(bytes),
        None => SimOptions::default(),
    };
    let top: usize = parsed(args, "--top")?.unwrap_or(16);
    let shots: usize = parsed(args, "--shots")?.unwrap_or(1024);
    let db_path = opt(args, "--db").map(std::path::PathBuf::from);
    let timeout_ms: Option<u64> = parsed(args, "--timeout-ms")?;
    let cancel: CancelHandle = sigint::install();
    let mut sql_config = SqlSimConfig {
        memory_limit: opts.memory_limit,
        db_path,
        timeout_ms,
        cancel: Some(cancel),
        ..Default::default()
    };
    if flag(args, "--no-fusion") {
        sql_config.fusion = None;
    }
    let sql_sim = SqlSimulator::new(sql_config.clone());

    match command.as_str() {
        "sql" => {
            outln!("{}", sql_sim.generated_sql(&circuit));
            Ok(())
        }
        "run" => {
            let engine = Engine::new(opts.clone());
            // Only the SQL engine reads these: refused, not ignored, with a
            // backend that is not `sql`, and with `--auto`, which may pick one.
            let sql_only = ["--db", "--no-fusion", "--timeout-ms"]
                .into_iter()
                .find(|o| flag(args, o));
            let refuse = |why: &str| match sql_only {
                Some(o) => Err(format!("`{o}` is read by the sql backend only, {why}")),
                None => Ok(()),
            };
            let backend = if flag(args, "--auto") {
                refuse("and `--auto` may pick another")?;
                let sel = select_method(&circuit, &opts);
                eprintln!("method selector: {}", sel.rationale);
                sel.backend
            } else {
                let name = opt(args, "--backend").unwrap_or_else(|| "sql".to_string());
                let backend =
                    BackendKind::from_name(&name).ok_or(format!("unknown backend `{name}`"))?;
                if backend != BackendKind::Sql {
                    refuse(&format!("not `{name}`"))?;
                }
                backend
            };
            let report = if backend == BackendKind::Sql {
                engine.run_sql_configured(sql_config.clone(), &circuit)
            } else {
                engine.run(backend, &circuit)
            };
            match report.output {
                Some(state) => {
                    // With `--db`, what the run cost the log and what
                    // opening the directory replayed, on the same line.
                    let durable = match sql_config.db_path {
                        Some(_) if backend == BackendKind::Sql => format!(" ({})", report.detail),
                        _ => String::new(),
                    };
                    eprintln!(
                        "{}: {} gates in {:.3} ms, state memory {} B, {} nonzero amplitudes{durable}",
                        report.backend,
                        report.gate_count,
                        report.wall_micros as f64 / 1000.0,
                        report.memory_bytes,
                        report.support
                    );
                    out!("{}", state.render_probabilities(top));
                    Ok(())
                }
                None => Err(Failure::Execution(report.error.unwrap_or_default())),
            }
        }
        "profile" => {
            // The query `run` executes, fused unless `--no-fusion`.
            let text = sql_sim
                .explain_analyze(&circuit)
                .map_err(|e| Failure::Execution(e.to_string()))?;
            out!("{text}");
            Ok(())
        }
        "trace" => {
            let trace =
                sql_sim.run_trace(&circuit).map_err(|e| Failure::Execution(e.to_string()))?;
            if sql_config.db_path.is_some() {
                // What `run --db` reports, for the whole trace.
                eprintln!("sql trace: {} states ({})", trace.states.len(), wal_summary(&trace.stats));
            }
            for (k, state) in trace.states.iter().enumerate() {
                outln!("state T{k} ({} rows):", state.len());
                for a in state.iter().take(top) {
                    outln!("  s = {:>6}  r = {:+.6}  i = {:+.6}", a.s, a.amp.re, a.amp.im);
                }
                if state.len() > top {
                    outln!("  … {} more rows", state.len() - top);
                }
            }
            Ok(())
        }
        "bench" => {
            let engine = Engine::new(opts);
            outln!(
                "{:>12}  {:>10}  {:>12}  {:>8}  status",
                "backend", "wall_ms", "memory_B", "support"
            );
            for backend in BackendKind::ALL {
                let r = if backend == BackendKind::Sql {
                    engine.run_sql_configured(sql_config.clone(), &circuit)
                } else {
                    engine.run(backend, &circuit)
                };
                outln!(
                    "{:>12}  {:>10.3}  {:>12}  {:>8}  {}",
                    r.backend,
                    r.wall_micros as f64 / 1000.0,
                    r.memory_bytes,
                    r.support,
                    r.error.unwrap_or_else(|| "ok".to_string())
                );
            }
            Ok(())
        }
        "sample" => {
            use rand::SeedableRng;
            let engine = Engine::new(opts);
            let report = engine.run_sql_configured(sql_config.clone(), &circuit);
            let state = report
                .output
                .ok_or_else(|| Failure::Execution(report.error.unwrap_or_default()))?;
            let mut rng = rand::rngs::StdRng::from_entropy();
            let counts = state.sample_counts(shots, &mut rng);
            let mut sorted: Vec<(u64, usize)> = counts.into_iter().collect();
            sorted.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            for (s, c) in sorted.into_iter().take(top) {
                let bits: String = (0..circuit.num_qubits)
                    .rev()
                    .map(|q| if (s >> q) & 1 == 1 { '1' } else { '0' })
                    .collect();
                outln!("|{bits}⟩  {c:>6}  ({:.4})", c as f64 / shots as f64);
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`").into()),
    }
}

fn load_circuit(args: &[String]) -> Result<QuantumCircuit, Failure> {
    let Some(path) = opt(args, "--file") else {
        let spec = opt(args, "--circuit").ok_or("need --circuit SPEC or --file PATH")?;
        return Ok(circuit_from_spec(&spec)?);
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Failure::Execution(format!("{path}: {e}")))?;
    let circuit = if path.ends_with(".qasm") {
        qasm::from_qasm(&text)
    } else {
        json::from_json(&text)
    };
    circuit.map_err(Failure::Execution)
}

fn circuit_from_spec(spec: &str) -> Result<QuantumCircuit, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    // A field the family does not take would be ignored, not obeyed.
    let fields = match parts[0] {
        "bell" => 1,
        "grover" | "bv" | "dj" | "qpe" => 3,
        _ => 2,
    };
    if let Some(surplus) = parts.get(fields) {
        return Err(format!("`{spec}`: `{}` takes no `:{surplus}`", parts[..fields].join(":")));
    }
    // The `library` constructors assert their preconditions; user input is
    // checked here so a bad spec is one `error:` line, not a panic.
    let number = |i: usize| -> Result<u64, String> {
        parts
            .get(i)
            .ok_or(format!("`{spec}` needs an argument at position {i}"))?
            .parse()
            .map_err(|_| format!("bad number in `{spec}`"))
    };
    // The register size at position 1.
    let size = |min: u64, max: u64| -> Result<usize, String> {
        match number(1)? {
            n if n < min => Err(format!("`{spec}`: size must be at least {min}")),
            n if n > max => Err(format!("`{spec}`: size must be at most {max}")),
            n => usize::try_from(n).map_err(|_| format!("bad number in `{spec}`")),
        }
    };
    // A basis state or bit mask at position `i` of an `n ≤ 63`-bit register.
    let fits = |i: usize, n: usize| -> Result<u64, String> {
        match number(i)? {
            v if v < (1u64 << n) => Ok(v),
            v => Err(format!("`{spec}`: {v} does not fit in {n} bits")),
        }
    };
    Ok(match parts[0] {
        "bell" => library::bell(),
        "ghz" => library::ghz(size(1, u64::MAX)?),
        "eqsup" => library::equal_superposition(size(1, u64::MAX)?),
        "qft" => library::qft(size(1, u64::MAX)?),
        "w" => library::w_state(size(2, u64::MAX)?),
        "parity" => {
            let bits = parts.get(1).filter(|b| !b.is_empty()).ok_or("parity:BITS")?;
            let input: Vec<bool> = bits
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    _ => Err(format!("bad bit `{c}`")),
                })
                .collect::<Result<_, _>>()?;
            library::parity_check(&input)
        }
        "grover" => {
            let n = size(2, 63)?;
            library::grover(n, fits(2, n)?, library::grover_optimal_iterations(n))
        }
        "bv" => {
            let n = size(1, 63)?;
            library::bernstein_vazirani(n, fits(2, n)?)
        }
        "dj" => {
            let n = size(1, 63)?;
            let mask = parts.get(2).map(|_| fits(2, n)).transpose()?;
            if mask == Some(0) {
                return Err(format!("`{spec}`: the balanced mask must be nonzero"));
            }
            library::deutsch_jozsa(n, mask)
        }
        "qpe" => {
            let bits = size(1, 20)?;
            library::phase_estimation(bits, fits(2, bits)?)
        }
        "sparse" => library::sparse_circuit(size(2, u64::MAX)?, 4, 1),
        "dense" => library::dense_circuit(size(2, u64::MAX)?, 4, 1),
        "hea" => {
            let pc = library::hardware_efficient_ansatz(size(2, u64::MAX)?, 2);
            let zeros: HashMap<String, f64> =
                pc.symbols().into_iter().map(|s| (s, 0.25)).collect();
            pc.bind(&zeros)?
        }
        other => return Err(format!("unknown circuit family `{other}`")),
    })
}
