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
/// arguments; it says nothing about a simulation that ran and failed.
enum Failure {
    /// The command line cannot be carried out: unknown command or backend,
    /// bad option value, a circuit spec or file that does not load.
    Arguments(String),
    /// The simulation itself failed: timeout, cancel, memory limit, SQL error.
    Simulation(String),
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
        Err(Failure::Simulation(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage: qymera <command> [options]\n\
     commands:\n\
       sql      print the SQL translation of a circuit\n\
       run      simulate a circuit (--backend NAME | --auto)\n\
       trace    show the state table after every gate (SQL backend)\n\
       profile  EXPLAIN ANALYZE the translated query (rows/time per operator)\n\
       bench    run the circuit on every backend and compare\n\
       sample   sample measurement outcomes (--shots N)\n\
     options:\n\
       --circuit SPEC   built-in circuit, e.g. ghz:3, eqsup:4, qft:5,\n\
                        w:4, bell, parity:10110, grover:3:5, bv:5:19,\n\
                        dj:4 (constant) or dj:4:5 (balanced by mask 5),\n\
                        qpe:4:3, sparse:8, dense:8, hea:6 (two layers)\n\
       --file PATH      load a circuit from .json or .qasm\n\
       --backend NAME   sql | statevector | sparse | mps | dd (default sql)\n\
       --auto           let the method selector choose the backend\n\
       --memory BYTES   memory budget for the simulation\n\
       --no-fusion      one query per gate (default: gates that cannot\n\
                        interfere fuse into blocks of up to 6 qubits;\n\
                        `trace` never fuses)\n\
       --parallel N     SQL-engine worker threads (default 1)\n\
       --db DIR         persist the SQL engine's state in DIR (write-ahead\n\
                        logged, crash-recoverable; default: in-memory)\n\
       --timeout-ms MS  per-statement deadline for the SQL engine\n\
                        (0/unset = none)\n\
       --shots N        samples for the `sample` command (default 1024)\n\
       --top K          state rows to print (default 16)\n\
     Ctrl-C cancels the SQL statement in flight cooperatively (engine\n\
     rolled back cleanly); a second Ctrl-C exits immediately (130)."
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn run(args: &[String]) -> Result<(), Failure> {
    let command = args.first().ok_or("missing command")?.clone();
    let circuit = load_circuit(args)?;
    let opts = match opt(args, "--memory") {
        Some(m) => SimOptions::with_memory_limit(
            m.parse().map_err(|_| format!("bad --memory value `{m}`"))?,
        ),
        None => SimOptions::default(),
    };
    let top: usize = opt(args, "--top").and_then(|v| v.parse().ok()).unwrap_or(16);
    let parallel: Option<usize> = match opt(args, "--parallel") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --parallel value `{v}`"))?),
        None => None,
    };
    let db_path = opt(args, "--db").map(std::path::PathBuf::from);
    let timeout_ms: Option<u64> = match opt(args, "--timeout-ms") {
        Some(v) => Some(v.parse().map_err(|_| format!("bad --timeout-ms value `{v}`"))?),
        None => None,
    };
    let cancel: CancelHandle = sigint::install();
    let mut sql_config = SqlSimConfig {
        memory_limit: opts.memory_limit,
        parallelism: parallel,
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
            let backend = if flag(args, "--auto") {
                let sel = select_method(&circuit, &opts);
                eprintln!("method selector: {}", sel.rationale);
                sel.backend
            } else {
                let name = opt(args, "--backend").unwrap_or_else(|| "sql".to_string());
                BackendKind::from_name(&name).ok_or(format!("unknown backend `{name}`"))?
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
                None => Err(Failure::Simulation(report.error.unwrap_or_default())),
            }
        }
        "profile" => {
            // The query `run` executes, fused unless `--no-fusion`.
            let text = sql_sim
                .explain_analyze(&circuit)
                .map_err(|e| Failure::Simulation(e.to_string()))?;
            out!("{text}");
            Ok(())
        }
        "trace" => {
            let states =
                sql_sim.run_trace(&circuit).map_err(|e| Failure::Simulation(e.to_string()))?;
            for (k, state) in states.iter().enumerate() {
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
            let shots: usize = opt(args, "--shots").and_then(|v| v.parse().ok()).unwrap_or(1024);
            let engine = Engine::new(opts);
            let report = engine.run_sql_configured(sql_config.clone(), &circuit);
            let state = report
                .output
                .ok_or_else(|| Failure::Simulation(report.error.unwrap_or_default()))?;
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

fn load_circuit(args: &[String]) -> Result<QuantumCircuit, String> {
    if let Some(path) = opt(args, "--file") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        return if path.ends_with(".qasm") {
            qasm::from_qasm(&text)
        } else {
            json::from_json(&text)
        };
    }
    let spec = opt(args, "--circuit").ok_or("need --circuit SPEC or --file PATH")?;
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
