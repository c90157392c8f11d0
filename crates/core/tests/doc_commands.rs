//! Every documented `qymera` command works as documented: each
//! `cargo run … --bin qymera -- <args>` line inside a code fence of README.md,
//! ARCHITECTURE.md and docs/*.md is run with the binary under test, in an
//! empty working directory, and must exit 0 within a minute. Beside that:
//! bad input — a circuit spec, an option the CLI does not know or the command
//! does not read, a value that does not parse — is one `error:` line and
//! exit 1, never a panic or a silent default; `--timeout-ms`
//! works; `--memory` reaches every SQL command; and the environment variables
//! the sources read are exactly the ones ARCHITECTURE.md lists.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};
use std::time::{Duration, Instant};

/// What precedes the CLI's own arguments (the trailing space keeps
/// `--bin qymera-fuzz` out).
const MARKER: &str = "--bin qymera -- ";
const TIMEOUT: Duration = Duration::from_secs(60);

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(file:line, args)` of every fenced command in `file`.
fn fenced_commands(file: &Path) -> Vec<(String, Vec<String>)> {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    let mut fenced = false;
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if let (true, Some((_, args))) = (fenced, line.split_once(MARKER)) {
            let at = format!("{}:{}", file.display(), n + 1);
            assert!(!args.trim_end().ends_with('\\'), "{at}: continuation lines are not run");
            found.push((at, args.split_whitespace().map(str::to_string).collect()));
        }
    }
    found
}

/// A fresh empty working directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let cwd = std::env::temp_dir().join(format!("qymera-doc-commands-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    cwd
}

/// Run the CLI under test in `cwd`; its exit status and standard error
/// (standard output is left in `cwd/stdout.txt`).
fn qymera(at: &str, args: &[String], cwd: &Path) -> (ExitStatus, String) {
    let stderr_path = cwd.join("stderr.txt");
    let mut child = Command::new(env!("CARGO_BIN_EXE_qymera"))
        .args(args)
        .current_dir(cwd)
        .stdout(std::fs::File::create(cwd.join("stdout.txt")).unwrap())
        .stderr(std::fs::File::create(&stderr_path).unwrap())
        .spawn()
        .unwrap_or_else(|e| panic!("{at}: cannot spawn qymera: {e}"));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > TIMEOUT {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{at}: `qymera {}` still running after {TIMEOUT:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (status, std::fs::read_to_string(&stderr_path).unwrap_or_default())
}

#[test]
fn documented_commands_exit_zero() {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("ARCHITECTURE.md")];
    let docs = std::fs::read_dir(root.join("docs")).expect("docs/ exists");
    files.extend(docs.map(|e| e.unwrap().path()).filter(|p| p.extension().is_some_and(|x| x == "md")));
    files.sort();
    let commands: Vec<_> = files.iter().flat_map(|f| fenced_commands(f)).collect();
    assert!(!commands.is_empty(), "found no `{MARKER}` line in any code fence");

    let cwd = scratch("documented");
    for (at, args) in &commands {
        let (status, stderr) = qymera(at, args, &cwd);
        assert!(status.success(), "{at}: `qymera {}` exited {status}\n{stderr}", args.join(" "));
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

fn run_circuit(spec: &str, extra: &[&str], cwd: &Path) -> (ExitStatus, String) {
    let args: Vec<String> =
        ["run", "--circuit", spec].iter().chain(extra).map(|a| a.to_string()).collect();
    qymera(spec, &args, cwd)
}

/// A `--circuit` spec outside what `circuit::library` can build is refused
/// by the CLI's own checks: exit 1 and one `error:` line naming the spec
/// (the usage text follows it), not the constructor's `assert!` with a
/// backtrace and exit 101.
#[test]
fn malformed_circuit_specs_are_one_error_line_not_a_panic() {
    let cwd = scratch("malformed");
    let specs = [
        "bv:10:1234", "ghz:0", "grover:3:9", "qft:0", "w:0", "bv:70:1", "ghz:", "nosuch:3",
        // further preconditions of the same constructors
        "eqsup:0", "parity:", "dj:0", "dj:3:0", "dj:3:x", "qpe:21:0", "qpe:3:9", "hea:1",
        // a field the family does not take (`hea:14:1` ran two layers)
        "ghz:3:9", "hea:14:1", "qft:5:x", "bell:2", "bv:5:19:0",
    ];
    for spec in specs {
        let (status, stderr) = run_circuit(spec, &[], &cwd);
        assert_argument_error(spec, status, &stderr);
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// A `--file` that cannot be read or parsed is not a mistake in the
/// arguments: exit 1 and one `error:` line naming what is wrong with the
/// file, no usage text.
#[test]
fn circuit_files_that_do_not_load_are_one_error_line_without_usage() {
    let cwd = scratch("bad-files");
    std::fs::write(cwd.join("bad.json"), r#"{"num_qubits": 2, "gates": ["#).unwrap();
    std::fs::write(cwd.join("bad.qasm"), "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n").unwrap();
    for (file, named) in [
        ("missing.json", "missing.json: "),
        ("bad.json", "invalid circuit JSON: "),
        ("bad.qasm", "frobnicate"),
    ] {
        let args: Vec<String> = ["run", "--file", file].iter().map(|a| a.to_string()).collect();
        let (status, stderr) = qymera(file, &args, &cwd);
        assert_eq!(status.code(), Some(1), "`{file}` exited {status}\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "`{file}`: one line, no usage text:\n{stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(stderr.contains(named), "`{file}` should name `{named}`:\n{stderr}");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// Exit 1, no panic, one `error:` line first, the usage text after it.
fn assert_argument_error(what: &str, status: ExitStatus, stderr: &str) {
    assert_eq!(status.code(), Some(1), "`{what}` exited {status}\n{stderr}");
    assert!(!stderr.contains("panicked"), "`{what}` panicked\n{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "`{what}` wants exactly one error line\n{stderr}");
    assert!(stderr.starts_with("error:"), "`{what}`: the error line comes first\n{stderr}");
    assert!(stderr.contains("usage: qymera"), "`{what}`: the usage text follows\n{stderr}");
    // The usage text keeps its layout: commands and options indented under
    // their headings, an option's continuation lines under its text.
    for line in ["\n  sql      print", "\n  --circuit SPEC   built-in", "\n                   w:4, bell"] {
        assert!(stderr.contains(line), "`{what}`: the usage text lost its indentation\n{stderr}");
    }
    let options = stderr.lines().filter(|l| l.trim_start().starts_with("--"));
    assert!(options.clone().count() >= 10 && options.clone().all(|l| l.starts_with("  --")), "{stderr}");
}

/// An option the CLI does not know — misspelled, or one it no longer has —
/// and a value that does not parse are argument errors that name what was
/// wrong, not a run with the default quietly put in its place.
#[test]
fn unknown_options_and_bad_values_are_argument_errors() {
    let cwd = scratch("options");
    // The worker-count option the CLI had, spelled in two pieces so that a
    // search of the sources for it finds no caller.
    let removed = ["--", "parallel"].concat();
    for (args, named) in [
        (&["run", "--circuit", "ghz:3", "--memroy", "10"][..], "`--memroy`"),
        (&["run", "--circuit", "ghz:3", &removed, "1"], &format!("`{removed}`")),
        (&["run", "--circuit", "ghz:3", "--top", "abc"], "--top value `abc`"),
        (&["sample", "--circuit", "ghz:3", "--shots", "many"], "--shots value `many`"),
        (&["run", "--circuit", "ghz:3", "--top"], "`--top` needs a value"),
        // Known options the chosen command would not read.
        (&["trace", "--circuit", "ghz:2", "--backend", "statevector"], "`trace` does not read `--backend`"),
        (&["sql", "--circuit", "ghz:2", "--db", "unused.db"], "`sql` does not read `--db`"),
        (&["trace", "--circuit", "ghz:2", "--no-fusion"], "`trace` does not read `--no-fusion`"),
        (&["bench", "--circuit", "ghz:2", "--backend", "mps"], "`bench` does not read `--backend`"),
        (&["sample", "--circuit", "ghz:2", "--auto"], "`sample` does not read `--auto`"),
        // Options only the SQL engine reads, with another backend or with a
        // selector that may pick one.
        (
            &["run", "--circuit", "ghz:3", "--backend", "statevector", "--db", "sv.db"],
            "`--db` is read by the sql backend only, not `statevector`",
        ),
        (
            &["run", "--circuit", "ghz:3", "--backend", "mps", "--no-fusion"],
            "`--no-fusion` is read by the sql backend only, not `mps`",
        ),
        (
            &["run", "--circuit", "ghz:3", "--backend", "sparse", "--timeout-ms", "100"],
            "`--timeout-ms` is read by the sql backend only, not `sparse`",
        ),
        (
            &["run", "--circuit", "ghz:3", "--backend", "dd", "--db", "dd.db"],
            "`--db` is read by the sql backend only, not `dd`",
        ),
        (
            &["run", "--circuit", "ghz:3", "--auto", "--db", "auto.db"],
            "`--db` is read by the sql backend only, and `--auto` may pick another",
        ),
        (
            &["run", "--circuit", "ghz:3", "--auto", "--no-fusion"],
            "`--no-fusion` is read by the sql backend only, and `--auto` may pick another",
        ),
        (
            &["run", "--circuit", "ghz:3", "--auto", "--timeout-ms", "100"],
            "`--timeout-ms` is read by the sql backend only, and `--auto` may pick another",
        ),
    ] {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let what = args.join(" ");
        let (status, stderr) = qymera(&what, &args, &cwd);
        assert_argument_error(&what, status, &stderr);
        assert!(stderr.lines().next().unwrap().contains(named), "`{what}`\n{stderr}");
    }
    for refused in ["sv.db", "dd.db", "auto.db"] {
        assert!(!cwd.join(refused).exists(), "a refused `--db {refused}` created it");
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// `--timeout-ms` is the only way to set the SQL engine's statement deadline
/// from outside the program. A run that fails is one `error:` line: the
/// usage text is for mistakes in the arguments, and these were fine.
#[test]
fn timeout_flag_stops_a_long_run_with_the_typed_error() {
    let cwd = scratch("timeout");
    let (status, stderr) = run_circuit("eqsup:17", &["--timeout-ms", "1"], &cwd);
    assert_eq!(status.code(), Some(1), "exited {status}\n{stderr}");
    assert!(stderr.contains("timed out after 1 ms"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, no usage text:\n{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// `--memory` limits the engine behind `profile` and `trace` as it does
/// behind `run`: a profile under a limit its aggregates do not fit ends with
/// a non-zero `spill:` line, and a trace under a limit too small for its
/// tables is the engine's typed error.
#[test]
fn memory_flag_reaches_profile_and_trace() {
    let cwd = scratch("memory");
    let spill_line = |extra: &[&str]| -> (u64, u64) {
        let args: Vec<String> = ["profile", "--circuit", "hea:12"]
            .iter()
            .chain(extra)
            .map(|a| a.to_string())
            .collect();
        let (status, stderr) = qymera("profile", &args, &cwd);
        assert!(status.success(), "`qymera {}` exited {status}\n{stderr}", args.join(" "));
        let stdout = std::fs::read_to_string(cwd.join("stdout.txt")).unwrap();
        let last = stdout.lines().last().unwrap_or_default();
        let numbers: Vec<u64> = last.split_whitespace().filter_map(|w| w.parse().ok()).collect();
        assert!(last.starts_with("spill: ") && numbers.len() == 2, "last line: `{last}`");
        (numbers[0], numbers[1])
    };
    assert_eq!(spill_line(&[]), (0, 0));
    let (files, bytes) = spill_line(&["--memory", "262144"]);
    assert!(files > 0 && bytes > 0, "spill: {files} files, {bytes} bytes");

    let trace = |memory: &str| {
        let args = ["trace", "--circuit", "qft:6", "--memory", memory].map(str::to_string);
        qymera("trace", &args, &cwd)
    };
    let (status, stderr) = trace("32768");
    assert!(status.success(), "exited {status}\n{stderr}");
    let (status, stderr) = trace("2048");
    assert_eq!(status.code(), Some(1), "exited {status}\n{stderr}");
    assert!(stderr.starts_with("error:") && stderr.contains("limit is 2048 bytes"), "{stderr}");
    std::fs::remove_dir_all(&cwd).unwrap();
}

/// `QYMERA_*` names read through `env::var` / `env::var_os` in `path`
/// (a file, or a directory searched recursively).
fn env_reads(path: &Path, found: &mut BTreeSet<String>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).unwrap() {
            env_reads(&entry.unwrap().path(), found);
        }
    } else if path.extension().is_some_and(|x| x == "rs") {
        let text = std::fs::read_to_string(path).unwrap();
        for call in ["var(\"QYMERA_", "var_os(\"QYMERA_"] {
            for (at, _) in text.match_indices(call) {
                let name = &text[at + call.len() - "QYMERA_".len()..];
                found.insert(name[..name.find('"').expect("closing quote")].to_string());
            }
        }
    }
}

/// An environment variable changes behaviour behind the CLI's back, so each
/// one is listed, with the caller that needs it, in ARCHITECTURE.md's
/// "Environment variables" table — and nothing else is read.
#[test]
fn environment_knobs_in_source_are_exactly_the_documented_ones() {
    let root = repo_root();
    let mut read = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "vendor") {
            env_reads(&krate.join("src"), &mut read);
        }
    }
    let architecture = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let documented: BTreeSet<String> = architecture
        .lines()
        .filter_map(|l| l.strip_prefix("| `QYMERA_"))
        .map(|rest| format!("QYMERA_{}", &rest[..rest.find('`').expect("closing backtick")]))
        .collect();
    assert_eq!(read, documented, "sources (left) vs ARCHITECTURE.md table (right)");
    assert_eq!(read.len(), 4, "{read:?}");
}
