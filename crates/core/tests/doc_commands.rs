//! Every documented `qymera` command works as documented: each
//! `cargo run … --bin qymera -- <args>` line inside a code fence of README.md,
//! ARCHITECTURE.md and docs/*.md is run with the binary under test, in an
//! empty working directory, and must exit 0 within a minute. Beside that:
//! bad input is one `error:` line and exit 1, never a panic; `--timeout-ms`
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
        assert_eq!(status.code(), Some(1), "`{spec}` exited {status}\n{stderr}");
        assert!(!stderr.contains("panicked"), "`{spec}` panicked\n{stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
        assert_eq!(errors.len(), 1, "`{spec}` wants exactly one error line\n{stderr}");
        assert!(stderr.starts_with("error:"), "`{spec}`: the error line comes first\n{stderr}");
        assert!(stderr.contains("usage: qymera"), "`{spec}`: the usage text follows\n{stderr}");
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
        let args: Vec<String> = ["profile", "--circuit", "hea:12", "--parallel", "1"]
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
    assert_eq!(read.len(), 5, "{read:?}");
}
