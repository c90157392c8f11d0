//! Every documented `qymera` command works as documented: each
//! `cargo run … --bin qymera -- <args>` line inside a code fence of README.md,
//! ARCHITECTURE.md and docs/*.md is run with the binary under test, in an
//! empty working directory, and must exit 0 within a minute.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
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

#[test]
fn documented_commands_exit_zero() {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("ARCHITECTURE.md")];
    let docs = std::fs::read_dir(root.join("docs")).expect("docs/ exists");
    files.extend(docs.map(|e| e.unwrap().path()).filter(|p| p.extension().is_some_and(|x| x == "md")));
    files.sort();
    let commands: Vec<_> = files.iter().flat_map(|f| fenced_commands(f)).collect();
    assert!(!commands.is_empty(), "found no `{MARKER}` line in any code fence");

    let cwd = std::env::temp_dir().join(format!("qymera-doc-commands-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    for (at, args) in &commands {
        let stderr_path = cwd.join("stderr.txt");
        let mut child = Command::new(env!("CARGO_BIN_EXE_qymera"))
            .args(args)
            .current_dir(&cwd)
            .stdout(Stdio::null())
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
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        assert!(status.success(), "{at}: `qymera {}` exited {status}\n{stderr}", args.join(" "));
    }
    std::fs::remove_dir_all(&cwd).unwrap();
}
