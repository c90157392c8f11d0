//! `qymera-bench`: the repo's benchmark. One invocation runs one workload
//! in its own process, checks every pass against the native simulators and
//! prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object. See README.md.

mod metrics;
mod run;
mod tmpfs;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::{find, Number, Value};

use metrics::{median, quartiles, worsening, MetricDef, END_TO_END, PER_LAYER};
use run::{RunArgs, RunResult};
use workloads::{Workload, PARALLELISM};

/// Length of the timed window the gate uses; `BENCHMARK.json` says the same.
const RUN_SECONDS: u64 = 30;
const SMOKE_SECONDS: u64 = 2;
/// Runs per workload in each of the two sets of `--noise-check`, as many as
/// the gate makes.
const NOISE_RUNS: u64 = 10;
const USAGE: &str = "usage: qymera-bench --workload NAME --seed N [--seconds N] [--trace 0|1]
       qymera-bench --smoke
       qymera-bench --noise-check
workloads: deep_sparse wide_dense out_of_core durable_steps";

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn num(v: f64) -> Value {
    Value::Num(Number::Float(v))
}

fn int(v: u64) -> Value {
    Value::Num(Number::UInt(v))
}

fn text(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.iter().any(|a| a == "--smoke") {
        smoke()
    } else if args.iter().any(|a| a == "--noise-check") {
        noise_check()
    } else {
        single_run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qymera-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// One run in this process.

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type under `path`, from the longest mount point above it.
fn fs_kind(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

fn environment(tmp: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(vec![
        ("nproc", int(nproc as u64)),
        ("engine_parallelism", int(PARALLELISM as u64)),
        ("fsync", text("commit")),
        ("tmp_dir", text(tmp.display().to_string())),
        ("tmp_kind", text(fs_kind(tmp))),
        ("rustc", text(command_output("rustc", &["--version"]))),
        (
            "commit",
            text(command_output("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("os", text(std::env::consts::OS)),
    ])
}

fn single_run(args: &[String]) -> Result<(), String> {
    let name = opt(args, "--workload").ok_or(USAGE)?;
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let seed: u64 = match opt(args, "--seed") {
        Some(v) => v.parse().map_err(|_| format!("bad --seed value `{v}`"))?,
        None => return Err(USAGE.into()),
    };
    let seconds: u64 = match opt(args, "--seconds") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --seconds value `{v}`"))?,
        None => RUN_SECONDS,
    };
    let traced = match opt(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace value `{other}`")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }

    // The engine reads nine QYMERA_* settings from the environment; none
    // may differ between two runs that are compared.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("QYMERA_") {
            std::env::remove_var(key);
        }
    }
    let out = out_dir();
    let base = out.join("tmp");
    std::fs::create_dir_all(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    // Before the engine spawns a thread. Without the privilege the files go
    // to the checkout's own file system; `tmp_kind` records which it was.
    if let Err(e) = tmpfs::mount_private(&base) {
        eprintln!("qymera-bench: no tmpfs on {} ({e})", base.display());
    }
    let tmp = base.join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // Spill directories go where `std::env::temp_dir()` points.
    std::env::set_var("TMPDIR", &tmp);
    let env = environment(&tmp);

    let run_args = RunArgs {
        workload,
        seed,
        seconds,
        tmp: tmp.clone(),
    };
    let outcome = if traced {
        run::traced(&run_args).map(|(result, rec)| (result, Some(rec)))
    } else {
        run::end_to_end(&run_args).map(|result| (result, None))
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let (result, recorder) = outcome?;

    let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = result.metrics.to_json(defs)?;
    let write = |file: String, value: &Value| -> Result<(), String> {
        let path = out.join(file);
        let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
    };
    if let Some(rec) = recorder {
        let spans = object(vec![
            ("workload", text(workload.name())),
            ("seed", int(seed)),
            ("spans", rec.to_json()),
        ]);
        write(format!("trace-{}.json", workload.name()), &spans)?;
    }
    let mode = if traced { "per_layer" } else { "end_to_end" };
    write(
        format!("report-{}-{mode}.json", workload.name()),
        &report(workload, seed, seconds, mode, &result, &metrics, env),
    )?;

    println!(
        "workload {} seed {seed} window {seconds} s ({mode})",
        workload.name()
    );
    println!(
        "passes: {} timed, {} attempted, {} failed",
        result.pass_ms.len(),
        result.tally.attempted,
        result.tally.failed
    );
    for reason in &result.tally.reasons {
        println!("failed pass: {reason}");
    }
    for def in defs {
        let value = result
            .metrics
            .get(def.name)
            .expect("to_json checked every metric");
        println!("{:<40} {value:>18.6} {}", def.name, def.unit);
    }
    let line = object(vec![
        ("correct", Value::Bool(result.tally.failed == 0)),
        ("attempted", int(result.tally.attempted)),
        ("failed", int(result.tally.failed)),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Everything about one run, for `perfbench/out/`.
fn report(
    workload: Workload,
    seed: u64,
    seconds: u64,
    mode: &str,
    result: &RunResult,
    metrics: &Value,
    environment: Value,
) -> Value {
    let bounds = END_TO_END
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                num(d.bound.expect("gated metrics have bounds")),
            )
        })
        .collect();
    object(vec![
        ("benchmark", text("perfbench")),
        ("workload", text(workload.name())),
        ("mode", text(mode)),
        ("seed", int(seed)),
        ("window_s", int(seconds)),
        ("timed_passes", int(result.pass_ms.len() as u64)),
        ("attempted", int(result.tally.attempted)),
        ("failed", int(result.tally.failed)),
        (
            "failures",
            Value::Array(result.tally.reasons.iter().map(text).collect()),
        ),
        ("claim", Value::Null),
        ("environment", environment),
        ("bounds", Value::Object(bounds)),
        ("metrics", metrics.clone()),
        (
            "pass_ms",
            Value::Array(result.pass_ms.iter().copied().map(num).collect()),
        ),
        (
            "setup_s",
            Value::Array(result.setup_s.iter().copied().map(num).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Runs in child processes: --smoke and --noise-check.

/// Run one workload in a child process and parse its result line.
fn child_run(workload: Workload, seed: u64, seconds: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let what = format!("{} seed {seed} trace {}", workload.name(), u8::from(traced));
    if !output.status.success() {
        return Err(format!("{what}: exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what}: printed nothing"))?;
    serde_json::parse_value(last).map_err(|e| format!("{what}: last line is not JSON: {e}"))
}

fn fields<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    value
        .as_object()
        .ok_or_else(|| format!("{what} is not an object"))
}

fn metric_value(result: &Value, name: &str) -> Result<f64, String> {
    let metrics = find(fields(result, "result")?, "metrics").ok_or("result has no metrics")?;
    find(fields(metrics, "metrics")?, name)
        .and_then(|m| find(m.as_object()?, "value")?.as_f64())
        .ok_or_else(|| format!("result has no value for {name}"))
}

/// `name=value` of every metric of a result, for progress lines.
fn last_line_values(result: &Value) -> String {
    END_TO_END
        .iter()
        .filter_map(|d| {
            Some(format!(
                "{}={:.4}",
                d.name,
                metric_value(result, d.name).ok()?
            ))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The result line must hold exactly the metrics of `defs`, each once and
/// with its unit, and report every pass correct.
fn check_result(result: &Value, defs: &[MetricDef], what: &str) -> Result<(), String> {
    let top = fields(result, what)?;
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{what}: result keys are {keys:?}"));
    }
    if find(top, "correct").and_then(Value::as_bool) != Some(true)
        || find(top, "failed").and_then(Value::as_u64) != Some(0)
        || find(top, "attempted").and_then(Value::as_u64).unwrap_or(0) == 0
    {
        return Err(format!("{what}: passes failed verification"));
    }
    let metrics = fields(find(top, "metrics").expect("keys checked"), "metrics")?;
    for (name, _) in metrics {
        let well_formed = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed || !defs.iter().any(|d| d.name == name) {
            return Err(format!("{what}: unexpected metric `{name}`"));
        }
    }
    for def in defs {
        let printed: Vec<&Value> = metrics
            .iter()
            .filter(|(n, _)| n == def.name)
            .map(|(_, v)| v)
            .collect();
        let [one] = printed[..] else {
            return Err(format!(
                "{what}: {} printed {} times",
                def.name,
                printed.len()
            ));
        };
        let unit = one
            .as_object()
            .and_then(|m| find(m, "unit"))
            .and_then(Value::as_str);
        if unit != Some(def.unit) {
            return Err(format!("{what}: {} has unit {unit:?}", def.name));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must name what this program measures.
fn check_manifest() -> Result<(), String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let manifest =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = serde_json::parse_value(&manifest).map_err(|e| e.to_string())?;
    let top = fields(&manifest, "BENCHMARK.json")?;
    let list = |key: &str| -> Result<&[Value], String> {
        find(top, key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key}"))
    };
    let string = |item: &Value, key: &str| -> Option<String> {
        Some(find(item.as_object()?, key)?.as_str()?.to_string())
    };
    let workloads: Vec<_> = list("workloads")?
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    let expected: Vec<_> = Workload::ALL
        .iter()
        .map(|w| Some(w.name().to_string()))
        .collect();
    if workloads != expected {
        return Err(format!("BENCHMARK.json workloads are {workloads:?}"));
    }
    if find(top, "run_seconds").and_then(Value::as_u64) != Some(RUN_SECONDS) {
        return Err(format!("BENCHMARK.json run_seconds is not {RUN_SECONDS}"));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key)?;
        if listed.len() != defs.len() {
            return Err(format!(
                "BENCHMARK.json {key} lists {} metrics",
                listed.len()
            ));
        }
        for (item, def) in listed.iter().zip(defs) {
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = item
                .as_object()
                .and_then(|m| find(m, "bound"))
                .and_then(Value::as_f64);
            if string(item, "name").as_deref() != Some(def.name)
                || string(item, "unit").as_deref() != Some(def.unit)
                || string(item, "better").as_deref() != Some(better)
                || bound != def.bound
            {
                return Err(format!("BENCHMARK.json {key} disagrees on {}", def.name));
            }
        }
    }
    Ok(())
}

fn smoke() -> Result<(), String> {
    check_manifest()?;
    for workload in Workload::ALL {
        for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let what = format!("{} trace {}", workload.name(), u8::from(traced));
            let result = child_run(workload, 1, SMOKE_SECONDS, traced)?;
            check_result(&result, defs, &what)?;
            if traced {
                // The overhead check compares the fastest of ten traced with
                // the fastest of ten untraced passes, which differ by up to
                // 0.08 on unchanged code: reported, but too noisy to fail on.
                let overhead =
                    metric_value(&result, "core.trace_overhead_share")? > run::TRACE_SHARE_MAX;
                let violations = metric_value(&result, "core.shape_violations")?;
                if violations > f64::from(u8::from(overhead)) {
                    return Err(format!("{what}: workload-shape checks failed, see above"));
                }
            }
            println!("smoke: {what}: {} metrics, every pass verified", defs.len());
        }
    }
    println!("smoke: ok");
    Ok(())
}

/// Two sets of runs of this same binary, as the gate makes them: per
/// workload `NOISE_RUNS` runs of `RUN_SECONDS` on as many seeds. Prints a
/// markdown table of each end-to-end metric's medians, how much worse the
/// second is, and the spread (interquartile range over median) inside each
/// set.
fn noise_check() -> Result<(), String> {
    let (runs, seconds) = (NOISE_RUNS, RUN_SECONDS);
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    for (set, of_set) in values.iter_mut().enumerate() {
        for (workload, of_workload) in Workload::ALL.into_iter().zip(of_set.iter_mut()) {
            for k in 0..runs {
                let seed = set as u64 * runs + k + 1;
                let result = child_run(workload, seed, seconds, false)?;
                check_result(&result, &END_TO_END, workload.name())?;
                eprintln!(
                    "set {} {} seed {seed}: {}",
                    set + 1,
                    workload.name(),
                    last_line_values(&result)
                );
                for (def, of_metric) in END_TO_END.iter().zip(of_workload.iter_mut()) {
                    of_metric.push(metric_value(&result, def.name)?);
                }
            }
        }
    }

    // The environment as the last run met it: only a run mounts the tmpfs.
    let path = out_dir().join(format!(
        "report-{}-end_to_end.json",
        Workload::ALL[Workload::ALL.len() - 1].name()
    ));
    let report = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = serde_json::parse_value(&report).map_err(|e| e.to_string())?;
    let env = find(fields(&report, "report")?, "environment");
    let env_text = |key: &str| -> String {
        match env.and_then(Value::as_object).and_then(|e| find(e, key)) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(n)) => n.as_f64().to_string(),
            _ => "unknown".into(),
        }
    };
    println!("# perfbench noise check\n");
    println!(
        "Two sets of {runs} runs per workload of one binary, {seconds} s window, another seed \
         each run.\n"
    );
    for key in ["nproc", "commit", "rustc", "tmp_kind", "fsync"] {
        println!("- {key}: {}", env_text(key));
    }
    println!(
        "\n`worse` is how much worse the second median is than the first, `spread` the \
         interquartile range of a set over its median; both as shares, next to the bound.\n"
    );
    println!("| workload | metric | unit | median 1 | median 2 | worse | spread 1 | spread 2 | bound | ok |");
    println!("|---|---|---|---|---|---|---|---|---|---|");

    let spread = |v: &[f64]| {
        let (q1, q2, q3) = quartiles(v);
        (q3 - q1) / q2
    };
    let mut past_bound = 0;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (first, second) = (&values[0][w][m], &values[1][w][m]);
            let bound = def.bound.expect("gated metrics have bounds");
            let worse = worsening(def, median(first), median(second));
            let spreads = [spread(first), spread(second)];
            let ok = worse <= bound && spreads.iter().all(|s| *s <= bound);
            past_bound += u32::from(!ok);
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:+.4} | {:.4} | {:.4} | {bound} | {} |",
                workload.name(),
                def.name,
                def.unit,
                median(first),
                median(second),
                worse,
                spreads[0],
                spreads[1],
                if ok { "yes" } else { "NO" },
            );
        }
    }
    if past_bound > 0 {
        return Err(format!("{past_bound} metrics past their bound"));
    }
    Ok(())
}
