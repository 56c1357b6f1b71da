//! The repository benchmark: four workloads over the case study, their
//! end-to-end metrics (tracing off) and per-layer metrics (a separate
//! traced run), with output checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|loop-sweep|explore-approx|paper-grid-counted> \
//!     --seed <n> --seconds <n> --trace <0|1> [--size full|tiny] [--root DIR]
//! ```
//!
//! Run from the repository root. Every measured pass runs in a fresh
//! child process of this binary, so no process-wide memo, backend counter
//! or environment setting leaks from one pass into the next. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The exit code is non-zero when any output check fails.

mod replay;
mod spans;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rvliw::sim::ExecBackend;
use rvliw::trace::Json;

use workloads::{median, quantile, Checks, Inputs, Size, Wl, PAPER_SEED, WARM_QUANTILE};

/// Every end-to-end metric, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("getsad_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Environment variables the library reads; neutralised in every pass.
const NEUTRALISED_ENV: [&str; 2] = ["RVLIW_CACHE_DIR", "RVLIW_THREADS"];

#[derive(Debug)]
struct Args {
    inputs: Inputs,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    child: Option<String>,
    cache_dir: PathBuf,
    out: PathBuf,
    golden_explore: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = PAPER_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut root = PathBuf::from(".");
    let mut work = None;
    let mut child = None;
    let mut cache_dir = PathBuf::new();
    let mut out = PathBuf::new();
    let mut golden_explore = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Wl::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = parse_u64(&value()?).ok_or("--seed: not an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => size = Size::parse(&value()?).ok_or("--size takes full or tiny")?,
            "--root" => root = PathBuf::from(value()?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--child" => child = Some(value()?),
            "--cache-dir" => cache_dir = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            "--golden-explore" => golden_explore = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work = work.unwrap_or_else(|| root.join(".perfbench-work"));
    Ok(Args {
        inputs: Inputs {
            workload,
            seed,
            size,
            root,
        },
        seconds,
        trace,
        work,
        child,
        cache_dir,
        out,
        golden_explore,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child.as_deref() {
        Some(mode) => run_child(&args, mode),
        None => run_parent(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process, in KiB.
fn rss_peak_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn num(v: f64) -> Json {
    Json::Num(format!("{v}"))
}

fn checks_json(c: &Checks, o: &mut BTreeMap<String, Json>) {
    o.insert("attempted".into(), num(c.attempted as f64));
    o.insert("failed".into(), num(c.failed as f64));
    o.insert(
        "errors".into(),
        Json::Arr(c.errors.iter().cloned().map(Json::Str).collect()),
    );
}

/// One measured pass in this (child) process; prints one JSON line.
fn run_child(args: &Args, mode: &str) -> Result<bool, String> {
    ExecBackend::Auto.set_process_default();
    let mut o = BTreeMap::new();
    let ok = match mode {
        "cold" | "warm" => {
            let p = workloads::run_pass(
                &args.inputs,
                &args.cache_dir,
                mode == "warm",
                args.golden_explore,
            )?;
            std::fs::write(&args.out, &p.output)
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
            o.insert("setup_s".into(), num(p.setup_s));
            o.insert("wall_s".into(), num(p.wall_s));
            o.insert(
                "walls".into(),
                Json::Arr(p.walls.iter().map(|&w| num(w)).collect()),
            );
            o.insert("sim_cycles".into(), num(p.sim_cycles as f64));
            o.insert("getsad_calls".into(), num(p.getsad_calls as f64));
            checks_json(&p.checks, &mut o);
            p.checks.failed == 0
        }
        "traced" => {
            let t = traced::run_traced(&args.inputs, &args.cache_dir, &args.work)?;
            let metrics = t.metrics.iter().map(|(k, v)| ((*k).to_owned(), num(*v)));
            o.insert("metrics".into(), Json::Obj(metrics.collect()));
            checks_json(&t.checks, &mut o);
            t.checks.failed == 0
        }
        other => return Err(format!("unknown child mode `{other}`")),
    };
    o.insert("rss_kib".into(), num(rss_peak_kib()));
    println!("{}", Json::Obj(o));
    Ok(ok)
}

/// Runs one child pass and parses its report line.
fn spawn_child(
    args: &Args,
    mode: &str,
    cache_dir: &Path,
    out: &Path,
    golden: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let inp = &args.inputs;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", inp.workload.name()])
        .args(["--seed", &inp.seed.to_string(), "--size", inp.size.name()])
        .arg("--root")
        .arg(&inp.root)
        .arg("--work")
        .arg(&args.work)
        .arg("--cache-dir")
        .arg(cache_dir)
        .arg("--out")
        .arg(out)
        .args(["--golden-explore", if golden { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in NEUTRALISED_ENV {
        cmd.env_remove(var);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawning a {mode} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let report = Json::parse(line)
        .map_err(|e| format!("{mode} pass ({}) printed no report: {e}", output.status))?;
    if let Some(errors) = report.get("errors").and_then(Json::as_array) {
        for e in errors {
            eprintln!("check failed ({mode}): {}", e.as_str().unwrap_or("?"));
        }
    }
    Ok(report)
}

fn field(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("pass report lacks `{key}`"))
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("perfbench: cannot remove {}: {e}", dir.display());
        }
    }
}

/// Runs passes in child processes for about `--seconds` (at least one),
/// then prints the medians.
fn run_parent(args: &Args) -> Result<bool, String> {
    let inp = &args.inputs;
    let run_dir = args
        .work
        .join(format!("{}-{}", inp.workload.name(), std::process::id()));
    let started = Instant::now();
    let mut checks = Checks::default();
    let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut iteration = 0usize;
    let result = loop {
        let dir = run_dir.join(format!("pass-{iteration}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            break Err(format!("{}: {e}", dir.display()));
        }
        let cache = dir.join("cache");
        let step = if args.trace {
            trace_iteration(args, &cache, &mut series, &mut checks)
        } else {
            timed_iteration(args, iteration, &cache, &dir, &mut series, &mut checks)
        };
        remove_dir(&dir);
        if let Err(e) = step {
            break Err(e);
        }
        iteration += 1;
        // Stop at the iteration boundary nearest to `--seconds`.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / iteration as f64 >= args.seconds {
            break Ok(());
        }
    };
    remove_dir(&run_dir);
    // The top-level scratch directory stays only while it holds span files.
    let _ = std::fs::remove_dir(&args.work);
    result?;
    let names: &[(&str, &str)] = if args.trace {
        traced::LAYER_METRICS
    } else {
        END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let values = series.get(name).cloned().unwrap_or_default();
        // The warm wall is a low quantile of every warm re-run of the run
        // (see `WARM_QUANTILE`); everything else, peak memory too, is the
        // median over passes. A pass's peak memory depends on how its two
        // worker threads interleave: one pass in five or so peaks 4 MB
        // above or below the rest, so the peak over passes would jump.
        let v = if name == "warm_wall_s" && inp.workload.cached() {
            quantile(values, WARM_QUANTILE)
        } else {
            median(values)
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            name, unit
        ));
    }
    eprintln!(
        "perfbench: {} {} pass(es) of {} in {:.1} s; checks {} attempted, {} failed",
        iteration,
        if args.trace { "traced" } else { "timed" },
        inp.workload.name(),
        started.elapsed().as_secs_f64(),
        checks.attempted,
        checks.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics.join(", ")
    );
    Ok(checks.failed == 0)
}

fn take_checks(report: &Json, checks: &mut Checks) -> Result<(), String> {
    checks.attempted += field(report, "attempted")? as u64;
    checks.failed += field(report, "failed")? as u64;
    Ok(())
}

/// One timed iteration: a cold pass into a fresh cache and, for cached
/// workloads, a warm pass against the cache it left.
fn timed_iteration(
    args: &Args,
    iteration: usize,
    cache: &Path,
    dir: &Path,
    series: &mut BTreeMap<&'static str, Vec<f64>>,
    checks: &mut Checks,
) -> Result<(), String> {
    let cold_out = dir.join("cold.out");
    let cold = spawn_child(args, "cold", cache, &cold_out, iteration == 0)?;
    take_checks(&cold, checks)?;
    let wall = field(&cold, "wall_s")?;
    let mut push = |k: &'static str, v: f64| series.entry(k).or_default().push(v);
    push("setup_s", field(&cold, "setup_s")?);
    push("wall_s", wall);
    push(
        "sim_mcycles_per_s",
        field(&cold, "sim_cycles")? / wall / 1e6,
    );
    push("getsad_per_s", field(&cold, "getsad_calls")? / wall);
    push("rss_peak_mb", field(&cold, "rss_kib")? / 1024.0);
    eprintln!(
        "perfbench: pass {iteration}: setup {:.3} s, wall {wall:.3} s",
        field(&cold, "setup_s")?
    );
    if args.inputs.workload.cached() {
        let warm_out = dir.join("warm.out");
        let warm = spawn_child(args, "warm", cache, &warm_out, false)?;
        take_checks(&warm, checks)?;
        push("setup_s", field(&warm, "setup_s")?);
        let walls = warm
            .get("walls")
            .and_then(Json::as_array)
            .ok_or("warm pass report lacks `walls`")?;
        let walls: Vec<f64> = walls.iter().filter_map(Json::as_f64).collect();
        series.entry("warm_wall_s").or_default().extend(walls);
        let (a, b) = (std::fs::read(&cold_out), std::fs::read(&warm_out));
        let same = matches!((&a, &b), (Ok(a), Ok(b)) if a == b);
        checks.check(same, || "cold and warm outputs differ".to_owned());
    } else {
        // No cache: a re-run repeats the same simulation, so the warm
        // figure is the cold one.
        push("warm_wall_s", wall);
    }
    Ok(())
}

/// One traced child run; its per-layer metrics join the series.
fn trace_iteration(
    args: &Args,
    cache: &Path,
    series: &mut BTreeMap<&'static str, Vec<f64>>,
    checks: &mut Checks,
) -> Result<(), String> {
    let report = spawn_child(args, "traced", cache, Path::new(""), false)?;
    take_checks(&report, checks)?;
    let metrics = report
        .get("metrics")
        .ok_or("traced pass printed no metrics")?;
    for &(name, _) in traced::LAYER_METRICS {
        series.entry(name).or_default().push(field(metrics, name)?);
    }
    Ok(())
}
