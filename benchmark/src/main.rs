//! Command line of the benchmark. See `README.md`.
//!
//! ```text
//! msod-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//! msod-benchmark run   [--seed N] [--seconds S] [--workload W] [--sets K]
//! msod-benchmark trace [--seed N] [--seconds S] [--workload W]
//! msod-benchmark compare A.json B.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use msod_benchmark::json::Json;
use msod_benchmark::measure::{median, spread, HostStamp};
use msod_benchmark::metrics::END_TO_END;
use msod_benchmark::traced::run_traced;
use msod_benchmark::workloads::{self, Kind, Measured, RunConfig, RunReport, Scale, WORKLOADS};

/// The seed the recorded numbers use.
const DEFAULT_SEED: u64 = 0xB7B7_0011;
/// Seconds one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

/// `benchmark/`, wherever the checkout is: `run.sh` exports it; under a
/// bare `cargo run` it is the manifest directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("MSOD_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    files: Vec<String>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("{s:?} is not a whole number: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { sets: 1, ..Args::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = Some(parse_u64(value()?)?),
            "--seconds" => {
                let v = value()?;
                out.seconds = Some(v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?);
            }
            "--trace" => out.trace = parse_u64(value()?)? != 0,
            "--sets" => out.sets = parse_u64(value()?)?.max(1) as usize,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => out.files.push(file.to_owned()),
        }
    }
    Ok(out)
}

fn measured_json(list: &[Measured]) -> Json {
    Json::obj(list.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("spread", Json::Num(m.spread)),
            ]),
        )
    }))
}

fn host_json(host: &HostStamp) -> Json {
    Json::obj([
        ("nproc", Json::Num(host.nproc as f64)),
        ("cpu_model", Json::str(&host.cpu_model)),
        ("kernel", Json::str(&host.kernel)),
        ("data_fs", Json::str(&host.data_fs)),
        ("commit", Json::str(&host.commit)),
    ])
}

/// One run of one workload in this process; prints the detail line and,
/// last, the result line.
fn single(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec_of(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {}", known.join(", "))
    })?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let host = HostStamp::collect(&bench_dir(), bench_dir().parent().unwrap_or(Path::new(".")));
    if spec.kind == Kind::WorkflowMemPar2 && host.nproc < 2 {
        return Err(format!(
            "{name} skipped: it needs 2 CPUs and this host has {}; on one it would measure time slicing, not contention",
            host.nproc
        ));
    }
    let cfg = RunConfig {
        spec,
        seed,
        seconds,
        fixed_reps: None,
        scale: Scale::full(spec.kind),
        out_dir: out_dir(),
    };
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let report: RunReport = if args.trace { run_traced(&cfg) } else { workloads::run(&cfg) };
    for problem in &report.problems {
        eprintln!("{name}: {problem}");
    }

    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(args.trace)),
        ("repetitions", Json::Num(report.reps as f64)),
        ("latency_samples_per_repetition", Json::Num(report.samples_per_rep as f64)),
        ("stream_crc32", Json::str(format!("{:08x}", report.stream_crc))),
        ("pinned_cpu", report.pinned_cpu.map_or(Json::Null, |cpu| Json::Num(cpu as f64))),
        ("adi_records_after_preload", Json::Num(report.adi_records.0 as f64)),
        ("adi_records_at_end", Json::Num(report.adi_records.1 as f64)),
        ("host", host_json(&host)),
        ("end_to_end", measured_json(&report.end_to_end)),
        ("extra", measured_json(&report.extra)),
        ("per_layer", measured_json(&report.per_layer)),
        ("counters", Json::from(&report.counters)),
        ("problems", Json::Arr(report.problems.iter().map(Json::str).collect())),
    ]);
    println!("detail: {}", detail.render());

    let metrics = if args.trace { &report.per_layer } else { &report.end_to_end };
    let result = Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.render());
    Ok(if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Run one workload in a child process and return its detail document.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let output = cmd.output().map_err(|e| format!("start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("{name} printed no detail line (exit {})", output.status))?;
    let mut detail = Json::parse(detail).map_err(|e| format!("{name}: detail line: {e}"))?;
    if let Json::Obj(pairs) = &mut detail {
        pairs.push(("exit_ok".to_owned(), Json::Bool(output.status.success())));
    }
    Ok(detail)
}

fn selected(args: &Args, default: &[&'static str]) -> Result<Vec<&'static str>, String> {
    match args.workload.as_deref() {
        None => Ok(default.to_vec()),
        Some("all") => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(name) => workloads::spec_of(name)
            .map(|s| vec![s.name])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn metric_of(detail: &Json, section: &str, metric: &str) -> Option<(f64, f64)> {
    let m = detail.get(section)?.get(metric)?;
    Some((m.get("value")?.as_f64()?, m.get("spread").and_then(Json::as_f64).unwrap_or(0.0)))
}

fn print_section(detail: &Json, section: &str) {
    for (name, m) in detail.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
        println!("  {name:36} {value:>16.4} {unit:6} spread {spread:.3}");
    }
}

/// `run` and `trace`: every selected workload in a process of its own.
fn suite(args: &Args, trace: bool) -> Result<ExitCode, String> {
    let all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let default: &[&str] =
        if trace { &["workflow_mem", "workflow_durable", "wire_single"] } else { &all };
    let names = selected(args, default)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let host = HostStamp::collect(&bench_dir(), bench_dir().parent().unwrap_or(Path::new(".")));
    println!(
        "host: {} CPU(s), {}, kernel {}, data on {}, commit {}; seed {seed:#x}, {seconds} s per run",
        host.nproc, host.cpu_model, host.kernel, host.data_fs, host.commit
    );

    let mut ok = true;
    let mut sets: Vec<Vec<Json>> = Vec::new();
    for set in 0..args.sets {
        // Every second set runs in reverse order, so that whatever a
        // workload leaves behind (page cache, frequency, heat) does not
        // always fall on the same successor.
        let mut order = names.clone();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut details = Vec::new();
        for name in order {
            if name == "workflow_mem_par2" && host.nproc < 2 {
                println!("\n{name}: skipped, it needs 2 CPUs and this host has {}", host.nproc);
                continue;
            }
            let detail = child(name, seed, seconds, trace)?;
            let passed = detail.get("exit_ok") == Some(&Json::Bool(true));
            ok &= passed;
            println!(
                "\n{name} (set {}): {} repetitions, stream crc {}, retained ADI {} -> {}, {}",
                set + 1,
                detail.get("repetitions").and_then(Json::as_f64).unwrap_or(0.0),
                detail.get("stream_crc32").and_then(Json::as_str).unwrap_or("?"),
                detail.get("adi_records_after_preload").and_then(Json::as_f64).unwrap_or(0.0),
                detail.get("adi_records_at_end").and_then(Json::as_f64).unwrap_or(0.0),
                if passed { "every verdict and guard ok" } else { "FAILED" },
            );
            if trace {
                print_section(&detail, "per_layer");
            } else {
                print_section(&detail, "end_to_end");
                print_section(&detail, "extra");
            }
            details.push(detail);
        }
        sets.push(details);
    }

    if !trace && args.sets > 1 {
        println!("\nagreement between sets (median per set; bound from BENCHMARK.json):");
        for name in &names {
            for m in END_TO_END {
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|set| {
                        set.iter().find(|d| d.get("workload").and_then(Json::as_str) == Some(name))
                    })
                    .filter_map(|d| metric_of(d, "end_to_end", m.name).map(|(v, _)| v))
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let between = spread(&values);
                let rendered: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!(
                    "  {name:18} {:14} {} {:5} spread {between:.3} bound {:.2} {}",
                    m.name,
                    rendered.join(" / "),
                    m.unit,
                    m.bound,
                    if between <= m.bound { "agree" } else { "DISAGREE" }
                );
            }
        }
    }

    let doc = Json::obj([
        ("host", host_json(&host)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("sets", Json::Arr(sets.into_iter().map(Json::Arr).collect())),
    ]);
    let path = out_dir().join(if trace { "trace.json" } else { "run.json" });
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("create {}: {e}", out_dir().display()))?;
    std::fs::write(&path, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Median and spread of one workload × metric over the sets of a
/// result file. With two or more sets the spread is the one between
/// their medians; a single run only has the spread of its repetitions.
fn summarise(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let runs: Vec<(f64, f64)> = doc
        .get("sets")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_arr)
        .flatten()
        .filter(|detail| detail.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|detail| metric_of(detail, "end_to_end", metric))
        .collect();
    let values: Vec<f64> = runs.iter().map(|(v, _)| *v).collect();
    match runs.as_slice() {
        [] => None,
        [(value, within)] => Some((*value, *within)),
        _ => Some((median(&values), spread(&values))),
    }
}

/// `compare A.json B.json`: one verdict per workload × end-to-end metric.
fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare needs two result files (written by `run`)".to_owned());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:18} {:14} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some((va, sa)), Some((vb, sb))) =
                (summarise(&a, w.name, m.name), summarise(&b, w.name, m.name))
            else {
                continue;
            };
            let change = (vb - va) / va;
            // Positive = B is worse.
            let worse = if m.better == "lower" { change } else { -change };
            let noise = sa.max(sb);
            let verdict = if noise > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "regressed"
            } else if -worse > noise {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:18} {:14} {va:>14.4} {vb:>14.4} {:>+7.1}% {noise:>7.3} {:>6.2}  {verdict}",
                w.name,
                m.name,
                change * 100.0,
                m.bound
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &argv[1..]),
        _ => ("single", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "run" => suite(&args, false),
        "trace" => suite(&args, true),
        "compare" => compare(&args),
        _ => single(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("msod-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
