//! The repo's benchmark: five workloads over the public API of
//! `raxpp-ir`, `raxpp-sched`, `raxpp-taskgraph`, `raxpp-runtime`,
//! `raxpp-core` and `raxpp-serve`, with library defaults only. See
//! README.md in this directory for the catalogue and `BENCHMARK.json`
//! at the repo root for the contract.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark compare A.jsonl B.jsonl
//! benchmark spread A.jsonl
//! benchmark manifest
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics with
//! tracing off; `--trace 1` is the separate traced run that fills the
//! per-layer ledger and writes a Chrome trace. The last line of
//! standard output is the result as one JSON object. The exit code is
//! 0 only when every output check passed.

mod canary;
mod catalog;
mod compare;
mod json;
mod serve;
mod spans;
mod stats;
mod train;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{Measured, Metric, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use json::Json;
use train::Train;

/// One run's arguments.
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub measured: Measured,
    /// Steps or requests attempted.
    pub attempted: u64,
    /// Step errors; refused, errored or incorrect replies; steps whose
    /// losses fail the output check.
    pub failed: u64,
    /// Sample counts and the like: printed and kept in `--out`, not
    /// metrics.
    pub info: Vec<(&'static str, Json)>,
}

/// Full set-up cycles per run; `setup_s` is their median.
const SETUP_CYCLES: usize = 31;

/// Sets up [`SETUP_CYCLES`] times, each fleet but the last torn down
/// again inside its cycle's timing, and returns the last fleet with
/// the median cycle time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_CYCLES);
    let mut kept = None;
    for cycle in 0..SETUP_CYCLES {
        let t0 = std::time::Instant::now();
        let fleet = setup();
        if cycle + 1 < SETUP_CYCLES {
            drop(fleet);
        } else {
            kept = Some(fleet);
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_CYCLES > 0"), stats::median(&times))
}

struct Cli {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

impl Cli {
    fn parse(argv: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            trace: false,
            out: None,
        };
        let mut it = argv.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    let w = WORKLOADS.iter().find(|w| w.name == v);
                    cli.workload = Some(w.ok_or(format!("unknown workload {v}"))?.name);
                }
                "--seed" => {
                    cli.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?;
                }
                "--seconds" => {
                    cli.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("bad --seconds".to_string())?;
                }
                // `--trace 0|1`; a bare `--trace` means 1.
                "--trace" => {
                    cli.trace = it
                        .next_if(|v| *v == "0" || *v == "1")
                        .is_none_or(|v| v == "1");
                }
                "--out" => cli.out = Some(value()?.clone()),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(cli)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n       \
         benchmark compare A.jsonl B.jsonl\n       benchmark spread A.jsonl\n       benchmark manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::run(a, b),
                _ => usage(),
            };
        }
        Some("spread") => {
            return match argv.as_slice() {
                [_, a] => compare::spread_report(a),
                _ => usage(),
            };
        }
        _ => {}
    }

    let cli = match Cli::parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    // Library defaults only: a set knob would make this run measure
    // something other than what a user gets.
    if let Some((var, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RAXPP_"))
    {
        eprintln!(
            "refusing to start: {} is set; the benchmark measures library defaults",
            var.to_string_lossy()
        );
        return ExitCode::from(2);
    }

    // The socket fabric keeps its sockets under the process's temp
    // directory; point that inside the build directory so a run writes
    // nothing outside its checkout. Set before any thread exists.
    let tmp = artefact_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    let selected: Vec<&'static str> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let metrics: &[Metric] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    // One workload prints the contract's result; several print one
    // result over all of them, metric names prefixed `workload:`.
    let (mut attempted, mut failed) = (0, 0);
    let mut all_metrics = Vec::new();
    for name in selected.iter().copied() {
        let args = RunArgs {
            workload: name,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        };
        let host = canary::Canary::start();
        let outcome = run_workload(&args);
        let host = host.finish();
        attempted += outcome.attempted;
        failed += outcome.failed;
        print_report(&args, &outcome, metrics, &host);
        let measured = outcome.measured.to_json(metrics);
        if let Some(path) = &cli.out {
            if let Err(e) = append_report(path, &args, &outcome, &host, &measured) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        if let Json::Obj(fields) = measured {
            all_metrics.extend(fields.into_iter().map(|(k, v)| {
                if selected.len() > 1 {
                    (format!("{name}:{k}"), v)
                } else {
                    (k, v)
                }
            }));
        }
    }
    let _ = std::fs::remove_dir(&tmp);
    // The contract's result object: exactly these four keys.
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(all_metrics)),
    ]);
    println!("{}", result.compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(args: &RunArgs) -> Outcome {
    let kind = match args.workload {
        "mlp_gpipe_pp4" => Some(Train::MlpGpipePp4),
        "lm_1f1b_pp2" => Some(Train::Lm1f1bPp2),
        "mlp_1f1b_pp4_uds" => Some(Train::Mlp1f1bPp4Uds),
        "mlp_gpipe_pp2_tp2_dp2" => Some(Train::MlpGpipePp2Tp2Dp2),
        _ => None,
    };
    match (kind, args.trace) {
        (Some(kind), false) => train::run_end_to_end(kind, args),
        (Some(kind), true) => train::run_per_layer(kind, args),
        (None, false) => serve::run_end_to_end(args),
        (None, true) => serve::run_per_layer(args),
    }
}

fn failed_share(outcome: &Outcome) -> f64 {
    outcome.failed as f64 / outcome.attempted.max(1) as f64
}

fn print_report(args: &RunArgs, outcome: &Outcome, metrics: &[Metric], host: &Json) {
    println!(
        "== {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host.compact());
    for m in metrics {
        println!(
            "{:<36} {:>16.6} {:<8} ({} is better)",
            m.name,
            outcome.measured.get(m.name),
            m.unit,
            m.better.as_str()
        );
    }
    for (k, v) in &outcome.info {
        println!("{k:<36} {}", v.compact());
    }
    println!(
        "attempted {}  failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        failed_share(outcome)
    );
}

/// Appends the full report of one run as one line of JSON.
fn append_report(
    path: &str,
    args: &RunArgs,
    outcome: &Outcome,
    host: &Json,
    measured: &Json,
) -> std::io::Result<()> {
    let report = Json::obj(vec![
        ("workload", Json::str(args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("host", host.clone()),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("failed_share", Json::Num(failed_share(outcome))),
        (
            "info",
            Json::Obj(
                outcome
                    .info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ),
        ("metrics", measured.clone()),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", report.compact())?;
    file.flush()
}

/// `<target dir>/benchmark`, where the benchmark keeps what it writes:
/// next to the build, so inside the checkout it was built in. Relative
/// to the working directory when it lies under it, which keeps the
/// socket paths below short whatever the checkout is called.
fn artefact_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| "target/benchmark".into());
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// Writes the traced run's Chrome trace as
/// `<target dir>/benchmark/trace-<workload>.json` and returns the path
/// (or null, with a warning, if it cannot be written: the trace is an
/// artefact, not a result).
pub fn write_trace(args: &RunArgs, chrome_json: &str) -> Json {
    let dir = artefact_dir();
    let path = dir.join(format!("trace-{}.json", args.workload));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome_json)) {
        Ok(()) => Json::str(path.to_string_lossy()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            Json::Null
        }
    }
}
