//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! with the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a traced run, compared against an untraced run of the
//! same inputs. Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload yahoo_drain --seed 1 --seconds 10 --trace 0
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::inputs::Inputs;
use perfbench::report::{result_line, span_layers, summary_lines, Run, END_TO_END, PER_LAYER};
use perfbench::stats::peak_rss_mb;
use perfbench::trace::Recorder;
use perfbench::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <1-60> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let take = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = take("workload")?;
    if workload != "all" && Workload::named(&workload).is_none() {
        return Err(format!(
            "unknown workload `{workload}` (one of {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if let Some(extra) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository checkout this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, when the checkout is a git repository.
fn commit() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// FNV-1a digest of the engine's sources (`crates/**`, sorted by
/// path): identifies the code measured when there is no commit.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&repo_root().join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Record every `SS_*` variable, then clear them: the engine reads some
/// (`SS_PARALLELISM`, `SS_EPOCH_DEADLINE_MS`, `SS_EVENT_LOG`) and the
/// benchmark pins those settings itself. Runs before any thread starts.
fn pin_env() -> Vec<(String, String)> {
    let vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SS_"))
        .collect();
    for (k, _) in &vars {
        std::env::remove_var(k);
    }
    vars
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn context_line(args: &Args, env: &[(String, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"source_digest\": {}, \"env_cleared\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
        json_str(&source_digest()),
        env.join(", ")
    )
}

fn report_errors(label: &str, run: &Run) {
    for e in &run.errors {
        eprintln!("{label}: engine error: {e}");
    }
    if run.failed > 0 {
        eprintln!(
            "{label}: {} of {} records failed the oracle check (failed_ratio {:.6})",
            run.failed,
            run.attempted,
            run.failed as f64 / run.attempted.max(1) as f64
        );
    }
}

fn run_one(args: &Args) -> ExitCode {
    let workload = Workload::named(&args.workload).expect("validated in parse_args");
    let inputs = Inputs::from_seed(args.seed);
    let seconds = args.seconds as f64;
    let name = args.workload.as_str();

    let mut base = workload.run(&inputs, seconds, None);
    base.sample("peak_rss_mb", peak_rss_mb());
    for line in summary_lines(name, &base) {
        println!("{line}");
    }
    report_errors(name, &base);
    let base_ok = base.failed == 0 && base.errors.is_empty() && base.attempted > 0;

    if !args.trace {
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .map(|&(m, unit)| (m, unit, base.value(m)))
            .collect();
        println!(
            "{}",
            result_line(base_ok, base.attempted, base.failed, &metrics)
        );
        return ExitCode::SUCCESS;
    }

    let rec = Recorder::new();
    let traced = workload.run(&inputs, seconds, Some(&rec));
    let label = format!("{name} (traced)");
    for line in summary_lines(&label, &traced) {
        println!("{line}");
    }
    report_errors(&label, &traced);
    let identical = base.output == traced.output && !base.output.is_empty();
    if !identical {
        eprintln!("{name}: traced sink output differs from the untraced run");
    }
    println!("{name}: traced and untraced sink output byte-identical: {identical}");

    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{name}-seed{}.tsv", args.seed));
    match rec.write_tsv(&spans_path) {
        Ok(()) => println!("{name}: spans written to {}", spans_path.display()),
        Err(e) => eprintln!("{name}: could not write spans: {e}"),
    }

    let mut layers = span_layers(&rec.spans(), traced.attempted);
    layers.extend(traced.layers.clone());
    layers.insert("latency.p99_ms".into(), base.value("latency_p99_ms"));
    for (m, _) in END_TO_END.iter().filter(|(m, _)| *m != "peak_rss_mb") {
        let (t, b) = (traced.value(m), base.value(m));
        layers.insert(
            format!("trace.overhead_ratio.{m}"),
            if b > 0.0 { t / b } else { 0.0 },
        );
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(m, unit)| (m, unit, layers.get(m).copied().unwrap_or(0.0)))
        .collect();
    for (m, unit, v) in &metrics {
        println!("{name:<20} {m:<38} {v:>16.4} {unit}");
    }
    let ok = base_ok && traced.failed == 0 && traced.errors.is_empty() && identical;
    println!(
        "{}",
        result_line(
            ok,
            base.attempted + traced.attempted,
            base.failed + traced.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// `--workload all`: every workload in its own process (so each has
/// its own peak RSS), then one line combining their results, metrics
/// keyed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = serde_json::Map::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let text = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("{w}: exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{text}");
        let result: serde_json::Value =
            match serde_json::from_str(text.lines().last().unwrap_or_default()) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("{w}: unreadable result line: {e}");
                    return ExitCode::FAILURE;
                }
            };
        let field = |k: &str| {
            result
                .get(k)
                .and_then(serde_json::Value::as_u64)
                .unwrap_or(0)
        };
        correct &= result.get("correct").and_then(serde_json::Value::as_bool) == Some(true);
        attempted += field("attempted");
        failed += field("failed");
        if let Some(m) = result.get("metrics") {
            metrics.insert(w.to_string(), m.clone());
        }
    }
    let mut line = serde_json::Map::new();
    line.insert("correct".into(), serde_json::Value::Bool(correct));
    line.insert(
        "attempted".into(),
        serde_json::Value::Number(serde_json::Number::U64(attempted)),
    );
    line.insert(
        "failed".into(),
        serde_json::Value::Number(serde_json::Number::U64(failed)),
    );
    line.insert("metrics".into(), serde_json::Value::Object(metrics));
    match serde_json::to_string(&serde_json::Value::Object(line)) {
        Ok(s) => println!("{s}"),
        Err(e) => {
            eprintln!("cannot render the combined result: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = pin_env();
    println!("{}", context_line(&args, &env));
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
