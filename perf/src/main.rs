//! `perf` — the period-budget benchmark of the EUCON reproduction.
//!
//! One run measures one workload in its own process:
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail <file>]
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` the per-layer
//! ledger; either way the last line of standard output is the result
//! object the driver reads, and the exit code is nonzero unless every
//! correctness check passed.  Three subcommands run many of those:
//!
//! ```text
//! perf all  [--seed n] [--seconds s] [--quick] [--emit-bench <file>]
//! perf aa   [--seed n] [--seconds s] [--quick]
//! perf manifest            # prints BENCHMARK.json
//! ```
//!
//! See `perf/README.md` for the glossary and the method.

mod alloc;
mod e2e;
mod layers;
mod metrics;
mod micro;
mod stats;
mod watchdog;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use metrics::{end_to_end_values, number, result_line, value_in, END_TO_END, PER_LAYER};
use watchdog::Watchdog;
use workloads::{Workload, ALL};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where span files and run details go: `perf/out/` of the checkout this
/// binary was built in.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    detail: Option<PathBuf>,
    emit_bench: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        detail: None,
        emit_bench: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                out.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--quick" => out.quick = true,
            "--detail" => out.detail = Some(value()?.into()),
            "--emit-bench" => out.emit_bench = Some(value()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.quick {
        // One short round pair, checks still on.
        out.seconds = out.seconds.min(1.0);
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match argv.first().map(String::as_str) {
        Some(s @ ("all" | "aa" | "manifest")) => (s, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\nsee perf/README.md for the commands");
            return ExitCode::from(2);
        }
    };
    let ok = match sub {
        "manifest" => {
            print!("{}", metrics::manifest());
            true
        }
        "all" => all(&args),
        "aa" => aa(&args),
        _ => match args.workload.as_deref().map(workloads::by_name) {
            Some(Some(w)) => run_one(&w, &args),
            _ => {
                let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
                eprintln!("perf: --workload must be one of {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What either kind of run hands to the reporting code.
struct Report {
    tables: &'static [metrics::Metric],
    values: Vec<f64>,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    /// Extra members of the run's detail object (`, "key": value…`).
    detail: String,
}

fn untraced(w: &Workload, args: &Args, dog: &Watchdog) -> Report {
    let shrunk = if args.quick { w.quick() } else { *w };
    let budget = Duration::from_secs_f64(args.seconds);
    let r = e2e::run(&shrunk, args.seed, budget, dog);
    let f = &r.folded;
    println!(
        "rounds {}  samples {}  threads {}  trace_digest {:#018x}",
        f.steps.rounds,
        f.steps.best_ns.len(),
        r.threads,
        r.trace_digest
    );
    println!("per-round p50_us {:.1?}", f.raw_p50_us);
    println!("per-round p99_us {:.1?}", f.raw_p99_us);
    println!("per-round setup_s {:.4?}", f.setup_s);
    Report {
        tables: &END_TO_END,
        values: end_to_end_values(&r).to_vec(),
        attempted: r.attempted,
        failed: r.failed,
        detail: format!(
            ", \"rounds\": {}, \"samples\": {}, \"threads\": {}, \"trace_digest\": \"{:#018x}\", \
             \"per_round\": {{\"p50_us\": {}, \"p99_us\": {}, \"setup_s\": {}}}",
            f.steps.rounds,
            f.steps.best_ns.len(),
            r.threads,
            r.trace_digest,
            array(&f.raw_p50_us),
            array(&f.raw_p99_us),
            array(&f.setup_s),
        ),
        faults: r.faults,
    }
}

fn traced(w: &Workload, args: &Args, dog: &Watchdog) -> Report {
    let budget = Duration::from_secs_f64(args.seconds);
    let t = layers::run(w, args.seed, budget, args.quick, dog);
    let spans = out_dir().join(format!("trace-{}.jsonl", w.name));
    match layers::write_spans(&spans, w.name, &t.spans) {
        Ok(()) => println!("spans {} -> {}", t.spans.len(), spans.display()),
        Err(e) => eprintln!("perf: could not write {}: {e}", spans.display()),
    }
    Report {
        tables: &PER_LAYER,
        values: t.ledger.iter().map(|(_, v)| *v).collect(),
        attempted: t.attempted,
        failed: t.failed,
        faults: t.faults,
        detail: String::new(),
    }
}

/// One workload, one process: measure, check, print.
fn run_one(w: &Workload, args: &Args) -> bool {
    let dog = Watchdog::start(move |attempted, failed| {
        println!(
            "watchdog: a round ran past {} times its expected time",
            watchdog::SLACK
        );
        println!("{}", result_line(false, attempted.max(1), failed, []));
    });
    println!(
        "workload {}  seed {}  trace {}  cores {}  seconds {}{}",
        w.name,
        args.seed,
        u8::from(args.trace),
        workloads::cores(),
        args.seconds,
        if args.quick { "  (quick)" } else { "" }
    );
    let mut r = match args.trace {
        true => traced(w, args, &dog),
        false => untraced(w, args, &dog),
    };
    drop(dog);
    for (m, v) in r.tables.iter().zip(&r.values) {
        println!("{:34} {:>16.6} {}", m.name, v, m.unit);
        // End-to-end metrics are never zero on a run that worked.
        if !v.is_finite() || (!args.trace && *v == 0.0) {
            r.faults.push(format!("{} is {v}", m.name));
        }
    }
    let correct = r.faults.is_empty() && r.failed == 0;
    let failed = if correct { 0 } else { r.failed.max(1) };
    for f in &r.faults {
        println!("FAIL {f}");
    }
    println!("checks {}", if correct { "ok" } else { "FAILED" });
    if let Some(path) = &args.detail {
        let body: Vec<String> = (r.tables.iter().zip(&r.values))
            .map(|(m, v)| format!("\"{}\": {}", m.name, number(*v)))
            .collect();
        let detail = format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"cores\": {}, \
             \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}{}, \
             \"metrics\": {{{}}}}}",
            w.name,
            u8::from(args.trace),
            args.seed,
            workloads::cores(),
            r.attempted,
            r.detail,
            body.join(", ")
        );
        if let Err(e) = std::fs::write(path, detail) {
            eprintln!("perf: could not write {}: {e}", path.display());
        }
    }
    let metrics = r.tables.iter().zip(r.values.iter().copied());
    println!("{}", result_line(correct, r.attempted, failed, metrics));
    correct
}

fn array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| number(*v)).collect();
    format!("[{}]", body.join(", "))
}

/// Runs one workload in a child process of this same binary, echoing its
/// report; returns its result line (if it printed one), its trace digest
/// and whether it exited successfully.
struct Child {
    result: Option<String>,
    digest: Option<String>,
    ok: bool,
}

fn child(w: &Workload, args: &Args, trace: bool, detail: Option<&PathBuf>) -> Child {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = detail {
        cmd.arg("--detail").arg(path);
    }
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: could not start the {} run: {e}", w.name);
            return Child {
                result: None,
                digest: None,
                ok: false,
            };
        }
    };
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    Child {
        result: text
            .lines()
            .last()
            .filter(|l| l.starts_with("{\"correct\""))
            .map(str::to_owned),
        digest: text.lines().find_map(|l| {
            l.split_once("trace_digest ")
                .map(|(_, d)| d.trim().to_owned())
        }),
        ok: output.status.success(),
    }
}

/// Every workload, untraced then traced, each in its own process.
fn all(args: &Args) -> bool {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perf: could not create {}: {e}", dir.display());
        return false;
    }
    let mut ok = true;
    let mut details = Vec::new();
    for w in &ALL {
        for trace in [false, true] {
            let detail = dir.join(format!("detail-{}-{}.json", w.name, u8::from(trace)));
            ok &= child(w, args, trace, Some(&detail)).ok;
            match std::fs::read_to_string(&detail) {
                Ok(d) => details.push(d),
                Err(e) => {
                    eprintln!("perf: no detail from the {} run: {e}", w.name);
                    ok = false;
                }
            }
            println!();
        }
    }
    if let Some(path) = &args.emit_bench {
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into());
        let bench = format!(
            "{{\n\"harness\": \"perf\", \"commit\": \"{commit}\", \"cores\": {}, \"seed\": {}, \
             \"seconds\": {}, \"quick\": {},\n\"runs\": [\n{}\n]\n}}\n",
            workloads::cores(),
            args.seed,
            number(args.seconds),
            args.quick,
            details.join(",\n")
        );
        match std::fs::write(path, bench) {
            Ok(()) => println!("bench file -> {}", path.display()),
            Err(e) => {
                eprintln!("perf: could not write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!("all: {}", if ok { "ok" } else { "FAILED" });
    ok
}

/// A/A: the whole end-to-end benchmark twice on this binary.  Every
/// workload x metric pair must agree within the metric's own bound, and
/// what a seeded simulation determines must agree exactly.
fn aa(args: &Args) -> bool {
    const EXACT: [&str; 2] = ["track_accuracy", "deadline_met_ratio"];
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &ALL {
        let (a, b) = (child(w, args, false, None), child(w, args, false, None));
        ok &= a.ok && b.ok;
        let (Some(ra), Some(rb)) = (&a.result, &b.result) else {
            rows.push(format!("{:18} no result", w.name));
            ok = false;
            continue;
        };
        if a.digest != b.digest {
            rows.push(format!(
                "{:18} trace digests differ: {:?} vs {:?}",
                w.name, a.digest, b.digest
            ));
            ok = false;
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value_in(ra, m.name), value_in(rb, m.name)) else {
                rows.push(format!("{:18} {:20} missing", w.name, m.name));
                ok = false;
                continue;
            };
            let diff = (va - vb).abs() / va.abs().max(f64::MIN_POSITIVE);
            // Lossy lanes draw losses against wall-clock delivery, so
            // only the timer-free workloads are exact.
            let exact = EXACT.contains(&m.name) && w.mode != workloads::Mode::NetLossy;
            let agree = if exact { va == vb } else { diff <= m.bound };
            ok &= agree;
            rows.push(format!(
                "{:18} {:20} {:>14.6} {:>14.6} {:>8.3}% {:>7}  {}",
                w.name,
                m.name,
                va,
                vb,
                diff * 100.0,
                if exact {
                    "exact".into()
                } else {
                    format!("{}%", m.bound * 100.0)
                },
                if agree { "ok" } else { "DISAGREE" }
            ));
        }
    }
    println!(
        "\n{:18} {:20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for r in rows {
        println!("{r}");
    }
    println!("aa: {}", if ok { "ok" } else { "FAILED" });
    ok
}
