//! Command-line entry point; see the crate docs and README.md.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::echo;
use perfbench::report::{self, Layers, Metric};
use perfbench::run::{self, Config, Pass, WORKLOADS};
use perfbench::trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for x in metrics {
        let samples = x
            .samples
            .map_or(String::new(), |s| format!("  (samples: {s})"));
        println!(
            "{label} {:<32} {:>14.4} {}{samples}",
            x.name, x.value, x.unit
        );
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (known: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    // Durable stores live under the working directory (the checkout).
    let tmp_root = PathBuf::from(".bench_tmp");
    let cfg = Config {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        warmup: Duration::from_millis(500),
        setups: 30,
        drain: Duration::from_secs(30),
        tmp: tmp_root.join(format!("run-{}", std::process::id())),
    };
    let base = run::run_pass(w, &cfg, None);
    let mut passes: Vec<&Pass> = vec![&base];
    let traced;
    let metrics = if args.trace {
        let tracer = Tracer::new();
        traced = run::run_pass(w, &cfg, Some(&tracer));
        passes.push(&traced);
        let stats = tracer.take_stats();
        let ceiling = echo::ceiling_frames_s(w.n, w.payload, Duration::from_secs(1));
        let m = report::per_layer(&Layers {
            base: &base,
            traced: &traced,
            stats: &stats,
            ceiling_frames_s: ceiling,
            n: w.n,
        });
        print_metrics("untraced", &report::end_to_end(&base));
        print_metrics("traced", &report::end_to_end(&traced));
        m
    } else {
        report::end_to_end(&base)
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    let _ = std::fs::remove_dir(&tmp_root); // only when no other run uses it
    for p in &passes {
        let kept = p.kept();
        for t in &p.trials {
            let v = &t.verdict;
            println!(
                "gate: attempted {} failed {} safety {} incomplete {} mismatches {}",
                t.attempted, t.failed, v.safety, v.incomplete, v.mismatches
            );
            println!(
                "trial: lat_p50_ms {:.4} cpu_ms_per_kmsg {:.1}{}",
                t.lat.quantile(0.5) / 1e6,
                t.cpu_ms_per_kmsg(),
                if kept.iter().any(|k| std::ptr::eq(*k, t)) {
                    " (kept)"
                } else {
                    ""
                }
            );
        }
    }
    print_metrics(w.name, &metrics);
    let correct = passes.iter().all(|p| p.correct());
    let attempted = passes.iter().map(|p| p.attempted()).sum();
    let failed = passes.iter().map(|p| p.failed()).sum();
    println!("{}", report::json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
