//! Command-line entry point:
//! `rgpdos-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a human-readable table (both time bases side by side, every
//! metric with its unit), then, as the last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use rgpdos_e2ebench::report::{end_to_end, per_layer, percentile, Metric};
use rgpdos_e2ebench::speed::REFERENCE_PROBE_S;
use rgpdos_e2ebench::workload::{run_round, spec, OpKind, Round, Spec, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The commit under test: `RGPDOS_COMMIT` when set, else `git rev-parse`
/// when the working directory is a git checkout.
fn commit() -> String {
    if let Ok(commit) = std::env::var("RGPDOS_COMMIT") {
        return commit;
    }
    if std::path::Path::new(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_owned();
            }
        }
    }
    "unknown".to_owned()
}

/// Runs rounds while the next one, taking as long as the last, would end
/// by `until` seconds after `start`; at least `min` of them.
fn rounds(
    spec: &Spec,
    seed: u64,
    traced: bool,
    start: Instant,
    until: f64,
    min: usize,
) -> Result<Vec<Round>, String> {
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min || start.elapsed().as_secs_f64() + last <= until {
        let begun = Instant::now();
        out.push(run_round(spec, seed, traced)?);
        last = begun.elapsed().as_secs_f64();
    }
    Ok(out)
}

fn print_header(spec: &Spec, args: &Args, first: &Round) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let store = if spec.geometry.shards == 0 {
        "1 device (Dbfs)".to_owned()
    } else {
        format!("{} shard devices (ShardedDbfs)", spec.geometry.shards)
    };
    println!("# rgpdOS end-to-end GDPR-rights benchmark");
    println!(
        "# workload={} seed={} seconds={} trace={} commit={} nproc={nproc}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    println!(
        "# population: {} Listing-1 records over {} Zipf-1.0 subjects; {store}, {} B blocks; \
         {} allocated blocks after set-up vs the 1024-block inode cache",
        spec.records, spec.subjects, spec.geometry.block_size, first.blocks_after_setup
    );
    println!(
        "# load: closed loop, {} client thread(s), {} main ops per thread per round; \
         every journal commit flushes the device (DbfsParams::secure)",
        spec.threads, spec.main_ops
    );
}

fn print_ops(label: &str, rounds: &[Round]) {
    println!(
        "# {label}: {} round(s); wall times below are raw, slowdowns by the speed probe \
         (job time over {:.0} us)",
        rounds.len(),
        REFERENCE_PROBE_S * 1e6
    );
    for (i, r) in rounds.iter().enumerate() {
        let main: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| s.phase == rgpdos_e2ebench::workload::Phase::Main)
            .map(|s| s.slowdown)
            .collect();
        println!(
            "#   round {i}: setup {:.3} s (slowdown {:.2}), main {} ops in {:.3} s ({:.1} ops/s, \
             slowdown {:.2}..{:.2}), digest {:016x}",
            r.setup_s,
            r.setup_slowdown,
            main.len(),
            r.main_wall_s,
            main.len() as f64 / r.main_wall_s,
            percentile(&main, 0.1),
            percentile(&main, 0.9),
            r.digest
        );
    }
    println!(
        "#   {:<13} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "op", "n/round", "wall p50 us", "wall p90 us", "wall p99 us", "sim us/op"
    );
    for kind in OpKind::ALL {
        let picked: Vec<_> = rounds
            .iter()
            .flat_map(|r| r.samples.iter())
            .filter(|s| s.kind == kind)
            .collect();
        if picked.is_empty() {
            continue;
        }
        let wall: Vec<f64> = picked.iter().map(|s| s.wall_ns as f64 / 1e3).collect();
        let sim: u64 = picked.iter().map(|s| s.sim_us).sum();
        println!(
            "#   {:<13} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            kind.name(),
            picked.len() / rounds.len(),
            percentile(&wall, 0.5),
            percentile(&wall, 0.9),
            percentile(&wall, 0.99),
            sim as f64 / picked.len() as f64
        );
    }
}

fn json(metrics: &[Metric], correct: bool, attempted: u64, failed: u64) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let spec = spec(&args.workload).expect("checked by parse_args");
    let start = Instant::now();
    let (untraced, traced) = if args.trace {
        let untraced = rounds(&spec, args.seed, false, start, args.seconds / 2.0, 1)?;
        let traced = rounds(&spec, args.seed, true, start, args.seconds, 1)?;
        (untraced, traced)
    } else {
        (
            rounds(&spec, args.seed, false, start, args.seconds, 2)?,
            Vec::new(),
        )
    };
    print_header(&spec, args, &untraced[0]);

    // Run-level checks: every round, traced or not, ran the same ops to
    // the same outcomes, and (single-threaded) moved the devices alike.
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let mut problems: Vec<String> = all.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    let mut mismatches = 0u64;
    for round in &all {
        if round.digest != all[0].digest {
            mismatches += 1;
            problems.push(format!(
                "{} round digest {:016x} differs from the first round's {:016x}",
                if round.traced { "traced" } else { "untraced" },
                round.digest,
                all[0].digest
            ));
        }
    }
    if spec.threads == 1 {
        if let Some(traced) = traced.first() {
            if traced.meter.devices != untraced[0].meter.devices {
                mismatches += 1;
                problems.push("traced and untraced rounds moved the devices differently".into());
            }
        }
    }
    let attempted: u64 = all.iter().map(|r| r.samples.len() as u64).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum::<u64>() + mismatches;

    print_ops("untraced", &untraced);
    let metrics = if args.trace {
        print_ops("traced", &traced);
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced)
    };
    let mut correct = failed == 0;
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not a number", m.name));
            correct = false;
        }
        println!("{:<40} {:>16.3} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {:.6} ({failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );
    for problem in &problems {
        eprintln!("error: {problem}");
    }
    let finite: Vec<Metric> = metrics
        .into_iter()
        .map(|mut m| {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
            m
        })
        .collect();
    println!("{}", json(&finite, correct, attempted, failed));
    if correct {
        Ok(())
    } else {
        Err("the run produced incorrect results".into())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
