//! Host-cost benchmark for the Pilgrim reproduction.
//!
//! ```text
//! pilgrim-benchmark run [--seed N] [--out DIR] [--quick]
//!                       [--workload NAME --seconds S] [--trace 0|1]
//! pilgrim-benchmark compare BASE.json... --against CHANGE.json...
//! ```
//!
//! See `README.md` beside the manifest for what is measured and why.

mod alloc;
#[cfg(test)]
mod audit;
mod bench;
mod calib;
mod compare;
mod golden;
mod metrics;
mod probes;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use pilgrim_sim::Json;

use bench::Options;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The year of the paper; `golden.json` holds the model outputs at it.
pub const DEFAULT_SEED: u64 = 1987;

const USAGE: &str = "\
usage: pilgrim-benchmark run [--seed N] [--out DIR] [--quick]
                             [--workload NAME --seconds S] [--trace 0|1]
       pilgrim-benchmark compare BASE.json... --against CHANGE.json...

run      all six workloads with their frozen unit counts, the timed pass,
         the traced pass and the layer probes (about two minutes).
         --quick            one unit per workload, every check, no statistics
         --workload NAME    only this workload ...
         --seconds S        ... measured for S seconds
         --trace 0|1        skip / run the traced pass and the probes
         --seed N           unit i runs at seed N + i (default 1987)
         --out DIR          where results.json and trace.jsonl go
compare  judge CHANGE against BASE per (metric x workload)";

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        workloads: Workload::ALL.to_vec(),
        seconds: None,
        trace: true,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{arg}` needs a value"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--seed" => {
                let v = value()?;
                options.seed = v.parse().map_err(|_| format!("--seed: `{v}`"))?;
            }
            "--out" => options.out = PathBuf::from(value()?),
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(v).ok_or_else(|| format!("no workload `{v}`"))?;
                options.workloads = vec![w];
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("--seconds: `{v}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds: `{v}` is not a positive number"));
                }
                options.seconds = Some(s);
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.seconds.is_some() && options.workloads.len() != 1 {
        return Err("--seconds measures one workload: give --workload too".into());
    }
    Ok(options)
}

fn run(args: &[String]) -> Result<bool, String> {
    let options = parse_run(args)?;
    let out = options.out.clone();
    let outcome = bench::run(options);
    report::print(&outcome);
    report::write_files(&outcome, &out)
        .map_err(|e| format!("writing to {}: {e}", out.display()))?;
    println!(
        "\nwrote {0}/results.json and {0}/trace.jsonl",
        out.display()
    );
    println!("{}", report::driver_line(&outcome));
    Ok(outcome.correct())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--against")
        .ok_or("compare needs `--against` between the two sides")?;
    let side = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let rows = compare::compare(&side(&args[..split])?, &side(&args[split + 1..])?)?;
    Ok(compare::print(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
