//! `cabench` — the repository's benchmark. See `README.md` beside this
//! package for the metrics, the workloads and how to read the output.

mod compare;
mod inputs;
mod json;
mod layers;
mod noise;
mod oracle;
mod run;
mod spec;
mod stats;
mod trace;
mod yardstick;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  cabench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
      Runs one workload in this process, or every workload (each in a process
      of its own) when --workload is absent. Prints every metric with its
      unit, then one JSON result line; exits non-zero on any oracle mismatch.
      --trace 1 is the traced run that yields the per-layer metrics.
      --quick: rule sets at scale 0.05, 3 rounds (a smoke test, not a measurement).
  cabench digests [--check]
      Prints the input, match and ExecStats digests of seed 2017 as JSON;
      --check compares them with expected/seed2017.json.
  cabench compare A.json B.json
      One row per (workload, end-to-end metric); exits non-zero on any 'worse'.
  cabench compare --aa SET_A/ SET_B/
      Medians of two directories of runs of the same code, beside the bounds.
  cabench noise [--workload NAME] [--seconds S]
      The contiguous-vs-interleaved estimator study recorded in NOISE.md.
workloads: clamav_scan spm_scan snort_cold_start bro_serve";

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// `--name value` pairs, bare switches and positionals, in any order.
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), positional: Vec::new() };
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => args.flags.push((name.into(), None)),
                Some(name) => {
                    let value = iter.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.into(), Some(value.clone())));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            Some((_, Some(v))) => v.parse().map_err(|_| format!("--{name}: cannot read '{v}'")),
            _ => Ok(default),
        }
    }

    fn allow(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

/// `benchmark/out`, beside this package's sources. The binary is built in
/// the checkout it measures, so the compile-time path is the right one.
fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cmd_run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["quick"])?;
    args.allow(&["workload", "seed", "seconds", "trace", "quick", "out"])?;
    let seed: u64 = args.value("seed", spec::DEFAULT_SEED)?;
    let seconds: f64 = args.value("seconds", spec::DEFAULT_SECONDS)?;
    let trace = match args.value("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let quick = args.has("quick");
    let out_dir: PathBuf = args.value("out", default_out_dir())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let suffix = format!(
        "seed{seed}{}{}",
        if trace { "-trace" } else { "" },
        if quick { "-quick" } else { "" }
    );

    let name: String = args.value("workload", String::new())?;
    if !name.is_empty() {
        let workload = spec::workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
        let outcome = run::run(&run::RunOptions {
            workload,
            seed,
            seconds,
            trace,
            quick,
            out_dir: out_dir.clone(),
        })?;
        let path = out_dir.join(format!("run-{name}-{suffix}.json"));
        std::fs::write(&path, outcome.doc.pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("run document: {}", path.display());
        println!("{}", outcome.result.compact());
        return Ok(outcome.ok);
    }

    // every workload, each in a process of its own (peak RSS, allocator
    // state and page cache of one must not leak into the next)
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut runs = Vec::new();
    for workload in &spec::WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.arg("run").args(["--workload", workload.name]);
        child.args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
        child.args(["--trace", if trace { "1" } else { "0" }]).arg("--out").arg(&out_dir);
        if quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| format!("spawning {}: {e}", workload.name))?;
        all_ok &= status.success();
        let path = out_dir.join(format!("run-{}-{suffix}.json", workload.name));
        match compare::load(&path) {
            Ok(doc) => runs.push(doc),
            Err(e) => {
                eprintln!("cabench: {e}");
                all_ok = false;
            }
        }
    }
    let path = out_dir.join(format!("run-all-{suffix}.json"));
    let set = Value::obj([("schema", Value::str("cabench-set-1")), ("runs", Value::Arr(runs))]);
    std::fs::write(&path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("all workloads: {} -> {}", if all_ok { "ok" } else { "FAILED" }, path.display());
    Ok(all_ok)
}

fn cmd_digests(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["check"])?;
    args.allow(&["check"])?;
    let mut workloads = Vec::new();
    let mut ok = true;
    for workload in &spec::WORKLOADS {
        let pins = run::pins(workload, spec::DEFAULT_SEED)?;
        if args.has("check") {
            let diffs = oracle::differences_from_pinned(workload.name, &pins);
            ok &= diffs.is_empty();
            println!("{}: {}", workload.name, if diffs.is_empty() { "ok" } else { "MISMATCH" });
            diffs.iter().for_each(|d| println!("  {d}"));
        }
        workloads.push((workload.name, pins));
    }
    if !args.has("check") {
        let doc = Value::obj([
            ("schema", Value::str("cabench-expected-1")),
            ("seed", Value::Num(spec::DEFAULT_SEED as f64)),
            ("workloads", Value::obj(workloads)),
        ]);
        print!("{}", doc.pretty());
    }
    Ok(ok)
}

fn cmd_compare(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["aa"])?;
    args.allow(&["aa"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two paths".into());
    };
    let worse = if args.has("aa") {
        compare::compare_sets(Path::new(a), Path::new(b))?
    } else {
        compare::compare_files(Path::new(a), Path::new(b))?
    };
    Ok(!worse)
}

fn cmd_noise(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.allow(&["workload", "seed", "seconds"])?;
    let name: String = args.value("workload", "clamav_scan".to_string())?;
    let workload = spec::workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    noise::study(workload, args.value("seed", spec::DEFAULT_SEED)?, args.value("seconds", 60.0)?)?;
    Ok(true)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("digests") => cmd_digests(&raw[1..]),
        Some("compare") => cmd_compare(&raw[1..]),
        Some("noise") => cmd_noise(&raw[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cabench: {message}");
            ExitCode::from(2)
        }
    }
}
