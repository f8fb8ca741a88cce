//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! experiments <target> [--scale F] [--kib N] [--seed N]
//!
//! targets: all | table1 | table2 | table3 | table4 | table5
//!        | fig7 | fig8 | fig9 | fig10 | ablation | scaling | summary
//! ```
//!
//! `--scale 1.0` (default) builds the paper-sized automata; `--kib` sets
//! the input-trace length per benchmark (default 256 KiB; the paper used
//! 10 MB, i.e. `--kib 10240` — shapes stabilize well before that).

use ca_bench::{figures, suite, tables, RunConfig};
use ca_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = String::from("all");
    let mut config = RunConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                config.scale = Scale(parse(&args, i, "--scale"));
            }
            "--kib" => {
                i += 1;
                config.input_kib = parse::<usize>(&args, i, "--kib");
            }
            "--seed" => {
                i += 1;
                config.seed = parse::<u64>(&args, i, "--seed");
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                std::process::exit(2);
            }
            t => target = t.to_string(),
        }
        i += 1;
    }

    let needs_suite =
        matches!(target.as_str(), "all" | "table1" | "fig7" | "fig8" | "fig9" | "summary");
    let results = if needs_suite { suite::run_all(&config) } else { Vec::new() };

    let mut sections: Vec<String> = Vec::new();
    match target.as_str() {
        "all" => {
            sections.push(tables::table1(&results));
            sections.push(tables::table2());
            sections.push(tables::table3());
            sections.push(tables::table4());
            sections.push(tables::table5(&config));
            sections.push(figures::fig7(&results));
            sections.push(figures::fig8(&results));
            sections.push(figures::fig9(&results));
            sections.push(figures::fig10());
            sections.push(ca_bench::ablation::ablation_packing(&config));
            sections.push(ca_bench::ablation::ablation_merging(&config));
            sections.push(ca_bench::ablation::ablation_floorplan());
            sections.push(ca_bench::ablation::ablation_stride(&config));
            sections.push(ca_bench::ablation::dfa_blowup(&config));
            sections.push(figures::scaling(&config));
            sections.push(figures::summary(&results, &config));
        }
        "table1" => sections.push(tables::table1(&results)),
        "table2" => sections.push(tables::table2()),
        "table3" => sections.push(tables::table3()),
        "table4" => sections.push(tables::table4()),
        "table5" => sections.push(tables::table5(&config)),
        "fig7" => sections.push(figures::fig7(&results)),
        "fig8" => sections.push(figures::fig8(&results)),
        "fig9" => sections.push(figures::fig9(&results)),
        "fig10" => sections.push(figures::fig10()),
        "scaling" => sections.push(figures::scaling(&config)),
        "ablation" => {
            sections.push(ca_bench::ablation::ablation_packing(&config));
            sections.push(ca_bench::ablation::ablation_merging(&config));
            sections.push(ca_bench::ablation::ablation_floorplan());
            sections.push(ca_bench::ablation::ablation_stride(&config));
            sections.push(ca_bench::ablation::dfa_blowup(&config));
        }
        "summary" => sections.push(figures::summary(&results, &config)),
        other => {
            eprintln!(
                "unknown target '{other}'; expected all|table1..table5|fig7..fig10|ablation|scaling|summary"
            );
            std::process::exit(2);
        }
    }
    println!(
        "# Cache Automaton experiments (scale {}, {} KiB traces, seed {})\n",
        config.scale.0, config.input_kib, config.seed
    );
    for s in sections {
        println!("{s}");
    }
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}
