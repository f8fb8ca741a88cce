//! `cabench noise`: the study behind the measurement loop (NOISE.md). It
//! times back-to-back scan passes for the whole window, each bracketed by
//! yardstick readings, then asks of that one series how much an estimate
//! would move between *contiguous* blocks of passes and between
//! *interleaved* subsets of equally many passes that each span the whole
//! window — for the minimum, the fast decile and the median, on the
//! wall-clock times and on the times at reference host speed.

use crate::inputs::Inputs;
use crate::spec::Workload;
use crate::stats::{median, percentile, sorted};
use crate::yardstick;
use cache_automaton::serve::daemon::compile_rules;
use std::time::Instant;

/// Blocks (or subsets) the series is cut into.
const GROUPS: usize = 10;

type Estimator = fn(&[f64]) -> f64;

/// (max − min) ÷ median of one estimate taken over each group.
fn movement(groups: &[Vec<f64>], estimate: Estimator) -> f64 {
    let estimates: Vec<f64> = groups.iter().map(|g| estimate(g)).collect();
    let s = sorted(&estimates);
    (s[s.len() - 1] - s[0]) / median(&estimates)
}

pub fn contiguous(series: &[f64], groups: usize) -> Vec<Vec<f64>> {
    let len = series.len() / groups;
    (0..groups).map(|g| series[g * len..(g + 1) * len].to_vec()).collect()
}

pub fn interleaved(series: &[f64], groups: usize) -> Vec<Vec<f64>> {
    let len = series.len() / groups;
    (0..groups).map(|g| (0..len).map(|i| series[i * groups + g]).collect()).collect()
}

pub fn study(spec: &Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let inputs = Inputs::build(spec, spec.scale, seed);
    let ca = crate::run::automaton(spec).no_disk_cache().build();
    let program = compile_rules(&ca, &inputs.rules).map_err(|e| format!("compile: {e}"))?;
    let started = Instant::now();
    let (mut wall, mut normalized, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut before = yardstick::run();
    while started.elapsed().as_secs_f64() < seconds || wall.len() < GROUPS * 3 {
        let pass = Instant::now();
        std::hint::black_box(program.run(&inputs.scan).matches.len());
        let secs = pass.elapsed().as_secs_f64();
        let after = yardstick::run();
        let slowdown = yardstick::slowdown(before, after);
        before = after;
        wall.push(secs);
        normalized.push(secs / slowdown);
        slowdowns.push(slowdown);
    }
    let estimators: [(&str, Estimator); 3] = [
        ("min", |g| sorted(g)[0]),
        ("p10", |g| percentile(&sorted(g), 0.10)),
        ("median", |g| median(g)),
    ];
    let s = sorted(&slowdowns);
    println!(
        "{}: {} scan passes of {} KiB in {:.1} s; {GROUPS} groups of {} passes; \
         host slowdown min {:.2} median {:.2} max {:.2}",
        spec.name,
        wall.len(),
        inputs.scan.len() >> 10,
        started.elapsed().as_secs_f64(),
        wall.len() / GROUPS,
        s[0],
        median(&slowdowns),
        s[s.len() - 1]
    );
    println!(
        "| workload | estimator | wall clock: contiguous blocks | interleaved subsets \
         | at reference speed: contiguous blocks | interleaved subsets |"
    );
    println!("|---|---|---|---|---|---|");
    for (name, estimate) in estimators {
        let moves = |series: &[f64], cut: fn(&[f64], usize) -> Vec<Vec<f64>>| {
            movement(&cut(series, GROUPS), estimate) * 100.0
        };
        println!(
            "| {} | {name} | {:.2} % | {:.2} % | {:.2} % | {:.2} % |",
            spec.name,
            moves(&wall, contiguous),
            moves(&wall, interleaved),
            moves(&normalized, contiguous),
            moves(&normalized, interleaved)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_moves_contiguous_blocks_not_interleaved_subsets() {
        // 100 passes; passes 40..60 run 50 % slow (one burst)
        let series: Vec<f64> =
            (0..100).map(|i| if (40..60).contains(&i) { 1.5 } else { 1.0 }).collect();
        let p10 = |g: &[f64]| percentile(&sorted(g), 0.10);
        assert!(movement(&contiguous(&series, 10), p10) > 0.4);
        assert_eq!(movement(&interleaved(&series, 10), p10), 0.0);
        assert_eq!(contiguous(&series, 10)[4], vec![1.5; 10]);
        assert_eq!(interleaved(&series, 10)[0].len(), 10);
    }
}
