//! What correct output is. Match events come from the independent
//! reference engine (`ca_automata::engine::SparseEngine`) run over the
//! generator's automaton — never from the fabric under test. Simulated
//! statistics (`ExecStats`) have no second source, so they are pinned for
//! the default seed and, on every seed, must agree between the in-process
//! scan and the daemon and stay identical from round to round.

use crate::inputs::Inputs;
use crate::json::Value;
use cache_automaton::automata::engine::{Engine, SparseEngine};
use cache_automaton::{ExecStats, MatchEvent};

/// FNV-1a, 64 bit. Written out here so a digest pinned today means the
/// same thing after any change to the repository's own hashers.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a match stream: `(position, code)` pairs in canonical
/// (position, code) order. Duplicates are *not* removed — an engine that
/// reports an event twice must not pass.
pub fn match_digest(events: &[MatchEvent]) -> u64 {
    let mut ordered = events.to_vec();
    ordered.sort_unstable();
    ordered
        .iter()
        .fold(Digest::new().u64(ordered.len() as u64), |d, e| d.u64(e.pos).u64(u64::from(e.code.0)))
        .value()
}

/// Digest of every `ExecStats` field, per-partition counts included.
pub fn exec_digest(exec: &ExecStats) -> u64 {
    let scalars = [
        exec.symbols,
        exec.cycles,
        exec.active_partition_cycles,
        exec.matched_total,
        exec.g1_signals,
        exec.g4_signals,
        exec.reports,
        exec.output_interrupts,
        exec.fifo_refills,
        exec.per_partition_active.len() as u64,
    ];
    scalars.iter().chain(&exec.per_partition_active).fold(Digest::new(), |d, &v| d.u64(v)).value()
}

/// The reference answer for one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub matches: u64,
    pub events: usize,
}

pub struct Oracle {
    pub scan: Expected,
    pub streams: Vec<Expected>,
    pub requests: Vec<Expected>,
}

impl Oracle {
    pub fn compute(inputs: &Inputs) -> Oracle {
        let mut engine = SparseEngine::new(&inputs.nfa);
        let mut expect = |input: &[u8]| {
            let events = engine.run(input);
            Expected { matches: match_digest(&events), events: events.len() }
        };
        Oracle {
            scan: expect(&inputs.scan),
            streams: inputs.streams.iter().map(|s| expect(s)).collect(),
            requests: inputs.requests.iter().map(|r| expect(r)).collect(),
        }
    }
}

/// Checks one program output against the reference; `Err` says what differs.
pub fn check(
    what: &str,
    events: &[MatchEvent],
    exec: &ExecStats,
    want: &Expected,
    want_exec: Option<&ExecStats>,
    input_len: usize,
) -> Result<(), String> {
    if events.len() != want.events || match_digest(events) != want.matches {
        return Err(format!(
            "{what}: {} events (digest {:016x}) but the reference engine reports {} ({:016x})",
            events.len(),
            match_digest(events),
            want.events,
            want.matches
        ));
    }
    if exec.symbols != input_len as u64 || exec.reports != want.events as u64 {
        return Err(format!(
            "{what}: ExecStats count {} symbols / {} reports for {input_len} bytes / {} events",
            exec.symbols, exec.reports, want.events
        ));
    }
    match want_exec {
        Some(want_exec) if want_exec != exec => {
            Err(format!("{what}: ExecStats differ from the in-process scan of the same bytes"))
        }
        _ => Ok(()),
    }
}

fn fold(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(Digest::new(), Digest::u64).value()
}

fn hex(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

fn phase_pins(input: u64, matches: u64, events: usize, exec: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("input", hex(input)),
        ("matches", hex(matches)),
        ("events", Value::Num(events as f64)),
        ("exec", hex(exec)),
    ]
}

/// Everything pinned for one workload at one seed (`expected/seed2017.json`):
/// digests of the rules, of every input, of the reference engine's matches,
/// and of the in-process `ExecStats` of each input (`exec_*`). The scan
/// phase spells its counters out, so a mismatch names a field.
pub fn pins(
    inputs: &Inputs,
    oracle: &Oracle,
    exec_scan: &ExecStats,
    exec_streams: &[ExecStats],
    exec_requests: &[ExecStats],
) -> Value {
    let many = |inputs: &[Vec<u8>], expected: &[Expected], exec: &[ExecStats]| {
        Value::obj(phase_pins(
            fold(inputs.iter().map(|i| Digest::new().bytes(i).value())),
            fold(expected.iter().map(|e| e.matches)),
            expected.iter().map(|e| e.events).sum(),
            fold(exec.iter().map(exec_digest)),
        ))
    };
    let c = exec_scan;
    let counters = [
        ("symbols", c.symbols),
        ("cycles", c.cycles),
        ("active_partition_cycles", c.active_partition_cycles),
        ("matched_total", c.matched_total),
        ("g1_signals", c.g1_signals),
        ("g4_signals", c.g4_signals),
        ("reports", c.reports),
        ("output_interrupts", c.output_interrupts),
        ("fifo_refills", c.fifo_refills),
        ("partitions", c.per_partition_active.len() as u64),
    ];
    let mut scan = phase_pins(
        Digest::new().bytes(&inputs.scan).value(),
        oracle.scan.matches,
        oracle.scan.events,
        exec_digest(exec_scan),
    );
    scan.push(("counters", Value::obj(counters.map(|(name, v)| (name, Value::Num(v as f64))))));
    Value::obj([
        ("rules", hex(Digest::new().bytes(inputs.rules.as_bytes()).value())),
        ("states", Value::Num(inputs.nfa.len() as f64)),
        ("scan", Value::obj(scan)),
        ("serve", many(&inputs.streams, &oracle.streams, exec_streams)),
        ("latency", many(&inputs.requests, &oracle.requests, exec_requests)),
    ])
}

/// How `got` differs from what `expected/seed2017.json` pins for `workload`
/// at [`crate::spec::DEFAULT_SEED`] (empty when it does not).
pub fn differences_from_pinned(workload: &str, got: &Value) -> Vec<String> {
    let pinned = crate::json::parse(include_str!("../expected/seed2017.json"))
        .ok()
        .and_then(|doc| doc.get("workloads")?.get(workload).cloned());
    match pinned {
        Some(pinned) => differences(got, &pinned, workload),
        None => vec![format!("{workload}: nothing pinned in expected/seed2017.json")],
    }
}

/// Lines describing how `got` differs from the pinned document (empty when
/// it does not).
fn differences(got: &Value, pinned: &Value, path: &str) -> Vec<String> {
    match (got, pinned) {
        (Value::Obj(g), Value::Obj(p)) => {
            let mut out = Vec::new();
            for (key, want) in p {
                match g.iter().find(|(k, _)| k == key) {
                    Some((_, have)) => {
                        out.extend(differences(have, want, &format!("{path}/{key}")))
                    }
                    None => out.push(format!("{path}/{key}: missing")),
                }
            }
            for (key, _) in g {
                if !p.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}/{key}: not pinned"));
                }
            }
            out
        }
        (g, p) if g == p => Vec::new(),
        (g, p) => vec![format!("{path}: {} but pinned {}", g.compact(), p.compact())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_automaton::ReportCode;

    #[test]
    fn digests_are_stable() {
        // FNV-1a test vectors
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::new().bytes(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Digest::new().bytes(b"foobar").value(), 0x8594_4171_f739_67e8);
        let events = [MatchEvent::new(9, ReportCode(2)), MatchEvent::new(3, ReportCode(7))];
        assert_eq!(format!("{:016x}", match_digest(&events)), "3259f818a003fb28");
    }

    #[test]
    fn match_digest_is_order_free_but_counts_duplicates() {
        let a = MatchEvent::new(3, ReportCode(7));
        let b = MatchEvent::new(9, ReportCode(2));
        assert_eq!(match_digest(&[a, b]), match_digest(&[b, a]));
        assert_ne!(match_digest(&[a, b]), match_digest(&[a, b, b]));
        assert_ne!(match_digest(&[a]), match_digest(&[MatchEvent::new(3, ReportCode(8))]));
        assert_ne!(match_digest(&[]), match_digest(&[a]));
    }

    #[test]
    fn exec_digest_sees_every_field() {
        let base = ExecStats { per_partition_active: vec![1, 2], ..Default::default() };
        let variants = [
            ExecStats { symbols: 1, ..base.clone() },
            ExecStats { cycles: 1, ..base.clone() },
            ExecStats { active_partition_cycles: 1, ..base.clone() },
            ExecStats { matched_total: 1, ..base.clone() },
            ExecStats { g1_signals: 1, ..base.clone() },
            ExecStats { g4_signals: 1, ..base.clone() },
            ExecStats { reports: 1, ..base.clone() },
            ExecStats { output_interrupts: 1, ..base.clone() },
            ExecStats { fifo_refills: 1, ..base.clone() },
            ExecStats { per_partition_active: vec![2, 1], ..base.clone() },
        ];
        let mut seen = vec![exec_digest(&base)];
        for v in &variants {
            let d = exec_digest(v);
            assert!(!seen.contains(&d));
            seen.push(d);
        }
    }

    #[test]
    fn check_names_what_differs() {
        let events = [MatchEvent::new(3, ReportCode(7))];
        let want = Expected { matches: match_digest(&events), events: 1 };
        let exec = ExecStats { symbols: 10, reports: 1, ..Default::default() };
        assert!(check("x", &events, &exec, &want, Some(&exec), 10).is_ok());
        assert!(check("x", &[], &exec, &want, None, 10).unwrap_err().contains("reference engine"));
        assert!(check("x", &events, &exec, &want, None, 11).unwrap_err().contains("symbols"));
        let other = ExecStats { cycles: 5, ..exec.clone() };
        assert!(check("x", &events, &exec, &want, Some(&other), 10)
            .unwrap_err()
            .contains("in-process"));
    }

    #[test]
    fn differences_walks_both_documents() {
        let a = Value::obj([("x", Value::Num(1.0)), ("y", Value::obj([("z", Value::str("a"))]))]);
        let b = Value::obj([("x", Value::Num(1.0)), ("y", Value::obj([("z", Value::str("b"))]))]);
        assert!(differences(&a, &a, "").is_empty());
        assert_eq!(differences(&a, &b, "w"), vec!["w/y/z: \"a\" but pinned \"b\"".to_string()]);
    }
}
