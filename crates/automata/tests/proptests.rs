//! Property-based tests for the automata toolchain.
//!
//! The heart of the suite is *differential testing*: the Glushkov and
//! Thompson compilation routes, and the sparse / bit-parallel / lazy-DFA
//! engines, are all independent implementations that must agree exactly on
//! randomly generated patterns, automata and inputs.

use ca_automata::analysis::connected_components;
use ca_automata::anml::{parse_anml, to_anml};
use ca_automata::charclass::CharClass;
use ca_automata::engine::{BitsetEngine, DfaEngine, Engine, MatchEvent, SparseEngine};
use ca_automata::homogeneous::{HomNfa, ReportCode, StartKind, State, StateId};
use ca_automata::optimize::{
    merge_bidirectional, merge_common_prefixes, merge_common_suffixes, space_optimize,
};
use ca_automata::regex::{compile_pattern, compile_pattern_thompson, parse};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------- strategies

/// A random pattern string over a tiny alphabet, biased toward collisions.
fn pattern_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        4 => prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(str::to_string),
        1 => Just(".".to_string()),
        1 => Just("[ab]".to_string()),
        1 => Just("[^a]".to_string()),
        1 => Just("[b-d]".to_string()),
    ];
    let unit = leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // concatenation
            prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.concat()),
            // alternation
            prop::collection::vec(inner.clone(), 2..4).prop_map(|v| format!("({})", v.join("|"))),
            // quantifiers applied to a parenthesized body
            (inner.clone(), prop::sample::select(vec!["*", "+", "?", "{2}", "{1,3}", "{2,}"]))
                .prop_map(|(body, q)| format!("({body}){q}")),
        ]
    });
    // Prefix with a mandatory literal so the pattern is never nullable.
    (prop::sample::select(vec!["a", "b", "c"]), unit)
        .prop_map(|(head, tail)| format!("{head}{tail}"))
}

/// Random input over a alphabet that overlaps the pattern alphabet.
fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"abcde".to_vec()), 0..60)
}

/// A random well-formed homogeneous NFA with labels over `a..=d`, the
/// alphabet [`input_strategy`] exercises.
fn nfa_strategy() -> impl Strategy<Value = HomNfa> {
    let label = prop::collection::vec(prop::sample::select(b"abcd".to_vec()), 1..4);
    nfa_with_labels(label.prop_map(|bytes| CharClass::of(&bytes)))
}

/// Like [`nfa_strategy`] with labels over all 256 byte values, biased
/// towards what the ANML text has to escape: the entity characters
/// `" & < >`, the class metacharacters `] ^ - \ [`, control and high bytes
/// (`\n`, `\xNN`), plus ranges, negated classes and the match-all `*`.
fn wide_nfa_strategy() -> impl Strategy<Value = HomNfa> {
    let byte = prop_oneof![
        2 => prop::sample::select(b"\"&<>]^-\\[\n\r\t\x00\xff".to_vec()),
        1 => any::<u8>(),
    ];
    let bytes = prop::collection::vec(byte, 1..6).prop_map(|bytes| CharClass::of(&bytes));
    nfa_with_labels(prop_oneof![
        6 => bytes.clone(),
        2 => bytes.prop_map(|class| class.negate()),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| CharClass::range(a.min(b), a.max(b))),
        1 => Just(CharClass::ALL),
    ])
}

fn nfa_with_labels(label: impl Strategy<Value = CharClass>) -> impl Strategy<Value = HomNfa> {
    let state = (
        label,
        0..3u8,                     // start kind selector
        prop::bool::weighted(0.25), // reporting?
    );
    prop::collection::vec(state, 1..24).prop_flat_map(|specs| {
        let n = specs.len();
        let edges = prop::collection::vec((0..n, 0..n), 0..n * 3);
        (Just(specs), edges).prop_map(|(specs, edges)| {
            let mut nfa = HomNfa::new();
            for (i, (label, start_sel, report)) in specs.iter().enumerate() {
                let start = match start_sel {
                    0 => StartKind::AllInput,
                    1 => StartKind::StartOfData,
                    _ => StartKind::None,
                };
                let report = if *report { Some(ReportCode(i as u32)) } else { None };
                nfa.add_state_full(*label, start, report);
            }
            for (a, b) in edges {
                nfa.add_edge(ca_automata::StateId(a as u32), ca_automata::StateId(b as u32));
            }
            // Guarantee at least one start and one report so runs are
            // meaningful.
            let s0 = ca_automata::StateId(0);
            if nfa.start_states().is_empty() {
                nfa.state_mut(s0).start = StartKind::AllInput;
            }
            if nfa.reporting_states().is_empty() {
                nfa.state_mut(s0).report = Some(ReportCode(999));
            }
            nfa
        })
    })
}

fn sorted(mut ev: Vec<MatchEvent>) -> Vec<MatchEvent> {
    ev.sort();
    ev
}

// ------------------------------------------------------------------ charclass

proptest! {
    #[test]
    fn charclass_union_commutes(a in prop::collection::vec(any::<u8>(), 0..12),
                                b in prop::collection::vec(any::<u8>(), 0..12)) {
        let (ca, cb) = (CharClass::of(&a), CharClass::of(&b));
        prop_assert_eq!(ca.union(&cb), cb.union(&ca));
        prop_assert_eq!(ca.intersect(&cb), cb.intersect(&ca));
    }

    #[test]
    fn charclass_demorgan(a in prop::collection::vec(any::<u8>(), 0..12),
                          b in prop::collection::vec(any::<u8>(), 0..12)) {
        let (ca, cb) = (CharClass::of(&a), CharClass::of(&b));
        prop_assert_eq!(ca.union(&cb).negate(), ca.negate().intersect(&cb.negate()));
        prop_assert_eq!(ca.intersect(&cb).negate(), ca.negate().union(&cb.negate()));
    }

    #[test]
    fn charclass_difference_consistent(a in prop::collection::vec(any::<u8>(), 0..12),
                                       b in prop::collection::vec(any::<u8>(), 0..12)) {
        let (ca, cb) = (CharClass::of(&a), CharClass::of(&b));
        prop_assert_eq!(ca.difference(&cb), ca.intersect(&cb.negate()));
        prop_assert!(ca.difference(&cb).is_subset(&ca));
    }

    #[test]
    fn charclass_iter_matches_contains(a in prop::collection::vec(any::<u8>(), 0..20)) {
        let c = CharClass::of(&a);
        let via_iter: Vec<u8> = c.iter().collect();
        prop_assert_eq!(via_iter.len() as u32, c.len());
        for b in &via_iter {
            prop_assert!(c.contains(*b));
        }
        // ranges() covers exactly the members
        let mut from_ranges = CharClass::new();
        for (lo, hi) in c.ranges() {
            from_ranges = from_ranges.union(&CharClass::range(lo, hi));
        }
        prop_assert_eq!(from_ranges, c);
    }
}

// ----------------------------------------------------------------- compilers

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Glushkov and Thompson+homogenize accept identical languages.
    #[test]
    fn glushkov_equals_thompson(pattern in pattern_strategy(), input in input_strategy()) {
        let g = compile_pattern(&pattern).unwrap();
        let t = compile_pattern_thompson(&pattern).unwrap();
        let eg = sorted(SparseEngine::new(&g).run(&input));
        let et = sorted(SparseEngine::new(&t).run(&input));
        prop_assert_eq!(eg, et, "pattern {} diverged", pattern);
    }

    /// The canonical Display of a parsed pattern re-parses to the same AST.
    #[test]
    fn display_reparses(pattern in pattern_strategy()) {
        let first = parse(&pattern).unwrap();
        let rendered = first.to_string();
        let second = parse(&rendered).unwrap();
        prop_assert_eq!(first.ast, second.ast, "via {}", rendered);
    }
}

// ------------------------------------------------------------------- engines

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sparse, bitset and lazy-DFA engines agree on random automata.
    #[test]
    fn engines_agree(nfa in nfa_strategy(), input in input_strategy()) {
        let es = sorted(SparseEngine::new(&nfa).run(&input));
        let eb = sorted(BitsetEngine::new(&nfa).run(&input));
        prop_assert_eq!(&es, &eb, "sparse vs bitset");
        let mut dfa = DfaEngine::new(&nfa);
        if let Ok(ed) = dfa.try_run(&input) {
            prop_assert_eq!(&es, &sorted(ed), "sparse vs dfa");
        }
    }

    /// Engine activity statistics are consistent between implementations.
    #[test]
    fn engine_stats_agree(nfa in nfa_strategy(), input in input_strategy()) {
        let (_, ss) = SparseEngine::new(&nfa).run_stats(&input);
        let (_, bs) = BitsetEngine::new(&nfa).run_stats(&input);
        prop_assert_eq!(ss.cycles, bs.cycles);
        prop_assert_eq!(ss.total_matched, bs.total_matched);
        prop_assert_eq!(ss.max_matched, bs.max_matched);
        prop_assert_eq!(ss.reports, bs.reports);
    }
}

// ------------------------------------------------------------- optimizations

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Prefix merging never changes the match stream.
    #[test]
    fn prefix_merge_preserves_language(nfa in nfa_strategy(), input in input_strategy()) {
        let (merged, stats) = merge_common_prefixes(&nfa);
        prop_assert!(merged.len() <= nfa.len());
        prop_assert_eq!(stats.states_after, merged.len());
        let before = sorted(SparseEngine::new(&nfa).run(&input));
        let after = sorted(SparseEngine::new(&merged).run(&input));
        prop_assert_eq!(before, after);
    }

    /// Suffix merging never changes the match stream.
    #[test]
    fn suffix_merge_preserves_language(nfa in nfa_strategy(), input in input_strategy()) {
        let (merged, stats) = ca_automata::optimize::merge_common_suffixes(&nfa);
        prop_assert!(merged.len() <= nfa.len());
        prop_assert_eq!(stats.states_after, merged.len());
        let before = sorted(SparseEngine::new(&nfa).run(&input));
        let after = sorted(SparseEngine::new(&merged).run(&input));
        prop_assert_eq!(before, after);
    }

    /// Bidirectional merging never changes the match stream and never does
    /// worse than prefix merging alone.
    #[test]
    fn bidirectional_merge_preserves_language(nfa in nfa_strategy(), input in input_strategy()) {
        let (both, _) = ca_automata::optimize::merge_bidirectional(&nfa);
        let (prefix_only, _) = merge_common_prefixes(&nfa);
        prop_assert!(both.len() <= prefix_only.len());
        let before = sorted(SparseEngine::new(&nfa).run(&input));
        let after = sorted(SparseEngine::new(&both).run(&input));
        prop_assert_eq!(before, after);
    }

    /// The full space-optimization pipeline preserves the match stream.
    #[test]
    fn space_optimize_preserves_language(nfa in nfa_strategy(), input in input_strategy()) {
        let (opt, _) = space_optimize(&nfa);
        let before = sorted(SparseEngine::new(&nfa).run(&input));
        let after = sorted(SparseEngine::new(&opt).run(&input));
        prop_assert_eq!(before, after);
    }

    /// Merging cannot *increase* the number of connected components.
    #[test]
    fn merge_does_not_fragment(nfa in nfa_strategy()) {
        let (merged, _) = merge_common_prefixes(&nfa);
        let before = connected_components(&nfa).len();
        let after = connected_components(&merged).len();
        prop_assert!(after <= before);
    }
}

// --------------------------------------------- merging: the round reference

/// One round of the round-based merging the optimizer's worklist engine
/// replaced: group every state by (label, start kind, report code, sorted
/// predecessor ids — successor ids when `suffix` — with its own id written
/// as `u32::MAX`), then rebuild with each group folded onto its smallest
/// member, survivors in id order and every edge added in (state, successor
/// list) order. `None` when nothing merges.
fn reference_round(nfa: &HomNfa, suffix: bool) -> Option<HomNfa> {
    let pred = nfa.predecessors();
    let mut groups: HashMap<(&State, Vec<u32>), StateId> = HashMap::new();
    let mut repr = Vec::with_capacity(nfa.len());
    for (id, st) in nfa.iter() {
        let side = if suffix { nfa.successors(id) } else { &pred[id.index()] };
        let mut key: Vec<u32> =
            side.iter().map(|s| if *s == id { u32::MAX } else { s.0 }).collect();
        key.sort_unstable();
        key.dedup();
        repr.push(*groups.entry((st, key)).or_insert(id));
    }
    if repr.iter().enumerate().all(|(i, r)| r.index() == i) {
        return None;
    }
    let mut new_id = vec![None; nfa.len()];
    let mut out = HomNfa::new();
    for (id, st) in nfa.iter() {
        if repr[id.index()] == id {
            new_id[id.index()] = Some(out.add_state_full(st.label, st.start, st.report));
        }
    }
    let map = |s: StateId| new_id[repr[s.index()].index()].expect("representative kept");
    for (id, _) in nfa.iter() {
        for &t in nfa.successors(id) {
            out.add_edge(map(id), map(t));
        }
    }
    Some(out)
}

/// Rounds until one merges nothing — no round cap.
fn reference_merge(nfa: &HomNfa, suffix: bool) -> HomNfa {
    let mut current = nfa.clone();
    while let Some(next) = reference_round(&current, suffix) {
        current = next;
    }
    current
}

/// `merge_bidirectional`'s alternation over the reference rounds.
fn reference_bidirectional(nfa: &HomNfa) -> HomNfa {
    let mut current = nfa.clone();
    for _ in 0..17 {
        let len_before = current.len();
        current = reference_merge(&reference_merge(&current, false), true);
        if current.len() == len_before {
            break;
        }
    }
    current
}

/// Random automata that merge over several rounds: a small forest over
/// labels `abc` (roots are `AllInput` or `StartOfData` starts, every other
/// state hangs off one of the first three; self-loops, back edges, report
/// codes 0 and 1), copied 2–3 times with a few relabelled states, toggled
/// reports and toggled self-loops in the later copies, and the copies'
/// states interleaved in random id order. Shared structure then merges one
/// level per round, and a class pools members whose ids interleave.
fn cyclic_nfa_strategy() -> impl Strategy<Value = HomNfa> {
    let state = (
        prop::sample::select(b"abc".to_vec()),
        0..8u8,                       // 0 AllInput root, 1 StartOfData root, else a child
        any::<prop::sample::Index>(), // parent
        0..4u8,                       // report code 0 or 1, else none
        0..8u8,                       // 0 self-loop, 1 back edge, else neither
        any::<prop::sample::Index>(), // back-edge target
    );
    let edit = (any::<prop::sample::Index>(), 0..3u8, prop::sample::select(b"abc".to_vec()));
    let base = prop::collection::vec(state, 1..9);
    let edits = prop::collection::vec(edit, 1..6);
    let order = prop::collection::vec(any::<u32>(), 24..25);
    (base, 2..4usize, edits, order).prop_map(|(base, copies, edits, order)| {
        let len = base.len();
        let mut specs: Vec<_> = (0..copies).flat_map(|_| base.iter().copied()).collect();
        let edited = specs.len() - len;
        for (at, kind, byte) in edits {
            let spec = &mut specs[len + at.index(edited)];
            match kind {
                0 => spec.0 = byte,
                1 => spec.3 = if spec.3 == 0 { 2 } else { 0 },
                _ => spec.4 = if spec.4 == 0 { 2 } else { 0 },
            }
        }
        let mut by_id: Vec<usize> = (0..specs.len()).collect();
        by_id.sort_by_key(|&f| (order[f], f));
        let mut id_of = vec![StateId(0); specs.len()];
        let mut nfa = HomNfa::new();
        for f in by_id {
            let (byte, kind, _, report, _, _) = specs[f];
            let start = match kind {
                0 => StartKind::AllInput,
                1 => StartKind::StartOfData,
                _ if f % len == 0 => StartKind::AllInput,
                _ => StartKind::None,
            };
            let report = (report < 2).then(|| ReportCode(report.into()));
            id_of[f] = nfa.add_state_full(CharClass::byte(byte), start, report);
        }
        for (f, &(_, kind, parent, _, extra, back)) in specs.iter().enumerate() {
            let (copy, i) = (f - f % len, f % len);
            if kind > 1 && i > 0 {
                nfa.add_edge(id_of[copy + parent.index(i.min(3))], id_of[f]);
            }
            match extra {
                0 => nfa.add_edge(id_of[f], id_of[f]),
                1 => nfa.add_edge(id_of[f], id_of[copy + back.index(i + 1)]),
                _ => {}
            }
        }
        nfa
    })
}

/// The worklist engine's output is the round-based output exactly, for
/// prefix, suffix and bidirectional merging: same states in the same
/// order, same successor lists in the same order.
fn equals_the_round_reference(nfa: &HomNfa) -> Result<(), TestCaseError> {
    prop_assert_eq!(merge_common_prefixes(nfa).0, reference_merge(nfa, false));
    prop_assert_eq!(merge_common_suffixes(nfa).0, reference_merge(nfa, true));
    prop_assert_eq!(merge_bidirectional(nfa).0, reference_bidirectional(nfa));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// On automata with few merges…
    #[test]
    fn merging_equals_the_round_reference(nfa in nfa_strategy()) {
        equals_the_round_reference(&nfa)?;
    }

    /// …and on cyclic automata that merge over several rounds.
    #[test]
    fn cyclic_merging_equals_the_round_reference(nfa in cyclic_nfa_strategy()) {
        equals_the_round_reference(&nfa)?;
    }
}

// -------------------------------------------------------------------- stride

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The 4-bit stride transform preserves the match stream exactly
    /// (positions mapped back to byte offsets).
    #[test]
    fn nibble_transform_preserves_language(nfa in nfa_strategy(), input in input_strategy()) {
        use ca_automata::stride::{byte_position, to_nibble_nfa, to_nibble_stream};
        let nibble = to_nibble_nfa(&nfa);
        prop_assert!(nibble.validate().is_ok() || nibble.is_empty());
        let mut transformed = SparseEngine::new(&nibble).run(&to_nibble_stream(&input));
        for e in transformed.iter_mut() {
            e.pos = byte_position(e.pos);
        }
        let expect = sorted(SparseEngine::new(&nfa).run(&input));
        prop_assert_eq!(expect, sorted(transformed));
    }

    /// Inflation is bounded by 32x (two states per rectangle, <= 16
    /// rectangles per state).
    #[test]
    fn nibble_inflation_bounded(nfa in nfa_strategy()) {
        use ca_automata::stride::to_nibble_nfa_with_stats;
        let (_, stats) = to_nibble_nfa_with_stats(&nfa);
        prop_assert!(stats.states_after <= 32 * stats.states_before);
        prop_assert!(stats.max_rectangles <= 16);
        prop_assert!(stats.inflation() >= 2.0 || stats.states_before == 0);
    }
}

// --------------------------------------------------------------------- anml

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ANML serialization round-trips structurally, through every escape
    /// the writer and the parser know.
    #[test]
    fn anml_roundtrip(nfa in wide_nfa_strategy()) {
        let text = to_anml(&nfa, "prop");
        let back = parse_anml(&text).unwrap();
        prop_assert_eq!(back, nfa);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Damaged ANML text — truncated, or with characters replaced, inserted
    /// and deleted (always valid UTF-8: `parse_anml` takes a `&str`) —
    /// never panics the parser. An error points at a line the text has; an
    /// automaton that still parses is structurally sound and round-trips.
    #[test]
    fn anml_mutations_fail_cleanly(
        nfa in wide_nfa_strategy(),
        edits in prop::collection::vec(
            (
                0..4u8,
                any::<prop::sample::Index>(),
                prop::sample::select("<>\"/=&;?!-[]\\ \n\tsx0é\u{feff}".chars().collect::<Vec<_>>()),
            ),
            1..4,
        ),
    ) {
        let mut text = to_anml(&nfa, "prop");
        for (kind, at, c) in edits {
            let at = at.index(text.len() + 1);
            let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).expect("0 is a boundary");
            match kind {
                0 => text.truncate(at),
                1 => text.insert(at, c),
                _ if at == text.len() => {}
                2 => drop(text.remove(at)),
                _ => {
                    text.remove(at);
                    text.insert(at, c);
                }
            }
        }
        match parse_anml(&text) {
            Ok(mut back) => {
                // An edit may have taken the only start or report away (an
                // attribute the parser does not know is skipped); the rest
                // of what `validate` checks is the parser's to keep.
                if !back.is_empty() {
                    let first = back.state_mut(ca_automata::StateId(0));
                    first.start = StartKind::AllInput;
                    first.report = Some(ReportCode(0));
                }
                prop_assert!(back.validate().is_ok(), "{:?} from {:?}", back.validate(), text);
                prop_assert_eq!(parse_anml(&to_anml(&back, "again")).unwrap(), back);
            }
            Err(ca_automata::Error::ParseAnml { line, .. }) => {
                let lines = 1 + text.matches('\n').count();
                prop_assert!((1..=lines).contains(&line), "line {} of {} in {:?}", line, lines, text);
            }
            Err(other) => prop_assert!(false, "not a parse error: {}", other),
        }
    }
}

// ------------------------------------------------------------------ patterns

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// compile_pattern output is always a valid automaton whose reported
    /// matches dedupe per (pos, code).
    #[test]
    fn compiled_patterns_validate(pattern in pattern_strategy(), input in input_strategy()) {
        let nfa = compile_pattern(&pattern).unwrap();
        prop_assert!(nfa.validate().is_ok());
        let ev = SparseEngine::new(&nfa).run(&input);
        let mut dedup = ev.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), ev.len(), "duplicate events for {}", pattern);
    }
}
