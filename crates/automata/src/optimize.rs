//! Automaton optimizations for the space-optimized (CA_S) flow.
//!
//! The paper's space-optimized design first runs "state-merging algorithms
//! ... that merge common prefixes across patterns" (§3.1) before mapping.
//! Two states can be merged whenever they are *activation-equivalent*: same
//! label, same start kind and identical predecessor sets imply they are
//! enabled in exactly the same cycles, so one copy (with the union of the
//! out-edges) behaves identically. Iterating this to a fixpoint collapses
//! shared prefixes such as `art`/`artifact` exactly as the paper describes;
//! the dual over successor sets collapses shared suffixes.
//!
//! # One worklist engine
//!
//! Both directions run on one engine. A state's *signature* is its label,
//! start kind and report code plus the set of classes of its predecessors
//! (successors, for suffixes), its own class written as a sentinel so that
//! two states differing only in looping on themselves still merge. A class
//! is named by its representative, the smallest state id in it.
//!
//! The engine works in generations over a FIFO worklist seeded with every
//! state in id order. A generation signs the queued classes, groups each
//! with the class already holding its signature, and merges every group
//! at its end; the next generation re-signs only what those merges can
//! have changed — the states with a neighbour in an absorbed class, the
//! only classes whose name went away. It stops at the first generation
//! that merges nothing: the least fixpoint of "merge equal signatures",
//! reached without a round cap. Because merges wait for the end of their
//! generation, the generations are exactly the rounds of the plain
//! algorithm (sign every state, rebuild, repeat — kept as the reference in
//! `tests/proptests.rs`): the same classes and the same out-edge order (a
//! class's out-edges are its members', concatenated in the order the
//! rounds pooled them). Merging as soon as a match is found can pool a
//! class's members in another order, and the compiler's packing sees
//! successor order.
//!
//! Signatures live in one table that is never cleaned. That is sound
//! because a key names only the representatives that were current when it
//! was inserted, and an absorbed id never again appears in a freshly
//! computed signature: a key whose class's signature has since changed
//! names an absorbed id (a merge that keeps every named class alive keeps
//! the signature too), so no fresh key can match it.
//!
//! Cost: one signing pass over the automaton, then per generation only the
//! re-signed classes' neighbour lists, then one rebuild — not a full
//! signing pass and rebuild per round, of which Snort needs 16 and
//! EntityResolution 33.

use crate::homogeneous::{HomNfa, State, StateId};
use std::collections::HashMap;

/// Result of an optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeStats {
    /// States before the pass.
    pub states_before: usize,
    /// States after the pass.
    pub states_after: usize,
}

impl OptimizeStats {
    /// Fraction of states removed (0 when nothing merged).
    pub fn reduction(&self) -> f64 {
        if self.states_before == 0 {
            0.0
        } else {
            1.0 - self.states_after as f64 / self.states_before as f64
        }
    }
}

/// Merges activation-equivalent states to a fixpoint (common-prefix
/// merging). Returns the rewritten automaton and pass statistics.
///
/// Reporting states are only merged with states carrying the *same* report
/// code, so the observable match stream is preserved exactly.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ca_automata::regex::compile_patterns;
/// use ca_automata::optimize::merge_common_prefixes;
///
/// // "art" and "artifact" share the prefix "art".
/// let nfa = compile_patterns(&["artifact", "article"])?;
/// let (merged, stats) = merge_common_prefixes(&nfa);
/// assert!(merged.len() < nfa.len());
/// assert!(stats.reduction() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn merge_common_prefixes(nfa: &HomNfa) -> (HomNfa, OptimizeStats) {
    merge_to_fixpoint(nfa, Direction::Prefix)
}

/// Merges *observation-equivalent* states to a fixpoint (common-suffix
/// merging): two states with the same label, the same report code and
/// identical successor sets behave identically downstream, so their
/// in-edges can be pooled onto one copy.
///
/// This is the dual of [`merge_common_prefixes`] and goes beyond the
/// paper's CA_S flow (which cites prefix merging only); it is offered as
/// an extension and exercised by the `experiments ablation` harness.
/// Start kinds must also match: an all-input start is re-enabled every
/// cycle, so merging it with a non-start would change activations.
pub fn merge_common_suffixes(nfa: &HomNfa) -> (HomNfa, OptimizeStats) {
    merge_to_fixpoint(nfa, Direction::Suffix)
}

/// Which neighbours a merge signature is taken over.
#[derive(Debug, Clone, Copy)]
enum Direction {
    /// Predecessors: activation-equivalent states (common prefixes).
    Prefix,
    /// Successors: observation-equivalent states (common suffixes).
    Suffix,
}

/// End of a class's member list.
const NONE: u32 = u32::MAX;

/// The merge engine behind both directions; see the module docs.
fn merge_to_fixpoint(nfa: &HomNfa, direction: Direction) -> (HomNfa, OptimizeStats) {
    let n = nfa.len();
    let succ: Vec<&[StateId]> = nfa.iter().map(|(id, _)| nfa.successors(id)).collect();
    let pred_lists = nfa.predecessors();
    let pred: Vec<&[StateId]> = pred_lists.iter().map(Vec::as_slice).collect();
    let (signed, dependents) = match direction {
        Direction::Prefix => (&pred, &succ),
        Direction::Suffix => (&succ, &pred),
    };
    // every state's representative, and each class as a member list in the
    // order the merges pooled it: head = representative, `tail` its end
    let mut class: Vec<u32> = (0..n as u32).collect();
    let mut next = vec![NONE; n];
    let mut tail = class.clone();
    let mut table: HashMap<(&State, Vec<u32>), u32> = HashMap::with_capacity(n);
    let mut signed_in = vec![0u32; n];
    let mut queue: Vec<StateId> = nfa.iter().map(|(id, _)| id).collect();
    let mut merges: Vec<(u32, u32)> = Vec::new();
    let mut group = Vec::new();
    for generation in 1.. {
        for s in queue.drain(..) {
            let c = class[s.index()];
            if signed_in[c as usize] == generation {
                continue;
            }
            signed_in[c as usize] = generation;
            let name = |p: &StateId| match class[p.index()] {
                k if k == c => u32::MAX, // its own class: the sentinel
                k => k,
            };
            let mut key = Vec::new();
            let mut m = c;
            while m != NONE {
                key.extend(signed[m as usize].iter().map(name));
                m = next[m as usize];
            }
            key.sort_unstable();
            key.dedup();
            // a new signature is this class's; a known one names its group
            let holder = class[*table.entry((nfa.state(StateId(c)), key)).or_insert(c) as usize];
            if holder != c {
                merges.push((holder, c));
            }
        }
        if merges.is_empty() {
            break;
        }
        // each group folds onto its smallest member, absorbed classes'
        // lists appended in ascending order; their dependents are re-signed
        merges.sort_unstable();
        for pairs in merges.chunk_by(|a, b| a.0 == b.0) {
            group.clear();
            group.push(pairs[0].0);
            group.extend(pairs.iter().map(|&(_, c)| c));
            group.sort_unstable();
            let keep = group[0];
            for &absorbed in &group[1..] {
                let mut m = absorbed;
                while m != NONE {
                    class[m as usize] = keep;
                    queue.extend_from_slice(dependents[m as usize]);
                    m = next[m as usize];
                }
                next[tail[keep as usize] as usize] = absorbed;
                tail[keep as usize] = tail[absorbed as usize];
            }
        }
        merges.clear();
    }

    // survivors in id order; each one's out-edges are its members', in
    // member order, mapped through the representatives
    let mut new_id = vec![NONE; n];
    let mut out = HomNfa::new();
    for (id, st) in nfa.iter() {
        if class[id.index()] == id.0 {
            new_id[id.index()] = out.add_state_full(st.label, st.start, st.report).0;
        }
    }
    for keep in (0..n as u32).filter(|&s| class[s as usize] == s) {
        let from = StateId(new_id[keep as usize]);
        let mut m = keep;
        while m != NONE {
            for t in succ[m as usize] {
                out.add_edge(from, StateId(new_id[class[t.index()] as usize]));
            }
            m = next[m as usize];
        }
    }
    let stats = OptimizeStats { states_before: n, states_after: out.len() };
    (out, stats)
}

/// Both merges iterated jointly to a fixpoint (prefix merging can expose
/// new suffix merges and vice versa). An extension beyond the paper's CA_S
/// flow; see [`merge_common_suffixes`].
pub fn merge_bidirectional(nfa: &HomNfa) -> (HomNfa, OptimizeStats) {
    let before = nfa.len();
    let mut current = nfa.clone();
    let mut alternations = 0;
    loop {
        alternations += 1;
        let len_before = current.len();
        current = merge_common_prefixes(&current).0;
        current = merge_common_suffixes(&current).0;
        if current.len() == len_before || alternations > 16 {
            break;
        }
    }
    let stats = OptimizeStats { states_before: before, states_after: current.len() };
    (current, stats)
}

/// Removes states that are unreachable from a start state or cannot reach a
/// reporting state. Returns the pruned automaton and pass statistics.
pub fn remove_dead_states(nfa: &HomNfa) -> (HomNfa, OptimizeStats) {
    let n = nfa.len();
    // forward reachability from starts
    let mut fwd = vec![false; n];
    let mut stack: Vec<StateId> = nfa.start_states();
    for s in &stack {
        fwd[s.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &t in nfa.successors(s) {
            if !fwd[t.index()] {
                fwd[t.index()] = true;
                stack.push(t);
            }
        }
    }
    // backward reachability from reports
    let pred = nfa.predecessors();
    let mut bwd = vec![false; n];
    let mut stack: Vec<StateId> = nfa.reporting_states();
    for s in &stack {
        bwd[s.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &t in &pred[s.index()] {
            if !bwd[t.index()] {
                bwd[t.index()] = true;
                stack.push(t);
            }
        }
    }
    let keep: Vec<bool> = (0..n).map(|i| fwd[i] && bwd[i]).collect();
    let mut out = nfa.clone();
    out.retain_states(&keep);
    let stats = OptimizeStats { states_before: n, states_after: out.len() };
    (out, stats)
}

/// The full space-optimization pipeline used for CA_S automata:
/// dead-state removal followed by prefix merging to fixpoint.
pub fn space_optimize(nfa: &HomNfa) -> (HomNfa, OptimizeStats) {
    let (pruned, _) = remove_dead_states(nfa);
    let (merged, _) = merge_common_prefixes(&pruned);
    let stats = OptimizeStats { states_before: nfa.len(), states_after: merged.len() };
    (merged, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SparseEngine};
    use crate::regex::compile_patterns;

    fn assert_same_language(a: &HomNfa, b: &HomNfa, inputs: &[&[u8]]) {
        for input in inputs {
            let mut ea = SparseEngine::new(a).run(input);
            let mut eb = SparseEngine::new(b).run(input);
            ea.sort();
            eb.sort();
            assert_eq!(ea, eb, "diverged on {input:?}");
        }
    }

    #[test]
    fn shared_prefixes_merge() {
        let nfa = compile_patterns(&["artifact", "article", "artisan"]).unwrap();
        let (merged, stats) = merge_common_prefixes(&nfa);
        // "arti" x3 -> one copy saves 2*4=8 states... minus diverging tails.
        assert!(merged.len() < nfa.len());
        assert!(stats.reduction() > 0.2, "reduction {}", stats.reduction());
        assert_same_language(
            &nfa,
            &merged,
            &[b"artifact!", b"an article", b"artisan", b"artist", b"art"],
        );
    }

    #[test]
    fn distinct_reports_do_not_merge() {
        // Identical patterns with different codes must both report.
        let nfa = compile_patterns(&["abc", "abc"]).unwrap();
        let (merged, _) = merge_common_prefixes(&nfa);
        let ev = SparseEngine::new(&merged).run(b"abc");
        assert_eq!(ev.len(), 2, "both report codes must fire");
        // prefixes a,b merge; the two reporting c's stay apart
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn no_merge_when_nothing_shared() {
        let nfa = compile_patterns(&["ab", "cd"]).unwrap();
        let (merged, stats) = merge_common_prefixes(&nfa);
        assert_eq!(merged.len(), nfa.len());
        assert_eq!(stats.reduction(), 0.0);
    }

    #[test]
    fn merge_reduces_component_count() {
        use crate::analysis::connected_components;
        let nfa = compile_patterns(&["share1", "share2", "share3"]).unwrap();
        assert_eq!(connected_components(&nfa).len(), 3);
        let (merged, _) = merge_common_prefixes(&nfa);
        // merged "share" prefix joins all three patterns into one CC
        assert_eq!(connected_components(&merged).len(), 1);
        assert_same_language(&nfa, &merged, &[b"share1 share3", b"share", b"share2"]);
    }

    #[test]
    fn deep_shared_prefix_merges_to_the_fixpoint() {
        // one merge per prefix byte: a 100-byte prefix needs 100 merging
        // generations, past any round cap
        let prefix: String = (0..100u8).map(|i| char::from(b'a' + i % 26)).collect();
        let nfa = compile_patterns(&[format!("{prefix}X"), format!("{prefix}Y")]).unwrap();
        assert_eq!(nfa.len(), 202);
        let (merged, stats) = merge_common_prefixes(&nfa);
        assert_eq!(merged.len(), 102, "the shared prefix collapses completely");
        assert_eq!(stats.states_after, 102);
        let hit_x = format!("{prefix}X");
        let hit_y = format!("--{prefix}Y{prefix}X");
        let near = format!("{}Y", &prefix[1..]);
        let inputs = [hit_x.as_bytes(), hit_y.as_bytes(), near.as_bytes(), prefix.as_bytes()];
        assert_same_language(&nfa, &merged, &inputs);
    }

    #[test]
    fn out_edges_keep_the_order_rounds_pool_them() {
        // 1 and 4 merge in the first generation (same predecessor 0); 3
        // joins them in the second, once its predecessor 2 has merged into
        // 0. The merged state's out-edges are 1's, 4's, then 3's — the
        // order the rounds pooled the members in, not their id order.
        use crate::charclass::CharClass;
        use crate::homogeneous::{ReportCode, StartKind};
        let mut nfa = HomNfa::new();
        let x = CharClass::byte(b'x');
        let y = CharClass::byte(b'y');
        for (label, start) in [(x, true), (y, false), (x, true), (y, false), (y, false)] {
            let start = if start { StartKind::AllInput } else { StartKind::None };
            nfa.add_state_full(label, start, None);
        }
        for (code, byte) in b"pqr".iter().enumerate() {
            let report = Some(ReportCode(code as u32));
            nfa.add_state_full(CharClass::byte(*byte), StartKind::None, report);
        }
        for (a, b) in [(0, 1), (0, 4), (2, 3), (1, 5), (4, 6), (3, 7)] {
            nfa.add_edge(StateId(a), StateId(b));
        }
        let (merged, _) = merge_common_prefixes(&nfa);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.successors(StateId(0)), &[StateId(1)]);
        assert_eq!(merged.successors(StateId(1)), &[StateId(2), StateId(3), StateId(4)]);
        assert_same_language(&nfa, &merged, &[b"xyp xyq xyr", b"yyy"]);
    }

    #[test]
    fn dead_state_removal() {
        use crate::charclass::CharClass;
        use crate::homogeneous::{ReportCode, StartKind};
        let mut n = HomNfa::new();
        let a = n.add_state_full(CharClass::byte(b'a'), StartKind::AllInput, None);
        let b = n.add_state_full(CharClass::byte(b'b'), StartKind::None, Some(ReportCode(0)));
        let dead1 = n.add_state(CharClass::byte(b'x')); // unreachable
        let dead2 = n.add_state(CharClass::byte(b'y')); // reachable, no report path
        n.add_edge(a, b);
        n.add_edge(a, dead2);
        n.add_edge(dead1, b);
        let (pruned, stats) = remove_dead_states(&n);
        assert_eq!(pruned.len(), 2);
        assert_eq!(stats.states_before, 4);
        assert_same_language(&n, &pruned, &[b"ab", b"ay", b"xb"]);
    }

    #[test]
    fn space_optimize_pipeline_preserves_language() {
        let patterns: Vec<String> = (0..20).map(|i| format!("prefix{}", i % 5)).collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let nfa = compile_patterns(&refs).unwrap();
        let (opt, stats) = space_optimize(&nfa);
        assert!(stats.reduction() > 0.5);
        assert_same_language(&nfa, &opt, &[b"prefix0", b"prefix4", b"prefix9", b"prefix"]);
    }

    #[test]
    fn shared_suffixes_merge() {
        // "xing", "ying", "zing": the "ing" tails merge backward from the
        // reporting state (same code required, so use duplicate patterns'
        // renumber=false style via identical codes).
        use crate::homogeneous::{ReportCode, StartKind};
        let mut nfa = HomNfa::new();
        for head in [b'x', b'y', b'z'] {
            let mut prev = nfa.add_state_full(
                crate::charclass::CharClass::byte(head),
                StartKind::AllInput,
                None,
            );
            for (i, &c) in b"ing".iter().enumerate() {
                let report = if i == 2 { Some(ReportCode(0)) } else { None };
                let id = nfa.add_state_full(
                    crate::charclass::CharClass::byte(c),
                    StartKind::None,
                    report,
                );
                nfa.add_edge(prev, id);
                prev = id;
            }
        }
        assert_eq!(nfa.len(), 12);
        let (merged, stats) = merge_common_suffixes(&nfa);
        // the three "g"(report) merge, then "n", then "i": 12 -> 6
        assert_eq!(merged.len(), 6, "suffix cascade");
        assert!(stats.reduction() > 0.4);
        assert_same_language(&nfa, &merged, &[b"xing", b"zing!", b"ing", b"xyzing"]);
    }

    #[test]
    fn suffix_merge_respects_reports_and_starts() {
        // different report codes must not merge
        let nfa = compile_patterns(&["ab", "cb"]).unwrap();
        let (merged, _) = merge_common_suffixes(&nfa);
        assert_eq!(merged.len(), nfa.len(), "distinct codes stay apart");
        assert_same_language(&nfa, &merged, &[b"ab cb", b"bb"]);
    }

    #[test]
    fn bidirectional_merging_beats_either_alone() {
        // diamond dictionary: shared prefix "pre", shared suffix "post"
        let patterns: Vec<String> =
            (0..6).map(|i| format!("pre{}post", (b'a' + i) as char)).collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        // same report code everywhere so suffixes may merge
        let one_code: HomNfa = {
            let mut nfa = compile_patterns(&refs).unwrap();
            for s in nfa.reporting_states() {
                nfa.state_mut(s).report = Some(crate::homogeneous::ReportCode(0));
            }
            nfa
        };
        let (p, _) = merge_common_prefixes(&one_code);
        let (s, _) = merge_common_suffixes(&one_code);
        let (b, _) = merge_bidirectional(&one_code);
        assert!(b.len() < p.len(), "bidirectional {} !< prefix {}", b.len(), p.len());
        assert!(b.len() < s.len(), "bidirectional {} !< suffix {}", b.len(), s.len());
        assert_same_language(&one_code, &b, &[b"preapost", b"prefpost", b"prepost"]);
    }

    #[test]
    fn self_loops_survive_merging() {
        let nfa = compile_patterns(&["a.*z", "a.*z"]).unwrap();
        let (merged, _) = merge_common_prefixes(&nfa);
        assert_same_language(&nfa, &merged, &[b"a--z", b"az", b"a..z..z"]);
    }
}
