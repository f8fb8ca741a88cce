//! Homogeneous (ANML-style) non-deterministic finite automata.
//!
//! In a *homogeneous* NFA every transition entering a state carries the same
//! symbol class, so the class can be attached to the state itself — Micron's
//! ANML representation, and the form Cache Automaton maps onto SRAM arrays
//! (one state = one *state-transition element*, STE).
//!
//! Execution semantics (per input symbol, both phases of the paper):
//!
//! 1. **state-match** — every *enabled* state whose [`CharClass`] label
//!    contains the current symbol *matches*;
//! 2. **state-transition** — matching states enable their successors for the
//!    next symbol; matching states with a report code emit a
//!    [`MatchEvent`](crate::engine::MatchEvent).
//!
//! States with [`StartKind::AllInput`] are enabled before every symbol;
//! states with [`StartKind::StartOfData`] only before the first.

use crate::charclass::CharClass;
use crate::error::{Error, Result};
use std::fmt;

/// Identifier of a state within a [`HomNfa`].
///
/// Plain index newtype; only meaningful relative to the automaton that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for StateId {
    fn from(v: u32) -> StateId {
        StateId(v)
    }
}

/// Report code attached to an accepting state.
///
/// Typically identifies which of many patterns matched, mirroring ANML's
/// `report-on-match` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReportCode(pub u32);

impl fmt::Display for ReportCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// When a state is self-enabled (independent of predecessor activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StartKind {
    /// Never self-enabled; enabled only by a matching predecessor.
    #[default]
    None,
    /// Enabled before the first input symbol only (anchored `^...`).
    StartOfData,
    /// Enabled before every input symbol (unanchored patterns).
    AllInput,
}

impl StartKind {
    /// `true` for either start flavour.
    pub fn is_start(self) -> bool {
        !matches!(self, StartKind::None)
    }
}

/// One homogeneous state (one STE).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Symbols this state matches.
    pub label: CharClass,
    /// Self-enabling behaviour.
    pub start: StartKind,
    /// Report code emitted when this state matches, if it is accepting.
    pub report: Option<ReportCode>,
}

impl State {
    /// A plain, non-start, non-reporting state with the given label.
    pub fn new(label: CharClass) -> State {
        State { label, start: StartKind::None, report: None }
    }
}

/// A homogeneous NFA: the central automaton type of this workspace.
///
/// Construction is incremental ([`add_state`], [`add_edge`]); most callers
/// obtain one from the regex front-end
/// ([`compile_pattern`](crate::regex::compile_pattern)) or the ANML parser.
///
/// # Examples
///
/// Build `a(b|c)` by hand and inspect it:
///
/// ```
/// use ca_automata::{CharClass, HomNfa, StartKind, ReportCode};
///
/// let mut nfa = HomNfa::new();
/// let a = nfa.add_state_full(CharClass::byte(b'a'), StartKind::AllInput, None);
/// let bc = nfa.add_state_full(CharClass::of(b"bc"), StartKind::None, Some(ReportCode(0)));
/// nfa.add_edge(a, bc);
/// assert_eq!(nfa.len(), 2);
/// assert_eq!(nfa.successors(a), &[bc]);
/// ```
///
/// [`add_state`]: HomNfa::add_state
/// [`add_edge`]: HomNfa::add_edge
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomNfa {
    states: Vec<State>,
    succ: Vec<Vec<StateId>>,
}

impl HomNfa {
    /// Creates an empty automaton.
    pub fn new() -> HomNfa {
        HomNfa::default()
    }

    /// Creates an empty automaton with room for `n` states.
    pub fn with_capacity(n: usize) -> HomNfa {
        HomNfa { states: Vec::with_capacity(n), succ: Vec::with_capacity(n) }
    }

    /// Releases the spare capacity of the state tables, for an automaton
    /// that was grown state by state and will now be kept. (Successor
    /// lists keep theirs: they are a few ids each.)
    pub fn shrink_to_fit(&mut self) {
        self.states.shrink_to_fit();
        self.succ.shrink_to_fit();
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of transitions.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Adds a plain state with the given label; returns its id.
    pub fn add_state(&mut self, label: CharClass) -> StateId {
        self.add_state_full(label, StartKind::None, None)
    }

    /// Adds a state with full control over start kind and report code.
    pub fn add_state_full(
        &mut self,
        label: CharClass,
        start: StartKind,
        report: Option<ReportCode>,
    ) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State { label, start, report });
        self.succ.push(Vec::new());
        id
    }

    /// Adds a transition `from -> to`. Duplicate edges are kept out.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn add_edge(&mut self, from: StateId, to: StateId) {
        assert!(from.index() < self.states.len(), "edge source {from} out of range");
        assert!(to.index() < self.states.len(), "edge target {to} out of range");
        let list = &mut self.succ[from.index()];
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// Shared view of a state.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Mutable view of a state.
    pub fn state_mut(&mut self, id: StateId) -> &mut State {
        &mut self.states[id.index()]
    }

    /// The successors of `id`, in insertion order.
    pub fn successors(&self, id: StateId) -> &[StateId] {
        &self.succ[id.index()]
    }

    /// Iterates over `(id, &state)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &State)> {
        self.states.iter().enumerate().map(|(i, s)| (StateId(i as u32), s))
    }

    /// Ids of all start states (either kind).
    pub fn start_states(&self) -> Vec<StateId> {
        self.iter().filter(|(_, s)| s.start.is_start()).map(|(i, _)| i).collect()
    }

    /// Ids of all reporting states.
    pub fn reporting_states(&self) -> Vec<StateId> {
        self.iter().filter(|(_, s)| s.report.is_some()).map(|(i, _)| i).collect()
    }

    /// Computes the predecessor lists (inverse adjacency).
    pub fn predecessors(&self) -> Vec<Vec<StateId>> {
        let mut pred = vec![Vec::new(); self.len()];
        for (i, succ) in self.succ.iter().enumerate() {
            for &t in succ {
                pred[t.index()].push(StateId(i as u32));
            }
        }
        pred
    }

    /// Appends all states and edges of `other`, remapping its ids.
    ///
    /// Returns the id offset: state `s` of `other` becomes
    /// `StateId(s.0 + offset)` in `self`. Used to assemble multi-pattern
    /// automata (each pattern one connected component).
    pub fn append(&mut self, other: &HomNfa) -> u32 {
        let offset = self.states.len() as u32;
        self.states.extend(other.states.iter().cloned());
        for list in &other.succ {
            self.succ.push(list.iter().map(|s| StateId(s.0 + offset)).collect());
        }
        offset
    }

    /// Builds the union of many automata, shifting each pattern's report
    /// codes by its index when `renumber_reports` is set.
    pub fn union_all<'a, I>(parts: I, renumber_reports: bool) -> HomNfa
    where
        I: IntoIterator<Item = &'a HomNfa>,
    {
        let mut out = HomNfa::new();
        for (k, part) in parts.into_iter().enumerate() {
            let offset = out.append(part);
            if renumber_reports {
                for i in 0..part.len() {
                    let id = StateId(offset + i as u32);
                    if out.state(id).report.is_some() {
                        out.state_mut(id).report = Some(ReportCode(k as u32));
                    }
                }
            }
        }
        out
    }

    /// Checks structural invariants: every edge in range, at least one start
    /// state and one reporting state when the automaton is non-empty, no
    /// empty labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAutomaton`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        for (i, list) in self.succ.iter().enumerate() {
            for t in list {
                if t.index() >= self.len() {
                    return Err(Error::InvalidAutomaton(format!(
                        "edge s{i} -> {t} points past the last state"
                    )));
                }
            }
        }
        if self.is_empty() {
            return Ok(());
        }
        for (id, s) in self.iter() {
            if s.label.is_empty() {
                return Err(Error::InvalidAutomaton(format!("state {id} has an empty label")));
            }
        }
        if self.start_states().is_empty() {
            return Err(Error::InvalidAutomaton("no start state".into()));
        }
        if self.reporting_states().is_empty() {
            return Err(Error::InvalidAutomaton("no reporting state".into()));
        }
        Ok(())
    }

    /// Keeps exactly the states for which `keep` is true, dropping all
    /// edges touching removed states. Returns the old-id → new-id map.
    pub fn retain_states(&mut self, keep: &[bool]) -> Vec<Option<StateId>> {
        assert_eq!(keep.len(), self.len(), "keep mask length mismatch");
        let mut map: Vec<Option<StateId>> = vec![None; self.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                map[i] = Some(StateId(next));
                next += 1;
            }
        }
        let mut states = Vec::with_capacity(next as usize);
        let mut succ = Vec::with_capacity(next as usize);
        for (i, &k) in keep.iter().enumerate() {
            if k {
                states.push(self.states[i].clone());
                succ.push(self.succ[i].iter().filter_map(|t| map[t.index()]).collect::<Vec<_>>());
            }
        }
        self.states = states;
        self.succ = succ;
        map
    }

    /// Average out-degree (fan-out) across states.
    pub fn avg_out_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.edge_count() as f64 / self.len() as f64
    }

    /// Maximum in-degree (fan-in) across states.
    pub fn max_in_degree(&self) -> usize {
        self.predecessors().iter().map(Vec::len).max().unwrap_or(0)
    }
}

impl fmt::Display for HomNfa {
    /// A compact multi-line listing: one state per line with flags and
    /// successor ids. Intended for debugging small automata.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "HomNfa({} states, {} edges)", self.len(), self.edge_count())?;
        for (id, s) in self.iter() {
            let start = match s.start {
                StartKind::None => "",
                StartKind::StartOfData => " ^",
                StartKind::AllInput => " ^*",
            };
            let rep = s.report.map(|r| format!(" !{r}")).unwrap_or_default();
            let succ: Vec<String> = self.successors(id).iter().map(|t| t.to_string()).collect();
            writeln!(f, "  {id} {}{start}{rep} -> [{}]", s.label, succ.join(","))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> HomNfa {
        // a -> b -> c(report)
        let mut n = HomNfa::new();
        let a = n.add_state_full(CharClass::byte(b'a'), StartKind::AllInput, None);
        let b = n.add_state(CharClass::byte(b'b'));
        let c = n.add_state_full(CharClass::byte(b'c'), StartKind::None, Some(ReportCode(7)));
        n.add_edge(a, b);
        n.add_edge(b, c);
        n
    }

    #[test]
    fn build_and_query() {
        let n = abc();
        assert_eq!(n.len(), 3);
        assert_eq!(n.edge_count(), 2);
        assert_eq!(n.start_states(), vec![StateId(0)]);
        assert_eq!(n.reporting_states(), vec![StateId(2)]);
        assert_eq!(n.successors(StateId(0)), &[StateId(1)]);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let mut n = abc();
        n.add_edge(StateId(0), StateId(1));
        assert_eq!(n.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_target_out_of_range_panics() {
        let mut n = abc();
        n.add_edge(StateId(0), StateId(99));
    }

    #[test]
    fn predecessors_invert_successors() {
        let n = abc();
        let pred = n.predecessors();
        assert!(pred[0].is_empty());
        assert_eq!(pred[1], vec![StateId(0)]);
        assert_eq!(pred[2], vec![StateId(1)]);
    }

    #[test]
    fn append_remaps_ids() {
        let mut n = abc();
        let off = n.append(&abc());
        assert_eq!(off, 3);
        assert_eq!(n.len(), 6);
        assert_eq!(n.successors(StateId(3)), &[StateId(4)]);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn union_all_renumbers_reports() {
        let u = HomNfa::union_all([&abc(), &abc(), &abc()], true);
        assert_eq!(u.len(), 9);
        let codes: Vec<u32> =
            u.reporting_states().iter().map(|&s| u.state(s).report.unwrap().0).collect();
        assert_eq!(codes, vec![0, 1, 2]);
        // Without renumbering the original codes persist.
        let u = HomNfa::union_all([&abc(), &abc()], false);
        assert!(u.reporting_states().iter().all(|&s| u.state(s).report == Some(ReportCode(7))));
    }

    #[test]
    fn validate_rejects_defects() {
        let mut n = HomNfa::new();
        n.add_state(CharClass::byte(b'a'));
        // no start, no report
        assert!(n.validate().is_err());

        let mut n = HomNfa::new();
        n.add_state_full(CharClass::EMPTY, StartKind::AllInput, Some(ReportCode(0)));
        let err = n.validate().unwrap_err();
        assert!(err.to_string().contains("empty label"), "{err}");
    }

    #[test]
    fn retain_states_compacts() {
        let mut n = abc();
        let map = n.retain_states(&[true, false, true]);
        assert_eq!(n.len(), 2);
        assert_eq!(map[0], Some(StateId(0)));
        assert_eq!(map[1], None);
        assert_eq!(map[2], Some(StateId(1)));
        // edge a->b dropped with b; c keeps no preds
        assert_eq!(n.edge_count(), 0);
    }

    #[test]
    fn degree_statistics() {
        let n = abc();
        assert!((n.avg_out_degree() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(n.max_in_degree(), 1);
        assert_eq!(HomNfa::new().avg_out_degree(), 0.0);
    }

    #[test]
    fn display_lists_states() {
        let s = abc().to_string();
        assert!(s.contains("3 states"));
        assert!(s.contains("s0"));
        assert!(s.contains("!r7"));
    }
}
