//! ANML (Automata Network Markup Language) subset: parse and serialize.
//!
//! ANML is Micron's XML dialect for homogeneous automata and the input
//! format of the Cache Automaton compiler ("the compiler takes as input an
//! NFA described in a compact XML-like format (ANML)", §3). We implement
//! the subset the benchmark suites use:
//!
//! ```xml
//! <anml-network id="example">
//!   <state-transition-element id="s0" symbol-set="[bc]" start="all-input">
//!     <activate-on-match element="s1"/>
//!   </state-transition-element>
//!   <state-transition-element id="s1" symbol-set="a">
//!     <report-on-match reportcode="0"/>
//!   </state-transition-element>
//! </anml-network>
//! ```
//!
//! The parser is hand-rolled (no XML dependency): ANML documents produced
//! by this workspace and by ANMLZoo use only plain tags, double-quoted
//! attributes and XML comments, all of which are handled. One leading
//! byte-order mark is skipped; comments and `<?…?>` processing
//! instructions (the `<?xml?>` prologue) are skipped wherever a tag may
//! start, and their newlines count towards error line numbers.
//!
//! Every rules file is parsed before the artifact cache can be asked, so
//! the parser is one pass that borrows from the text and allocates per
//! document, not per tag: tag and attribute names are slices, a value is
//! copied only when it contains an entity, states go into the [`HomNfa`]
//! as their opening tag is read, and the only other storage is one id map
//! and one list of edges waiting for ids that may be defined further down.

use crate::error::{Error, Result};
use crate::homogeneous::{HomNfa, ReportCode, StartKind, StateId};
use crate::regex::parse_symbol_set;
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{self, Write as _};

/// The characters an attribute value cannot hold literally and the entity
/// each is written as: the one table behind [`Escaped`] and
/// [`unescape_attr`].
const ENTITIES: [(char, &str); 4] = [('&', "&amp;"), ('"', "&quot;"), ('<', "&lt;"), ('>', "&gt;")];

/// Serializes an automaton to ANML text.
///
/// State ids are written as `s<N>`; the output round-trips through
/// [`parse_anml`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ca_automata::regex::compile_pattern;
/// use ca_automata::anml::{to_anml, parse_anml};
///
/// let nfa = compile_pattern("ab")?;
/// let text = to_anml(&nfa, "demo");
/// let back = parse_anml(&text)?;
/// assert_eq!(back.len(), nfa.len());
/// # Ok(())
/// # }
/// ```
pub fn to_anml(nfa: &HomNfa, network_id: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "<anml-network id=\"{network_id}\">");
    for (id, st) in nfa.iter() {
        let _ = write!(out, "  <state-transition-element id=\"s{}\" symbol-set=\"", id.0);
        let _ = write!(Escaped(&mut out), "{}", st.label);
        out.push('"');
        out.push_str(match st.start {
            StartKind::None => "",
            StartKind::StartOfData => " start=\"start-of-data\"",
            StartKind::AllInput => " start=\"all-input\"",
        });
        let succ = nfa.successors(id);
        if succ.is_empty() && st.report.is_none() {
            let _ = writeln!(out, "/>");
            continue;
        }
        let _ = writeln!(out, ">");
        for t in succ {
            let _ = writeln!(out, "    <activate-on-match element=\"s{}\"/>", t.0);
        }
        if let Some(code) = st.report {
            let _ = writeln!(out, "    <report-on-match reportcode=\"{}\"/>", code.0);
        }
        let _ = writeln!(out, "  </state-transition-element>");
    }
    out.push_str("</anml-network>\n");
    out
}

/// A `fmt::Write` sink that appends to a string, writing each character of
/// [`ENTITIES`] as its entity.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match ENTITIES.iter().find(|(raw, _)| *raw == c) {
                Some((_, entity)) => self.0.push_str(entity),
                None => self.0.push(c),
            }
        }
        Ok(())
    }
}

/// Replaces each entity of [`ENTITIES`] by its character in one pass, left
/// to right; any other `&` stays. Borrows unless there is a `&` at all.
fn unescape_attr(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let (raw, len) = ENTITIES
            .iter()
            .find(|(_, entity)| rest.starts_with(entity))
            .map_or(('&', 1), |(raw, entity)| (*raw, entity.len()));
        out.push(raw);
        rest = &rest[len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// A scanned tag, borrowing from the document. One is refilled in place
/// for every tag, so its attribute list is allocated once.
#[derive(Debug, Default)]
struct Tag<'a> {
    name: &'a str,
    attrs: Vec<(&'a str, Cow<'a, str>)>,
    closing: bool,
    self_closing: bool,
    line: usize,
}

impl<'a> Tag<'a> {
    /// The first attribute called `name`: a repeated attribute keeps its
    /// first value.
    fn attr(&self, name: &str) -> Option<&Cow<'a, str>> {
        self.attrs.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    fn err(&self, reason: impl Into<String>) -> Error {
        Error::ParseAnml { line: self.line, reason: reason.into() }
    }
}

struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn err(&self, reason: impl Into<String>) -> Error {
        Error::ParseAnml { line: self.line, reason: reason.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek().filter(u8::is_ascii_whitespace) {
            self.line += usize::from(b == b'\n');
            self.pos += 1;
        }
    }

    /// Skips past the next `close` at or after `from`, counting the
    /// newlines before it; `what` names the construct left open otherwise.
    fn skip_past(&mut self, from: usize, close: &str, what: &str) -> Result<()> {
        let end = from + self.text[from..].find(close).ok_or_else(|| self.err(what))?;
        self.line += self.text[self.pos..end].bytes().filter(|&b| b == b'\n').count();
        self.pos = end + close.len();
        Ok(())
    }

    fn skip_ws_and_comments(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            let rest = &self.text.as_bytes()[self.pos..];
            if rest.starts_with(b"<!--") {
                self.skip_past(self.pos + 4, "-->", "unterminated comment")?;
            } else if rest.starts_with(b"<?") {
                self.skip_past(self.pos + 2, "?>", "unterminated processing instruction")?;
            } else {
                return Ok(());
            }
        }
    }

    /// The run of name characters at the cursor (possibly empty). They are
    /// ASCII, as is every other delimiter slices are cut at, so the cuts
    /// always fall on character boundaries.
    fn name(&mut self) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Scans the next tag into `tag`; `false` at the end of the text.
    fn next_tag(&mut self, tag: &mut Tag<'a>) -> Result<bool> {
        self.skip_ws_and_comments()?;
        match self.peek() {
            None => return Ok(false),
            Some(b'<') => self.pos += 1,
            Some(_) => return Err(self.err("expected '<'")),
        }
        tag.closing = self.peek() == Some(b'/');
        self.pos += usize::from(tag.closing);
        tag.name = self.name();
        if tag.name.is_empty() {
            return Err(self.err("expected a tag name"));
        }
        tag.attrs.clear();
        tag.line = self.line;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    tag.self_closing = false;
                    return Ok(true);
                }
                Some(b'/') if self.text.as_bytes().get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    tag.self_closing = true;
                    return Ok(true);
                }
                Some(_) => {
                    let key = self.name();
                    if key.is_empty() {
                        return Err(self.err("expected an attribute name"));
                    }
                    if self.peek() != Some(b'=') {
                        return Err(self.err(format!("attribute '{key}' missing '='")));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'"') {
                        return Err(self.err(format!("attribute '{key}' value must be quoted")));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(b) = self.peek().filter(|&b| b != b'"') {
                        self.line += usize::from(b == b'\n');
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    tag.attrs.push((key, unescape_attr(&self.text[start..self.pos])));
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated tag")),
            }
        }
    }
}

/// Parses an ANML document into a homogeneous NFA.
///
/// State ids in the document are arbitrary strings; they are mapped to
/// dense [`StateId`]s in document order.
///
/// # Errors
///
/// Returns [`Error::ParseAnml`] with a line number for malformed documents,
/// unknown tags, undefined element references or invalid symbol sets.
pub fn parse_anml(text: &str) -> Result<HomNfa> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let mut scanner = Scanner { text, pos: 0, line: 1 };
    let mut tag = Tag::default();
    if !scanner.next_tag(&mut tag)? {
        return Err(scanner.err("empty document"));
    }
    if tag.name != "anml-network" || tag.closing {
        return Err(scanner.err("expected <anml-network> root"));
    }

    let mut nfa = HomNfa::new();
    // Ids arrive from RELOAD peers: keep std's keyed hasher.
    let mut ids: HashMap<Cow<'_, str>, StateId> = HashMap::new();
    // (source, target id, line of the activate-on-match tag): a target may
    // be defined further down, so edges are resolved after the scan, in
    // document order.
    let mut edges: Vec<(StateId, Cow<'_, str>, usize)> = Vec::new();
    let mut current: Option<StateId> = None;

    loop {
        if !scanner.next_tag(&mut tag)? {
            return Err(scanner.err("missing </anml-network>"));
        }
        match (tag.name, tag.closing) {
            ("anml-network", true) => break,
            ("state-transition-element", false) => {
                if current.is_some() {
                    return Err(tag.err("nested state-transition-element"));
                }
                let id = tag
                    .attr("id")
                    .ok_or_else(|| tag.err("state-transition-element missing id"))?
                    .clone();
                let slot = match ids.entry(id) {
                    Entry::Vacant(slot) => slot,
                    Entry::Occupied(e) => {
                        return Err(tag.err(format!("duplicate element id '{}'", e.key())))
                    }
                };
                let id = slot.key();
                let set = tag
                    .attr("symbol-set")
                    .ok_or_else(|| tag.err(format!("element '{id}' missing symbol-set")))?;
                let label = parse_symbol_set(set)
                    .map_err(|e| tag.err(format!("bad symbol-set for '{id}': {e}")))?;
                let start = match tag.attr("start").map(|s| s.as_ref()) {
                    None => StartKind::None,
                    Some("all-input") => StartKind::AllInput,
                    Some("start-of-data") => StartKind::StartOfData,
                    Some(other) => return Err(tag.err(format!("unknown start kind '{other}'"))),
                };
                let state = *slot.insert(nfa.add_state_full(label, start, None));
                if !tag.self_closing {
                    current = Some(state);
                }
            }
            ("state-transition-element", true) => {
                if current.take().is_none() {
                    return Err(tag.err("unmatched </state-transition-element>"));
                }
            }
            ("activate-on-match", false) => {
                let from =
                    current.ok_or_else(|| tag.err("activate-on-match outside an element"))?;
                let target = tag
                    .attr("element")
                    .ok_or_else(|| tag.err("activate-on-match missing element attribute"))?;
                if !tag.self_closing {
                    return Err(tag.err("activate-on-match must self-close"));
                }
                edges.push((from, target.clone(), tag.line));
            }
            ("report-on-match", false) => {
                let cur = current.ok_or_else(|| tag.err("report-on-match outside an element"))?;
                let code = tag
                    .attr("reportcode")
                    .map_or(Ok(0), |code| code.parse::<u32>())
                    .map_err(|_| tag.err("reportcode must be an integer"))?;
                if !tag.self_closing {
                    return Err(tag.err("report-on-match must self-close"));
                }
                nfa.state_mut(cur).report = Some(ReportCode(code));
            }
            (other, _) => return Err(tag.err(format!("unexpected tag '{other}'"))),
        }
    }

    for (from, target, line) in &edges {
        let to = *ids.get(target).ok_or_else(|| {
            let name =
                ids.iter().find(|(_, &id)| id == *from).map_or("", |(name, _)| name.as_ref());
            let reason = format!("element '{name}' activates undefined element '{target}'");
            Error::ParseAnml { line: *line, reason }
        })?;
        nfa.add_edge(*from, to);
    }
    // The build grew the state tables by doubling; the automaton outlives
    // the parse, so hand the slack back.
    nfa.shrink_to_fit();
    Ok(nfa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SparseEngine};
    use crate::regex::compile_patterns;

    #[test]
    fn roundtrip_preserves_automaton() {
        let nfa = compile_patterns(&["ca[rt]", "a.*b", "^x{2,3}"]).unwrap();
        let text = to_anml(&nfa, "t");
        let back = parse_anml(&text).unwrap();
        assert_eq!(back, nfa);
    }

    #[test]
    fn roundtrip_preserves_language() {
        let nfa = compile_patterns(&["hel+o", "[0-9]+z"]).unwrap();
        let back = parse_anml(&to_anml(&nfa, "t")).unwrap();
        for input in [b"hello world".as_slice(), b"123z", b"hzo"] {
            assert_eq!(SparseEngine::new(&nfa).run(input), SparseEngine::new(&back).run(input));
        }
    }

    #[test]
    fn parses_handwritten_document() {
        let text = r#"
            <?xml version="1.0"?>
            <!-- tiny example -->
            <anml-network id="demo">
              <state-transition-element id="start" symbol-set="[bc]" start="all-input">
                <activate-on-match element="end"/>
              </state-transition-element>
              <state-transition-element id="end" symbol-set="a">
                <report-on-match reportcode="5"/>
              </state-transition-element>
            </anml-network>
        "#;
        let nfa = parse_anml(text).unwrap();
        assert_eq!(nfa.len(), 2);
        let ev = SparseEngine::new(&nfa).run(b"zzba");
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].code, ReportCode(5));
    }

    #[test]
    fn self_closing_element_allowed() {
        let text = r#"<anml-network id="x">
            <state-transition-element id="a" symbol-set="q" start="all-input"/>
            <state-transition-element id="b" symbol-set="r" start="all-input">
              <report-on-match reportcode="1"/>
            </state-transition-element>
        </anml-network>"#;
        let nfa = parse_anml(text).unwrap();
        assert_eq!(nfa.len(), 2);
        assert_eq!(nfa.edge_count(), 0);
    }

    fn parse_error(text: &str) -> (usize, String) {
        match parse_anml(text) {
            Err(Error::ParseAnml { line, reason }) => (line, reason),
            other => panic!("expected a parse error for {text:?}, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "<anml-network id=\"x\">\n<bogus-tag/>\n</anml-network>";
        let (line, reason) = parse_error(text);
        assert_eq!(line, 2);
        assert!(reason.contains("bogus-tag"));
        // Newlines inside a processing instruction count like any other.
        let text =
            "<?xml\n version=\"1.0\"\n?>\n<anml-network id=\"x\">\n<bogus/>\n</anml-network>";
        assert_eq!(parse_error(text), (5, "unexpected tag 'bogus'".to_string()));
    }

    #[test]
    fn undefined_target_rejected() {
        let text = r#"<anml-network id="x">
            <state-transition-element id="a" symbol-set="q" start="all-input">
              <activate-on-match element="ghost"/>
            </state-transition-element>
        </anml-network>"#;
        let err = parse_anml(text).unwrap_err();
        assert!(err.to_string().contains("ghost"));
        // The error points at the activate-on-match tag that names the ghost.
        let expected = "element 'a' activates undefined element 'ghost'".to_string();
        assert_eq!(parse_error(text), (3, expected));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let text = r#"<anml-network id="x">
            <state-transition-element id="a" symbol-set="q"/>
            <state-transition-element id="a" symbol-set="r"/>
        </anml-network>"#;
        assert!(parse_anml(text).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn bad_symbol_set_rejected() {
        let text = r#"<anml-network id="x">
            <state-transition-element id="a" symbol-set="[z-a]"/>
        </anml-network>"#;
        assert!(parse_anml(text).is_err());
    }

    #[test]
    fn escaped_attributes_roundtrip() {
        use crate::charclass::CharClass;
        use crate::homogeneous::{HomNfa, StartKind};
        let mut nfa = HomNfa::new();
        // label containing '<', '>', '&' and '"'
        nfa.add_state_full(CharClass::of(b"<>&\""), StartKind::AllInput, Some(ReportCode(0)));
        let back = parse_anml(&to_anml(&nfa, "esc")).unwrap();
        assert_eq!(back, nfa);
    }

    /// One document with everything the parser accepts: a multi-line
    /// prologue, comments, a processing instruction between elements, every
    /// entity (and two things that only look like one) in ids and symbol
    /// sets, a self-closing element, ids that are not `sN`, a forward
    /// reference, a duplicate edge, a self-loop and repeated attributes.
    /// The fingerprint is the one the two-pass, owned-string parser this
    /// one replaced produced for it.
    #[test]
    fn kitchen_sink_document_keeps_its_fingerprint() {
        let text = r#"<?xml version="1.0"
      encoding="UTF-8"?>
<!-- every construct the parser accepts,
     on two lines -->
<anml-network id="pinned" id="ignored">
  <state-transition-element id="a&amp;b&lt;c&gt;d&quot;e" symbol-set="[&lt;&gt;&amp;&quot;]"
      start="all-input" start="start-of-data">
    <!-- a forward reference, the same edge again, a self-loop -->
    <activate-on-match element="tail"/>
    <activate-on-match element="tail"/>
    <activate-on-match element="a&amp;b&lt;c&gt;d&quot;e"/>
  </state-transition-element>
  <state-transition-element id="&amp;lt;&apos;&" symbol-set="&lt;" start="start-of-data"/>
  <?between elements?>
  <state-transition-element id="tail" symbol-set="[^\x00-y\]]" symbol-set="q">
    <report-on-match reportcode="7" reportcode="8"/>
    <activate-on-match element="&amp;lt;&apos;&"/>
    <activate-on-match element="a&amp;b&lt;c&gt;d&quot;e"/>
  </state-transition-element >
</anml-network>
"#;
        let nfa = parse_anml(text).unwrap();
        assert_eq!(nfa.fingerprint().to_string(), "cadf96248451e09946bdcd4d57f363c6");
        // The fingerprint sorts successor lists; `==` does not.
        let s = StateId;
        assert_eq!(nfa.successors(s(0)), &[s(2), s(0)]);
        assert_eq!(nfa.successors(s(1)), &[]);
        assert_eq!(nfa.successors(s(2)), &[s(1), s(0)]);
        assert_eq!(nfa.state(s(0)).label, crate::CharClass::of(b"<>&\""));
        assert_eq!(nfa.state(s(0)).start, StartKind::AllInput);
        assert_eq!(nfa.state(s(2)).label, crate::CharClass::range(b'z', 0xff));
        assert_eq!(nfa.state(s(2)).report, Some(ReportCode(7)));
    }

    #[test]
    fn leading_byte_order_mark_is_skipped() {
        let text = "<anml-network id=\"x\">\n<bogus/>";
        assert_eq!(parse_error(&format!("\u{feff}{text}")), parse_error(text));
        // Only one, and only in front.
        assert_eq!(parse_error(&format!("\u{feff}\u{feff}{text}")).1, "expected '<'");
    }

    /// Every error the parser can raise, with the line it reports. Lines
    /// and messages are the replaced parser's, except that an undefined
    /// target used to report line 0.
    #[test]
    fn every_error_keeps_its_message_and_line() {
        const OPEN: &str = "<anml-network id=\"x\">\n";
        // OPEN plus an element left open, so the next tag is on line 3.
        const STE: &str =
            "<anml-network id=\"x\">\n<state-transition-element id=\"a\" symbol-set=\"q\">\n";
        let cases: &[(&str, &str, usize, &str)] = &[
            ("", "", 1, "empty document"),
            ("", "\n\n<!-- only\n a comment -->\n", 5, "empty document"),
            ("", "<?xml\n", 1, "unterminated processing instruction"),
            ("", "<!---->\n<!-- a --><anml-network id=\"x\">\n<!--->\n", 3, "unterminated comment"),
            ("", "<network id=\"x\">", 1, "expected <anml-network> root"),
            ("", "</anml-network>", 1, "expected <anml-network> root"),
            ("", "<other\n a=\"b\"\n>", 3, "expected <anml-network> root"),
            ("", "<anml-network id>", 1, "attribute 'id' missing '='"),
            ("", "<anml-network id=x>", 1, "attribute 'id' value must be quoted"),
            ("", "<anml-network id=\"x\n\n", 3, "unterminated attribute value"),
            ("", "<anml-network\n", 2, "unterminated tag"),
            ("", "<anml-network =>", 1, "expected an attribute name"),
            ("", "<anml-network id=\"x\"/>", 1, "missing </anml-network>"),
            (OPEN, "", 2, "missing </anml-network>"),
            (OPEN, "<!-- never closed\n", 2, "unterminated comment"),
            (OPEN, "  text\n", 2, "expected '<'"),
            (OPEN, "\n< bogus/>", 3, "expected a tag name"),
            (OPEN, "<bogus-tag/>", 2, "unexpected tag 'bogus-tag'"),
            (OPEN, "<anml-network>", 2, "unexpected tag 'anml-network'"),
            (OPEN, "\n</state-transition-element>", 3, "unmatched </state-transition-element>"),
            (OPEN, "<activate-on-match/>", 2, "activate-on-match outside an element"),
            (OPEN, "<report-on-match reportcode=\"z\">", 2, "report-on-match outside an element"),
            (
                OPEN,
                "<state-transition-element\n symbol-set=\"q\"/>",
                2,
                "state-transition-element missing id",
            ),
            (
                OPEN,
                "<state-transition-element id=\"a&amp;\"\n start=\"bogus\"/>",
                2,
                "element 'a&' missing symbol-set",
            ),
            (
                OPEN,
                "<state-transition-element id=\"a\" symbol-set=\"[z-a]\" start=\"bogus\"/>",
                2,
                "bad symbol-set for 'a': regex parse error at byte 4: reversed range z-a in class",
            ),
            (
                OPEN,
                "<state-transition-element id=\"a\" symbol-set=\"\"/>",
                2,
                "bad symbol-set for 'a': regex parse error at byte 0: empty symbol set",
            ),
            (
                OPEN,
                "<state-transition-element id=\"a\" symbol-set=\"q\" start=\"bogus\"/>",
                2,
                "unknown start kind 'bogus'",
            ),
            (OPEN, "<state-transition-element id=\"a\" symbol-set=\"q\"\n", 3, "unterminated tag"),
            (
                OPEN,
                "<state-transition-element id=\"a\" symbol-set=\"q\" /\n>",
                2,
                "expected an attribute name",
            ),
            (
                OPEN,
                "<state-transition-element id=\"a\" symbol-set=\"q\"/>\n\
                 <state-transition-element id=\"a\" symbol-set=\"[\"/>",
                3,
                "duplicate element id 'a'",
            ),
            (
                STE,
                "<state-transition-element\n id=\"b\" symbol-set=\"r\"/>",
                3,
                "nested state-transition-element",
            ),
            (
                STE,
                "<activate-on-match elem=\"a\">",
                3,
                "activate-on-match missing element attribute",
            ),
            (STE, "<activate-on-match element=\"ghost\">", 3, "activate-on-match must self-close"),
            (STE, "<report-on-match reportcode=\"-1\">", 3, "reportcode must be an integer"),
            (
                STE,
                "<report-on-match reportcode=\"4294967296\"/>",
                3,
                "reportcode must be an integer",
            ),
            (STE, "<report-on-match>", 3, "report-on-match must self-close"),
            (STE, "</activate-on-match>", 3, "unexpected tag 'activate-on-match'"),
            // An undefined target is reported once the scan is over, so a
            // later malformed tag wins ...
            (
                STE,
                "<activate-on-match element=\"ghost\"/>\n</state-transition-element>\n<bogus/>",
                5,
                "unexpected tag 'bogus'",
            ),
            // ... and otherwise the first dangling edge in document order,
            // with unescaped ids, at the line of its own tag.
            (
                OPEN,
                "<state-transition-element id=\"a&lt;\" symbol-set=\"q\">\n\n<activate-on-match\n \
                 element=\"gh&gt;ost\"/>\n</state-transition-element>\n</anml-network>",
                4,
                "element 'a<' activates undefined element 'gh>ost'",
            ),
            (
                OPEN,
                "<state-transition-element id=\"b\" symbol-set=\"q\">\n\
                 <activate-on-match element=\"b\"/><activate-on-match element=\"c\"/>\n\
                 </state-transition-element>\n\
                 <state-transition-element id=\"a\" symbol-set=\"q\">\n\
                 <activate-on-match element=\"ghost\"/>\n\
                 </state-transition-element>\n</anml-network>",
                3,
                "element 'b' activates undefined element 'c'",
            ),
        ];
        for &(open, rest, line, reason) in cases {
            let text = format!("{open}{rest}");
            assert_eq!(parse_error(&text), (line, reason.to_string()), "{text:?}");
        }
    }

    #[test]
    fn lenient_corners_stay_lenient() {
        // Nothing after the root's closing tag is read.
        assert!(parse_anml("<anml-network id=\"x\"></anml-network>trailing").unwrap().is_empty());
        // Closing tags may carry attributes and a slash; reportcode defaults to 0.
        let text = "<anml-network id=\"x\">\n<state-transition-element id=\"a\" symbol-set=\"q\">\
                    <report-on-match/></state-transition-element/>\n</anml-network x=\"1\"/>";
        let nfa = parse_anml(text).unwrap();
        assert_eq!(nfa.state(StateId(0)).report, Some(ReportCode(0)));
    }
}
