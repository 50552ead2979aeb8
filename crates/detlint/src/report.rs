//! Reporting: rustc-style text diagnostics, the machine-readable
//! `reports/detlint.json`, and a dependency-free JSON well-formedness
//! checker (used by `detlint --check-json`, which `verify.sh` runs so CI
//! can assert the report parses without needing python or jq).

use crate::Scan;
use std::fmt::Write as _;

/// Render unwaived findings and waiver errors as rustc-style diagnostics.
pub fn render_diagnostics(scan: &Scan) -> String {
    let mut out = String::new();
    for f in scan.findings.iter().filter(|f| !f.waived) {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}:{}", f.file, f.line, f.col);
    }
    for e in &scan.waiver_errors {
        let _ = writeln!(out, "error[{}]: {}", e.kind, e.message);
        let _ = writeln!(out, "  --> {}:{}:{}", e.file, e.line, e.col);
    }
    out
}

/// One-line human summary.
pub fn summary_line(scan: &Scan, elapsed_secs: f64) -> String {
    format!(
        "detlint: {} files, {} findings ({} waived, {} unwaived), {} waiver errors [{elapsed_secs:.2}s]",
        scan.files_scanned,
        scan.findings.len(),
        scan.waived(),
        scan.unwaived(),
        scan.waiver_errors.len(),
    )
}

/// Serialize a scan as the `reports/detlint.json` document (hand-rolled
/// JSON — the workspace is offline and serde-free).
///
/// Schema v2: the v1 `elapsed_secs` key is gone — the report is a pure
/// function of the scanned sources, so two consecutive runs emit
/// byte-identical files (CI diffs them; wall time lives in the console
/// summary line only). v2 also carries rule ids D01–D11: D08 (layer DAG),
/// D09 (protocol-match exhaustiveness), D10 (panic-path audit), and D11
/// (nondeterminism taint) joined the original token rules.
pub fn to_json(scan: &Scan, root: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"version\": 2,");
    let _ = writeln!(s, "  \"tool\": \"detlint\",");
    let _ = writeln!(s, "  \"root\": {},", json_str(root));
    let _ = writeln!(s, "  \"files_scanned\": {},", scan.files_scanned);
    let _ = writeln!(
        s,
        "  \"summary\": {{ \"total\": {}, \"waived\": {}, \"unwaived\": {}, \"waiver_errors\": {} }},",
        scan.findings.len(),
        scan.waived(),
        scan.unwaived(),
        scan.waiver_errors.len()
    );
    s.push_str("  \"findings\": [");
    for (i, f) in scan.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"waived\": {}, \"reason\": {}, \"message\": {} }}",
            json_str(&f.rule),
            json_str(&f.file),
            f.line,
            f.col,
            f.waived,
            f.waiver_reason.as_deref().map_or("null".to_string(), |r| json_str(r).to_string()),
            json_str(&f.message),
        );
    }
    if scan.findings.is_empty() {
        s.push(']');
    } else {
        s.push_str("\n  ]");
    }
    s.push_str(",\n  \"waiver_errors\": [");
    for (i, e) in scan.waiver_errors.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{ \"kind\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {} }}",
            json_str(&e.kind),
            json_str(&e.file),
            e.line,
            e.col,
            json_str(&e.message),
        );
    }
    if scan.waiver_errors.is_empty() {
        s.push(']');
    } else {
        s.push_str("\n  ]");
    }
    s.push_str("\n}\n");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// JSON well-formedness checking (recursive descent, strict syntax).
// ---------------------------------------------------------------------

/// Keys the detlint report must expose at the top level for downstream
/// tooling (the verify gate, future dashboards).
const REQUIRED_KEYS: &[&str] = &["version", "summary", "findings", "waiver_errors"];

/// Validate that `s` is syntactically well-formed JSON whose top level is
/// an object containing every [`REQUIRED_KEYS`] entry.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonParser {
        chars: s.char_indices().peekable(),
    };
    p.skip_ws();
    let top_keys = match p.peek() {
        Some('{') => p.object()?,
        _ => return Err("top level must be a JSON object".to_string()),
    };
    p.skip_ws();
    if p.peek().is_some() {
        return Err("trailing content after top-level object".to_string());
    }
    for k in REQUIRED_KEYS {
        if !top_keys.iter().any(|have| have == k) {
            return Err(format!("missing required top-level key {k:?}"));
        }
    }
    Ok(())
}

struct JsonParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
}

impl JsonParser<'_> {
    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }
    fn bump(&mut self) -> Option<char> {
        self.chars.next().map(|(_, c)| c)
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }
    fn expect(&mut self, c: char) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {c:?}, got {got:?}")),
        }
    }

    /// Parse an object, returning its top-level key names.
    fn object(&mut self) -> Result<Vec<String>, String> {
        self.expect('{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(':')?;
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(keys),
                got => return Err(format!("expected ',' or '}}' in object, got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect('[')?;
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(',') => {
                    self.skip_ws();
                }
                Some(']') => return Ok(()),
                got => return Err(format!("expected ',' or ']' in array, got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some(e @ ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't')) => {
                        out.push(e); // decoded value irrelevant for validation
                    }
                    Some('u') => {
                        for _ in 0..4 {
                            match self.bump() {
                                Some(h) if h.is_ascii_hexdigit() => {}
                                got => return Err(format!("bad \\u escape: {got:?}")),
                            }
                        }
                    }
                    got => return Err(format!("bad escape: {got:?}")),
                },
                Some(c) if (c as u32) >= 0x20 => out.push(c),
                got => return Err(format!("unterminated or bad string: {got:?}")),
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => {
                self.object()?;
                Ok(())
            }
            Some('[') => self.array(),
            Some('"') => {
                self.string()?;
                Ok(())
            }
            Some('t') => self.literal("true"),
            Some('f') => self.literal("false"),
            Some('n') => self.literal("null"),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected value start: {got:?}")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        for expected in word.chars() {
            match self.bump() {
                Some(c) if c == expected => {}
                got => return Err(format!("bad literal, wanted {word:?}, got {got:?}")),
            }
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some('-') {
            self.bump();
        }
        let mut digits = 0;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            digits += 1;
        }
        if digits == 0 {
            return Err("number with no digits".to_string());
        }
        if self.peek() == Some('.') {
            self.bump();
            let mut frac = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                frac += 1;
            }
            if frac == 0 {
                return Err("number with empty fraction".to_string());
            }
        }
        if matches!(self.peek(), Some('e' | 'E')) {
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            let mut exp = 0;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                exp += 1;
            }
            if exp == 0 {
                return Err("number with empty exponent".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReportedFinding, ReportedWaiverError, Scan};

    fn sample_scan() -> Scan {
        Scan {
            findings: vec![ReportedFinding {
                rule: "D01".to_string(),
                file: "crates/core/src/engine.rs".to_string(),
                line: 3,
                col: 9,
                message: "host clock (`Instant`) — \"quoted\"\npath".to_string(),
                waived: true,
                waiver_reason: Some("reason with — dash".to_string()),
            }],
            waiver_errors: vec![ReportedWaiverError {
                kind: "W02".to_string(),
                file: "a.rs".to_string(),
                line: 1,
                col: 1,
                message: "stale".to_string(),
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn emitted_json_validates_including_escapes() {
        let json = to_json(&sample_scan(), "/some/root");
        validate_json(&json).expect("emitted JSON must be well-formed");
        assert!(json.contains("\"waiver_errors\""));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn empty_scan_json_validates() {
        let json = to_json(&Scan::default(), ".");
        validate_json(&json).unwrap();
    }

    #[test]
    fn report_is_deterministic_and_time_free() {
        // Schema v2 contract: the report is a pure function of the scan, so
        // two serializations are byte-identical and no wall-time leaks in.
        let a = to_json(&sample_scan(), "/some/root");
        let b = to_json(&sample_scan(), "/some/root");
        assert_eq!(a, b);
        assert!(!a.contains("elapsed_secs"));
        assert!(a.contains("\"version\": 2,"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1, 2]").is_err()); // top level must be object
        assert!(validate_json("{\"version\": 1}").is_err()); // missing keys
        assert!(validate_json("{\"a\": 1,}").is_err()); // trailing comma
        assert!(validate_json("{\"a\": 01e}").is_err());
    }

    #[test]
    fn validator_accepts_required_shape() {
        let ok = r#"{ "version": 1, "summary": {}, "findings": [], "waiver_errors": [] }"#;
        validate_json(ok).unwrap();
    }

    #[test]
    fn diagnostics_show_unwaived_and_waiver_errors_only() {
        let text = render_diagnostics(&sample_scan());
        // The single finding is waived — only the W02 shows.
        assert!(!text.contains("error[D01]"));
        assert!(text.contains("error[W02]"));
        assert!(text.contains("a.rs:1:1"));
    }
}
