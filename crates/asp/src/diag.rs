//! Span-carrying diagnostics shared by the static-analysis passes.
//!
//! Both the ASP lint pass ([`crate::lint`], codes `A…`) and the system-model
//! lint pass in `cpsrisk-model` (codes `M…`) report their findings as
//! [`Diagnostic`] values: a severity, a stable code, a human-readable
//! message, an optional source [`Span`], and an optional suggestion
//! (e.g. a did-you-mean replacement). Diagnostics render in the familiar
//! compiler style:
//!
//! ```text
//! warning[A001]: predicate `mitigaton/2` is used but never defined at line 4, column 52
//!   help: did you mean `mitigation`?
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// The artifact is broken; analysis or solving must not proceed.
    Error,
    /// Very likely a mistake, but the artifact is still well-formed.
    Warning,
    /// Stylistic or informational observation.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// A half-open byte range in the analyzed source, with the 1-based
/// line/column of its start precomputed for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first covered byte.
    pub offset: usize,
    /// Number of covered bytes.
    pub len: usize,
    /// 1-based line of `offset`.
    pub line: usize,
    /// 1-based column of `offset` within its line.
    pub column: usize,
}

impl Span {
    /// Build a span over `src[offset .. offset + len]`, computing line and
    /// column from the source text. Offsets past the end clamp to it.
    #[must_use]
    pub fn new(src: &str, offset: usize, len: usize) -> Self {
        let offset = offset.min(src.len());
        let before = &src.as_bytes()[..offset];
        let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        Span {
            offset,
            len,
            line,
            column: offset - line_start + 1,
        }
    }
}

/// Byte offsets of every line start in one source text, built in one pass
/// so that each [`Span`] costs a binary search instead of a rescan of the
/// source prefix ([`Span::new`] stays the one-off constructor).
pub(crate) struct LineIndex {
    /// Offset of the first byte of each line; `starts[0] == 0`.
    starts: Vec<usize>,
    len: usize,
}

impl LineIndex {
    pub(crate) fn new(src: &str) -> Self {
        let mut starts = vec![0];
        starts.extend(
            src.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        LineIndex {
            starts,
            len: src.len(),
        }
    }

    /// The span over `offset .. offset + len`; equal to
    /// [`Span::new`]`(src, offset, len)` on the indexed source.
    pub(crate) fn span(&self, offset: usize, len: usize) -> Span {
        let offset = offset.min(self.len);
        // Line starts at or before `offset`: one per newline before it, plus
        // the first line.
        let line = self.starts.partition_point(|&s| s <= offset);
        Span {
            offset,
            len,
            line,
            column: offset - self.starts[line - 1] + 1,
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// One static-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable short code (`A001`…`A008` for ASP, `M001`…`M007` for models).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Source location, when the finding maps to analyzed text.
    pub span: Option<Span>,
    /// Optional remediation hint (e.g. a did-you-mean replacement).
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    #[must_use]
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, message)
    }

    /// A warning-severity diagnostic.
    #[must_use]
    pub fn warning(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, message)
    }

    /// An info-severity diagnostic.
    #[must_use]
    pub fn info(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Info, code, message)
    }

    fn new(severity: Severity, code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            code: code.to_owned(),
            message: message.into(),
            span: None,
            suggestion: None,
        }
    }

    /// Attach a source span (chaining).
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Attach a suggestion (chaining).
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Is this finding an [`Severity::Error`]?
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Is this finding a [`Severity::Warning`]?
    #[must_use]
    pub fn is_warning(&self) -> bool {
        self.severity == Severity::Warning
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = &self.span {
            write!(f, " at {span}")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// Does any diagnostic in `diags` have [`Severity::Error`]?
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

/// Does any diagnostic in `diags` have [`Severity::Warning`] or worse?
#[must_use]
pub fn has_warnings(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity <= Severity::Warning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_computes_line_and_column() {
        let src = "abc.\nde(X) :- f.\n";
        let s = Span::new(src, 5, 2);
        assert_eq!((s.line, s.column), (2, 1));
        let t = Span::new(src, 8, 1);
        assert_eq!((t.line, t.column), (2, 4));
        // Clamped past the end.
        let e = Span::new(src, 999, 0);
        assert_eq!(e.offset, src.len());
    }

    #[test]
    fn display_is_compiler_style() {
        let d = Diagnostic::warning("A001", "predicate `q/1` is used but never defined")
            .with_span(Span::new("p :- q.", 5, 1))
            .with_suggestion("did you mean `p`?");
        let text = d.to_string();
        assert!(text.starts_with("warning[A001]:"), "{text}");
        assert!(text.contains("line 1, column 6"), "{text}");
        assert!(text.contains("help: did you mean `p`?"), "{text}");
    }

    #[test]
    fn severity_orders_error_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Info);
        let diags = vec![
            Diagnostic::info("A007", "x"),
            Diagnostic::warning("A001", "y"),
        ];
        assert!(!has_errors(&diags));
        assert!(has_warnings(&diags));
    }
}
