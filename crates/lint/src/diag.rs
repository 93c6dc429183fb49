//! Diagnostics: stable codes, spans, rendering, and the in-source escape
//! hatch (`// cmt-lint: allow(CMT-L001)` comments).

use std::fmt;
use std::path::PathBuf;

use crate::items::FileAnalysis;

/// All stable diagnostic codes, with one-line summaries (the
/// `--list-rules` output and the README reference table are generated
/// from this).
pub const RULES: &[(&str, &str)] = &[
    (
        "CMT-L001",
        "split-phase pairing: every gs_op_start must reach a matching finish (or explicit drain) on all control-flow paths",
    ),
    (
        "CMT-L002",
        "collective-order consistency: rank-dependent branches must execute identical collective skeletons",
    ),
];

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub code: &'static str,
    pub file: PathBuf,
    pub line: u32,
    pub col: u32,
    pub message: String,
    /// Optional secondary line (call chain, hint).
    pub note: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.code, self.message)?;
        write!(
            f,
            "  --> {}:{}:{}",
            self.file.display(),
            self.line,
            self.col
        )?;
        if let Some(n) = &self.note {
            write!(f, "\n  note: {n}")?;
        }
        Ok(())
    }
}

/// Apply the in-source escape hatch: drop findings covered by a
/// `cmt-lint: allow(CODE)` comment (any comment form works — `//`,
/// `///`, `//!`, or block). Placement:
///
/// * **statement-level** — on the finding's line, or anywhere in the
///   contiguous comment block that introduces the statement containing
///   the finding (so a multi-line justification counts in full). The
///   covered span runs from the first code line after the comment to
///   the end of that statement (first `;`-carrying line, capped at 12
///   lines);
/// * **file-level** — within the first 15 lines of the file, suppresses
///   the code for that whole file.
pub fn apply_source_allows(diags: Vec<Diagnostic>, files: &[FileAnalysis]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            let Some(fa) = files.iter().find(|f| f.path == d.file) else {
                return true;
            };
            !fa.comments.iter().any(|c| {
                comment_allows(&c.text, d.code) && (c.line <= 15 || covers(fa, c.line, d.line))
            })
        })
        .collect()
}

/// Does an allow comment on `c_line` cover a finding on line `l`?
///
/// The comment covers the statement it introduces: from the first line
/// carrying a token after `c_line` (intervening lines that hold only
/// comments or whitespace are skipped, so the allow may lead a
/// multi-line comment block) through the first line carrying a `;`
/// token, capped at 12 lines of code.
fn covers(fa: &FileAnalysis, c_line: u32, l: u32) -> bool {
    if c_line > l {
        return false;
    }
    if c_line == l {
        return true;
    }
    let Some(first_code) = fa
        .toks
        .iter()
        .map(|t| t.line)
        .filter(|&tl| tl > c_line)
        .min()
    else {
        return false;
    };
    if l < first_code {
        return false; // finding inside the comment gap — shouldn't happen
    }
    let stmt_end = fa
        .toks
        .iter()
        .filter(|t| t.line >= first_code && t.text == ";")
        .map(|t| t.line)
        .min()
        .unwrap_or(first_code)
        .min(first_code + 12);
    l <= stmt_end
}

/// Does one comment text carry `cmt-lint: allow(..)` covering `code`?
fn comment_allows(text: &str, code: &str) -> bool {
    let Some(at) = text.find("cmt-lint:") else {
        return false;
    };
    let rest = text[at + "cmt-lint:".len()..].trim_start();
    let Some(args) = rest
        .strip_prefix("allow(")
        .and_then(|r| r.split(')').next())
    else {
        return false;
    };
    args.split(',')
        .any(|c| c.trim().eq_ignore_ascii_case(code) || c.trim() == "*")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::scan_file;
    use std::path::PathBuf;

    fn diag(line: u32) -> Diagnostic {
        Diagnostic {
            code: "CMT-L001",
            file: PathBuf::from("x.rs"),
            line,
            col: 1,
            message: "m".into(),
            note: None,
        }
    }

    #[test]
    fn line_level_allow_suppresses_nearby_finding_only() {
        let src = "\n".repeat(30) + "// cmt-lint: allow(CMT-L001)\nlet x = 1;\n";
        let fa = scan_file(PathBuf::from("x.rs"), &src);
        let files = vec![fa];
        // Comment is on line 31; finding on line 32 is covered, 35 not.
        assert!(apply_source_allows(vec![diag(32)], &files).is_empty());
        assert_eq!(apply_source_allows(vec![diag(35)], &files).len(), 1);
    }

    #[test]
    fn file_level_allow_covers_everything() {
        let src = "//! cmt-lint: allow(CMT-L002, CMT-L001)\n".to_string() + &"\n".repeat(50);
        let fa = scan_file(PathBuf::from("x.rs"), &src);
        let files = vec![fa];
        assert!(apply_source_allows(vec![diag(40)], &files).is_empty());
    }

    #[test]
    fn other_codes_are_not_suppressed() {
        let src = "// cmt-lint: allow(CMT-L002)\nlet x = 1;\n";
        let fa = scan_file(PathBuf::from("x.rs"), src);
        assert_eq!(apply_source_allows(vec![diag(2)], &[fa]).len(), 1);
    }
}
