//! Expected `paper_tables` stdout, captured at the commit that defined
//! this benchmark, and the section-wise comparison the workloads use.
//!
//! * `golden/paper_scale.txt` — `paper_tables --jobs 1 fig3 table16`
//!   (paper scale). Its sections equal the same sections of the
//!   repository's `paper_tables_output.txt`.
//! * `golden/small_all.txt` — `paper_tables --small --jobs 1 all`. Its
//!   smoke sections equal `tests/golden/paper_tables_subset_small.txt`.
//!
//! The tests below pin both cross-checks.

/// Paper-scale `fig3` and `table16` stdout.
pub const PAPER_SCALE: &str = include_str!("../golden/paper_scale.txt");

/// Small-scale full-suite stdout.
pub const SMALL_ALL: &str = include_str!("../golden/small_all.txt");

/// Splits `paper_tables` stdout into `(name, body)` sections at its
/// `==================== name ====================` headers. Text
/// before the first header becomes a section named `""`.
pub fn sections(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut name = "";
    let mut start = 0;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let header = line
            .trim_end_matches('\n')
            .strip_prefix("==================== ")
            .and_then(|s| s.strip_suffix(" ===================="))
            .filter(|s| !s.is_empty() && !s.contains(' '));
        if let Some(h) = header {
            if at > 0 {
                out.push((name, &text[start..at]));
            }
            name = h;
            start = at + line.len();
        }
        at += line.len();
    }
    if at > 0 {
        out.push((name, &text[start..at]));
    }
    out
}

/// The section names on which `got` and `want` disagree: changed
/// bodies, plus sections present in only one of them. Empty exactly
/// when the two are byte-equal.
pub fn differing_sections(got: &str, want: &str) -> Vec<String> {
    if got == want {
        return Vec::new();
    }
    let (g, w) = (sections(got), sections(want));
    let mut bad: Vec<String> = w
        .iter()
        .filter(|(name, body)| g.iter().find(|(n, _)| n == name).map(|(_, b)| b) != Some(body))
        .map(|(name, _)| name.to_string())
        .collect();
    bad.extend(
        g.iter()
            .filter(|(name, _)| !w.iter().any(|(n, _)| n == name))
            .map(|(name, _)| format!("{name} (unexpected)")),
    );
    if bad.is_empty() {
        // Same sections, different bytes elsewhere (e.g. their order).
        bad.push("section order".to_string());
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(rel: &str) -> String {
        let path = format!("{}/../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    /// A section body with its trailing blank lines removed: the last
    /// section of a file ends at end-of-file, any other one at the next
    /// header.
    fn trimmed(body: &str) -> &str {
        body.trim_end_matches('\n')
    }

    #[test]
    fn splitter_finds_headers_and_keeps_bodies_verbatim() {
        let text = "==================== a ====================\nx\n\n\
                    ==================== b ====================\ny\n";
        assert_eq!(sections(text), vec![("a", "x\n\n"), ("b", "y\n")]);
        // Text before the first header, and look-alike lines that are
        // not headers, stay in the body they belong to.
        let text = "pre\n==================== a ====================\n\
                    ==================== not a header ====================\n";
        assert_eq!(
            sections(text),
            vec![
                ("", "pre\n"),
                (
                    "a",
                    "==================== not a header ====================\n"
                )
            ]
        );
        assert!(sections("").is_empty());
    }

    #[test]
    fn differing_sections_names_what_changed() {
        let want = "==================== a ====================\n1\n\
                    ==================== b ====================\n2\n";
        assert!(differing_sections(want, want).is_empty());
        let got = want.replace("2\n", "3\n");
        assert_eq!(differing_sections(&got, want), vec!["b"]);
        let got = "==================== a ====================\n1\n";
        assert_eq!(differing_sections(got, want), vec!["b"]);
        let got = format!("{want}==================== c ====================\n");
        assert_eq!(differing_sections(&got, want), vec!["c (unexpected)"]);
        let swapped = "==================== b ====================\n2\n\
                       ==================== a ====================\n1\n";
        assert_eq!(differing_sections(swapped, want), vec!["section order"]);
    }

    #[test]
    fn paper_scale_golden_matches_the_committed_paper_run() {
        let full = repo_file("paper_tables_output.txt");
        let full = sections(&full);
        let paper = sections(PAPER_SCALE);
        let names: Vec<&str> = paper.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["table16", "fig3"]);
        for (name, body) in paper {
            let (_, want) = full
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} missing from paper_tables_output.txt"));
            assert_eq!(trimmed(body), trimmed(want), "section {name}");
        }
    }

    #[test]
    fn small_golden_matches_the_committed_smoke_golden() {
        let subset = repo_file("tests/golden/paper_tables_subset_small.txt");
        let all = sections(SMALL_ALL);
        let names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        let registry: Vec<&str> = m3d_bench::paper_drivers().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, registry);
        for (name, body) in sections(&subset) {
            let (_, got) = all
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} missing from the small golden"));
            assert_eq!(trimmed(got), trimmed(body), "section {name}");
        }
    }
}
