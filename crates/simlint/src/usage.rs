//! The use-graph pass: where are fields *read*?
//!
//! r7 declares a config field dead when it has zero non-serde, non-test
//! reads anywhere in the workspace. This module collects the read sites.
//! A *read* is:
//!
//! * a field access `expr.name` that is not a method call (`expr.name(`)
//!   and not a plain assignment target (`expr.name = value` — a field
//!   only ever written is still dead as far as simulation results go;
//!   compound assignments like `+=` read first and do count);
//! * a binding introduced by a struct *destructuring pattern* —
//!   `let SimConfig { max_intervals, .. } = cfg` or a
//!   `SimConfig { max_intervals, .. } =>` match arm. Struct *literals*
//!   (constructors like `SimConfig { max_intervals, .. }` in expression
//!   position) are writes and deliberately do not count: every config
//!   type has a constructor naming all its fields, so counting literals
//!   would keep everything alive and r7 would never fire.
//!
//! Excluded regions: `#[cfg(test)]` / `#[test]` bodies, whole
//! `tests/**` files, and the bodies of manual `impl Serialize/Deserialize`
//! blocks (serde-internal traffic is exactly what r7 discounts).
//!
//! Reads are keyed by bare field name. Ranges (`0..n`) and fully-qualified
//! paths can contribute stray names; name collisions across structs merge.
//! Both imprecisions only *add* reads — they can hide a dead field but
//! never flag a live one, the right failure direction for a lint.

use crate::config::FileClass;
use crate::lexer::{Tok, TokKind};
use crate::parse::ParsedFile;
use crate::rules::test_regions;
use std::collections::BTreeSet;

/// Collects the bare names read in one file. `toks` must be the same
/// token stream `parsed` was built from.
pub fn collect_reads(toks: &[Tok], parsed: &ParsedFile, class: FileClass) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    if class == FileClass::TestFile {
        return reads;
    }
    let in_test = test_regions(toks);
    let serde_ranges = parsed.serde_impl_ranges();
    let excluded = |ti: usize| -> bool {
        in_test[ti] || serde_ranges.iter().any(|&(s, e)| ti >= s && ti < e)
    };
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();

    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if t.kind != TokKind::Ident || excluded(ti) {
            continue;
        }
        // Field access: `. name` with neither a call nor a plain write.
        if ci > 0 && toks[code[ci - 1]].is_punct('.') {
            let next = code.get(ci + 1).map(|&nj| &toks[nj]);
            let is_call = next.is_some_and(|n| n.is_punct('('));
            let is_plain_assign = next.is_some_and(|n| n.is_punct('='))
                && !code.get(ci + 2).is_some_and(|&nj| toks[nj].is_punct('='));
            if !is_call && !is_plain_assign {
                reads.insert(t.text.clone());
            }
            continue;
        }
        // Destructuring pattern: `TypeName { a, b: bound, .. }`.
        if starts_with_uppercase(&t.text)
            && code.get(ci + 1).is_some_and(|&nj| toks[nj].is_punct('{'))
            && is_pattern_position(toks, &code, ci)
        {
            collect_pattern_bindings(toks, &code, ci + 1, &mut reads);
        }
    }
    reads
}

fn starts_with_uppercase(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_uppercase())
}

/// Is the `TypeName {` at code index `ci` a *pattern* (destructure) rather
/// than a struct literal? True when a `let` sits just before the type path
/// (skipping path segments, `&`, `(` — covers `if let Some(Cfg { .. })`),
/// or when the matching `}` is followed by `=>` (skipping closing parens —
/// a match arm).
fn is_pattern_position(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    // Backward scan for `let`.
    let mut back = ci;
    let mut steps = 0;
    while back > 0 && steps < 8 {
        back -= 1;
        steps += 1;
        let t = &toks[code[back]];
        if t.is_ident("let") {
            return true;
        }
        let transparent = t.is_punct(':')
            || t.is_punct('(')
            || t.is_punct('&')
            || t.kind == TokKind::Ident && (starts_with_uppercase(&t.text) || t.is_ident("ref"));
        if !transparent {
            break;
        }
    }
    // Forward scan: matching `}` then (past any `)`) a `=>`.
    let mut depth = 0usize;
    let mut cj = ci + 1;
    while cj < code.len() {
        let t = &toks[code[cj]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        cj += 1;
    }
    cj += 1;
    while cj < code.len() && toks[code[cj]].is_punct(')') {
        cj += 1;
    }
    cj + 1 < code.len() && toks[code[cj]].is_punct('=') && toks[code[cj + 1]].is_punct('>')
}

/// Collects field names from the pattern body whose `{` is at code index
/// `open`. In a pattern, both `name` (shorthand) and `name: binding` read
/// the field `name`; `..` and nested patterns resynchronize at commas.
fn collect_pattern_bindings(
    toks: &[Tok],
    code: &[usize],
    open: usize,
    reads: &mut BTreeSet<String>,
) {
    let mut depth = 0usize;
    let mut cj = open;
    let mut at_entry_start = false;
    while cj < code.len() {
        let t = &toks[code[cj]];
        if t.is_punct('{') {
            depth += 1;
            if depth == 1 {
                at_entry_start = true;
            }
        } else if t.is_punct('}') {
            if depth == 1 {
                return;
            }
            depth -= 1;
        } else if depth == 1 {
            if t.is_punct(',') {
                at_entry_start = true;
            } else if at_entry_start {
                if t.is_ident("ref") || t.is_ident("mut") {
                    // stay at entry start for the name that follows
                } else {
                    if t.kind == TokKind::Ident {
                        reads.insert(t.text.clone());
                    }
                    at_entry_start = false;
                }
            }
        }
        cj += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn reads(src: &str) -> BTreeSet<String> {
        let toks = lex(src);
        let parsed = parse_file(&toks);
        collect_reads(&toks, &parsed, FileClass::Lib)
    }

    fn has(set: &BTreeSet<String>, name: &str) -> bool {
        set.contains(name)
    }

    #[test]
    fn field_access_counts_method_call_does_not() {
        let r = reads("fn f(c: &Cfg) -> u64 { c.max_intervals + c.compute() }");
        assert!(has(&r, "max_intervals"));
        assert!(!has(&r, "compute"));
    }

    #[test]
    fn plain_assignment_is_a_write_compound_is_a_read() {
        let r = reads("fn f(c: &mut Cfg) { c.dead = 4; c.live += 1; }");
        assert!(!has(&r, "dead"), "plain write only");
        assert!(has(&r, "live"), "+= reads first");
        // Comparison is a read even though `=` follows the field.
        let r = reads("fn g(c: &Cfg) -> bool { c.flag == 1 }");
        assert!(has(&r, "flag"));
    }

    #[test]
    fn struct_literals_do_not_count_patterns_do() {
        let ctor = reads("fn ctor() -> Cfg { Cfg { max_intervals: 1, util } }");
        assert!(!has(&ctor, "max_intervals"), "constructor writes, not reads");
        assert!(!has(&ctor, "util"), "shorthand literal writes, not reads");
        let pat = reads("fn f(c: Cfg) { let Cfg { max_intervals, util: u, .. } = c; }");
        assert!(has(&pat, "max_intervals"));
        assert!(has(&pat, "util"), "`field: binding` reads `field`");
        assert!(!has(&pat, "u"), "the binding name is not the field");
    }

    #[test]
    fn match_arm_patterns_count() {
        let r = reads(
            "fn f(p: Policy) -> u64 { match p { Policy::Fixed(FixedConfig { size, .. }) => size, _ => 0 } }",
        );
        assert!(has(&r, "size"));
    }

    #[test]
    fn functional_update_base_is_not_a_field_read() {
        let r = reads("fn f(base: Cfg) -> Cfg { Cfg { max_intervals: 2, ..base } }");
        assert!(!has(&r, "max_intervals"));
    }

    #[test]
    fn test_regions_and_test_files_are_excluded() {
        let r = reads("#[cfg(test)]\nmod t { fn f(c: &Cfg) -> u64 { c.max_intervals } }");
        assert!(!has(&r, "max_intervals"));
        let toks = lex("fn f(c: &Cfg) -> u64 { c.max_intervals }");
        let parsed = parse_file(&toks);
        assert!(collect_reads(&toks, &parsed, FileClass::TestFile).is_empty());
    }

    #[test]
    fn manual_serde_impls_are_excluded() {
        let src = "impl Serialize for Cfg { fn serialize(&self) -> u64 { self.max_intervals } }\n\
                   impl Display for Cfg { fn fmt(&self) -> u64 { self.util } }";
        let r = reads(src);
        assert!(!has(&r, "max_intervals"), "serde impl body is serde traffic");
        assert!(has(&r, "util"), "other impls count normally");
    }
}
