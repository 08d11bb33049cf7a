//! The workspace-wide symbol table.
//!
//! Built from every parsed file in one pass, it answers the two questions
//! the syntax-aware rules need globally:
//!
//! * **r7 dead-config** — which serde-visible configuration fields exist?
//!   A *config field* is a named field of a library-code, non-test struct
//!   whose name ends in `Config`; it is *Deserialize-visible* when the
//!   struct's `#[derive(...)]` list names `Deserialize` (the workspace's
//!   vendored `serde_derive` has no `#[serde(...)]` field attributes, so
//!   derive presence is the whole visibility story).
//! * **r9 float-equality** — which field names are `f64`/`f32` typed
//!   anywhere in the workspace? Keyed by bare field name: a collision
//!   between a float field and a non-float field of the same name errs
//!   toward flagging, which is the conservative direction for a
//!   determinism lint.
//!
//! Fields are keyed `crate::Type::field` for reporting but matched by bare
//! name in the use-graph ([`crate::usage`]): a read of `max_intervals`
//! anywhere keeps *every* config field named `max_intervals` alive. That
//! deliberate imprecision can only suppress findings, never invent them.

use crate::config::FileClass;
use crate::parse::ParsedFile;
use std::collections::BTreeSet;

/// One named field of a `*Config` struct, with everything r7 needs to
/// report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigField {
    /// Owning crate's directory name (`sim`, `alloc`, …).
    pub crate_key: String,
    /// Owning struct (`SimConfig`).
    pub type_name: String,
    /// Field name.
    pub field: String,
    /// Workspace-relative path of the declaring file.
    pub path: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// 1-based column of the field name.
    pub col: u32,
    /// Byte span of the field name.
    pub span: (u32, u32),
    /// True when the struct derives `Deserialize`.
    pub deserialize: bool,
}

impl ConfigField {
    /// The `crate::Type::field` reporting key.
    pub fn key(&self) -> String {
        format!("{}::{}::{}", self.crate_key, self.type_name, self.field)
    }
}

/// Everything the workspace's parsed files declare that the rules care
/// about.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// All config-struct fields, in (path, line) order.
    pub config_fields: Vec<ConfigField>,
    /// Bare names of struct fields typed exactly `f64` or `f32`, anywhere.
    pub float_fields: BTreeSet<String>,
}

/// One file's contribution to the symbol table.
#[derive(Debug, Clone, Copy)]
pub struct FileSyms<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Crate directory name.
    pub crate_key: &'a str,
    /// Target class.
    pub class: FileClass,
    /// The parsed items.
    pub parsed: &'a ParsedFile,
}

/// Builds the symbol table from every file in the workspace (order of
/// `files` does not matter; output order is pinned by path+line).
pub fn build_symbols(files: &[FileSyms<'_>]) -> SymbolTable {
    let mut table = SymbolTable::default();
    for f in files {
        for s in &f.parsed.structs {
            for fld in &s.fields {
                if fld.ty == "f64" || fld.ty == "f32" {
                    table.float_fields.insert(fld.name.clone());
                }
            }
            // Config-struct fields: library code only, outside test
            // regions, name ends with `Config` (and isn't just "Config"
            // itself — that still counts; the suffix is the convention).
            if f.class != FileClass::Lib || s.in_test || !s.name.ends_with("Config") {
                continue;
            }
            let deserialize = s.derives.iter().any(|d| d == "Deserialize");
            for fld in &s.fields {
                table.config_fields.push(ConfigField {
                    crate_key: f.crate_key.to_string(),
                    type_name: s.name.clone(),
                    field: fld.name.clone(),
                    path: f.path.to_string(),
                    line: fld.line,
                    col: fld.col,
                    span: fld.span,
                    deserialize,
                });
            }
        }
    }
    table
        .config_fields
        .sort_by(|a, b| (&a.path, a.line, &a.field).cmp(&(&b.path, b.line, &b.field)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn syms(src: &str, class: FileClass) -> SymbolTable {
        let parsed = parse_file(&lex(src));
        build_symbols(&[FileSyms {
            path: "crates/sim/src/config.rs",
            crate_key: "sim",
            class,
            parsed: &parsed,
        }])
    }

    #[test]
    fn config_fields_require_suffix_lib_class_and_non_test() {
        let src = "#[derive(Serialize, Deserialize)]\n\
                   pub struct SimConfig { pub max_intervals: usize, pub util: f64 }\n\
                   pub struct Engine { ticks: u64 }\n\
                   #[cfg(test)]\nmod t { struct FakeConfig { x: u64 } }";
        let t = syms(src, FileClass::Lib);
        let keys: Vec<String> = t.config_fields.iter().map(|c| c.key()).collect();
        assert_eq!(keys, vec!["sim::SimConfig::max_intervals", "sim::SimConfig::util"]);
        assert!(t.config_fields.iter().all(|c| c.deserialize));
        // Same source in a test-file class contributes nothing.
        assert!(syms(src, FileClass::TestFile).config_fields.is_empty());
    }

    #[test]
    fn deserialize_flag_tracks_the_derive_list() {
        let t = syms("#[derive(Debug, Clone)]\nstruct FsConfig { depth: u32 }", FileClass::Lib);
        assert_eq!(t.config_fields.len(), 1);
        assert!(!t.config_fields[0].deserialize, "no Deserialize derive");
    }

    #[test]
    fn float_fields_collect_across_all_structs() {
        let t = syms(
            "struct A { rate: f64, count: u64 }\nstruct BConfig { frac: f32 }",
            FileClass::Lib,
        );
        assert!(t.float_fields.contains("rate"));
        assert!(t.float_fields.contains("frac"));
        assert!(!t.float_fields.contains("count"));
    }

    #[test]
    fn positions_point_at_the_field_name() {
        let src = "#[derive(Deserialize)]\nstruct XConfig {\n    alpha: f64,\n}";
        let t = syms(src, FileClass::Lib);
        let c = &t.config_fields[0];
        assert_eq!((c.line, c.col), (3, 5));
        assert_eq!(&src[c.span.0 as usize..c.span.1 as usize], "alpha");
    }
}
