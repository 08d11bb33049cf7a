//! A lightweight recursive-descent *item* parser over the lexed token
//! stream.
//!
//! The syntax-aware rules (r7 dead-config, r9 float-equality) need more
//! than a flat token stream but far less than a full expression grammar:
//! which structs exist, what they derive, what their named fields are (name,
//! type, position), and where function bodies begin and end so the use-graph
//! pass ([`crate::usage`]) can treat each body as a stream of use sites.
//!
//! The parser is deliberately shallow and total:
//!
//! * items are recognized by keyword (`struct`, `enum`, `fn`, `impl`) at
//!   any nesting depth — a linear scan with brace matching, so items inside
//!   `mod` blocks and methods inside `impl` blocks come out the same way;
//! * types are captured as flattened token text (`Vec < u64 >`), enough to
//!   answer "is this exactly `f64`?" and to key symbol-table entries;
//! * expression bodies are *not* parsed — a function body is a token-index
//!   range into the caller's stream;
//! * malformed input never panics: an unclosed delimiter simply ends the
//!   item at end-of-file, mirroring the lexer's conservative totality.

use crate::lexer::{Tok, TokKind};
use crate::rules::test_regions;

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Flattened type text, tokens joined by single spaces (`Vec < u64 >`).
    pub ty: String,
    /// 1-based line of the field-name token.
    pub line: u32,
    /// 1-based column of the field-name token.
    pub col: u32,
    /// Byte span of the field-name token.
    pub span: (u32, u32),
}

/// One `struct` item (named-field structs carry their fields; tuple and
/// unit structs parse with an empty field list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Idents listed in `#[derive(...)]` attributes (last path segment).
    pub derives: Vec<String>,
    /// Named fields in declaration order.
    pub fields: Vec<FieldDef>,
    /// 1-based line of the struct-name token.
    pub line: u32,
    /// True when the struct sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

/// One function or method parameter with a simple `name: Type` pattern
/// (`self` receivers and destructuring patterns are skipped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    /// Parameter name.
    pub name: String,
    /// Flattened type text.
    pub ty: String,
}

/// One `fn` item (free function or method — the parser does not care).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Simple `name: Type` parameters.
    pub params: Vec<ParamDef>,
    /// Half-open range of *token indices* (into the lexed stream handed to
    /// [`parse_file`]) covering the body between `{` and `}` exclusive.
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the fn-name token.
    pub line: u32,
    /// True when the fn sits inside a test region.
    pub in_test: bool,
}

/// One `impl` block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplDef {
    /// The implemented trait's last path segment (`Deserialize` for
    /// `impl<'de> serde::Deserialize<'de> for X`), if a trait impl.
    pub trait_name: Option<String>,
    /// Last path segment of the self type.
    pub type_name: String,
    /// Half-open token-index range of the impl body.
    pub body: (usize, usize),
    /// 1-based line of the `impl` keyword.
    pub line: u32,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All struct items, in source order.
    pub structs: Vec<StructDef>,
    /// All fn items (free fns and methods), in source order.
    pub fns: Vec<FnDef>,
    /// All impl blocks, in source order.
    pub impls: Vec<ImplDef>,
}

impl ParsedFile {
    /// Token-index ranges of manual `impl Serialize/Deserialize for …`
    /// bodies — the use-graph pass must not count reads inside them
    /// (serde-internal traffic is exactly what r7 discounts).
    pub fn serde_impl_ranges(&self) -> Vec<(usize, usize)> {
        self.impls
            .iter()
            .filter(|im| {
                matches!(im.trait_name.as_deref(), Some("Serialize") | Some("Deserialize"))
            })
            .map(|im| im.body)
            .collect()
    }
}

/// Parses the item structure of one lexed file.
pub fn parse_file(toks: &[Tok]) -> ParsedFile {
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let in_test = test_regions(toks);
    let mut p = Parser { toks, code: &code, in_test: &in_test, out: ParsedFile::default() };
    p.run();
    p.out
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Indices of non-comment tokens.
    code: &'a [usize],
    in_test: &'a [bool],
    out: ParsedFile,
}

impl Parser<'_> {
    /// The token behind code-index `ci`, if any.
    fn tok(&self, ci: usize) -> Option<&Tok> {
        self.code.get(ci).map(|&ti| &self.toks[ti])
    }

    fn is_punct(&self, ci: usize, c: char) -> bool {
        self.tok(ci).is_some_and(|t| t.is_punct(c))
    }

    fn is_ident(&self, ci: usize, text: &str) -> bool {
        self.tok(ci).is_some_and(|t| t.is_ident(text))
    }

    /// Skips an attribute `#[ … ]` starting at `ci` (at the `#`); returns
    /// the code index just past the closing `]`, plus any derive idents.
    fn skip_attr(&self, ci: usize, derives: &mut Vec<String>) -> usize {
        debug_assert!(self.is_punct(ci, '#'));
        let mut cj = ci + 1;
        if !self.is_punct(cj, '[') {
            return ci + 1;
        }
        let is_derive = self.is_ident(cj + 1, "derive");
        let mut depth = 0usize;
        while let Some(t) = self.tok(cj) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return cj + 1;
                }
            } else if is_derive && t.kind == TokKind::Ident && !t.is_ident("derive") {
                // Path segments accumulate; `serde :: Deserialize` ends up
                // pushing both, and lookups match on any — the last segment
                // is the one that matters and is always present.
                derives.push(t.text.clone());
            }
            cj += 1;
        }
        self.code.len()
    }

    /// Advances past a balanced `{ … }` group whose `{` is at `ci`;
    /// returns the index just past the matching `}` (or EOF).
    fn skip_braces(&self, ci: usize) -> usize {
        debug_assert!(self.is_punct(ci, '{'));
        let mut depth = 0usize;
        let mut cj = ci;
        while let Some(t) = self.tok(cj) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    return cj + 1;
                }
            }
            cj += 1;
        }
        self.code.len()
    }

    /// Skips a generics list `< … >` whose `<` is at `ci`. `->` and `>>`
    /// are handled (`>` preceded by `-` never closes; the lexer emits `>`
    /// one character at a time so shifts are two tokens).
    fn skip_generics(&self, ci: usize) -> usize {
        debug_assert!(self.is_punct(ci, '<'));
        let mut depth = 0i32;
        let mut cj = ci;
        while let Some(t) = self.tok(cj) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(cj > 0 && self.is_punct(cj - 1, '-')) {
                depth -= 1;
                if depth == 0 {
                    return cj + 1;
                }
            }
            cj += 1;
        }
        self.code.len()
    }

    fn run(&mut self) {
        let mut derives: Vec<String> = Vec::new();
        let mut ci = 0usize;
        while ci < self.code.len() {
            let Some(t) = self.tok(ci) else { break };
            if t.is_punct('#') && self.is_punct(ci + 1, '[') {
                ci = self.skip_attr(ci, &mut derives);
                continue;
            }
            if t.is_ident("struct") {
                ci = self.parse_struct(ci, std::mem::take(&mut derives));
                continue;
            }
            if t.is_ident("enum") || t.is_ident("union") {
                ci = self.skip_item_with_body(ci);
                derives.clear();
                continue;
            }
            if t.is_ident("fn") {
                ci = self.parse_fn(ci);
                derives.clear();
                continue;
            }
            if t.is_ident("impl") {
                ci = self.parse_impl(ci);
                derives.clear();
                continue;
            }
            // Any other token: pending derives only attach to the item
            // directly following their attribute block, so a non-attribute,
            // non-item keyword token (visibility modifiers and doc idents
            // aside) eventually clears them. Keep `pub`, `(`, `)` and
            // similar prefix tokens transparent so `#[derive(..)] pub
            // struct S` still sees its derives.
            if !(t.is_ident("pub")
                || t.is_punct('(')
                || t.is_punct(')')
                || t.is_ident("crate")
                || t.is_ident("super"))
            {
                derives.clear();
            }
            ci += 1;
        }
    }

    /// Skips `enum`/`union` items: name, generics, `{ … }` body.
    fn skip_item_with_body(&self, ci: usize) -> usize {
        let mut cj = ci + 1;
        while let Some(t) = self.tok(cj) {
            if t.is_punct('<') {
                cj = self.skip_generics(cj);
                continue;
            }
            if t.is_punct('{') {
                return self.skip_braces(cj);
            }
            if t.is_punct(';') {
                return cj + 1;
            }
            cj += 1;
        }
        self.code.len()
    }

    /// Parses `struct Name … ;` / `struct Name(..);` / `struct Name { … }`,
    /// with optional generics. `ci` is at the `struct` keyword.
    fn parse_struct(&mut self, ci: usize, derives: Vec<String>) -> usize {
        let Some(name_tok) = self.tok(ci + 1) else { return ci + 1 };
        if name_tok.kind != TokKind::Ident {
            return ci + 1;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let in_test = self.in_test[self.code[ci + 1]];
        let mut cj = ci + 2;
        if self.is_punct(cj, '<') {
            cj = self.skip_generics(cj);
        }
        // Tuple struct: skip the paren group and trailing `;`.
        if self.is_punct(cj, '(') {
            let mut depth = 0usize;
            while let Some(t) = self.tok(cj) {
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                cj += 1;
            }
            self.out.structs.push(StructDef { name, derives, fields: Vec::new(), line, in_test });
            return cj;
        }
        // Unit struct.
        if self.is_punct(cj, ';') {
            self.out.structs.push(StructDef { name, derives, fields: Vec::new(), line, in_test });
            return cj + 1;
        }
        // `where` clause before the body.
        while cj < self.code.len() && !self.is_punct(cj, '{') && !self.is_punct(cj, ';') {
            cj += 1;
        }
        if !self.is_punct(cj, '{') {
            self.out.structs.push(StructDef { name, derives, fields: Vec::new(), line, in_test });
            return cj + 1;
        }
        let end = self.skip_braces(cj);
        let fields = self.parse_fields(cj + 1, end.saturating_sub(1));
        self.out.structs.push(StructDef { name, derives, fields, line, in_test });
        end
    }

    /// Parses named fields between code indices `[start, end)` (the body of
    /// a struct, exclusive of its braces).
    fn parse_fields(&self, start: usize, end: usize, ) -> Vec<FieldDef> {
        let mut fields = Vec::new();
        let mut ci = start;
        while ci < end {
            // Field attributes.
            while ci < end && self.is_punct(ci, '#') && self.is_punct(ci + 1, '[') {
                let mut ignore = Vec::new();
                ci = self.skip_attr(ci, &mut ignore);
            }
            // Visibility.
            if ci < end && self.is_ident(ci, "pub") {
                ci += 1;
                if ci < end && self.is_punct(ci, '(') {
                    while ci < end && !self.is_punct(ci, ')') {
                        ci += 1;
                    }
                    ci += 1;
                }
            }
            let Some(name_tok) = self.tok(ci) else { break };
            if name_tok.kind != TokKind::Ident || !self.is_punct(ci + 1, ':') {
                // Not a field start — resynchronize at the next comma.
                while ci < end && !self.is_punct(ci, ',') {
                    ci += 1;
                }
                ci += 1;
                continue;
            }
            let name = name_tok.text.clone();
            let (line, col) = (name_tok.line, name_tok.col);
            let span = name_tok.span();
            ci += 2; // name ':'
            // Type: up to the comma (or end) at delimiter depth 0.
            let mut ty_parts: Vec<&str> = Vec::new();
            let mut depth = 0i32;
            while ci < end {
                let Some(t) = self.tok(ci) else { break };
                if depth == 0 && t.is_punct(',') {
                    ci += 1;
                    break;
                }
                match () {
                    _ if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') => depth += 1,
                    _ if t.is_punct(')') || t.is_punct(']') => depth -= 1,
                    _ if t.is_punct('>') && !(ci > 0 && self.is_punct(ci - 1, '-')) => depth -= 1,
                    _ => {}
                }
                ty_parts.push(&t.text);
                ci += 1;
            }
            fields.push(FieldDef { name, ty: ty_parts.join(" "), line, col, span });
        }
        fields
    }

    /// Parses `fn name … ( params ) -> T { body }`. `ci` is at `fn`.
    fn parse_fn(&mut self, ci: usize) -> usize {
        let Some(name_tok) = self.tok(ci + 1) else { return ci + 1 };
        if name_tok.kind != TokKind::Ident {
            return ci + 1;
        }
        let name = name_tok.text.clone();
        let line = name_tok.line;
        let in_test = self.in_test[self.code[ci + 1]];
        let mut cj = ci + 2;
        if self.is_punct(cj, '<') {
            cj = self.skip_generics(cj);
        }
        if !self.is_punct(cj, '(') {
            return cj;
        }
        // Parameter list.
        let params_start = cj + 1;
        let mut depth = 0usize;
        while let Some(t) = self.tok(cj) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            cj += 1;
        }
        let params = self.parse_params(params_start, cj.min(self.code.len()));
        cj += 1; // past ')'
        // Return type / where clause: scan to `{` or `;` at depth 0
        // (`->` is two tokens; angle brackets in the return type are
        // skipped as generics when encountered).
        while cj < self.code.len() {
            if self.is_punct(cj, '<') {
                cj = self.skip_generics(cj);
                continue;
            }
            if self.is_punct(cj, '{') || self.is_punct(cj, ';') {
                break;
            }
            cj += 1;
        }
        if self.is_punct(cj, '{') {
            let end = self.skip_braces(cj);
            let body_toks = (
                self.code.get(cj + 1).copied().unwrap_or(self.toks.len()),
                self.code
                    .get(end.saturating_sub(1))
                    .copied()
                    .unwrap_or(self.toks.len()),
            );
            self.out.fns.push(FnDef { name, params, body: Some(body_toks), line, in_test });
            // Do NOT skip the body wholesale: nested items (closures with
            // inner fns, local structs) still get parsed by the main loop.
            cj + 1
        } else {
            self.out.fns.push(FnDef { name, params, body: None, line, in_test });
            cj + 1
        }
    }

    /// Parses simple `name: Type` parameters between `[start, end)`.
    fn parse_params(&self, start: usize, end: usize) -> Vec<ParamDef> {
        let mut params = Vec::new();
        let mut ci = start;
        while ci < end {
            // One parameter: tokens up to the comma at depth 0.
            let mut depth = 0i32;
            let mut entry: Vec<usize> = Vec::new();
            while ci < end {
                let Some(t) = self.tok(ci) else { break };
                if depth == 0 && t.is_punct(',') {
                    ci += 1;
                    break;
                }
                match () {
                    _ if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') => depth += 1,
                    _ if t.is_punct(')') || t.is_punct(']') => depth -= 1,
                    _ if t.is_punct('>') && !(ci > 0 && self.is_punct(ci - 1, '-')) => depth -= 1,
                    _ => {}
                }
                entry.push(ci);
                ci += 1;
            }
            // Shape: [mut] name ':' type…  (skip receivers and patterns).
            let mut k = 0usize;
            if k < entry.len() && self.is_ident(entry[k], "mut") {
                k += 1;
            }
            let Some(&name_ci) = entry.get(k) else { continue };
            let Some(name_tok) = self.tok(name_ci) else { continue };
            if name_tok.kind != TokKind::Ident
                || name_tok.text == "self"
                || !self.is_punct(name_ci + 1, ':')
            {
                continue;
            }
            let ty: Vec<&str> = entry[k + 2..]
                .iter()
                .filter_map(|&eci| self.tok(eci).map(|t| t.text.as_str()))
                .collect();
            params.push(ParamDef { name: name_tok.text.clone(), ty: ty.join(" ") });
        }
        params
    }

    /// Parses an `impl` header: `impl<G> Trait for Type { … }` or
    /// `impl<G> Type { … }`. `ci` is at `impl`.
    fn parse_impl(&mut self, ci: usize) -> usize {
        let line = self.tok(ci).map(|t| t.line).unwrap_or(0);
        let mut cj = ci + 1;
        if self.is_punct(cj, '<') {
            cj = self.skip_generics(cj);
        }
        // Header tokens up to `{` at depth 0.
        let mut header: Vec<usize> = Vec::new();
        while cj < self.code.len() {
            if self.is_punct(cj, '<') {
                cj = self.skip_generics(cj);
                continue;
            }
            if self.is_punct(cj, '{') || self.is_punct(cj, ';') {
                break;
            }
            header.push(cj);
            cj += 1;
        }
        if !self.is_punct(cj, '{') {
            return cj + 1;
        }
        let body_open = cj;
        let end = self.skip_braces(body_open);
        // Split at `for`: idents before are the trait path, after the type.
        let for_pos = header.iter().position(|&h| self.is_ident(h, "for"));
        let last_ident = |slice: &[usize]| -> Option<String> {
            slice
                .iter()
                .rev()
                .filter_map(|&h| self.tok(h))
                .find(|t| t.kind == TokKind::Ident && !t.is_ident("dyn") && !t.is_ident("where"))
                .map(|t| t.text.clone())
        };
        let (trait_name, type_name) = match for_pos {
            Some(p) => (last_ident(&header[..p]), last_ident(&header[p + 1..])),
            None => (None, last_ident(&header)),
        };
        let body_toks = (
            self.code.get(body_open + 1).copied().unwrap_or(self.toks.len()),
            self.code.get(end.saturating_sub(1)).copied().unwrap_or(self.toks.len()),
        );
        self.out.impls.push(ImplDef {
            trait_name,
            type_name: type_name.unwrap_or_default(),
            body: body_toks,
            line,
        });
        // Continue *inside* the impl body so methods get parsed.
        body_open + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src))
    }

    #[test]
    fn named_struct_with_derives_and_fields() {
        let src = "#[derive(Debug, Clone, Serialize, Deserialize)]\n\
                   pub struct SimConfig {\n\
                       /// doc\n\
                       pub util_lower: f64,\n\
                       pub file_types: Vec<FileTypeConfig>,\n\
                       max_intervals: usize,\n\
                   }";
        let p = parse(src);
        assert_eq!(p.structs.len(), 1);
        let s = &p.structs[0];
        assert_eq!(s.name, "SimConfig");
        assert!(s.derives.iter().any(|d| d == "Deserialize"));
        assert!(s.derives.iter().any(|d| d == "Clone"));
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["util_lower", "file_types", "max_intervals"]);
        assert_eq!(s.fields[0].ty, "f64");
        assert_eq!(s.fields[1].ty, "Vec < FileTypeConfig >");
        assert_eq!(s.fields[0].line, 4);
    }

    #[test]
    fn qualified_derive_paths_keep_last_segment() {
        let src = "#[derive(serde::Deserialize)]\nstruct C { a: u64 }";
        let p = parse(src);
        assert!(p.structs[0].derives.iter().any(|d| d == "Deserialize"));
    }

    #[test]
    fn tuple_and_unit_structs_have_no_fields() {
        let p = parse("struct A(u64, f64);\nstruct B;\nstruct C<T>(T);");
        assert_eq!(p.structs.len(), 3);
        assert!(p.structs.iter().all(|s| s.fields.is_empty()));
        assert_eq!(p.structs[2].name, "C");
    }

    #[test]
    fn field_attrs_and_nested_generics_parse() {
        let src = "struct S { #[serde(default)] m: BTreeMap<String, Vec<(u64, f64)>>, n: u32 }";
        let p = parse(src);
        let names: Vec<&str> = p.structs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["m", "n"]);
    }

    #[test]
    fn fns_capture_params_and_bodies() {
        let src = "fn free(a: u64, mut b: f64) -> f64 { b + a as f64 }\n\
                   impl Foo { fn method(&self, x: f32) {} }\n\
                   trait T { fn decl(q: f64); }";
        let p = parse(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "method", "decl"]);
        assert_eq!(p.fns[0].params, vec![
            ParamDef { name: "a".into(), ty: "u64".into() },
            ParamDef { name: "b".into(), ty: "f64".into() },
        ]);
        assert_eq!(p.fns[1].params, vec![ParamDef { name: "x".into(), ty: "f32".into() }]);
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[2].body.is_none(), "trait declaration has no body");
    }

    #[test]
    fn impl_headers_split_trait_and_type() {
        let src = "impl Config { fn f(&self) {} }\n\
                   impl Default for Config { fn default() -> Self { Config } }\n\
                   impl<'de> serde::Deserialize<'de> for Config { fn deserialize() {} }";
        let p = parse(src);
        assert_eq!(p.impls.len(), 3);
        assert_eq!(p.impls[0].trait_name, None);
        assert_eq!(p.impls[0].type_name, "Config");
        assert_eq!(p.impls[1].trait_name.as_deref(), Some("Default"));
        assert_eq!(p.impls[2].trait_name.as_deref(), Some("Deserialize"));
        assert_eq!(p.serde_impl_ranges().len(), 1);
    }

    #[test]
    fn generic_fn_with_arrow_in_bounds() {
        let src = "fn apply<F: Fn(u64) -> f64>(f: F, x: u64) -> f64 { f(x) }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].params, vec![
            ParamDef { name: "f".into(), ty: "F".into() },
            ParamDef { name: "x".into(), ty: "u64".into() },
        ]);
    }

    #[test]
    fn structs_in_cfg_test_are_marked() {
        let src = "#[cfg(test)]\nmod tests { struct Helper { x: u64 } }\nstruct Real { y: u64 }";
        let p = parse(src);
        assert_eq!(p.structs.len(), 2);
        assert!(p.structs[0].in_test);
        assert!(!p.structs[1].in_test);
    }

    #[test]
    fn parser_is_total_on_malformed_input() {
        for src in [
            "struct",
            "struct {",
            "struct S { a: ",
            "fn",
            "fn f(",
            "impl",
            "impl X {",
            "struct S { a: Vec<u64, b: f64 }",
        ] {
            let _ = parse(src); // must not panic
        }
    }

    #[test]
    fn field_positions_match_source() {
        let src = "struct S {\n    alpha: u64,\n    beta: f64,\n}";
        let p = parse(src);
        let beta = &p.structs[0].fields[1];
        assert_eq!((beta.line, beta.col), (3, 5));
        let (s, e) = beta.span;
        assert_eq!(&src[s as usize..e as usize], "beta");
    }
}
