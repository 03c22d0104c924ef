//! Workspace file collection and the flattened token model rules run on.
//!
//! `syn::parse_file` (the offline token-level stub — see `stubs/README.md`)
//! gives us balanced token trees. Rules want linear scans with just
//! enough structure recovered: the enclosing `fn`/`mod` chain of every
//! token (allow-list entries match by item name), whether the token is
//! test-only code (`#[cfg(test)]` / `#[test]` items, `tests/` /
//! `examples/` / `benches/` files — the invariants protect *runtime*
//! semantics, so test scaffolding is structurally exempt), whether it
//! sits inside a `use` statement, and matched-bracket indices so rule D4
//! can reason about guard liveness within a brace block.

use std::fs;
use std::path::{Path, PathBuf};

/// Token kind in the flattened stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (text in [`Tok::text`]).
    Ident,
    /// Literal (string/char/number); contents never inspected.
    Lit,
    /// Single punctuation char ([`Tok::ch`]).
    Punct,
    /// Group open: `(`, `{`, or `[` ([`Tok::ch`]).
    Open,
    /// Group close: `)`, `}`, or `]` ([`Tok::ch`]).
    Close,
}

/// One flattened token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token.
    pub kind: Kind,
    /// Ident text (empty for non-idents).
    pub text: String,
    /// Punct/delimiter char (`\0` for idents/literals).
    pub ch: char,
    /// 1-based source line.
    pub line: u32,
    /// Index into [`Unit::ctxs`].
    pub ctx: u32,
    /// Inside a `use` statement (import paths are not constructions).
    pub in_use: bool,
}

/// An item context: the chain of enclosing `mod`/`fn` names.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Names from outermost to innermost (mods and fns interleaved).
    pub chain: Vec<String>,
    /// Token belongs to test-only code.
    pub test: bool,
}

impl Ctx {
    /// Innermost item name, for reports ( `<file>` at file level).
    pub fn item(&self) -> &str {
        self.chain.last().map(|s| s.as_str()).unwrap_or("<file>")
    }
}

/// A parsed source file ready for linting.
#[derive(Debug)]
pub struct Unit {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Flattened tokens.
    pub toks: Vec<Tok>,
    /// Context table referenced by [`Tok::ctx`].
    pub ctxs: Vec<Ctx>,
    /// For each `Open` token, the index of its matching `Close` (and
    /// vice versa); `usize::MAX` elsewhere.
    pub matched: Vec<usize>,
}

impl Unit {
    /// Parse and flatten one file. `test_file` marks the whole file as
    /// test scaffolding (integration tests, examples, benches).
    pub fn parse(path: String, src: &str, test_file: bool) -> Result<Unit, String> {
        let file = syn::parse_file(src).map_err(|e| format!("{}: parse error: {}", path, e))?;
        let mut unit = Unit {
            path,
            toks: Vec::new(),
            ctxs: vec![Ctx {
                chain: Vec::new(),
                test: test_file,
            }],
            matched: Vec::new(),
        };
        flatten(&file.tokens.trees, 0, false, &mut unit);
        unit.matched = vec![usize::MAX; unit.toks.len()];
        let mut stack = Vec::new();
        for i in 0..unit.toks.len() {
            match unit.toks[i].kind {
                Kind::Open => stack.push(i),
                Kind::Close => {
                    if let Some(open) = stack.pop() {
                        unit.matched[open] = i;
                        unit.matched[i] = open;
                    }
                }
                _ => {}
            }
        }
        Ok(unit)
    }

    /// Ident text at `i`, or `""`.
    pub fn ident(&self, i: usize) -> &str {
        match self.toks.get(i) {
            Some(t) if t.kind == Kind::Ident => &t.text,
            _ => "",
        }
    }

    /// Is there a `::` starting at token `i`?
    pub fn colons(&self, i: usize) -> bool {
        self.punct(i) == ':' && self.punct(i + 1) == ':'
    }

    /// Punct char at `i`, or `\0`.
    pub fn punct(&self, i: usize) -> char {
        match self.toks.get(i) {
            Some(t) if t.kind == Kind::Punct => t.ch,
            _ => '\0',
        }
    }

    /// Is token `i` an `Open` with char `ch`?
    pub fn open(&self, i: usize, ch: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == Kind::Open && t.ch == ch)
    }

    /// The context of token `i`.
    pub fn ctx(&self, i: usize) -> &Ctx {
        &self.ctxs[self.toks[i].ctx as usize]
    }
}

/// Recursive flatten with item-context recovery. `ctx` is the current
/// context index, `in_use` marks tokens inside a `use` statement.
fn flatten(trees: &[syn::TokenTree], ctx: u32, in_use_inherit: bool, unit: &mut Unit) {
    let mut pending_name: Option<String> = None;
    let mut pending_test_attr = false;
    let mut in_use = in_use_inherit;
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            syn::TokenTree::Ident(id) => {
                match id.text.as_str() {
                    // `use` is keyword-only in import position (incl.
                    // `pub use`), so no statement-start check is needed.
                    "use" => in_use = true,
                    "fn" | "mod" => {
                        if let Some(syn::TokenTree::Ident(name)) = trees.get(i + 1) {
                            pending_name = Some(name.text.clone());
                        }
                    }
                    _ => {}
                }
                unit.toks.push(Tok {
                    kind: Kind::Ident,
                    text: id.text.clone(),
                    ch: '\0',
                    line: id.span.line,
                    ctx,
                    in_use,
                });
            }
            syn::TokenTree::Punct(p) => {
                // Attribute: `#` followed by a bracket group. `test`
                // anywhere inside (without `not`) marks the next item as
                // test-only — covers `#[test]`, `#[cfg(test)]`, and
                // `#[cfg_attr(test, ...)]`, while leaving
                // `#[cfg(not(test))]` as production code.
                if p.ch == '#' {
                    if let Some(syn::TokenTree::Group(g)) = trees.get(i + 1) {
                        if g.delimiter == syn::Delimiter::Bracket {
                            let mut has_test = false;
                            let mut has_not = false;
                            scan_idents(&g.stream.trees, &mut |t| {
                                has_test |= t == "test";
                                has_not |= t == "not";
                            });
                            if has_test && !has_not {
                                pending_test_attr = true;
                            }
                        }
                    }
                }
                if p.ch == ';' {
                    pending_name = None;
                    pending_test_attr = false;
                    in_use = false;
                }
                unit.toks.push(Tok {
                    kind: Kind::Punct,
                    text: String::new(),
                    ch: p.ch,
                    line: p.span.line,
                    ctx,
                    in_use,
                });
            }
            syn::TokenTree::Literal(l) => {
                unit.toks.push(Tok {
                    kind: Kind::Lit,
                    text: String::new(),
                    ch: '\0',
                    line: l.span.line,
                    ctx,
                    in_use,
                });
            }
            syn::TokenTree::Group(g) => {
                let (open, close) = match g.delimiter {
                    syn::Delimiter::Parenthesis => ('(', ')'),
                    syn::Delimiter::Brace => ('{', '}'),
                    syn::Delimiter::Bracket => ('[', ']'),
                };
                let is_body = g.delimiter == syn::Delimiter::Brace && pending_name.is_some();
                let inner_ctx = if is_body {
                    let parent = &unit.ctxs[ctx as usize];
                    let mut chain = parent.chain.clone();
                    chain.push(pending_name.take().expect("checked is_some"));
                    let test = parent.test || pending_test_attr;
                    unit.ctxs.push(Ctx { chain, test });
                    pending_test_attr = false;
                    (unit.ctxs.len() - 1) as u32
                } else {
                    ctx
                };
                unit.toks.push(Tok {
                    kind: Kind::Open,
                    text: String::new(),
                    ch: open,
                    line: g.span.line,
                    ctx: inner_ctx,
                    in_use,
                });
                flatten(&g.stream.trees, inner_ctx, in_use, unit);
                unit.toks.push(Tok {
                    kind: Kind::Close,
                    text: String::new(),
                    ch: close,
                    line: g.span.line,
                    ctx: inner_ctx,
                    in_use,
                });
                if g.delimiter == syn::Delimiter::Brace && !in_use {
                    // A brace group terminates an item, consuming any
                    // pending name/attribute.
                    pending_name = None;
                    pending_test_attr = false;
                }
            }
        }
        i += 1;
    }
}

fn scan_idents(trees: &[syn::TokenTree], f: &mut impl FnMut(&str)) {
    for t in trees {
        match t {
            syn::TokenTree::Ident(i) => f(&i.text),
            syn::TokenTree::Group(g) => scan_idents(&g.stream.trees, f),
            _ => {}
        }
    }
}

/// Whether a workspace-relative path is test scaffolding by location.
pub fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "examples" || seg == "benches")
        || rel.ends_with("build.rs")
}

/// Collect every lintable `.rs` file under `root`.
///
/// Skipped subtrees: `target/` (build output), `stubs/` (stand-ins for
/// *third-party* crates — they mirror upstream APIs, and e.g. the
/// crossbeam stub legitimately constructs raw channels), `.git/`, and
/// any `tests/ui/` directory (lint fixtures are deliberately-bad code,
/// linted only through their own mini-roots by the ui test suite).
pub fn collect_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {}", dir.display(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {}", dir.display(), e))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "stubs" {
                continue;
            }
            if name == "ui" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(src: &str) -> Unit {
        Unit::parse("crates/x/src/lib.rs".into(), src, false).unwrap()
    }

    #[test]
    fn contexts_track_fns_and_mods() {
        let u = unit(
            "mod outer {\n    fn inner() { let x = 1; }\n    #[cfg(test)]\n    mod tests {\n        fn t() { let y = 2; }\n    }\n}\n",
        );
        let x = u
            .toks
            .iter()
            .position(|t| t.kind == Kind::Ident && t.text == "x")
            .unwrap();
        assert_eq!(
            u.ctx(x).chain,
            vec!["outer".to_string(), "inner".to_string()]
        );
        assert!(!u.ctx(x).test);
        let y = u
            .toks
            .iter()
            .position(|t| t.kind == Kind::Ident && t.text == "y")
            .unwrap();
        assert!(u.ctx(y).test);
        assert_eq!(u.ctx(y).item(), "t");
    }

    #[test]
    fn cfg_not_test_is_production() {
        let u = unit("#[cfg(not(test))]\nfn prod() { let z = 3; }\n");
        let z = u
            .toks
            .iter()
            .position(|t| t.kind == Kind::Ident && t.text == "z")
            .unwrap();
        assert!(!u.ctx(z).test);
    }

    #[test]
    fn use_statements_are_marked() {
        let u =
            unit("use std::collections::{HashMap, HashSet};\nfn f() { let m = HashMap::new(); }\n");
        let first = u.toks.iter().position(|t| t.text == "HashMap").unwrap();
        assert!(u.toks[first].in_use);
        let second = u.toks.iter().rposition(|t| t.text == "HashMap").unwrap();
        assert!(!u.toks[second].in_use);
    }

    #[test]
    fn matched_brackets() {
        let u = unit("fn f() { g(1, [2]); }\n");
        for i in 0..u.toks.len() {
            if u.toks[i].kind == Kind::Open {
                let j = u.matched[i];
                assert_eq!(u.matched[j], i);
                assert_eq!(u.toks[j].kind, Kind::Close);
            }
        }
    }

    #[test]
    fn test_paths() {
        assert!(is_test_path("crates/sim/tests/foo.rs"));
        assert!(is_test_path("tests/threaded_consistency.rs"));
        assert!(is_test_path("crates/sim/examples/api_dump.rs"));
        assert!(!is_test_path("crates/sim/src/sharded.rs"));
    }
}
