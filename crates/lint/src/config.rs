//! `lint.toml` — the deny-by-default configuration and allow-list.
//!
//! The file has three kinds of entries:
//!
//! - `[rules.dN] paths = [...]` — which path prefixes each rule scans.
//!   When the file (or a table) is absent, [`Config::default_paths`]
//!   supplies the workspace defaults, so a missing config never means
//!   "nothing is checked".
//! - `[[allow]]` — a single exemption: rule, file, enclosing item, and a
//!   mandatory written reason. Entries are matched by *item name* (the
//!   enclosing `fn` or `mod`), not line number, so they survive edits —
//!   and an entry whose item no longer matches anything fails the run
//!   loudly as stale (see `stale_entries` in `lib.rs`).
//! - `[[channel]]` — the channel registry for rule D3: every channel
//!   construction in scope must be declared here with its boundedness
//!   and its endpoints in the wait-for graph (see `graph.rs`).
//!
//! Parsing is a deliberately small TOML subset (tables, arrays of
//! tables, string/bool/integer/string-array values, `#` comments): the
//! workspace has no TOML dependency and the lint must stay hermetic.
//! Unknown keys and malformed values are hard errors — a typo in an
//! allow-list entry must never silently widen an exemption.

use std::collections::BTreeMap;
use std::fmt;

/// The six mechanized invariants. See DESIGN.md "Mechanized invariants".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `std::collections::HashMap`/`HashSet` in protocol code.
    D1,
    /// No wall clocks or ambient randomness outside timing modules.
    D2,
    /// Channel constructions must be declared in the registry, and the
    /// wait-for graph must stay deadlock-free.
    D3,
    /// No lock guard live across a blocking `send`/`recv`/`wait`.
    D4,
    /// `Ordering::Relaxed` only on registered hint counters.
    D5,
    /// No `unwrap()`/`expect()` where a panic means "site death".
    D6,
}

impl Rule {
    /// All rules, in order.
    pub const ALL: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5, Rule::D6];

    /// Stable identifier used in `lint.toml` and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
        }
    }

    /// Parse a rule id (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.to_ascii_uppercase().as_str() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Rule::D1 => 0,
            Rule::D2 => 1,
            Rule::D3 => 2,
            Rule::D4 => 3,
            Rule::D5 => 4,
            Rule::D6 => 5,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One `[[allow]]` exemption.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Which rule is exempted.
    pub rule: Rule,
    /// Workspace-relative file path (forward slashes).
    pub path: String,
    /// Enclosing `fn` or `mod` name the exemption applies to, or
    /// `"<file>"` for the whole file.
    pub item: String,
    /// Mandatory human-written justification.
    pub reason: String,
}

/// One `[[channel]]` registry entry (rule D3).
#[derive(Debug, Clone)]
pub struct Channel {
    /// Workspace-relative file path of the construction site(s).
    pub path: String,
    /// Enclosing functions the construction may appear in.
    pub fns: Vec<String>,
    /// `"bounded"` or `"unbounded"` — must match the constructor called.
    pub construct: String,
    /// Short channel name for reports and the wait-for graph.
    pub name: String,
    /// Sender roles (graph nodes). A bounded channel's send can block,
    /// so each `from` node waits on `to`.
    pub from: Vec<String>,
    /// Receiver role (graph node).
    pub to: String,
    /// Marks THE unbounded edge whose unboundedness is what breaks a
    /// wait-for cycle. Only meaningful on unbounded entries; checked
    /// against the actual graph (a `breaks_cycle` edge on no cycle is
    /// stale, an unbounded edge on a cycle without the flag is an
    /// undocumented liveness argument).
    pub breaks_cycle: bool,
    /// Mandatory human-written justification.
    pub reason: String,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Per-rule path-prefix scopes, indexed by `Rule::index`. Empty
    /// vector = rule disabled (never the default).
    pub paths: [Vec<String>; 6],
    /// All `[[allow]]` entries, in file order.
    pub allows: Vec<Allow>,
    /// All `[[channel]]` entries, in file order.
    pub channels: Vec<Channel>,
}

impl Config {
    /// The workspace-default scopes, used when `lint.toml` (or one of
    /// its `[rules.*]` tables) is absent. Kept in sync with the
    /// rationale table in DESIGN.md "Mechanized invariants".
    pub fn default_paths(rule: Rule) -> Vec<String> {
        let v: &[&str] = match rule {
            // Determinism: every crate whose state feeds a transcript.
            Rule::D1 => &[
                "crates/core",
                "crates/sketch",
                "crates/sim",
                "crates/baseline",
                "crates/workload",
                "crates/adversary",
                "src",
            ],
            // Seed purity: everything except the bench harness, whose
            // entire output is wall-clock readings.
            Rule::D2 => &[
                "crates/core",
                "crates/sketch",
                "crates/sim",
                "crates/baseline",
                "crates/workload",
                "crates/adversary",
                "crates/hash",
                "crates/testkit",
                "src",
            ],
            // The runtimes own every channel and lock.
            Rule::D3 => &["crates/sim"],
            Rule::D4 => &["crates/sim"],
            // Relaxed atomics: runtime + any crate that might grow one.
            Rule::D5 => &[
                "crates/core",
                "crates/sketch",
                "crates/sim",
                "crates/baseline",
                "crates/workload",
                "crates/hash",
                "crates/testkit",
                "src",
            ],
            // Panic-as-containment is a sim-runtime contract.
            Rule::D6 => &["crates/sim"],
        };
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Build the all-defaults config (used when `lint.toml` is absent,
    /// e.g. for bad-fixture mini-roots).
    pub fn with_default_paths() -> Config {
        let mut cfg = Config::default();
        for r in Rule::ALL {
            cfg.paths[r.index()] = Config::default_paths(r);
        }
        cfg
    }

    /// Scope prefixes for `rule`.
    pub fn rule_paths(&self, rule: Rule) -> &[String] {
        &self.paths[rule.index()]
    }

    /// Whether `rule` scans `path` at all.
    pub fn in_scope(&self, rule: Rule, path: &str) -> bool {
        self.rule_paths(rule)
            .iter()
            .any(|p| path == p || path.starts_with(&format!("{}/", p)))
    }

    /// Parse a `lint.toml` document.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = parse_toml(text)?;
        let mut cfg = Config::with_default_paths();
        for table in &doc.tables {
            match table.header.as_str() {
                "" => {
                    if let Some(k) = table.values.keys().next() {
                        return Err(format!("lint.toml: unknown top-level key `{}`", k));
                    }
                }
                h if h.starts_with("rules.") => {
                    let rule = Rule::parse(&h["rules.".len()..])
                        .ok_or_else(|| format!("lint.toml: unknown rule table `[{}]`", h))?;
                    let mut paths = None;
                    for (k, v) in &table.values {
                        match k.as_str() {
                            "paths" => paths = Some(v.as_list(h, k)?),
                            _ => {
                                return Err(format!("lint.toml: unknown key `{}` in `[{}]`", k, h))
                            }
                        }
                    }
                    if let Some(p) = paths {
                        cfg.paths[rule.index()] = p;
                    }
                }
                "allow" => {
                    let mut rule = None;
                    let mut path = None;
                    let mut item = None;
                    let mut reason = None;
                    for (k, v) in &table.values {
                        match k.as_str() {
                            "rule" => {
                                let s = v.as_str("allow", k)?;
                                rule = Some(Rule::parse(&s).ok_or_else(|| {
                                    format!("lint.toml: `[[allow]]` has unknown rule `{}`", s)
                                })?);
                            }
                            "path" => path = Some(v.as_str("allow", k)?),
                            "item" => item = Some(v.as_str("allow", k)?),
                            "reason" => reason = Some(v.as_str("allow", k)?),
                            _ => {
                                return Err(format!(
                                    "lint.toml: unknown key `{}` in `[[allow]]`",
                                    k
                                ))
                            }
                        }
                    }
                    let entry = Allow {
                        rule: rule.ok_or("lint.toml: `[[allow]]` missing `rule`")?,
                        path: path.ok_or("lint.toml: `[[allow]]` missing `path`")?,
                        item: item.ok_or("lint.toml: `[[allow]]` missing `item`")?,
                        reason: reason.ok_or("lint.toml: `[[allow]]` missing `reason`")?,
                    };
                    if entry.reason.trim().is_empty() {
                        return Err(format!(
                            "lint.toml: `[[allow]]` for {} {} has an empty reason — every \
                             exemption requires a written justification",
                            entry.rule, entry.path
                        ));
                    }
                    cfg.allows.push(entry);
                }
                "channel" => {
                    let mut path = None;
                    let mut fns = None;
                    let mut construct = None;
                    let mut name = None;
                    let mut from = None;
                    let mut to = None;
                    let mut breaks_cycle = false;
                    let mut reason = None;
                    for (k, v) in &table.values {
                        match k.as_str() {
                            "path" => path = Some(v.as_str("channel", k)?),
                            "fns" => fns = Some(v.as_list("channel", k)?),
                            "construct" => construct = Some(v.as_str("channel", k)?),
                            "name" => name = Some(v.as_str("channel", k)?),
                            "from" => from = Some(v.as_list("channel", k)?),
                            "to" => to = Some(v.as_str("channel", k)?),
                            "breaks_cycle" => breaks_cycle = v.as_bool("channel", k)?,
                            "reason" => reason = Some(v.as_str("channel", k)?),
                            _ => {
                                return Err(format!(
                                    "lint.toml: unknown key `{}` in `[[channel]]`",
                                    k
                                ))
                            }
                        }
                    }
                    let entry = Channel {
                        path: path.ok_or("lint.toml: `[[channel]]` missing `path`")?,
                        fns: fns.ok_or("lint.toml: `[[channel]]` missing `fns`")?,
                        construct: construct
                            .ok_or("lint.toml: `[[channel]]` missing `construct`")?,
                        name: name.ok_or("lint.toml: `[[channel]]` missing `name`")?,
                        from: from.ok_or("lint.toml: `[[channel]]` missing `from`")?,
                        to: to.ok_or("lint.toml: `[[channel]]` missing `to`")?,
                        breaks_cycle,
                        reason: reason.ok_or("lint.toml: `[[channel]]` missing `reason`")?,
                    };
                    if entry.construct != "bounded" && entry.construct != "unbounded" {
                        return Err(format!(
                            "lint.toml: channel `{}` has construct `{}` (want bounded|unbounded)",
                            entry.name, entry.construct
                        ));
                    }
                    if entry.breaks_cycle && entry.construct != "unbounded" {
                        return Err(format!(
                            "lint.toml: channel `{}` is bounded — a bounded edge cannot be the \
                             cycle-breaking edge",
                            entry.name
                        ));
                    }
                    if entry.reason.trim().is_empty() {
                        return Err(format!(
                            "lint.toml: channel `{}` has an empty reason",
                            entry.name
                        ));
                    }
                    cfg.channels.push(entry);
                }
                other => return Err(format!("lint.toml: unknown table `[{}]`", other)),
            }
        }
        Ok(cfg)
    }
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Bool(bool),
    List(Vec<String>),
}

impl Value {
    fn as_str(&self, table: &str, key: &str) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!(
                "lint.toml: `{}` in `{}` must be a string",
                key, table
            )),
        }
    }
    fn as_bool(&self, table: &str, key: &str) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!(
                "lint.toml: `{}` in `{}` must be a bool",
                key, table
            )),
        }
    }
    fn as_list(&self, table: &str, key: &str) -> Result<Vec<String>, String> {
        match self {
            Value::List(l) => Ok(l.clone()),
            _ => Err(format!(
                "lint.toml: `{}` in `{}` must be a string array",
                key, table
            )),
        }
    }
}

#[derive(Debug)]
struct Table {
    header: String,
    values: BTreeMap<String, Value>,
}

#[derive(Debug)]
struct Doc {
    tables: Vec<Table>,
}

/// Strip a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(s: &str) -> Result<(String, &str), String> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| format!("lint.toml: expected string at `{}`", s))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                other => {
                    return Err(format!(
                        "lint.toml: unsupported escape {:?} in string",
                        other.map(|(_, c)| c)
                    ))
                }
            },
            '"' => return Ok((out, &rest[i + c.len_utf8()..])),
            c => out.push(c),
        }
    }
    Err("lint.toml: unterminated string".into())
}

fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or("lint.toml: unterminated array")?;
        let mut items = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let (item, after) = parse_string(rest)?;
            items.push(item);
            rest = after
                .trim()
                .strip_prefix(',')
                .unwrap_or(after.trim())
                .trim();
        }
        return Ok(Value::List(items));
    }
    if s.starts_with('"') {
        let (v, rest) = parse_string(s)?;
        if !rest.trim().is_empty() {
            return Err(format!("lint.toml: trailing junk after string: `{}`", rest));
        }
        return Ok(Value::Str(v));
    }
    Err(format!("lint.toml: unsupported value `{}`", s))
}

fn parse_toml(text: &str) -> Result<Doc, String> {
    let mut tables = vec![Table {
        header: String::new(),
        values: BTreeMap::new(),
    }];
    let mut lines = text.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix("[[") {
            let header = h
                .strip_suffix("]]")
                .ok_or_else(|| format!("lint.toml: malformed table header `{}`", line))?
                .trim()
                .to_string();
            tables.push(Table {
                header,
                values: BTreeMap::new(),
            });
            continue;
        }
        if let Some(h) = line.strip_prefix('[') {
            let header = h
                .strip_suffix(']')
                .ok_or_else(|| format!("lint.toml: malformed table header `{}`", line))?
                .trim()
                .to_string();
            tables.push(Table {
                header,
                values: BTreeMap::new(),
            });
            continue;
        }
        let eq = line
            .find('=')
            .ok_or_else(|| format!("lint.toml: expected `key = value`, got `{}`", line))?;
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance
        // (strings in the config never contain brackets).
        while value.starts_with('[') && !value.ends_with(']') {
            let next = lines
                .next()
                .ok_or("lint.toml: unterminated multi-line array")?;
            value.push(' ');
            value.push_str(strip_comment(next).trim());
        }
        let parsed = parse_value(&value)?;
        let table = tables.last_mut().expect("root table always present");
        if table.values.insert(key.clone(), parsed).is_some() {
            return Err(format!(
                "lint.toml: duplicate key `{}` in `[{}]`",
                key, table.header
            ));
        }
    }
    // Drop the implicit empty root table if unused.
    Ok(Doc { tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_allow_and_channel() {
        let cfg = Config::parse(
            r#"
            # comment
            [rules.d1]
            paths = ["crates/x"]

            [[allow]]
            rule = "D5"
            path = "crates/x/src/lib.rs"
            item = "hint"
            reason = "monotone counter"

            [[channel]]
            path = "crates/x/src/lib.rs"
            fns = ["spawn"]
            construct = "unbounded"
            name = "inbox"
            from = ["site"]
            to = "coordinator"
            breaks_cycle = true
            reason = "breaks the feedback cycle"
            "#,
        )
        .unwrap();
        assert_eq!(cfg.rule_paths(Rule::D1), &["crates/x".to_string()]);
        // Unconfigured rules keep their defaults.
        assert!(!cfg.rule_paths(Rule::D3).is_empty());
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.channels.len(), 1);
        assert!(cfg.channels[0].breaks_cycle);
        assert!(cfg.in_scope(Rule::D1, "crates/x/src/lib.rs"));
        assert!(!cfg.in_scope(Rule::D1, "crates/xy/src/lib.rs"));
    }

    #[test]
    fn multi_line_arrays() {
        let cfg = Config::parse(
            "[rules.d2]\npaths = [\n  \"crates/a\", # trailing comment\n  \"crates/b\",\n]\n",
        )
        .unwrap();
        assert_eq!(
            cfg.rule_paths(Rule::D2),
            &["crates/a".to_string(), "crates/b".to_string()]
        );
    }

    #[test]
    fn rejects_typos_and_empty_reasons() {
        assert!(Config::parse("[rules.d9]\npaths = []\n").is_err());
        assert!(Config::parse("[[allow]]\nrule = \"D1\"\npath = \"a\"\nitem = \"b\"\n").is_err());
        assert!(Config::parse(
            "[[allow]]\nrule = \"D1\"\npath = \"a\"\nitem = \"b\"\nreason = \"  \"\n"
        )
        .is_err());
        assert!(Config::parse("[[allow]]\nrule = \"D1\"\npath = \"a\"\nitm = \"b\"\n").is_err());
        assert!(Config::parse(
            "[[channel]]\npath = \"a\"\nfns = [\"f\"]\nconstruct = \"bounded\"\nname = \"c\"\n\
             from = [\"x\"]\nto = \"y\"\nbreaks_cycle = true\nreason = \"r\"\n"
        )
        .is_err());
    }
}
