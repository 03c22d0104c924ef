//! Rules D1–D6 over the flattened token stream.
//!
//! Each rule is a lexical/structural scan: no type resolution, no
//! import tracking. That buys hermeticity (nothing but `syn` tokens) at
//! the cost of name-level matching — e.g. D1 fires on the literal path
//! `std::collections::HashMap`, not on exotic re-imports. The
//! workspace's own conventions (fully-qualified std paths, `dtrack_hash`
//! aliases) make name-level matching exact in practice, and the ui
//! fixture suite pins each rule's fire/pass behaviour.
//!
//! Test-only code (`#[cfg(test)]`/`#[test]` items, `tests/`,
//! `examples/`, `benches/` files) is structurally exempt from every
//! rule: the invariants protect runtime semantics — transcripts,
//! metering, liveness — which test scaffolding does not ship.

use crate::config::{Config, Rule};
use crate::report::Violation;
use crate::source::{Kind, Unit};

/// Tracks which allow-list / registry entries matched anything, for the
/// stale-entry check at the end of the run.
#[derive(Debug, Default)]
pub struct Usage {
    /// Per-`Config::allows` index: entry exempted at least one finding.
    pub allow_used: Vec<bool>,
    /// Per-`Config::channels` index: entry matched a construction site.
    pub channel_used: Vec<bool>,
}

impl Usage {
    /// Sized for `cfg`.
    pub fn for_config(cfg: &Config) -> Usage {
        Usage {
            allow_used: vec![false; cfg.allows.len()],
            channel_used: vec![false; cfg.channels.len()],
        }
    }
}

/// Run every in-scope rule on one unit.
pub fn run_rules(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    if cfg.in_scope(Rule::D1, &unit.path) {
        d1_std_hash(unit, cfg, usage, out);
    }
    if cfg.in_scope(Rule::D2, &unit.path) {
        d2_clocks_randomness(unit, cfg, usage, out);
    }
    if cfg.in_scope(Rule::D3, &unit.path) {
        d3_channel_registry(unit, cfg, usage, out);
    }
    if cfg.in_scope(Rule::D4, &unit.path) {
        d4_guard_across_blocking(unit, cfg, usage, out);
    }
    if cfg.in_scope(Rule::D5, &unit.path) {
        d5_relaxed_ordering(unit, cfg, usage, out);
    }
    if cfg.in_scope(Rule::D6, &unit.path) {
        d6_unwrap_expect(unit, cfg, usage, out);
    }
}

/// Does an allow-list entry cover (rule, unit, ctx of token `i`)?
fn allowed(unit: &Unit, cfg: &Config, usage: &mut Usage, rule: Rule, i: usize) -> bool {
    let ctx = unit.ctx(i);
    let mut hit = false;
    for (idx, a) in cfg.allows.iter().enumerate() {
        if a.rule == rule
            && a.path == unit.path
            && (a.item == "<file>" || ctx.chain.contains(&a.item))
        {
            usage.allow_used[idx] = true;
            hit = true;
            // Keep scanning: several entries may cover the same site and
            // all of them should count as used.
        }
    }
    hit
}

fn violation(unit: &Unit, rule: Rule, i: usize, message: String) -> Violation {
    Violation {
        rule,
        path: unit.path.clone(),
        line: unit.toks[i].line,
        item: unit.ctx(i).item().to_string(),
        message,
    }
}

/// D1: `std::collections::HashMap`/`HashSet` anywhere in protocol code.
/// Iteration order of the std maps is seeded per-process; any map whose
/// contents reach a transcript, a message, or an answer must be the
/// deterministic `dtrack_hash::FxHashMap`/`FxHashSet`.
fn d1_std_hash(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < unit.toks.len() {
        if unit.ident(i) == "std"
            && unit.colons(i + 1)
            && unit.ident(i + 3) == "collections"
            && unit.colons(i + 4)
        {
            // `std::collections::HashMap` directly, or the brace-group
            // import form `std::collections::{HashMap, ...}`.
            let mut flagged: Vec<usize> = Vec::new();
            let next = i + 6;
            match unit.ident(next) {
                "HashMap" | "HashSet" => flagged.push(next),
                _ if unit.open(next, '{') => {
                    let close = unit.matched[next];
                    for j in next + 1..close {
                        if matches!(unit.ident(j), "HashMap" | "HashSet") {
                            flagged.push(j);
                        }
                    }
                }
                _ => {}
            }
            for j in flagged {
                if unit.ctx(j).test || allowed(unit, cfg, usage, Rule::D1, j) {
                    continue;
                }
                out.push(violation(
                    unit,
                    Rule::D1,
                    j,
                    format!(
                        "std::collections::{} has nondeterministic iteration order; use \
                         dtrack_hash::Fx{} (or allow-list with a written reason why order is \
                         never observed)",
                        unit.ident(j),
                        unit.ident(j)
                    ),
                ));
            }
        }
        i += 1;
    }
}

/// D2: wall clocks and ambient randomness. A transcript must be a pure
/// function of (scenario, seed); `Instant::now`, `SystemTime`, and
/// entropy-seeded RNGs smuggle the host into it. Deadline/measurement
/// code is allow-listed per function.
fn d2_clocks_randomness(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    for i in 0..unit.toks.len() {
        if unit.ctx(i).test {
            continue;
        }
        let id = unit.ident(i);
        let hit: Option<String> = match id {
            "Instant" if unit.colons(i + 1) && unit.ident(i + 3) == "now" => {
                Some("Instant::now()".into())
            }
            "SystemTime" if !unit.toks[i].in_use => Some("SystemTime".into()),
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => Some(id.to_string()),
            "random"
                if unit.ident(i.wrapping_sub(3)) == "rand" && unit.colons(i.wrapping_sub(2)) =>
            {
                Some("rand::random()".into())
            }
            _ => None,
        };
        if let Some(what) = hit {
            if allowed(unit, cfg, usage, Rule::D2, i) {
                continue;
            }
            out.push(violation(
                unit,
                Rule::D2,
                i,
                format!(
                    "{} breaks seed purity — transcripts must be a function of (scenario, seed); \
                     allow-list only genuine timing modules (deadlines, measurement)",
                    what
                ),
            ));
        }
    }
}

const CHANNEL_CTORS: [&str; 5] = [
    "unbounded",
    "bounded",
    "channel",
    "sync_channel",
    "unbounded_channel",
];

/// Index just past an optional turbofish (`::<...>`) following the ident
/// at `i` — i.e. where a call's `(` would sit. Returns `i + 1` when no
/// turbofish is present.
fn past_turbofish(unit: &Unit, i: usize) -> usize {
    if !(unit.colons(i + 1) && unit.punct(i + 3) == '<') {
        return i + 1;
    }
    let mut depth = 1usize;
    let mut j = i + 4;
    while j < unit.toks.len() && depth > 0 {
        match unit.toks[j].kind {
            Kind::Open => j = unit.matched[j],
            Kind::Punct if unit.toks[j].ch == '<' => depth += 1,
            // `->` in a fn-pointer type arg must not close the turbofish.
            Kind::Punct if unit.toks[j].ch == '>' && unit.punct(j - 1) != '-' => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Is token `i` the start of a `VecDeque::new(` / `VecDeque::<T>::new(`
/// / `VecDeque::with_capacity(` construction?
fn deque_ctor(unit: &Unit, i: usize) -> bool {
    if unit.ident(i) != "VecDeque" {
        return false;
    }
    let after = past_turbofish(unit, i);
    let method = if after == i + 1 {
        if !unit.colons(i + 1) {
            return false;
        }
        i + 3
    } else {
        if !unit.colons(after) {
            return false;
        }
        after + 2
    };
    matches!(unit.ident(method), "new" | "with_capacity")
        && unit.open(past_turbofish(unit, method), '(')
}

/// D3 (registry half): every channel *and queue* construction must match
/// a `[[channel]]` entry — same file, an enclosing fn listed in `fns`,
/// and matching declared boundedness. For channel constructors the
/// boundedness is forced by the constructor called; for lock-based
/// `VecDeque` queues it is a written claim about the surrounding condvar
/// protocol (either value accepted, the reason documents it). So that a
/// deque cannot keep a deleted channel's entry (and its wait-for edge)
/// alive, a deque claims only entries no channel constructor in the
/// same file claims, and must claim exactly one. The wait-for-graph half
/// lives in `graph.rs`.
fn d3_channel_registry(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    // Every construction site with the boundedness it forces: `None` for
    // a lock-based deque, whose entry may declare either.
    let mut sites: Vec<(usize, Option<&str>)> = Vec::new();
    for i in 0..unit.toks.len() {
        let id = unit.ident(i);
        let kind: Option<&str> = if CHANNEL_CTORS.contains(&id)
            && unit.open(past_turbofish(unit, i), '(')
            // Skip definitions (`fn unbounded(...)`) — only calls count.
            && unit.ident(i.wrapping_sub(1)) != "fn"
        {
            Some(match id {
                "bounded" | "sync_channel" => "bounded",
                // `channel` is overloaded across ecosystems: std's
                // `channel()` takes no arguments and is unbounded, while
                // the tokio-style `channel(cap)` takes a capacity and is
                // bounded. Call-site arity decides.
                "channel" => {
                    let open = past_turbofish(unit, i);
                    if unit.matched[open] > open + 1 {
                        "bounded"
                    } else {
                        "unbounded"
                    }
                }
                _ => "unbounded",
            })
        } else if deque_ctor(unit, i) {
            None
        } else {
            continue;
        };
        if !unit.toks[i].in_use && !unit.ctx(i).test {
            sites.push((i, kind));
        }
    }
    let entries = |i: usize, kind: Option<&str>| -> Vec<usize> {
        let ctx = unit.ctx(i);
        (0..cfg.channels.len())
            .filter(|&idx| {
                let c = &cfg.channels[idx];
                c.path == unit.path
                    && kind.is_none_or(|k| k == c.construct)
                    && c.fns
                        .iter()
                        .any(|f| f == "<file>" || ctx.chain.iter().any(|e| e == f))
            })
            .collect()
    };
    // Entries some channel constructor claims; a deque claims only the rest.
    let mut by_channel = vec![false; cfg.channels.len()];
    for &(i, kind) in sites.iter().filter(|(_, kind)| kind.is_some()) {
        for idx in entries(i, kind) {
            by_channel[idx] = true;
        }
    }
    for &(i, kind) in &sites {
        let mut hits = entries(i, kind);
        if kind.is_none() {
            hits.retain(|&idx| !by_channel[idx]);
        }
        for &idx in &hits {
            usage.channel_used[idx] = true;
        }
        let what = match kind {
            Some(k) => format!("a {} channel", k),
            None => "a lock-based queue".to_string(),
        };
        let message = match (hits.len(), kind) {
            (0, _) => format!(
                "`{}(` constructs {} outside the registry — declare it as a [[channel]] \
                 entry in lint.toml (path, fns, endpoints, boundedness, reason) so the \
                 wait-for-graph check sees it",
                unit.ident(i),
                what
            ),
            (2.., None) => format!(
                "this `{}` queue matches {} [[channel]] entries ({}) that no channel \
                 constructor claims — ambiguous; a queue must claim exactly one entry, so \
                 narrow the entries' fns or delete the one whose channel is gone",
                unit.ident(i),
                hits.len(),
                hits.iter()
                    .map(|&idx| cfg.channels[idx].name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            _ => continue,
        };
        out.push(violation(unit, Rule::D3, i, message));
    }
}

const BLOCKING_CALLS: [&str; 5] = ["send", "recv", "recv_timeout", "wait", "wait_timeout"];

/// D4: no lock guard live across a blocking `.send(`/`.recv(`/`.wait(`.
/// A blocked holder wedges every other thread that needs the lock —
/// `settle()`'s termination argument assumes workers park only on their
/// own condvars, never while holding shared state.
///
/// Guard detection is lexical: `let [mut] NAME = <expr containing
/// .lock*(>;` starts liveness, `drop(NAME)` or the end of the enclosing
/// brace block ends it. Condvar handoff (`cv.wait(NAME)` /
/// `cv.wait_timeout(NAME, ..)`) is exempt — the wait atomically releases
/// that guard. `if let`/`while let` scrutinee temporaries are out of
/// lexical reach and stay a code-review concern (documented in
/// DESIGN.md).
fn d4_guard_across_blocking(
    unit: &Unit,
    cfg: &Config,
    usage: &mut Usage,
    out: &mut Vec<Violation>,
) {
    let toks = &unit.toks;
    let mut i = 0;
    while i < toks.len() {
        if unit.ident(i) != "let" || unit.ctx(i).test {
            i += 1;
            continue;
        }
        // Simple binding only: `let NAME =` / `let mut NAME =`.
        let name_idx = if unit.ident(i + 1) == "mut" {
            i + 2
        } else {
            i + 1
        };
        let name = unit.ident(name_idx).to_string();
        if name.is_empty() || unit.punct(name_idx + 1) != '=' {
            i += 1;
            continue;
        }
        // Statement end: next `;` at this nesting level (skip groups).
        let mut j = name_idx + 2;
        let mut stmt_end = None;
        while j < toks.len() {
            match toks[j].kind {
                Kind::Open => j = unit.matched[j],
                Kind::Close => break, // malformed / end of block
                Kind::Punct if toks[j].ch == ';' => {
                    stmt_end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(stmt_end) = stmt_end else {
            i += 1;
            continue;
        };
        // Does the initializer take a lock? `.lock()` or any `.lock_*()`
        // helper that returns a guard by convention. A nested brace block
        // scopes its own guards (`let v = { let g = m.lock(); *g };`
        // binds a plain value), so brace groups are skipped here — their
        // inner `let`s are scanned by the outer loop in their own right.
        let mut takes_lock = false;
        let mut k = name_idx + 2;
        while k < stmt_end {
            if unit.open(k, '{') {
                k = unit.matched[k];
                continue;
            }
            if unit.punct(k) == '.'
                && unit.ident(k + 1).starts_with("lock")
                && unit.open(k + 2, '(')
            {
                takes_lock = true;
                break;
            }
            k += 1;
        }
        if !takes_lock {
            i += 1;
            continue;
        }
        // Liveness range: statement end to the close of the enclosing
        // brace block.
        let block_close = enclosing_brace_close(unit, i);
        let mut k = stmt_end + 1;
        while k < block_close {
            // `drop(NAME)` ends liveness.
            if unit.ident(k) == "drop"
                && unit.open(k + 1, '(')
                && unit.ident(k + 2) == name
                && unit.matched[k + 1] == k + 3
            {
                break;
            }
            if unit.punct(k) == '.'
                && BLOCKING_CALLS.contains(&unit.ident(k + 1))
                && unit.open(k + 2, '(')
            {
                let callee = unit.ident(k + 1).to_string();
                // Condvar handoff: wait(NAME, ...) consumes the guard.
                let handoff = callee.starts_with("wait") && unit.ident(k + 3) == name;
                if !handoff && !allowed(unit, cfg, usage, Rule::D4, k) {
                    out.push(violation(
                        unit,
                        Rule::D4,
                        k + 1,
                        format!(
                            "`.{}(` while lock guard `{}` (taken on line {}) is live — a blocked \
                             holder wedges everyone else needing the lock; drop the guard first \
                             or collect-then-send outside the critical section",
                            callee, name, toks[i].line
                        ),
                    ));
                }
            }
            k += 1;
        }
        i += 1;
    }
}

/// Index of the `Close` of the innermost brace group containing `i`
/// (or `toks.len()` at file level).
fn enclosing_brace_close(unit: &Unit, i: usize) -> usize {
    // Walk outward: scan forward counting depth; the first unmatched
    // Close brace is the enclosing block's end.
    let mut depth = 0usize;
    let mut j = i;
    while j < unit.toks.len() {
        match unit.toks[j].kind {
            Kind::Open => depth += 1,
            Kind::Close => {
                if depth == 0 {
                    if unit.toks[j].ch == '}' {
                        return j;
                    }
                    // Inside a paren/bracket group: its close bounds us.
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
        j += 1;
    }
    unit.toks.len()
}

/// D5: `Ordering::Relaxed` only on registered hint counters. Relaxed
/// reads/writes are fine for monotone metering hints (`words_hint`,
/// `backlog_hint` family) whose consumers tolerate arbitrary staleness,
/// and wrong for anything that orders memory — every site must carry a
/// written justification.
fn d5_relaxed_ordering(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    for i in 0..unit.toks.len() {
        if unit.ident(i) == "Ordering"
            && unit.colons(i + 1)
            && unit.ident(i + 3) == "Relaxed"
            && !unit.ctx(i).test
            && !allowed(unit, cfg, usage, Rule::D5, i)
        {
            out.push(violation(
                unit,
                Rule::D5,
                i,
                "Ordering::Relaxed outside the registered hint-counter allow-list — if this \
                 atomic is a pure monotone hint, register it in lint.toml with the staleness \
                 argument; anything that orders memory needs Acquire/Release or SeqCst"
                    .to_string(),
            ));
        }
    }
}

/// D6: no `.unwrap()` / `.expect(` in the sim runtimes. A panic inside a
/// worker is *load-bearing*: the claim boundary catches it and converts
/// it to per-site death containment. An accidental unwrap panicking on a
/// programming error masquerades as a contained site failure and
/// corrupts the fault-injection semantics — runtime errors must surface
/// as `SimError` instead.
fn d6_unwrap_expect(unit: &Unit, cfg: &Config, usage: &mut Usage, out: &mut Vec<Violation>) {
    for i in 0..unit.toks.len() {
        if unit.punct(i) != '.' {
            continue;
        }
        let callee = unit.ident(i + 1);
        let is_unwrap = callee == "unwrap" && unit.open(i + 2, '(') && unit.matched[i + 2] == i + 3;
        let is_expect = callee == "expect" && unit.open(i + 2, '(');
        if !(is_unwrap || is_expect) {
            continue;
        }
        if unit.ctx(i).test || allowed(unit, cfg, usage, Rule::D6, i + 1) {
            continue;
        }
        out.push(violation(
            unit,
            Rule::D6,
            i + 1,
            format!(
                "`.{}(` in runtime code — a panic here masquerades as per-site death \
                 containment; surface the failure as SimError (or allow-list with the argument \
                 why this panic is genuinely unreachable)",
                callee
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        let cfg = Config::with_default_paths();
        let mut usage = Usage::for_config(&cfg);
        let unit = Unit::parse(path.into(), src, false).unwrap();
        let mut out = Vec::new();
        run_rules(&unit, &cfg, &mut usage, &mut out);
        out
    }

    #[test]
    fn d1_fires_on_std_maps_not_tests() {
        let v = check(
            "crates/sketch/src/lib.rs",
            "use std::collections::HashMap;\nfn f() { let m: std::collections::HashSet<u64> = Default::default(); }\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D1).count(), 2);
    }

    #[test]
    fn d2_fires_on_clocks() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { let t = Instant::now(); let r = rand::random::<u64>(); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D2).count(), 2);
    }

    #[test]
    fn d3_fires_on_unregistered_channel() {
        let v = check(
            "crates/sim/src/x.rs",
            "use crossbeam::channel::unbounded;\nfn f() { let (tx, rx) = unbounded(); }\n",
        );
        // The import is exempt; the call fires.
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D3).count(), 1);
    }

    #[test]
    fn d3_sees_through_turbofish() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f(cap: usize) { let (tx, rx) = bounded::<Cmd<S>>(cap); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D3).count(), 1);
        assert!(v[0].message.contains("bounded channel"));
    }

    #[test]
    fn d3_disambiguates_channel_by_arity() {
        // tokio-style `channel(cap)` is bounded…
        let v = check(
            "crates/sim/src/x.rs",
            "fn f(cap: usize) { let (tx, rx) = mpsc::channel::<Cmd>(cap); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D3).count(), 1);
        assert!(v[0].message.contains("bounded channel"), "{}", v[0].message);
        // …std-style `channel()` is unbounded.
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { let (tx, rx) = std::sync::mpsc::channel(); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D3).count(), 1);
        assert!(
            v[0].message.contains("unbounded channel"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn d3_recognizes_tokio_unbounded_channel() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { let (tx, rx) = mpsc::unbounded_channel::<Cmd>(); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D3).count(), 1);
        assert!(
            v[0].message.contains("unbounded channel"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn d4_guard_across_send_and_condvar_exemption() {
        let bad = check(
            "crates/sim/src/x.rs",
            "fn f() { let g = m.lock().unwrap_or_else(|e| e.into_inner()); tx.send(1); }\n",
        );
        assert_eq!(bad.iter().filter(|v| v.rule == Rule::D4).count(), 1);
        let ok = check(
            "crates/sim/src/x.rs",
            "fn f() { let g = m.lock().unwrap_or_else(|e| e.into_inner()); let g = cv.wait(g); drop(g); tx.send(1); }\n",
        );
        assert_eq!(ok.iter().filter(|v| v.rule == Rule::D4).count(), 0);
    }

    #[test]
    fn d4_drop_ends_liveness() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { let q = m.lock_queue(0); drop(q); tx.send(1); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D4).count(), 0);
    }

    #[test]
    fn d5_fires_on_unregistered_relaxed() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D5).count(), 1);
    }

    #[test]
    fn d6_fires_on_unwrap_not_unwrap_or_else() {
        let v = check(
            "crates/sim/src/x.rs",
            "fn f() { a.unwrap(); b.expect(\"boom\"); c.unwrap_or_else(|e| e.into_inner()); d.unwrap_or(0); }\n",
        );
        assert_eq!(v.iter().filter(|v| v.rule == Rule::D6).count(), 2);
    }

    #[test]
    fn allow_list_exempts_and_is_marked_used() {
        let mut cfg = Config::with_default_paths();
        cfg.allows.push(crate::config::Allow {
            rule: Rule::D5,
            path: "crates/sim/src/x.rs".into(),
            item: "hint".into(),
            reason: "monotone hint counter".into(),
        });
        let mut usage = Usage::for_config(&cfg);
        let unit = Unit::parse(
            "crates/sim/src/x.rs".into(),
            "fn hint() { c.load(Ordering::Relaxed); }\n",
            false,
        )
        .unwrap();
        let mut out = Vec::new();
        run_rules(&unit, &cfg, &mut usage, &mut out);
        assert!(out.is_empty(), "{:?}", out);
        assert!(usage.allow_used[0]);
    }
}
