//! Transitive taint analysis over the workspace call graph.
//!
//! A *sink* is a token pattern that violates one of the invariants
//! (wall-clock read, foreign entropy, env read, panic site,
//! allocation). The graph rules flag a sink when it is *reachable*
//! from a rule-specific set of entry functions, and every finding
//! carries a witness call chain `entry -> f -> g -> sink` rebuilt from
//! BFS parent pointers. Unresolved calls to known-tainted names
//! (`now`, `unwrap`, `push`, ...) seed taint in the calling function
//! itself — soundness over precision.

use crate::callgraph::CallGraph;
use crate::config::{LintConfig, RuleScope};
use crate::findings::{Finding, RuleId};
use crate::lexer::TokKind;
use crate::rules::{FileKind, FileScan};
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What invariant a sink violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkKind {
    /// `Instant::now` / `SystemTime::now` (rule D2T).
    Clock,
    /// `thread_rng` and friends (rule D3T).
    Entropy,
    /// `env::var` and friends (rule E1T).
    Env,
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/indexing (rule P1).
    Panic,
    /// `push`/`collect`/`format!`/... (rule Q2).
    Alloc,
}

/// One sink occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Index into `SymbolTable::fns`.
    pub fn_idx: usize,
    /// The violated invariant.
    pub kind: SinkKind,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the pattern (`".unwrap()"`,
    /// `"Instant::now()"`, `"[] indexing"`, ...).
    pub what: String,
}

/// Unresolved call names that are assumed tainted. A call the graph
/// cannot resolve but whose name is on this list seeds the
/// corresponding taint in the *calling* function.
const KNOWN_TAINTED: &[(&str, SinkKind)] = &[
    ("now", SinkKind::Clock),
    ("elapsed", SinkKind::Clock),
    ("thread_rng", SinkKind::Entropy),
    ("from_entropy", SinkKind::Entropy),
    ("from_os_rng", SinkKind::Entropy),
    ("getrandom", SinkKind::Entropy),
    ("unwrap", SinkKind::Panic),
    ("expect", SinkKind::Panic),
    ("push", SinkKind::Alloc),
    ("collect", SinkKind::Alloc),
    ("to_vec", SinkKind::Alloc),
];

/// Scans every non-test library function body for sink patterns, plus
/// unresolved calls to known-tainted names. Deduplicated per
/// `(fn, kind, line)` and deterministic (scan order).
pub fn find_sinks(scans: &[FileScan], table: &SymbolTable, graph: &CallGraph) -> Vec<Sink> {
    let mut sinks = Vec::new();
    let mut seen: BTreeSet<(usize, SinkKind, u32)> = BTreeSet::new();
    let add = |sinks: &mut Vec<Sink>,
               seen: &mut BTreeSet<(usize, SinkKind, u32)>,
               fn_idx: usize,
               kind: SinkKind,
               line: u32,
               what: String| {
        if seen.insert((fn_idx, kind, line)) {
            sinks.push(Sink {
                fn_idx,
                kind,
                line,
                what,
            });
        }
    };
    for (fn_idx, info) in table.fns.iter().enumerate() {
        if info.kind != FileKind::Lib || info.is_test {
            continue;
        }
        let tokens = scans[info.file_idx].tokens();
        let (start, end) = info.body;
        let end = end.min(tokens.len());
        for i in start..end {
            let tok = &tokens[i];
            let next_is = |off: usize, c: char| tokens.get(i + off).is_some_and(|t| t.is_punct(c));
            let path_sep = |off: usize| next_is(off, ':') && next_is(off + 1, ':');
            match tok.kind {
                TokKind::Ident => {
                    let t = tok.text.as_str();
                    // Clock: Instant::now / SystemTime::now.
                    if (t == "Instant" || t == "SystemTime")
                        && path_sep(1)
                        && tokens.get(i + 3).is_some_and(|x| x.is_ident("now"))
                    {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Clock,
                            tok.line,
                            format!("{t}::now()"),
                        );
                    }
                    // Entropy: the D3 foreign-source names.
                    if matches!(
                        t,
                        "thread_rng" | "getrandom" | "RandomState" | "from_entropy" | "from_os_rng"
                    ) {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Entropy,
                            tok.line,
                            t.to_string(),
                        );
                    }
                    // Env: env::var / var_os / vars.
                    if t == "env"
                        && path_sep(1)
                        && tokens.get(i + 3).is_some_and(|x| {
                            x.is_ident("var") || x.is_ident("var_os") || x.is_ident("vars")
                        })
                    {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Env,
                            tok.line,
                            "env::var".to_string(),
                        );
                    }
                    // Panic macros.
                    if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
                        && next_is(1, '!')
                    {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Panic,
                            tok.line,
                            format!("{t}!"),
                        );
                    }
                    // Alloc macros / paths.
                    if (t == "format" || t == "vec") && next_is(1, '!') {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Alloc,
                            tok.line,
                            format!("{t}!"),
                        );
                    }
                    if (t == "Box" || t == "String")
                        && path_sep(1)
                        && tokens.get(i + 3).is_some_and(|x| {
                            (t == "Box" && x.is_ident("new"))
                                || (t == "String" && x.is_ident("from"))
                        })
                    {
                        add(
                            &mut sinks,
                            &mut seen,
                            fn_idx,
                            SinkKind::Alloc,
                            tok.line,
                            format!("{}::{}", t, tokens[i + 3].text),
                        );
                    }
                }
                TokKind::Punct if tok.is_punct('.') => {
                    if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                        let callish = next_is(2, '(')
                            || (next_is(2, ':') && next_is(3, ':') && next_is(4, '<'));
                        if callish {
                            match name.text.as_str() {
                                "unwrap" | "expect" => add(
                                    &mut sinks,
                                    &mut seen,
                                    fn_idx,
                                    SinkKind::Panic,
                                    name.line,
                                    format!(".{}()", name.text),
                                ),
                                "push" | "collect" | "to_vec" => add(
                                    &mut sinks,
                                    &mut seen,
                                    fn_idx,
                                    SinkKind::Alloc,
                                    name.line,
                                    format!(".{}()", name.text),
                                ),
                                _ => {}
                            }
                        }
                    }
                }
                // `expr[...]` indexing/slicing can panic. The
                // previous token must be a value end (ident, `)`,
                // `]`) — this excludes `#[attr]`, `vec![...]`,
                // array types `[u8; 4]`, and literals `&[1, 2]`.
                TokKind::Punct
                    if tok.is_punct('[')
                        && i > start
                        && tokens.get(i - 1).is_some_and(|p| {
                            p.kind == TokKind::Ident && !is_value_break(&p.text)
                                || p.is_punct(')')
                                || p.is_punct(']')
                        }) =>
                {
                    add(
                        &mut sinks,
                        &mut seen,
                        fn_idx,
                        SinkKind::Panic,
                        tok.line,
                        "[] indexing".to_string(),
                    );
                }
                _ => {}
            }
        }
        // Unresolved calls to known-tainted names.
        for (name, line) in &graph.unresolved[fn_idx] {
            if let Some(&(_, kind)) = KNOWN_TAINTED.iter().find(|(n, _)| n == name) {
                add(
                    &mut sinks,
                    &mut seen,
                    fn_idx,
                    kind,
                    *line,
                    format!("unresolved call to tainted `{name}`"),
                );
            }
        }
    }
    sinks
}

/// Keywords that may directly precede `[` without forming an indexing
/// expression (`return [..]`, `break [..]`, `in [..]`, `let [a, b] = ..`,
/// ...).
fn is_value_break(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "if" | "else" | "match" | "mut" | "ref" | "as" | "dyn" | "let"
    )
}

/// One graph-powered rule: its id, sink kind, and how entries are
/// chosen.
struct GraphRule {
    id: RuleId,
    kind: SinkKind,
    /// `false`: every non-test lib fn of the scoped crates is an entry
    /// (the transitive D-rules). `true`: only fns named in the scope's
    /// `entry_fns` (P1/Q2 serving roots).
    named_entries: bool,
}

const GRAPH_RULES: [GraphRule; 5] = [
    GraphRule {
        id: RuleId::D2T,
        kind: SinkKind::Clock,
        named_entries: false,
    },
    GraphRule {
        id: RuleId::D3T,
        kind: SinkKind::Entropy,
        named_entries: false,
    },
    GraphRule {
        id: RuleId::E1T,
        kind: SinkKind::Env,
        named_entries: false,
    },
    GraphRule {
        id: RuleId::P1,
        kind: SinkKind::Panic,
        named_entries: true,
    },
    GraphRule {
        id: RuleId::Q2,
        kind: SinkKind::Alloc,
        named_entries: true,
    },
];

/// Whether a *sink* in this function is exempt under the rule's scope
/// (allow_crates / allow_paths / allow_fns are sink-side exemptions;
/// `crates` scopes the entry side).
fn sink_exempt(scope: &RuleScope, table: &SymbolTable, fn_idx: usize) -> bool {
    let info = &table.fns[fn_idx];
    scope.allow_crates.iter().any(|c| c == &info.package)
        || scope
            .allow_paths
            .iter()
            .any(|p| info.file.starts_with(p.as_str()))
        || scope.allow_fns.iter().any(|f| f == &info.name)
}

/// Reverse-BFS from `target`: every function that can reach it, mapped
/// to its next hop toward the sink. Deterministic (sorted adjacency,
/// FIFO queue).
fn reach_with_hops(graph: &CallGraph, target: usize) -> BTreeMap<usize, usize> {
    let mut next: BTreeMap<usize, usize> = BTreeMap::new();
    next.insert(target, target);
    let mut queue = VecDeque::from([target]);
    while let Some(f) = queue.pop_front() {
        for &caller in &graph.callers[f] {
            if let std::collections::btree_map::Entry::Vacant(e) = next.entry(caller) {
                e.insert(f);
                queue.push_back(caller);
            }
        }
    }
    next
}

/// Evaluates every graph rule, returning sink-anchored findings with
/// witness chains.
pub fn graph_findings(
    config: &LintConfig,
    table: &SymbolTable,
    graph: &CallGraph,
    sinks: &[Sink],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in &GRAPH_RULES {
        let scope = config.scope(rule.id.as_str());
        if scope.crates.is_empty() || (rule.named_entries && scope.entry_fns.is_empty()) {
            // An unscoped graph rule would flag the whole workspace;
            // like Q1, it only means something aimed at named crates.
            continue;
        }
        let entries: Vec<usize> = table
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.kind == FileKind::Lib
                    && !f.is_test
                    && scope.crates.iter().any(|c| c == &f.package)
                    && (!rule.named_entries || scope.entry_fns.iter().any(|e| e == &f.name))
            })
            .map(|(i, _)| i)
            .collect();
        if entries.is_empty() {
            continue;
        }
        for sink in sinks.iter().filter(|s| s.kind == rule.kind) {
            if sink_exempt(&scope, table, sink.fn_idx) {
                continue;
            }
            let hops = reach_with_hops(graph, sink.fn_idx);
            let mut hit: Vec<usize> = entries
                .iter()
                .copied()
                .filter(|e| hops.contains_key(e))
                .collect();
            if hit.is_empty() {
                continue;
            }
            // Witness = lexicographically-first entry by location.
            hit.sort_by(|&a, &b| {
                let fa = &table.fns[a];
                let fb = &table.fns[b];
                (&fa.file, fa.line, &fa.qual).cmp(&(&fb.file, fb.line, &fb.qual))
            });
            let witness = hit[0];
            let mut chain: Vec<String> = Vec::new();
            let mut cursor = witness;
            loop {
                chain.push(table.fns[cursor].label());
                if cursor == sink.fn_idx || chain.len() > 16 {
                    break;
                }
                cursor = hops[&cursor];
            }
            let sink_fn = &table.fns[sink.fn_idx];
            chain.push(format!(
                "sink `{}` at {}:{}",
                sink.what, sink_fn.file, sink.line
            ));
            let site = format!("{} in {}", sink.what, sink_fn.qual);
            let message = format!(
                "`{}` in `{}` is reachable from {} entry point(s) of rule {} \
                 (witness entry: `{}`)",
                sink.what,
                sink_fn.qual,
                hit.len(),
                rule.id,
                table.fns[witness].label()
            );
            out.push(Finding::with_chain(
                rule.id,
                &sink_fn.file.clone(),
                sink.line,
                message,
                chain,
                site,
            ));
        }
    }
    out
}

/// L2 — lexical lock discipline for the configured publisher files:
/// tracks guard liveness by brace depth. Findings: inverted
/// acquisition order across the file, nested acquisition of the same
/// lock, and an atomic `store` with `Release`/`SeqCst` ordering while
/// a guard is live.
pub fn lock_discipline(config: &LintConfig, scan: &FileScan) -> Vec<Finding> {
    let scope = config.scope("L2");
    if !scope
        .paths
        .iter()
        .any(|p| scan.rel_path.starts_with(p.as_str()))
    {
        return Vec::new();
    }
    let tokens = scan.tokens();
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Live guards: (lock name, acquisition brace depth, line).
    let mut guards: Vec<(String, usize, u32)> = Vec::new();
    // Observed acquisition order pairs (first, second).
    let mut order: BTreeSet<(String, String)> = BTreeSet::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.is_punct('{') {
            depth += 1;
            continue;
        }
        if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.1 <= depth);
            continue;
        }
        if scan.in_test(i) {
            continue;
        }
        if tok.kind != TokKind::Ident {
            continue;
        }
        let followed_by_call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !followed_by_call {
            continue;
        }
        let is_acquire = tok.text == "lock" || tok.text == "try_lock" || tok.text.ends_with("lock");
        if is_acquire && tok.text != "unlock" {
            let name = lock_name(tokens, i);
            for (live, _, _) in &guards {
                if *live == name {
                    out.push(Finding::with_chain(
                        RuleId::L2,
                        &scan.rel_path,
                        tok.line,
                        format!(
                            "nested acquisition of lock `{name}` while a `{live}` guard is \
                             still live"
                        ),
                        Vec::new(),
                        format!("nested-acquire {name}"),
                    ));
                } else {
                    let pair = (live.clone(), name.clone());
                    let inverse = (name.clone(), live.clone());
                    if order.contains(&inverse) {
                        out.push(Finding::with_chain(
                            RuleId::L2,
                            &scan.rel_path,
                            tok.line,
                            format!(
                                "lock acquisition order `{live}` -> `{name}` inverts the \
                                 order seen elsewhere in this file; one canonical order \
                                 prevents deadlock"
                            ),
                            Vec::new(),
                            format!("order-inversion {live}->{name}"),
                        ));
                    }
                    order.insert(pair);
                }
            }
            guards.push((name, depth, tok.line));
        } else if tok.text == "store" && i > 0 && tokens[i - 1].is_punct('.') && !guards.is_empty()
        {
            // Scan the argument list for a Release/SeqCst ordering.
            let mut paren = 0i32;
            let mut j = i + 1;
            let mut publishes = false;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                } else if t.is_ident("Release") || t.is_ident("SeqCst") {
                    publishes = true;
                }
                j += 1;
                if j - i > 64 {
                    break;
                }
            }
            if publishes {
                let (name, _, gline) = guards.last().cloned().unwrap_or_default();
                out.push(Finding::with_chain(
                    RuleId::L2,
                    &scan.rel_path,
                    tok.line,
                    format!(
                        "Release store (epoch publish) while lock guard `{name}` \
                         (acquired line {gline}) is still live; close the guard's \
                         block before publishing"
                    ),
                    Vec::new(),
                    format!("store-under-lock {name}"),
                ));
            }
        }
    }
    out
}

/// The lock's name at an acquisition site: for `recv.lock()` the ident
/// before the `.`; for `relock(&path.to.field)` the last field of the
/// first argument.
fn lock_name(tokens: &[crate::lexer::Tok], i: usize) -> String {
    if i >= 2 && tokens[i - 1].is_punct('.') && tokens[i - 2].kind == TokKind::Ident {
        return tokens[i - 2].text.clone();
    }
    // Bare call: last ident of the first argument at bracket depth 0.
    let mut j = i + 2; // past the `(`
    let mut last = String::from("<lock>");
    let mut nest = 0i32;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('(') || t.is_punct('[') {
            nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if nest == 0 {
                break;
            }
            nest -= 1;
        } else if t.is_punct(',') && nest == 0 {
            break;
        } else if nest == 0 && t.kind == TokKind::Ident {
            last = t.text.clone();
        }
        j += 1;
        if j - i > 64 {
            break;
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::symbols::{FileSymbols, SymbolTable};

    fn analyze(sources: &[(&str, &str)]) -> (Vec<FileScan>, SymbolTable, CallGraph, Vec<Sink>) {
        let scans: Vec<FileScan> = sources
            .iter()
            .map(|(rel, src)| FileScan::new("popan-query", rel, src))
            .collect();
        let files: Vec<FileSymbols<'_>> = scans
            .iter()
            .map(|s| FileSymbols {
                package: "popan-query",
                rel_path: &s.rel_path,
                kind: s.kind,
                parsed: &s.parsed,
            })
            .collect();
        let table = SymbolTable::build(&files);
        let graph = callgraph::build(&table, &callgraph::DepClosure::new());
        let sinks = find_sinks(&scans, &table, &graph);
        (scans, table, graph, sinks)
    }

    fn p1_config() -> LintConfig {
        LintConfig::parse(
            "[tiers]\npopan-query = 3\n\
             [rules.P1]\ncrates = [\"popan-query\"]\n\
             entry_fns = [\"range_into\"]\n\
             [rules.Q2]\ncrates = [\"popan-query\"]\n\
             entry_fns = [\"range_into\"]\n\
             [rules.D2T]\ncrates = [\"popan-query\"]\n",
        )
        .unwrap()
    }

    #[test]
    fn panic_two_calls_deep_is_found_with_a_witness_chain() {
        let (_, table, graph, sinks) = analyze(&[(
            "crates/query/src/lib.rs",
            "fn range_into() { middle(); }\n\
             fn middle() { deep(); }\n\
             fn deep(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let findings = graph_findings(&p1_config(), &table, &graph, &sinks);
        let p1: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::P1).collect();
        assert_eq!(p1.len(), 1, "{findings:?}");
        assert_eq!(p1[0].line, 3);
        assert_eq!(
            p1[0].chain,
            vec![
                "popan-query::range_into",
                "popan-query::middle",
                "popan-query::deep",
                "sink `.unwrap()` at crates/query/src/lib.rs:3",
            ]
        );
        assert_eq!(p1[0].site, ".unwrap() in deep");
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let (_, table, graph, sinks) = analyze(&[(
            "crates/query/src/lib.rs",
            "fn range_into() { safe(); }\nfn safe() {}\n\
             fn island(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )]);
        let findings = graph_findings(&p1_config(), &table, &graph, &sinks);
        assert!(
            !findings.iter().any(|f| f.rule == RuleId::P1),
            "{findings:?}"
        );
    }

    #[test]
    fn unresolved_tainted_call_seeds_clock_taint() {
        let (_, table, graph, sinks) = analyze(&[(
            "crates/query/src/lib.rs",
            "fn anything() { self.timer.now() }\n",
        )]);
        assert!(sinks.iter().any(|s| s.kind == SinkKind::Clock), "{sinks:?}");
        let findings = graph_findings(&p1_config(), &table, &graph, &sinks);
        // D2T entries are every lib fn of the crate: the fn itself.
        assert!(findings.iter().any(|f| f.rule == RuleId::D2T));
    }

    #[test]
    fn alloc_on_the_read_path_is_q2() {
        let (_, table, graph, sinks) = analyze(&[(
            "crates/query/src/lib.rs",
            "fn range_into(out: &mut Vec<u32>) { stage(out); }\n\
             fn stage(out: &mut Vec<u32>) { out.push(1); }\n",
        )]);
        let findings = graph_findings(&p1_config(), &table, &graph, &sinks);
        assert!(
            findings.iter().any(|f| f.rule == RuleId::Q2),
            "{findings:?}"
        );
    }

    #[test]
    fn indexing_is_a_panic_sink_but_types_and_attrs_are_not() {
        let (_, _, _, sinks) = analyze(&[(
            "crates/query/src/lib.rs",
            // One construct per line: sinks are kept once per line.
            "#[derive(Clone)]\nfn f(v: &[u8], i: usize, pair: [u8; 2]) -> u8 {\n\
             let a: [u8; 4] = [0; 4];\n\
             let [b, c] = pair;\n\
             v[i]\n}\n",
        )]);
        let idx: Vec<_> = sinks.iter().filter(|s| s.what == "[] indexing").collect();
        assert_eq!(idx.len(), 1, "{sinks:?}");
    }

    fn l2_config() -> LintConfig {
        LintConfig::parse(
            "[tiers]\npopan-query = 3\n\
             [rules.L2]\npaths = [\"crates/query/src/publisher.rs\"]\n",
        )
        .unwrap()
    }

    #[test]
    fn store_under_live_guard_is_l2() {
        let scan = FileScan::new(
            "popan-query",
            "crates/query/src/publisher.rs",
            "fn publish(&self) { let g = self.slot.lock(); \
             self.epoch.store(1, Ordering::Release); }",
        );
        let findings = lock_discipline(&l2_config(), &scan);
        assert!(
            findings
                .iter()
                .any(|f| f.site.starts_with("store-under-lock")),
            "{findings:?}"
        );
    }

    #[test]
    fn block_scoped_guard_is_clean() {
        let scan = FileScan::new(
            "popan-query",
            "crates/query/src/publisher.rs",
            "fn publish(&self) { { let g = self.slot.lock(); *g = 1; } \
             self.epoch.store(1, Ordering::Release); }",
        );
        assert!(lock_discipline(&l2_config(), &scan).is_empty());
    }

    #[test]
    fn inverted_order_is_l2() {
        let scan = FileScan::new(
            "popan-query",
            "crates/query/src/publisher.rs",
            "fn a(&self) { let g = self.left.lock(); let h = self.right.lock(); }\n\
             fn b(&self) { let g = self.right.lock(); let h = self.left.lock(); }",
        );
        let findings = lock_discipline(&l2_config(), &scan);
        assert!(
            findings
                .iter()
                .any(|f| f.site.starts_with("order-inversion")),
            "{findings:?}"
        );
    }
}
