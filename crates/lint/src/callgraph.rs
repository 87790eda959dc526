//! Workspace call graph + interprocedural hot-path reachability.
//!
//! Edges come from name resolution against [`crate::symbols`]:
//!
//! - `free_call(…)` and `module::free_call(…)` resolve to free functions
//!   of that name.
//! - `Type::assoc(…)` and `Self::assoc(…)` resolve via the qualified
//!   `(self type, name)` index.
//! - `recv.method(…)` resolves by method name — **except** names on the
//!   [`AMBIGUOUS_METHODS`] list (`push`, `insert`, `get`, `lock`, …),
//!   which collide with ubiquitous std methods; resolving those by bare
//!   name would wire `map.insert(…)` to `HqIndex::insert` and flood the
//!   hot set with false members. The one precision recovery: a call on
//!   the literal receiver `self` resolves through the enclosing impl's
//!   qualified index first, ambiguous or not.
//!
//! The result is an *under*-approximate graph: a missed edge shrinks
//! analysis coverage, a spurious edge would manufacture false positives
//! — the lint-correct trade-off. Reachability from `// vdsms-lint:
//! entry` functions defines the hot set; BFS parents reconstruct the
//! call chain every hot-path diagnostic prints.

use crate::ast::Pos;
use crate::summaries::CallRef;
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// Method names never resolved through the bare method-name index
/// because std types define them too (receiver types are unknown to a
/// name-based resolver).
pub const AMBIGUOUS_METHODS: &[&str] = &[
    "append", "as_bytes", "as_ref", "as_slice", "as_str", "clear", "clone", "cmp", "collect",
    "contains", "contains_key", "count", "default", "drain", "entry", "eq", "extend", "fill",
    "first", "flush", "fmt", "get", "get_mut", "insert", "into_iter", "is_empty", "iter",
    "iter_mut", "join", "keys", "last", "len", "lock", "max", "merge", "min", "new", "next",
    "pop", "push", "read", "remove", "reserve", "resize", "retain", "send", "sort", "split",
    "take", "to_owned", "to_string", "to_vec", "values", "write",
];

/// One call edge's site.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Callee function id.
    pub callee: usize,
    /// Position of the call in the caller's file.
    pub pos: Pos,
}

/// The workspace call graph: per caller id, resolved call sites.
#[derive(Debug)]
pub struct CallGraph {
    /// `edges[caller]` lists resolved callees with call positions.
    pub edges: Vec<Vec<CallSite>>,
}

/// Per function, per call site (in [`crate::summaries::FnSummary::calls`]
/// order), the resolved callee ids.
pub type Resolved = Vec<Vec<Vec<usize>>>;

impl CallGraph {
    /// Resolve every [`CallRef`] each summary recorded and build the
    /// graph from them. The resolution matrix is returned too: the link
    /// phase's analyses (lock replay, taint flows, discard judgment) work
    /// per call site, and resolution is the expensive half of linking, so
    /// it runs exactly once.
    pub fn build(symbols: &SymbolTable<'_>) -> (CallGraph, Resolved) {
        let resolved: Resolved = symbols
            .fns
            .iter()
            .map(|f| {
                f.def
                    .calls
                    .iter()
                    .map(|cr| resolve_call_ref(symbols, cr, f.self_ty, f.def.is_test))
                    .collect()
            })
            .collect();
        let mut edges: Vec<Vec<CallSite>> = vec![Vec::new(); symbols.fns.len()];
        for f in &symbols.fns {
            let mut sites: Vec<CallSite> = Vec::new();
            for (cr, callees) in f.def.calls.iter().zip(&resolved[f.id]) {
                let pos = cr.pos();
                for &callee in callees {
                    sites.push(CallSite { callee, pos });
                }
            }
            sites.sort_by_key(|s| (s.callee, s.pos.line, s.pos.col));
            sites.dedup_by_key(|s| s.callee);
            edges[f.id] = sites;
        }
        (CallGraph { edges }, resolved)
    }
}

/// Resolve one call reference to callee ids, with the production→test
/// edge filter applied (calls cannot target test-only code from
/// production paths; the edge is dropped rather than tainting the hot
/// set).
fn resolve_call_ref(
    symbols: &SymbolTable<'_>,
    cr: &CallRef,
    self_ty: Option<&str>,
    caller_is_test: bool,
) -> Vec<usize> {
    let mut targets = match cr {
        CallRef::Path { segs, .. } => resolve_path_call(symbols, segs, self_ty),
        CallRef::Method { recv_self, name, .. } => {
            resolve_method_call(symbols, *recv_self, name, self_ty)
        }
    };
    if !caller_is_test {
        targets.retain(|&callee| !symbols.fns[callee].def.is_test);
    }
    targets
}

/// Resolve `a::b::f(…)`.
fn resolve_path_call(symbols: &SymbolTable<'_>, segs: &[String], self_ty: Option<&str>) -> Vec<usize> {
    match segs {
        [] => Vec::new(),
        [name] => symbols.free_fns(name).to_vec(),
        [.., qual, name] => {
            let qual: &str = if qual == "Self" { self_ty.unwrap_or(qual) } else { qual };
            let via_qual = symbols.qualified(qual, name);
            if !via_qual.is_empty() {
                via_qual.to_vec()
            } else {
                // `module::free_fn(…)` — the qualifier was a module path.
                symbols.free_fns(name).to_vec()
            }
        }
    }
}

/// Resolve `recv.method(…)`.
fn resolve_method_call(
    symbols: &SymbolTable<'_>,
    recv_self: bool,
    method: &str,
    self_ty: Option<&str>,
) -> Vec<usize> {
    // `self.method(…)`: the enclosing impl's own method wins, even for
    // ambiguous names.
    if recv_self {
        if let Some(ty) = self_ty {
            let via_qual = symbols.qualified(ty, method);
            if !via_qual.is_empty() {
                return via_qual.to_vec();
            }
        }
    }
    if AMBIGUOUS_METHODS.binary_search(&method).is_ok() {
        return Vec::new();
    }
    symbols.methods(method).to_vec()
}

/// Hot-set computation: BFS over [`CallGraph`] from the entry functions.
#[derive(Debug)]
pub struct Reachability {
    /// Whether each function id is on the hot path.
    pub hot: Vec<bool>,
    /// BFS parent: the (caller, call site) that first reached each id.
    parent: Vec<Option<(usize, Pos)>>,
}

impl Reachability {
    /// Compute reachability for one hot-path rule: seeded only by bare
    /// `entry` markers and `entry(…)` markers that name `rule`, so a
    /// batch-evaluation entry scoped to `no-panic-hot-path` extends
    /// panic coverage without flooding the allocation rule.
    pub fn from_entries_for(
        symbols: &SymbolTable<'_>,
        graph: &CallGraph,
        rule: &str,
    ) -> Reachability {
        let n = graph.edges.len();
        let mut hot = vec![false; n];
        let mut parent: Vec<Option<(usize, Pos)>> = vec![None; n];
        let mut queue: std::collections::VecDeque<usize> =
            symbols.entries_for(rule).map(|f| f.id).collect();
        for &id in &queue {
            hot[id] = true;
        }
        while let Some(id) = queue.pop_front() {
            for site in &graph.edges[id] {
                if !hot[site.callee] {
                    hot[site.callee] = true;
                    parent[site.callee] = Some((id, site.pos));
                    queue.push_back(site.callee);
                }
            }
        }
        Reachability { hot, parent }
    }

    /// The call chain entry → … → `id` as function ids (entry first).
    pub fn chain(&self, id: usize) -> Vec<usize> {
        let mut chain = vec![id];
        let mut cur = id;
        let mut guard = 0usize;
        while let Some((caller, _)) = self.parent[cur] {
            chain.push(caller);
            cur = caller;
            guard += 1;
            if guard > self.parent.len() {
                break; // defensive: parents form a tree, but never loop
            }
        }
        chain.reverse();
        chain
    }

    /// Render the chain as `A → B → C` using qualified names.
    pub fn chain_names(&self, symbols: &SymbolTable<'_>, id: usize) -> String {
        let names: Vec<String> =
            self.chain(id).iter().map(|&f| symbols.fns[f].qual_name()).collect();
        names.join(" → ")
    }
}

/// Per-function transitive lock/alloc style summaries need a fixpoint
/// over the graph; this helper computes, for a per-function base set,
/// the union over everything each function can reach (including
/// itself).
pub fn transitive_union<T: Clone + Ord>(
    graph: &CallGraph,
    base: &[BTreeSet<T>],
) -> Vec<BTreeSet<T>> {
    let n = graph.edges.len();
    let mut acc: Vec<BTreeSet<T>> = base.to_vec();
    // Simple fixpoint: iterate until stable. Workspace graphs are small
    // (hundreds of nodes); bound the rounds defensively.
    for _ in 0..n + 1 {
        let mut changed = false;
        for caller in 0..n {
            let mut add: Vec<T> = Vec::new();
            for site in &graph.edges[caller] {
                for item in &acc[site.callee] {
                    if !acc[caller].contains(item) {
                        add.push(item.clone());
                    }
                }
            }
            if !add.is_empty() {
                acc[caller].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::summaries::{summarize, FileSummary};
    use crate::SourceFile;

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, Vec<FileSummary>) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(name, src)| SourceFile {
                crate_name: name.to_string(),
                path: format!("crates/{name}/src/lib.rs"),
                source: src.to_string(),
                is_crate_root: true,
            })
            .collect();
        let summaries: Vec<_> = files
            .iter()
            .map(|f| {
                let lexed = lex(&f.source);
                summarize(&lexed, &parse_file(&lexed))
            })
            .collect();
        (files, summaries)
    }

    #[test]
    fn ambiguous_list_is_sorted_for_binary_search() {
        let mut sorted = AMBIGUOUS_METHODS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, AMBIGUOUS_METHODS);
    }

    #[test]
    fn reachability_crosses_crates_with_chain() {
        let (files, summaries) = build(&[
            (
                "a",
                "// vdsms-lint: entry\npub fn ingest(d: &Det) { d.step(); }",
            ),
            ("b", "pub struct Det;\nimpl Det { pub fn step(&self) { deep_helper(); } }"),
            ("c", "pub fn deep_helper() { danger(); }\npub fn danger() {}\npub fn cold() {}"),
        ]);
        let table = SymbolTable::build(&files, &summaries);
        let (graph, _) = CallGraph::build(&table);
        let reach = Reachability::from_entries_for(&table, &graph, "no-panic-hot-path");
        let id_of = |name: &str| table.fns.iter().find(|f| f.def.name == name).unwrap().id;
        assert!(reach.hot[id_of("ingest")]);
        assert!(reach.hot[id_of("step")]);
        assert!(reach.hot[id_of("danger")]);
        assert!(!reach.hot[id_of("cold")]);
        assert_eq!(
            reach.chain_names(&table, id_of("danger")),
            "ingest → Det::step → deep_helper → danger"
        );
    }

    #[test]
    fn ambiguous_method_names_do_not_create_edges() {
        let (files, summaries) = build(&[(
            "a",
            "// vdsms-lint: entry\npub fn hot(m: &mut Map) { m.insert(1); }\n\
             pub struct Hq;\nimpl Hq { pub fn insert(&mut self, x: u32) {} }",
        )]);
        let table = SymbolTable::build(&files, &summaries);
        let (graph, _) = CallGraph::build(&table);
        let reach = Reachability::from_entries_for(&table, &graph, "no-panic-hot-path");
        let insert = table.fns.iter().find(|f| f.def.name == "insert").unwrap().id;
        assert!(!reach.hot[insert], "`m.insert` must not resolve to `Hq::insert`");
    }

    #[test]
    fn self_calls_resolve_even_for_ambiguous_names() {
        let (files, summaries) = build(&[(
            "a",
            "pub struct S;\nimpl S {\n  // vdsms-lint: entry\n  pub fn run(&mut self) { self.push(1); }\n  fn push(&mut self, x: u32) { side(); }\n}\nfn side() {}",
        )]);
        let table = SymbolTable::build(&files, &summaries);
        let (graph, _) = CallGraph::build(&table);
        let reach = Reachability::from_entries_for(&table, &graph, "no-panic-hot-path");
        let side = table.fns.iter().find(|f| f.def.name == "side").unwrap().id;
        assert!(reach.hot[side], "self.push must resolve to S::push");
    }

    #[test]
    fn qualified_and_module_calls_resolve() {
        let (files, summaries) = build(&[(
            "a",
            "// vdsms-lint: entry\npub fn hot() { Det::probe(); util::helper(); }\n\
             pub struct Det;\nimpl Det { pub fn probe() {} }\n\
             mod util { pub fn helper() {} }",
        )]);
        let table = SymbolTable::build(&files, &summaries);
        let (graph, _) = CallGraph::build(&table);
        let reach = Reachability::from_entries_for(&table, &graph, "no-panic-hot-path");
        for name in ["probe", "helper"] {
            let id = table.fns.iter().find(|f| f.def.name == name).unwrap().id;
            assert!(reach.hot[id], "{name} should be hot");
        }
    }

    #[test]
    fn scoped_entries_seed_only_their_rule() {
        let (files, summaries) = build(&[(
            "a",
            "// vdsms-lint: entry(no-panic-hot-path)\n\
             pub fn sweep() { shared_helper(); }\n\
             // vdsms-lint: entry\n\
             pub fn ingest() { core_step(); }\n\
             pub fn shared_helper() {}\n\
             pub fn core_step() {}",
        )]);
        let table = SymbolTable::build(&files, &summaries);
        let (graph, _) = CallGraph::build(&table);
        let panic_reach = Reachability::from_entries_for(&table, &graph, "no-panic-hot-path");
        let alloc_reach = Reachability::from_entries_for(&table, &graph, "no-alloc-hot-path");
        let id_of = |name: &str| table.fns.iter().find(|f| f.def.name == name).unwrap().id;
        // The scoped entry and its callees are panic-hot only.
        assert!(panic_reach.hot[id_of("sweep")]);
        assert!(panic_reach.hot[id_of("shared_helper")]);
        assert!(!alloc_reach.hot[id_of("sweep")]);
        assert!(!alloc_reach.hot[id_of("shared_helper")]);
        // The bare entry seeds both rules.
        for reach in [&panic_reach, &alloc_reach] {
            assert!(reach.hot[id_of("ingest")]);
            assert!(reach.hot[id_of("core_step")]);
        }
    }

    #[test]
    fn transitive_union_reaches_fixpoint() {
        // 0 -> 1 -> 2, base sets {}, {}, {x}.
        let graph = CallGraph {
            edges: vec![
                vec![CallSite { callee: 1, pos: Pos::new(1, 1) }],
                vec![CallSite { callee: 2, pos: Pos::new(1, 1) }],
                vec![],
            ],
        };
        let base = vec![
            BTreeSet::new(),
            BTreeSet::new(),
            BTreeSet::from(["x".to_string()]),
        ];
        let acc = transitive_union(&graph, &base);
        assert!(acc[0].contains("x"));
        assert!(acc[1].contains("x"));
    }
}
