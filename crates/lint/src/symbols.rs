//! Workspace symbol table: every function summary, indexed for the
//! name-based call resolution in [`crate::callgraph`].
//!
//! There is no type inference here — resolution is by name (optionally
//! qualified by the `impl` self type), which is what a lint-grade
//! analysis can honestly support. The consequences are documented where
//! they matter: [`crate::callgraph`] refuses to resolve method names
//! that collide with ubiquitous std methods, so the hot set is an
//! *under*-approximation (missed edges degrade coverage, never produce
//! false positives).
//!
//! The table indexes [`FnSummary`] records rather than raw AST nodes:
//! summaries are the boundary between the per-file walkers and the link
//! phase, so symbols, call graph and interprocedural rules never touch
//! an AST.

use crate::summaries::{FileSummary, FnSummary};
use crate::SourceFile;
use std::collections::HashMap;

/// One function symbol.
#[derive(Debug)]
pub struct FnSym<'a> {
    /// Dense id (index into [`SymbolTable::fns`]).
    pub id: usize,
    /// Index of the defining file in the driver's file list.
    pub file: usize,
    /// Package name of the defining crate.
    pub crate_name: &'a str,
    /// Workspace-relative path label of the defining file.
    pub path: &'a str,
    /// `impl`/`trait` self type, if this is an associated function.
    pub self_ty: Option<&'a str>,
    /// The function's summary (sites, calls, flags).
    pub def: &'a FnSummary,
}

impl FnSym<'_> {
    /// Human-readable qualified name: `Detector::push_keyframe` or
    /// `free_fn`.
    pub fn qual_name(&self) -> String {
        match self.self_ty {
            Some(ty) => format!("{ty}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// All function symbols of a workspace, with lookup maps.
#[derive(Debug, Default)]
pub struct SymbolTable<'a> {
    /// Every function, id-indexed.
    pub fns: Vec<FnSym<'a>>,
    free_by_name: HashMap<&'a str, Vec<usize>>,
    methods_by_name: HashMap<&'a str, Vec<usize>>,
    by_qual: HashMap<&'a str, HashMap<&'a str, Vec<usize>>>,
}

impl<'a> SymbolTable<'a> {
    /// Build the table from file summaries. `files[i]` must correspond
    /// to `summaries[i]`.
    pub fn build(files: &'a [SourceFile], summaries: &'a [FileSummary]) -> SymbolTable<'a> {
        let mut table = SymbolTable::default();
        for (fi, (file, summary)) in files.iter().zip(summaries).enumerate() {
            for def in &summary.fns {
                let id = table.fns.len();
                let self_ty = def.self_ty.as_deref();
                table.fns.push(FnSym {
                    id,
                    file: fi,
                    crate_name: &file.crate_name,
                    path: &file.path,
                    self_ty,
                    def,
                });
                let name: &'a str = &def.name;
                match self_ty {
                    Some(ty) => {
                        table.methods_by_name.entry(name).or_default().push(id);
                        table.by_qual.entry(ty).or_default().entry(name).or_default().push(id);
                    }
                    None => table.free_by_name.entry(name).or_default().push(id),
                }
            }
        }
        table
    }

    /// Free functions with this name, workspace-wide.
    pub fn free_fns(&self, name: &str) -> &[usize] {
        self.free_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Associated functions with this name, on any type.
    pub fn methods(&self, name: &str) -> &[usize] {
        self.methods_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Associated functions `ty::name`.
    pub fn qualified(&self, ty: &str, name: &str) -> &[usize] {
        self.by_qual
            .get(ty)
            .and_then(|m| m.get(name))
            .map_or(&[], Vec::as_slice)
    }

    /// Entry-point functions that seed the hot set of `rule`: bare
    /// `entry` markers plus `entry(…)` markers naming the rule.
    pub fn entries_for<'s>(&'s self, rule: &'s str) -> impl Iterator<Item = &'s FnSym<'a>> {
        self.fns.iter().filter(move |f| f.def.entry_covers(rule) && !f.def.is_test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::summaries::summarize;

    fn source(name: &str, src: &str) -> SourceFile {
        SourceFile {
            crate_name: name.to_string(),
            path: format!("{name}/src/lib.rs"),
            source: src.to_string(),
            is_crate_root: true,
        }
    }

    #[test]
    fn table_indexes_free_fns_methods_and_entries() {
        let files = vec![
            source(
                "a",
                "// vdsms-lint: entry\npub fn start() {}\npub fn helper() {}\n\
                 impl Det { pub fn probe(&self) {} }",
            ),
            source("b", "impl Det { pub fn probe(&self) {} }\nimpl Other { fn probe(&self) {} }"),
        ];
        let summaries: Vec<_> = files
            .iter()
            .map(|f| {
                let lexed = lex(&f.source);
                summarize(&lexed, &parse_file(&lexed))
            })
            .collect();
        let table = SymbolTable::build(&files, &summaries);
        assert_eq!(table.free_fns("start").len(), 1);
        assert_eq!(table.free_fns("helper").len(), 1);
        assert_eq!(table.methods("probe").len(), 3);
        assert_eq!(table.qualified("Det", "probe").len(), 2);
        assert_eq!(table.qualified("Other", "probe").len(), 1);
        let entries: Vec<_> =
            table.entries_for("no-panic-hot-path").map(FnSym::qual_name).collect();
        assert_eq!(entries, vec!["start"]);
    }
}
