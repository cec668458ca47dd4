//! Per-function fact extraction and the intra-workspace call graph.
//!
//! Each function body (as delimited by [`crate::parser`]) is walked once
//! to extract the facts the flow rules need: which locks it acquires and
//! in what order, which guards are live where, which blocking operations
//! it performs, which panic-capable constructs it contains, and which
//! other functions it calls. The call graph then resolves calls *by
//! simple name* to every workspace function of that name — a deliberate
//! over-approximation (method-name collisions create edges that do not
//! exist at runtime), which keeps the analysis conservative: it can
//! produce a spurious edge, never miss a real one within the workspace.
//! The one refinement: a call on `self` itself (`self.name(…)`) resolves
//! to the enclosing impl's own method when the workspace defines one —
//! and then it is that workspace call, not the blocking syscall of the
//! same name (`self.accept(m)` in a broadcast layer is not a socket
//! `accept`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Token, TokenKind};
use crate::parser::FnItem;

/// Method/free-call names treated as blocking: syscalls that can park the
/// calling thread for an unbounded (or scheduler-decided) time. `lock()`
/// itself is deliberately absent — lock acquisition order is O1's domain,
/// not B1's.
pub const BLOCKING_OPS: &[&str] = &[
    "write_all",
    "write_vectored",
    "write",
    "flush",
    "read",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "send_timeout",
    "sleep",
    "park",
    "join",
    "accept",
    "connect",
];

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "as", "in", "let", "fn", "move", "ref",
    "mut", "box", "unsafe", "else", "break", "continue", "impl", "dyn", "where", "pub", "use",
    "mod", "struct", "enum", "trait", "type", "const", "static", "crate", "super", "await",
    "async", "yield",
];

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Simple callee name (last path segment / method name).
    pub name: String,
    /// Qualifier hint for `Type::name(…)` call syntax (`Self` already
    /// resolved to the enclosing impl type). `None` for method-call and
    /// free-function syntax.
    pub qual: Option<String>,
    /// The enclosing impl type, for a method call on `self` itself
    /// (`self.name(…)`, not `self.field.name(…)`).
    pub self_qual: Option<String>,
    /// 1-based source line.
    pub line: usize,
    /// Lock names whose guards are live at the call.
    pub held: Vec<String>,
}

/// A `.lock()` acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity: the receiver chain text (e.g. `self.state`).
    pub lock: String,
    /// 1-based source line.
    pub line: usize,
    /// Locks already held when this one is acquired.
    pub held: Vec<String>,
}

/// A blocking operation site.
#[derive(Debug, Clone)]
pub struct BlockSite {
    /// Description of the operation (e.g. `write_all` or
    /// `waits on condvar self.ready`).
    pub op: String,
    /// 1-based source line.
    pub line: usize,
    /// Locks whose guards are (still) held across the operation. For an
    /// idiomatic own-guard condvar wait this excludes the waited guard's
    /// lock — `Condvar::wait` releases it for the duration.
    pub held: Vec<String>,
    /// Called on `self` itself: [`CallGraph::build`] drops the site if the
    /// enclosing impl defines a method of that name.
    pub on_self: bool,
}

/// A panic-capable construct (for call-graph-aware P1).
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What was found (`.unwrap()`, `panic!`, …).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// Everything the flow rules need to know about one function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// `crates/<name>/` the file belongs to, if any.
    pub crate_name: Option<String>,
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait type, if any.
    pub qualifier: Option<String>,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Call sites, in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions, in body order.
    pub locks: Vec<LockSite>,
    /// Blocking operations, in body order.
    pub blocking: Vec<BlockSite>,
    /// Panic-capable constructs, in body order.
    pub panics: Vec<PanicSite>,
}

impl FnInfo {
    /// `Type::name` or plain `name`, for messages.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A live lock guard during the body walk.
struct Guard {
    /// Binding name (`None` for a statement-temporary guard).
    name: Option<String>,
    /// The lock it guards (receiver chain text).
    lock: String,
    /// Brace depth at which it was bound — dies when the block closes.
    depth: usize,
    /// Statement temporary: dies at the next `;` at its depth.
    temp: bool,
}

/// Extracts [`FnInfo`] from one function body. `code` is the file's full
/// code-token slice; `item.body` indexes into it.
pub fn extract_fn_info(
    file: &str,
    crate_name: Option<&str>,
    item: &FnItem,
    code: &[&Token],
) -> FnInfo {
    let mut info = FnInfo {
        file: file.to_string(),
        crate_name: crate_name.map(str::to_string),
        name: item.name.clone(),
        qualifier: item.qualifier.clone(),
        line: item.line,
        calls: Vec::new(),
        locks: Vec::new(),
        blocking: Vec::new(),
        panics: Vec::new(),
    };
    let Some((open, close)) = item.body else { return info };

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let held = |guards: &[Guard]| -> Vec<String> {
        let mut h: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
        h.dedup();
        h
    };

    let mut k = open + 1;
    while k < close {
        let t = code[k];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                k += 1;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                k += 1;
                continue;
            }
            ";" => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                k += 1;
                continue;
            }
            _ => {}
        }
        if t.kind != TokenKind::Ident {
            k += 1;
            continue;
        }

        // `drop(g)` ends a guard's life early.
        if t.is_ident("drop")
            && code.get(k + 1).is_some_and(|x| x.is_punct("("))
            && code.get(k + 3).is_some_and(|x| x.is_punct(")"))
        {
            if let Some(g) = code.get(k + 2) {
                if g.kind == TokenKind::Ident {
                    guards.retain(|gu| gu.name.as_deref() != Some(g.text.as_str()));
                }
            }
            k += 4;
            continue;
        }

        let is_method = k > open && code[k - 1].is_punct(".");
        // `self.name(…)` — the receiver is `self` itself, not a field.
        let on_self = is_method
            && k >= open + 3
            && code[k - 2].is_ident("self")
            && !code[k - 3].is_punct(".");
        let next_is_call = code.get(k + 1).is_some_and(|x| x.is_punct("("));
        let next_is_bang = code.get(k + 1).is_some_and(|x| x.is_punct("!"));

        // Panic-capable constructs (for call-graph-aware P1).
        match t.text.as_str() {
            "unwrap" | "expect"
                if is_method
                    && code
                        .get(k + 1)
                        .is_some_and(|x| x.is_punct("(") || x.is_punct("::")) =>
            {
                info.panics.push(PanicSite { what: format!(".{}()", t.text), line: t.line });
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_is_bang => {
                info.panics.push(PanicSite { what: format!("{}!", t.text), line: t.line });
            }
            _ => {}
        }

        // `.lock()` acquisition.
        if t.is_ident("lock")
            && is_method
            && next_is_call
            && code.get(k + 2).is_some_and(|x| x.is_punct(")"))
        {
            let (chain_start, lock_name) = receiver_chain(code, k - 1, open);
            let lock_name = if lock_name.is_empty() { "<unknown>".to_string() } else { lock_name };
            info.locks.push(LockSite {
                lock: lock_name.clone(),
                line: t.line,
                held: held(&guards),
            });
            // Binding: `let [mut] NAME = <chain>.lock()…` or a plain
            // reassignment `NAME = <chain>.lock()…`. Anything else is a
            // statement temporary, dropped at the end of the statement.
            let bound = binding_before(code, chain_start, open);
            match bound {
                Some(name) => {
                    guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                    guards.push(Guard { name: Some(name), lock: lock_name, depth, temp: false });
                }
                None => {
                    guards.push(Guard { name: None, lock: lock_name, depth, temp: true });
                }
            }
            k += 3;
            continue;
        }

        // Condvar waits: `g = cv.wait(g)` re-acquires g's own lock and is
        // the idiomatic pattern; it still blocks (callers under *other*
        // locks must know), and it is a B1 hazard if another guard stays
        // held across it.
        if (t.is_ident("wait") || t.is_ident("wait_timeout") || t.is_ident("wait_while"))
            && is_method
            && next_is_call
        {
            let (_, cv) = receiver_chain(code, k - 1, open);
            let arg = code.get(k + 2);
            let arg_is_own_guard = arg.is_some_and(|a| {
                a.kind == TokenKind::Ident
                    && guards.iter().any(|g| g.name.as_deref() == Some(a.text.as_str()))
                    && code.get(k + 3).is_some_and(|x| x.is_punct(")") || x.is_punct(","))
            });
            let waited_lock: Option<String> = if arg_is_own_guard {
                let a = arg.map(|a| a.text.as_str());
                guards
                    .iter()
                    .find(|g| g.name.as_deref() == a)
                    .map(|g| g.lock.clone())
            } else {
                None
            };
            let mut held_across = held(&guards);
            if let Some(w) = &waited_lock {
                held_across.retain(|l| l != w);
            }
            let op = if arg_is_own_guard {
                format!("waits on condvar `{cv}` (releasing its own guard)")
            } else {
                format!("cross-object `.{}()` on `{cv}`", t.text)
            };
            info.blocking.push(BlockSite { op, line: t.line, held: held_across, on_self: false });
            k += 2;
            continue;
        }

        // Other blocking operations.
        if BLOCKING_OPS.contains(&t.text.as_str()) && next_is_call && !next_is_bang {
            info.blocking.push(BlockSite {
                op: t.text.clone(),
                line: t.line,
                held: held(&guards),
                on_self,
            });
            // Fall through: also record it as a call, in case a workspace
            // function shares the name.
        }

        // Generic call site.
        if next_is_call
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(k > open && code[k - 1].is_ident("fn"))
        {
            // `Type::name(…)` carries a qualifier hint for resolution.
            let qual = if k >= 2 && code[k - 1].is_punct("::") && code[k - 2].kind == TokenKind::Ident
            {
                let q = code[k - 2].text.as_str();
                if q == "Self" {
                    item.qualifier.clone()
                } else {
                    Some(q.to_string())
                }
            } else {
                None
            };
            info.calls.push(CallSite {
                name: t.text.clone(),
                qual,
                self_qual: if on_self { item.qualifier.clone() } else { None },
                line: t.line,
                held: held(&guards),
            });
        }
        k += 1;
    }
    info
}

/// Walks the postfix receiver chain backwards from `dot` (the `.` before
/// a method name). Returns (index of the chain's first token, chain text
/// like `self.state`). Stops at any token that cannot continue a postfix
/// chain (operators, `=`, `(`, `,`, …).
fn receiver_chain(code: &[&Token], dot: usize, floor: usize) -> (usize, String) {
    let mut j = dot; // at the `.`
    // Accept alternating ident / `.` / `::` going left; also numeric
    // tuple-field literals (`self.0`).
    let mut start = dot;
    while j > floor {
        let prev = &code[j - 1];
        let ok = match prev.kind {
            TokenKind::Ident => true,
            TokenKind::Literal => prev.text.chars().all(|c| c.is_ascii_digit()),
            TokenKind::Punct => prev.text == "." || prev.text == "::",
            _ => false,
        };
        if !ok {
            break;
        }
        j -= 1;
        start = j;
    }
    let text: String = code[start..dot].iter().map(|t| t.text.as_str()).collect();
    (start, text)
}

/// If the token before `chain_start` is an `=` of a `let` binding (or a
/// plain reassignment), returns the bound name.
fn binding_before(code: &[&Token], chain_start: usize, floor: usize) -> Option<String> {
    if chain_start <= floor + 1 {
        return None;
    }
    let eq = chain_start - 1;
    if !code[eq].is_punct("=") {
        return None;
    }
    // `==` lexes as two `=` tokens; a comparison is not a binding.
    if eq > floor && code[eq - 1].is_punct("=") {
        return None;
    }
    let name_tok = &code[eq - 1];
    if name_tok.kind != TokenKind::Ident || name_tok.text == "_" {
        return None;
    }
    // Either `let [mut] name =` or a plain `name =` reassignment (the
    // rebinding in `s = cv.wait(s)` keeps the guard alive; a fresh
    // `name = x.lock()` starts one).
    Some(name_tok.text.clone())
}

/// The intra-workspace call graph over non-test functions.
pub struct CallGraph {
    /// All functions, in (file, body order).
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph; call resolution is by simple name. A blocking
    /// operation called on `self` itself whose name is a method of the
    /// enclosing impl is that workspace method, not the syscall: its
    /// blocking site is dropped, and the call edge stays.
    pub fn build(mut fns: Vec<FnInfo>) -> Self {
        let methods: BTreeSet<(String, String)> = fns
            .iter()
            .filter_map(|f| Some((f.qualifier.clone()?, f.name.clone())))
            .collect();
        for f in &mut fns {
            let Some(q) = f.qualifier.clone() else { continue };
            f.blocking.retain(|b| !(b.on_self && methods.contains(&(q.clone(), b.op.clone()))));
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph { fns, by_name }
    }

    /// All workspace functions a call to `name` may resolve to.
    pub fn resolve(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolves one call site. Method-call syntax resolves by simple name
    /// to every workspace fn of that name (conservative: collisions
    /// create spurious edges, never miss real ones). `Type::name` syntax
    /// uses the qualifier: a multi-letter qualifier must match the
    /// callee's impl type (so `Vec::new` or `BTreeMap::insert` create no
    /// workspace edges), while a single-letter qualifier is treated as a
    /// generic type parameter (`M::decode`) and falls back to name-only
    /// resolution — dropping those edges would un-conservatively hide
    /// every trait impl called through a generic. A call on `self` itself
    /// resolves to the enclosing impl's own method when the workspace
    /// has one, and falls back to name-only resolution when it does not
    /// (a trait's default method, say).
    pub fn resolve_call(&self, c: &CallSite) -> Vec<usize> {
        let by_name = self.resolve(&c.name);
        if let Some(q) = &c.self_qual {
            let own: Vec<usize> = by_name
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qualifier.as_deref() == Some(q.as_str()))
                .collect();
            if !own.is_empty() {
                return own;
            }
        }
        match &c.qual {
            Some(q) if q.len() > 1 => by_name
                .iter()
                .copied()
                .filter(|&i| self.fns[i].qualifier.as_deref() == Some(q.as_str()))
                .collect(),
            _ => by_name.to_vec(),
        }
    }

    /// Per-function transitive lock-acquisition sets: every lock the
    /// function may acquire directly or through any (name-resolved)
    /// callee. Fixpoint over the cyclic graph — sets only grow.
    pub fn transitive_acquires(&self) -> Vec<BTreeSet<String>> {
        let mut acq: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| f.locks.iter().map(|l| l.lock.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for c in &self.fns[i].calls {
                    for j in self.resolve_call(c) {
                        if j != i {
                            add.extend(acq[j].iter().cloned());
                        }
                    }
                }
                for l in add {
                    changed |= acq[i].insert(l);
                }
            }
            if !changed {
                return acq;
            }
        }
    }

    /// Per-function blocking summary: `Some(reason)` if the function may
    /// block directly or through any callee. Fixpoint over cycles.
    pub fn transitive_blocking(&self) -> Vec<Option<String>> {
        self.transitive_blocking_where(|_| false)
    }

    /// [`CallGraph::transitive_blocking`] with an exemption predicate:
    /// a function for which `exempt` returns true is treated as never
    /// blocking — its direct blocking operations are ignored and nothing
    /// propagates out of it. Rule E1 uses this to sanction the poller
    /// module, whose `read`/`write` shims wrap `O_NONBLOCK` fds.
    pub fn transitive_blocking_where(
        &self,
        exempt: impl Fn(&FnInfo) -> bool,
    ) -> Vec<Option<String>> {
        let mut blk: Vec<Option<String>> = self
            .fns
            .iter()
            .map(|f| {
                if exempt(f) {
                    None
                } else {
                    f.blocking.first().map(|b| format!("{} (line {})", b.op, b.line))
                }
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if blk[i].is_some() || exempt(&self.fns[i]) {
                    continue;
                }
                let mut found: Option<String> = None;
                for c in &self.fns[i].calls {
                    for j in self.resolve_call(c) {
                        if j != i {
                            if let Some(r) = &blk[j] {
                                // Keep only the first hop of the chain so
                                // messages stay readable.
                                let root = r.split(", which calls").next().unwrap_or(r);
                                found = Some(format!("calls `{}`, which blocks: {root}",
                                    self.fns[j].display_name()));
                                break;
                            }
                        }
                    }
                    if found.is_some() {
                        break;
                    }
                }
                if let Some(r) = found {
                    blk[i] = Some(r);
                    changed = true;
                }
            }
            if !changed {
                return blk;
            }
        }
    }

    /// BFS reachability from `seeds`, returning a parent map
    /// (`reached fn → caller fn` , seeds map to themselves). Cycle-safe.
    pub fn reachable(&self, seeds: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(s);
                queue.push_back(s);
            }
        }
        while let Some(i) = queue.pop_front() {
            for c in &self.fns[i].calls {
                for j in self.resolve_call(c) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(j) {
                        e.insert(i);
                        queue.push_back(j);
                    }
                }
            }
        }
        parent
    }

    /// Call path `seed → … → target` as display names, reconstructed from
    /// a [`CallGraph::reachable`] parent map.
    pub fn path_to(&self, parent: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut path = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|&i| self.fns[i].display_name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::{code_tokens, parse};

    fn infos(file: &str, src: &str) -> Vec<FnInfo> {
        let tokens = tokenize(src);
        let code = code_tokens(&tokens);
        parse(&code)
            .iter()
            .filter(|f| !f.cfg_test)
            .map(|f| extract_fn_info(file, Some("x"), f, &code))
            .collect()
    }

    #[test]
    fn lock_guard_liveness_and_order() {
        let src = "\
fn f(&self) {\n\
    let mut a = self.alpha.lock().unwrap();\n\
    let b = self.beta.lock().unwrap();\n\
    drop(b);\n\
    self.gamma.lock().unwrap().x = 1;\n\
    touch(&mut a);\n\
}\n";
        let fi = &infos("crates/x/src/a.rs", src)[0];
        let locks: Vec<(&str, Vec<String>)> =
            fi.locks.iter().map(|l| (l.lock.as_str(), l.held.clone())).collect();
        assert_eq!(locks[0], ("self.alpha", vec![]));
        assert_eq!(locks[1], ("self.beta", vec!["self.alpha".into()]));
        // gamma acquired after drop(b): only alpha held.
        assert_eq!(locks[2], ("self.gamma", vec!["self.alpha".into()]));
        // The gamma guard is a statement temporary — dead at `touch`.
        let touch = fi.calls.iter().find(|c| c.name == "touch").unwrap();
        assert_eq!(touch.held, vec!["self.alpha".to_string()]);
    }

    #[test]
    fn block_scope_ends_guards() {
        let src = "\
fn f(&self) {\n\
    {\n\
        let g = self.state.lock().unwrap();\n\
        use_it(&g);\n\
    }\n\
    after();\n\
}\n";
        let fi = &infos("crates/x/src/a.rs", src)[0];
        let use_it = fi.calls.iter().find(|c| c.name == "use_it").unwrap();
        assert_eq!(use_it.held, vec!["self.state".to_string()]);
        let after = fi.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.held.is_empty());
    }

    #[test]
    fn own_guard_condvar_wait_is_blocking_but_releases_its_lock() {
        let src = "\
fn push(&self) {\n\
    let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());\n\
    while s.full() {\n\
        s = self.space.wait(s).unwrap_or_else(|e| e.into_inner());\n\
    }\n\
    s.q.push_back(1);\n\
}\n";
        let fi = &infos("crates/x/src/a.rs", src)[0];
        assert_eq!(fi.blocking.len(), 1);
        let b = &fi.blocking[0];
        assert!(b.op.contains("self.space"), "{:?}", b.op);
        // The waited guard's own lock is released during the wait.
        assert!(b.held.is_empty(), "{:?}", b.held);
        // Rebinding via `s = …wait(s)` keeps the guard alive afterwards.
        let pb = fi.calls.iter().find(|c| c.name == "push_back").unwrap();
        assert_eq!(pb.held, vec!["self.state".to_string()]);
    }

    #[test]
    fn blocking_ops_record_held_guards() {
        let src = "\
fn flush_locked(&self, w: &mut W) {\n\
    let s = self.state.lock().unwrap();\n\
    w.write_all(&s.buf).ok();\n\
}\n\
fn flush_unlocked(&self, w: &mut W) {\n\
    let batch = { let mut s = self.state.lock().unwrap(); s.take() };\n\
    w.write_all(&batch).ok();\n\
}\n";
        let fs = infos("crates/x/src/a.rs", src);
        let locked = &fs[0].blocking[0];
        assert_eq!(locked.op, "write_all");
        assert_eq!(locked.held, vec!["self.state".to_string()]);
        let unlocked = &fs[1].blocking[0];
        assert!(unlocked.held.is_empty(), "{:?}", unlocked.held);
    }

    #[test]
    fn call_graph_resolves_cycles_and_collisions() {
        let src = "\
fn a(&self) { self.b(); }\n\
fn b(&self) { a(); other(); }\n\
fn other(&self) { let g = self.m.lock().unwrap(); g.touch(); }\n";
        let g = CallGraph::build(infos("crates/x/src/a.rs", src));
        // Cycle a → b → a must terminate with both reaching `other`'s lock.
        let acq = g.transitive_acquires();
        assert!(acq[0].contains("self.m"));
        assert!(acq[1].contains("self.m"));
        // Method-name collision: two fns named `close` both resolve.
        let src2 = "\
impl A { fn close(&self) { x.sleep(); } }\n\
impl B { fn close(&self) {} }\n\
fn caller(&self) { y.close(); }\n";
        let g2 = CallGraph::build(infos("crates/x/src/b.rs", src2));
        assert_eq!(g2.resolve("close").len(), 2);
        let blk = g2.transitive_blocking();
        // caller conservatively inherits blocking from either candidate.
        assert!(blk[2].is_some());
    }

    #[test]
    fn qualified_calls_resolve_by_impl_type() {
        let src = "\
impl Alpha { fn new() -> Alpha { loop {} } }\n\
impl Beta { fn new() -> Beta { x.unwrap(); loop {} } }\n\
fn uses_alpha() { let a = Alpha::new(); }\n\
fn uses_std() { let v = Vec::new(); }\n\
fn uses_generic(x: u8) { let m = M::decode(x); }\n";
        let g = CallGraph::build(infos("crates/x/src/q.rs", src));
        let alpha_call = &g.fns[2].calls[0];
        assert_eq!(alpha_call.qual.as_deref(), Some("Alpha"));
        // `Alpha::new` resolves to Alpha's fn only — not Beta's.
        let targets = g.resolve_call(alpha_call);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].qualifier.as_deref(), Some("Alpha"));
        // `Vec::new` has no workspace impl: no edges at all.
        assert!(g.resolve_call(&g.fns[3].calls[0]).is_empty());
        // A single-letter qualifier is a generic parameter: falls back to
        // name-only resolution (here: no workspace fn named `decode`).
        let gen_call = &g.fns[4].calls[0];
        assert_eq!(gen_call.qual.as_deref(), Some("M"));
        assert!(g.resolve_call(gen_call).is_empty());
    }

    #[test]
    fn self_calls_resolve_to_the_enclosing_impl_and_are_not_syscalls() {
        let src = "\
impl Relay { fn accept(&mut self, m: u8) { self.seen.push(m); } }\n\
impl Broadcast for Relay { fn on_message(&mut self, m: u8) { self.accept(m); } }\n\
impl Other { fn accept(&mut self) { x.sleep(); } }\n\
impl Server { fn take(&self) { self.listener.accept(); } }\n\
impl Bare { fn poll(&self) { self.accept(); } }\n";
        let g = CallGraph::build(infos("crates/x/src/s.rs", src));
        let on_message = g.fns.iter().position(|f| f.name == "on_message").unwrap();
        // `self.accept` in Relay's trait impl is Relay's own method: no
        // blocking site, and the edge leads to Relay::accept only.
        assert!(g.fns[on_message].blocking.is_empty(), "{:?}", g.fns[on_message].blocking);
        let call = &g.fns[on_message].calls[0];
        assert_eq!(call.self_qual.as_deref(), Some("Relay"));
        let targets = g.resolve_call(call);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fns[targets[0]].qualifier.as_deref(), Some("Relay"));
        let blk = g.transitive_blocking();
        assert!(blk[on_message].is_none(), "{:?}", blk[on_message]);
        // A field's `accept` is still the socket call.
        let take = g.fns.iter().position(|f| f.name == "take").unwrap();
        assert_eq!(g.fns[take].blocking.len(), 1);
        // `self.accept()` with no such method in the enclosing impl stays
        // a blocking op.
        let bare = g.fns.iter().position(|f| f.name == "poll").unwrap();
        assert_eq!(g.fns[bare].blocking.len(), 1);
    }

    #[test]
    fn reachability_paths() {
        let src = "\
fn entry() { helper(); }\n\
fn helper() { deep(); }\n\
fn deep() { x.unwrap(); }\n\
fn unrelated() { y.unwrap(); }\n";
        let g = CallGraph::build(infos("crates/net/src/a.rs", src));
        let parent = g.reachable(&[0]);
        assert!(parent.contains_key(&2));
        assert!(!parent.contains_key(&3));
        assert_eq!(g.path_to(&parent, 2), vec!["entry", "helper", "deep"]);
    }
}
