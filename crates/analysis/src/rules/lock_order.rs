//! Rule family 1: lock-order.
//!
//! Per-function guard-scope inference against the declared tier registry.
//! Every acquisition of a registered lock must carry a tier strictly greater
//! than every tier already held (the hierarchy is acyclic and acquired
//! outermost-first), and no guard may be live across a `Completion::wait` /
//! `wait_read` call unless its declaration says `wait_ok` (dedicated
//! serialization locks that own the I/O they cover).
//!
//! The inference is deliberately syntactic — backlint has no type
//! information — so guard lifetimes follow a small model:
//!
//! * an acquisition immediately chained into another call
//!   (`self.x.lock().push(..)`) is a *temporary*: live to the end of the
//!   statement;
//! * an acquisition in a `let` initializer binds to the `let`'s pattern
//!   name and lives to the end of the enclosing block;
//! * `if let` / `while let` bindings live inside the following block;
//! * `drop(name)` releases the binding early;
//! * anything else (match scrutinees, call arguments) is a temporary —
//!   which matches Rust's actual scrutinee-temporary extension, the classic
//!   try-then-block footgun this rule exists to catch.

use crate::config::LockDecl;
use crate::findings::{Finding, RULE_LOCK_ORDER};
use crate::functions::Function;
use crate::lexer::{Delim, Token, TokenKind};
use crate::rules::own_ranges;

const LOCK_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

#[derive(Debug)]
struct Held {
    /// Index into `locks`.
    decl: usize,
    tier: u32,
    /// Binding name (empty for temporaries).
    binding: String,
    /// Brace depth the guard lives at; popped when depth drops below it,
    /// or (temporaries) at the first `;` at or below it.
    depth: i32,
    temp: bool,
    line: u32,
}

#[derive(Debug)]
struct LetCtx {
    name: String,
    depth: i32,
    saw_eq: bool,
    saw_colon: bool,
    /// `if let` / `while let`: the binding lives in the *following* block.
    is_cond: bool,
}

/// Scans every non-test function in the file for tier-order and
/// guard-across-wait violations.
pub fn scan(
    path: &str,
    tokens: &[Token],
    funcs: &[Function],
    locks: &[&LockDecl],
    findings: &mut Vec<Finding>,
) {
    if locks.is_empty() {
        return;
    }
    for fi in 0..funcs.len() {
        if funcs[fi].is_test {
            continue;
        }
        scan_function(path, tokens, funcs, fi, locks, findings);
    }
}

fn scan_function(
    path: &str,
    tokens: &[Token],
    funcs: &[Function],
    fi: usize,
    locks: &[&LockDecl],
    findings: &mut Vec<Finding>,
) {
    let fname = &funcs[fi].name;
    let mut held: Vec<Held> = Vec::new();
    let mut let_ctx: Option<LetCtx> = None;
    let mut depth = 1i32; // inside the body braces

    for (start, end) in own_ranges(funcs, fi) {
        let mut i = start;
        while i < end {
            let t = &tokens[i];
            match t.kind {
                TokenKind::Open(Delim::Brace) => depth += 1,
                TokenKind::Close(Delim::Brace) => {
                    depth -= 1;
                    held.retain(|h| h.depth <= depth);
                }
                TokenKind::Punct if t.text == ";" => {
                    held.retain(|h| !(h.temp && h.depth >= depth));
                    if let_ctx.as_ref().is_some_and(|l| l.depth == depth) {
                        let_ctx = None;
                    }
                }
                TokenKind::Ident if t.text == "let" => {
                    let is_cond =
                        i > start && matches!(tokens[i - 1].text.as_str(), "if" | "while");
                    let_ctx = Some(LetCtx {
                        name: String::new(),
                        depth,
                        saw_eq: false,
                        saw_colon: false,
                        is_cond,
                    });
                }
                TokenKind::Ident if t.text == "drop" => {
                    // `drop(name)` / `mem::drop(name)` releases the binding.
                    if let (Some(open), Some(arg), Some(close)) =
                        (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3))
                    {
                        if open.text == "(" && arg.kind == TokenKind::Ident && close.text == ")" {
                            held.retain(|h| h.binding != arg.text);
                        }
                    }
                }
                TokenKind::Ident if t.text == "wait" || t.text == "wait_read" => {
                    let is_call = i > 0
                        && tokens[i - 1].text == "."
                        && tokens.get(i + 1).is_some_and(|n| n.text == "(");
                    if is_call {
                        let offenders: Vec<String> = held
                            .iter()
                            .filter(|h| !locks[h.decl].wait_ok)
                            .map(|h| describe(locks[h.decl], &h.binding, h.line))
                            .collect();
                        if !offenders.is_empty() {
                            findings.push(Finding::new(
                                RULE_LOCK_ORDER,
                                path,
                                t.line,
                                format!(
                                    "`{fname}` blocks on `.{}()` while holding {} — \
                                     a lock guard live across a device-queue wait",
                                    t.text,
                                    offenders.join(", "),
                                ),
                            ));
                        }
                    }
                }
                TokenKind::Ident => {
                    if let Some(acq) = match_acquisition(tokens, i, end, locks) {
                        let resume = acq.resume;
                        check_and_push(
                            path, fname, tokens, locks, acq, depth, &let_ctx, &mut held, findings,
                        );
                        i = resume;
                        continue;
                    }
                    track_let_token(&mut let_ctx, t);
                }
                TokenKind::Punct => track_let_punct(&mut let_ctx, t),
                _ => {}
            }
            i += 1;
        }
    }
}

fn track_let_token(let_ctx: &mut Option<LetCtx>, t: &Token) {
    if let Some(l) = let_ctx {
        if !l.saw_eq
            && !l.saw_colon
            && !matches!(
                t.text.as_str(),
                "mut" | "ref" | "box" | "Some" | "Ok" | "Err"
            )
        {
            l.name = t.text.clone();
        }
    }
}

fn track_let_punct(let_ctx: &mut Option<LetCtx>, t: &Token) {
    if let Some(l) = let_ctx {
        match t.text.as_str() {
            ":" if !l.saw_eq => l.saw_colon = true,
            "=" => l.saw_eq = true,
            _ => {}
        }
    }
}

struct Acquisition {
    /// Index into `locks`.
    decl: usize,
    line: u32,
    /// Token index just past the full acquisition expression (including any
    /// chained `.unwrap()` / `.expect(..)` on a poisoning mutex).
    resume: usize,
    /// Whether the expression continues with a method call on the guard
    /// (`self.x.lock().push(..)`) — a temporary.
    chained: bool,
}

/// Tries to read a registered-lock acquisition whose *method name* token is
/// at `i`. Returns the matched declaration and where scanning resumes.
fn match_acquisition(
    tokens: &[Token],
    i: usize,
    end: usize,
    locks: &[&LockDecl],
) -> Option<Acquisition> {
    let t = &tokens[i];
    if i == 0 || tokens[i - 1].text != "." {
        return None;
    }
    if tokens.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
        return None;
    }

    let is_guard_method = LOCK_METHODS.contains(&t.text.as_str());
    let is_method_decl = locks.iter().any(|l| l.is_method && l.name == t.text);
    if !is_guard_method && !is_method_decl {
        return None;
    }

    // Receiver: identifier before the `.`, skipping one `[...]` index.
    let receiver = receiver_ident(tokens, i - 1)?;

    let decl = if is_method_decl {
        // A method registered with a qualifier only matches that receiver;
        // any other receiver falls back to an unqualified decl of the same
        // name.
        let named = |qualifier: &str| {
            locks
                .iter()
                .position(|l| l.is_method && l.name == t.text && l.qualifier == qualifier)
        };
        named(&receiver).or_else(|| named(""))?
    } else {
        // Field form must be zero-arg: `file.read(&mut buf)` is I/O, not a
        // guard.
        if tokens.get(i + 2).map(|n| n.text.as_str()) != Some(")") {
            return None;
        }
        locks
            .iter()
            .position(|l| !l.is_method && l.name == receiver)?
    };

    // Find the call's closing paren.
    let mut j = i + 1;
    let mut pdepth = 0i32;
    while j < end {
        match tokens[j].kind {
            TokenKind::Open(Delim::Paren) => pdepth += 1,
            TokenKind::Close(Delim::Paren) => {
                pdepth -= 1;
                if pdepth == 0 {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let mut after = j + 1;

    // `lock().unwrap()` / `lock().expect("…")` on a std (poisoning) mutex is
    // part of the acquisition, not a chain on the guard.
    while tokens.get(after).is_some_and(|n| n.text == ".")
        && tokens
            .get(after + 1)
            .is_some_and(|n| n.text == "unwrap" || n.text == "expect")
        && tokens.get(after + 2).is_some_and(|n| n.text == "(")
    {
        let mut k = after + 2;
        let mut d = 0i32;
        while k < end {
            match tokens[k].kind {
                TokenKind::Open(Delim::Paren) => d += 1,
                TokenKind::Close(Delim::Paren) => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        after = k + 1;
    }

    let chained = tokens.get(after).is_some_and(|n| n.text == ".");
    Some(Acquisition {
        decl,
        line: t.line,
        resume: after,
        chained,
    })
}

/// The identifier owning the `.` at `dot`, looking back over one optional
/// `[...]` index (`self.partitions[p].read()`).
fn receiver_ident(tokens: &[Token], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    if tokens[j].kind == TokenKind::Close(Delim::Bracket) {
        let mut d = 0i32;
        loop {
            match tokens[j].kind {
                TokenKind::Close(Delim::Bracket) => d += 1,
                TokenKind::Open(Delim::Bracket) => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    let t = &tokens[j];
    (t.kind == TokenKind::Ident).then(|| t.text.clone())
}

#[allow(clippy::too_many_arguments)]
fn check_and_push(
    path: &str,
    fname: &str,
    _tokens: &[Token],
    locks: &[&LockDecl],
    acq: Acquisition,
    depth: i32,
    let_ctx: &Option<LetCtx>,
    held: &mut Vec<Held>,
    findings: &mut Vec<Finding>,
) {
    let new = locks[acq.decl];
    for h in held.iter() {
        let old = locks[h.decl];
        let violation = if new.tier < h.tier {
            Some(format!(
                "`{fname}` acquires `{}` (tier {}) while holding `{}` (tier {}) — \
                 out of declared lock order",
                label(new),
                new.tier,
                label(old),
                old.tier,
            ))
        } else if new.tier == h.tier && !(new.name == old.name && new.allow_repeat) {
            Some(format!(
                "`{fname}` re-acquires tier {} (`{}`) while holding `{}` — \
                 same-tier nesting is a self-deadlock unless the lock is \
                 declared `allow_repeat`",
                new.tier,
                label(new),
                label(old),
            ))
        } else {
            None
        };
        if let Some(msg) = violation {
            findings.push(Finding::new(RULE_LOCK_ORDER, path, acq.line, msg));
        }
    }

    let (binding, bind_depth, temp) = if acq.chained {
        (String::new(), depth, true)
    } else {
        match let_ctx {
            Some(l) if l.saw_eq => {
                let d = if l.is_cond { depth + 1 } else { depth };
                (l.name.clone(), d, false)
            }
            _ => (String::new(), depth, true),
        }
    };
    held.push(Held {
        decl: acq.decl,
        tier: new.tier,
        binding,
        depth: bind_depth,
        temp,
        line: acq.line,
    });
}

/// The lock's name, with its qualifier when it is a qualified method form
/// (`to_table.ws_shard`).
fn label(decl: &LockDecl) -> String {
    if decl.qualifier.is_empty() {
        decl.name.clone()
    } else {
        format!("{}.{}", decl.qualifier, decl.name)
    }
}

fn describe(decl: &LockDecl, binding: &str, acquired_line: u32) -> String {
    if binding.is_empty() {
        format!(
            "a `{}` guard (tier {}, acquired line {acquired_line})",
            label(decl),
            decl.tier
        )
    } else {
        format!(
            "`{binding}` (`{}`, tier {}, acquired line {acquired_line})",
            label(decl),
            decl.tier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::functions;
    use crate::lexer::lex;

    fn decls() -> Vec<LockDecl> {
        let mk = |name: &str, tier| LockDecl {
            name: name.into(),
            file_suffix: String::new(),
            qualifier: String::new(),
            tier,
            is_method: false,
            wait_ok: false,
            allow_repeat: false,
        };
        let mut v = vec![mk("outer_lock", 10), mk("inner_lock", 20)];
        v.push(LockDecl {
            allow_repeat: true,
            ..mk("part_locks", 30)
        });
        v.push(LockDecl {
            wait_ok: true,
            ..mk("cp_lock", 5)
        });
        v.push(LockDecl {
            name: "lock_shard".into(),
            is_method: true,
            ..mk("lock_shard", 40)
        });
        v
    }

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let fns = functions(&lexed.tokens);
        let decls = decls();
        let refs: Vec<&LockDecl> = decls.iter().collect();
        let mut findings = Vec::new();
        scan("t.rs", &lexed.tokens, &fns, &refs, &mut findings);
        findings
    }

    #[test]
    fn ascending_order_is_clean() {
        let f = run("fn ok(&self) { let a = self.outer_lock.lock(); let b = self.inner_lock.lock(); b.touch(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn descending_order_fires() {
        let f = run(
            "fn bad(&self) { let b = self.inner_lock.lock(); let a = self.outer_lock.lock(); }",
        );
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("out of declared lock order"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn drop_releases_binding() {
        let f = run(
            "fn ok(&self) { let b = self.inner_lock.lock(); drop(b); let a = self.outer_lock.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_scope_releases_binding() {
        let f = run(
            "fn ok(&self) { { let b = self.inner_lock.lock(); } let a = self.outer_lock.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn chained_temp_dies_at_statement_end() {
        let f =
            run("fn ok(&self) { self.inner_lock.lock().push(1); let a = self.outer_lock.lock(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn chained_temp_is_live_within_its_statement() {
        let f = run("fn bad(&self) { self.inner_lock.lock().push(self.outer_lock.lock().get()); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn same_tier_repeat_needs_allow_repeat() {
        let f = run(
            "fn bad(&self) { let a = self.inner_lock.lock(); let b = self.inner_lock.lock(); }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("same-tier"), "{}", f[0].message);
        let ok = run("fn ok(&self) { let a = self.part_locks[0].lock(); let b = self.part_locks[1].lock(); }");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn match_scrutinee_temp_is_held_through_match() {
        // The classic try-then-block footgun: the Option temp from try_lock
        // lives for the whole match, so locking again in the None arm nests
        // same-tier.
        let f = run(
            "fn bad(&self) { match self.inner_lock.try_lock() { Some(g) => g, None => self.inner_lock.lock(), }; }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wait_under_guard_fires_unless_wait_ok() {
        let f = run("fn bad(&self) { let g = self.inner_lock.lock(); self.dev.wait(t); }");
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("device-queue wait"),
            "{}",
            f[0].message
        );
        let ok = run("fn ok(&self) { let g = self.cp_lock.lock(); self.dev.wait(t); }");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn if_let_binding_scopes_to_block() {
        let f = run(
            "fn ok(&self) { if let Some(g) = self.inner_lock.try_lock() { g.touch(); } let a = self.outer_lock.lock(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn method_acquisition_and_std_unwrap_shapes() {
        let f = run("fn bad(&self) { let s = self.lock_shard(0); let a = self.outer_lock.lock().unwrap(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("out of declared lock order"));
    }

    #[test]
    fn test_functions_are_skipped() {
        let f = run("#[test]\nfn t(&self) { let b = self.inner_lock.lock(); let a = self.outer_lock.lock(); }");
        assert!(f.is_empty());
    }
}
