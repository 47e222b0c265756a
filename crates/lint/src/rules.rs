//! The eight rule passes. Each enforces one cross-cutting source
//! invariant the compiler cannot check (see `crates/core/src/README.md`,
//! "Invariants & static analysis"):
//!
//! 1. [`no_panic_decode`](RULE_NO_PANIC) — decode paths never panic:
//!    no `unwrap`/`expect`/`panic!`-family macros/direct indexing in
//!    `decode`/`decode_framed`/`restore`/`apply_*` bodies, functions
//!    taking a codec `Reader`, or anywhere in the `sss-codec` crate.
//! 2. [`bounded_decode_alloc`](RULE_ALLOC) — allocations in decode
//!    paths are sized by `len_prefix`/`varint_len` or guarded by a
//!    named `MAX_*` bound / `remaining()` / an already-decoded
//!    `.len()`; decoded scalars are not cast to `usize` unguarded
//!    (the PR 6 window-restore bug class, generalized).
//! 3. [`nan_safe_ordering`](RULE_NAN) — no `partial_cmp(..).unwrap()`
//!    and no float comparators built on `partial_cmp`; order statistics
//!    go through `total_cmp`.
//! 4. [`canonical_iteration`](RULE_ITER) — no unordered `HashMap`/
//!    `HashSet` iteration inside `encode_into`/`merge`/`try_merge`/
//!    `estimate` bodies unless the iteration feeds a sort within the
//!    next two statements (the collect-then-sort idiom).
//! 5. [`wire_tag_registry`](RULE_TAGS) — `0x01xx`–`0x07xx` wire tags
//!    are globally unique, live in their owning crate's range, are
//!    covered by the Monitor restore registry, and every monitor-level
//!    codec type has a fixture in the committed corpus.
//! 6. [`batch_kernel`](RULE_BATCH) — `update_batch` bodies never call
//!    the per-item `hash_range`; batch paths hash whole chunks through
//!    the SWAR kernels in `sss_hash::batch` (the blessed kernel module
//!    itself is exempt).
//! 7. [`metric_registry`](RULE_METRICS) — every metric declared in a
//!    `metric_table!` carries a snake_case `sss_<subsystem>_*` name
//!    with a known subsystem segment, counters end in `_total`, kinds
//!    are Counter/Gauge/Histogram, and names are globally unique.
//! 8. [`atomic_ordering`](RULE_ATOMIC) — `Ordering::SeqCst` never
//!    appears in non-test code (the workspace's shared state is
//!    commutative counters; a seq-cst fence papers over a design bug),
//!    and hot-path bodies (`update*`/`ingest*`) use only `Relaxed`
//!    atomics — an acquire/release there needs a pragma explaining
//!    what it synchronizes.
//!
//! Audited exceptions are written in the source as
//! `// sss-lint: allow(<rule>) — <reason>` on the flagged line or the
//! line above it.

use crate::lexer::{TokKind, Token};
use crate::scan::{matching, normalize_type, statements, FnItem, SourceFile};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;

pub const RULE_NO_PANIC: &str = "no_panic_decode";
pub const RULE_ALLOC: &str = "bounded_decode_alloc";
pub const RULE_NAN: &str = "nan_safe_ordering";
pub const RULE_ITER: &str = "canonical_iteration";
pub const RULE_TAGS: &str = "wire_tag_registry";
pub const RULE_BATCH: &str = "batch_kernel";
pub const RULE_METRICS: &str = "metric_registry";
pub const RULE_ATOMIC: &str = "atomic_ordering";

/// All rule ids, for `--list-rules` and pragma validation.
pub const ALL_RULES: [&str; 8] = [
    RULE_NO_PANIC,
    RULE_ALLOC,
    RULE_NAN,
    RULE_ITER,
    RULE_TAGS,
    RULE_BATCH,
    RULE_METRICS,
    RULE_ATOMIC,
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub path: PathBuf,
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A parsed fixture-corpus manifest (`tests/fixtures/wire_v*/manifest.tsv`).
pub struct FixtureManifest {
    pub path: PathBuf,
    /// (fixture name, wire tag) rows.
    pub entries: Vec<(String, u16)>,
}

/// Knobs for the workspace-level checks.
pub struct LintOptions {
    /// Demand that a Monitor restore registry (`fn registry_knows` +
    /// `fn decode_estimator`) exists somewhere in the scanned set.
    pub require_registry: bool,
    /// Types whose snapshots ship framed at the top level and therefore
    /// must have a committed fixture, beyond the registry's estimators.
    pub toplevel_types: Vec<String>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            require_registry: true,
            toplevel_types: vec!["Monitor".into(), "WindowedMonitor".into()],
        }
    }
}

/// Per-crate wire-tag range ownership: crate name → the required high
/// byte of its tags. Crates not listed here must not define tags.
const TAG_RANGES: [(&str, u16); 7] = [
    ("sss-hash", 1),
    ("sss-sketch", 2),
    ("sss-stream", 3),
    ("sss-core", 4),
    ("sss-transport", 5),
    ("sss-window", 6),
    ("sss-obs", 7),
];

struct Reporter<'a> {
    file: &'a SourceFile,
    out: Vec<Violation>,
    seen: HashSet<(usize, String)>,
}

impl<'a> Reporter<'a> {
    fn new(file: &'a SourceFile) -> Self {
        Reporter {
            file,
            out: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn report(&mut self, rule: &'static str, line: usize, message: String) {
        if self.file.allowed(line, rule) {
            return;
        }
        if !self.seen.insert((line, format!("{rule}:{message}"))) {
            return;
        }
        self.out.push(Violation {
            rule,
            path: self.file.path.clone(),
            line,
            message,
        });
    }
}

/// Whether a function is a decode path: it parses untrusted bytes, so
/// rules 1 and 2 apply to its body.
fn is_decode_path(file: &SourceFile, f: &FnItem) -> bool {
    if f.is_test {
        return false;
    }
    if file.crate_name == "sss-codec" {
        return true;
    }
    let n = f.name.as_str();
    if n == "decode"
        || n == "decode_framed"
        || n == "decode_slice"
        || n.starts_with("decode_")
        || n.starts_with("restore")
        || n.starts_with("apply_")
    {
        return true;
    }
    // Any function handed a codec `Reader` is part of a decode tree.
    file.tokens[f.params.0..f.params.1]
        .iter()
        .any(|t| t.is_ident("Reader"))
}

// ---------------------------------------------------------------------
// Rule 1: no-panic decode paths
// ---------------------------------------------------------------------

pub fn check_no_panic(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    for f in &file.fns {
        if !is_decode_path(file, f) {
            continue;
        }
        let Some((a, b)) = f.body else { continue };
        for i in a..b {
            if file.is_test_tok(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect" || t.text == "unwrap_unchecked")
                && i > 0
                && toks[i - 1].is_punct('.')
            {
                rep.report(
                    RULE_NO_PANIC,
                    t.line,
                    format!(
                        "`.{}()` in decode path `{}` can panic on untrusted bytes; return a typed CodecError",
                        t.text, f.name
                    ),
                );
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && i + 1 < b
                && toks[i + 1].is_punct('!')
            {
                rep.report(
                    RULE_NO_PANIC,
                    t.line,
                    format!(
                        "`{}!` in decode path `{}`; corrupt input must surface as a typed error",
                        t.text, f.name
                    ),
                );
            }
            if t.is_punct('[') && i > a {
                let p = &toks[i - 1];
                let is_index_base = matches!(p.kind, TokKind::Ident | TokKind::Num | TokKind::Str)
                    || p.is_punct(')')
                    || p.is_punct(']')
                    || p.is_punct('?');
                if is_index_base {
                    rep.report(
                        RULE_NO_PANIC,
                        t.line,
                        format!(
                            "direct slice indexing in decode path `{}` can panic; use `get`/`take`",
                            f.name
                        ),
                    );
                }
            }
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 2: bounded decode allocation
// ---------------------------------------------------------------------

/// Reader methods that yield attacker-controlled integers.
const RAW_READS: [&str; 10] = [
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "i64",
    "varint_u64",
    "varint_i64",
    "count_u64",
    "count_usize",
];

fn stmt_has_raw_read(toks: &[Token]) -> bool {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `.u64()` method-call form.
        if RAW_READS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            return true;
        }
        // `usize::decode(r)` / `u64::decode(r)` form.
        if (t.text == "usize" || RAW_READS.contains(&t.text.as_str()))
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("decode")
        {
            return true;
        }
    }
    false
}

/// An uppercase identifier naming a bound (`MAX_WINDOW_BUCKETS`,
/// `PACKED_MAX_RUN`).
fn is_max_const(t: &Token) -> bool {
    t.kind == TokKind::Ident
        && t.text.contains("MAX")
        && t.text
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

fn stmt_has_promoter(toks: &[Token]) -> bool {
    for i in 0..toks.len() {
        let t = &toks[i];
        if is_max_const(t) {
            return true;
        }
        if (t.is_ident("remaining") || t.is_ident("len"))
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            return true;
        }
    }
    false
}

/// Identifiers bound by a `let` pattern / plain assignment at the start
/// of a pseudo-statement, plus the RHS token range.
fn binding_of(toks: &[Token]) -> Option<(Vec<String>, usize)> {
    if toks.is_empty() {
        return None;
    }
    if toks[0].is_ident("let") {
        let eq = toks.iter().position(|t| t.is_punct('='))?;
        let mut names = Vec::new();
        let mut in_ty = false;
        for t in &toks[1..eq] {
            if t.is_punct(':') {
                in_ty = true;
            } else if t.is_punct(',') || t.is_punct('(') || t.is_punct(')') {
                in_ty = false;
            } else if !in_ty && t.kind == TokKind::Ident && t.text != "mut" {
                names.push(t.text.clone());
            }
        }
        return Some((names, eq + 1));
    }
    // `x = rhs` assignment (not `==`).
    if toks.len() >= 3
        && toks[0].kind == TokKind::Ident
        && toks[1].is_punct('=')
        && !toks[2].is_punct('=')
    {
        return Some((vec![toks[0].text.clone()], 2));
    }
    None
}

pub fn check_bounded_alloc(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    for f in &file.fns {
        if !is_decode_path(file, f) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let stmts = statements(toks, body);
        let mut tainted: HashSet<String> = HashSet::new();
        let mut bounded: HashSet<String> = HashSet::new();

        // Pass 1: classify bindings in order.
        for &(s, e) in &stmts {
            let st = &toks[s..e];
            let Some((names, rhs)) = binding_of(st) else {
                continue;
            };
            let rhs_toks = &st[rhs.min(st.len())..];
            let has_len_guard = rhs_toks
                .iter()
                .any(|t| t.is_ident("len_prefix") || t.is_ident("varint_len"));
            if has_len_guard {
                for n in names {
                    tainted.remove(&n);
                    bounded.insert(n);
                }
            } else if stmt_has_raw_read(rhs_toks)
                || rhs_toks
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && tainted.contains(&t.text))
            {
                for n in names {
                    bounded.remove(&n);
                    tainted.insert(n);
                }
            } else {
                for n in names {
                    tainted.remove(&n);
                    bounded.remove(&n);
                }
            }
        }

        // Pass 2: body-wide promotion — a statement mentioning a tainted
        // name next to a MAX_* constant, `remaining()` or `.len()` is
        // taken as its bound check.
        let mut promoted: HashSet<String> = HashSet::new();
        for &(s, e) in &stmts {
            let st = &toks[s..e];
            if !stmt_has_promoter(st) {
                continue;
            }
            for t in st {
                if t.kind == TokKind::Ident && tainted.contains(&t.text) {
                    promoted.insert(t.text.clone());
                }
            }
        }

        let bad = |name: &str| tainted.contains(name) && !promoted.contains(name);

        // Pass 3: violations.
        for &(s, e) in &stmts {
            let st = &toks[s..e];
            // Allocation sites.
            for i in 0..st.len() {
                let t = &st[i];
                let arg_range: Option<(usize, usize)> = if (t.is_ident("with_capacity")
                    || t.is_ident("resize")
                    || t.is_ident("resize_with"))
                    && i + 1 < st.len()
                    && st[i + 1].is_punct('(')
                {
                    matching(st, i + 1, '(', ')').map(|c| {
                        // Only `resize`'s first argument is a size; the
                        // second is the fill value.
                        let mut end = c;
                        if t.text.starts_with("resize") {
                            let mut d = 0i64;
                            for (j, tk) in st.iter().enumerate().take(c).skip(i + 2) {
                                if tk.is_punct('(') || tk.is_punct('[') {
                                    d += 1;
                                } else if tk.is_punct(')') || tk.is_punct(']') {
                                    d -= 1;
                                } else if tk.is_punct(',') && d == 0 {
                                    end = j;
                                    break;
                                }
                            }
                        }
                        (i + 2, end)
                    })
                } else if t.is_ident("vec")
                    && i + 2 < st.len()
                    && st[i + 1].is_punct('!')
                    && st[i + 2].is_punct('[')
                {
                    // Only the `vec![elem; len]` form sizes an allocation.
                    matching(st, i + 2, '[', ']').and_then(|c| {
                        let semi = (i + 3..c).find(|&j| st[j].is_punct(';'))?;
                        Some((semi + 1, c))
                    })
                } else {
                    None
                };
                let Some((a, b)) = arg_range else { continue };
                let args = &st[a..b.min(st.len())];
                if stmt_has_raw_read(args) {
                    rep.report(
                        RULE_ALLOC,
                        t.line,
                        format!(
                            "allocation in decode path `{}` sized directly by a decoded integer; route it through len_prefix or bound it first",
                            f.name
                        ),
                    );
                    continue;
                }
                for arg in args {
                    if arg.kind == TokKind::Ident && bad(&arg.text) {
                        rep.report(
                            RULE_ALLOC,
                            t.line,
                            format!(
                                "allocation in decode path `{}` sized by decoded value `{}` with no len_prefix / MAX_* / remaining() bound",
                                f.name, arg.text
                            ),
                        );
                    }
                }
            }
            // Unbounded decoded scalar committed to a usize.
            for i in 0..st.len().saturating_sub(2) {
                if st[i].kind == TokKind::Ident
                    && bad(&st[i].text)
                    && st[i + 1].is_ident("as")
                    && st[i + 2].is_ident("usize")
                {
                    rep.report(
                        RULE_ALLOC,
                        st[i].line,
                        format!(
                            "decoded scalar `{}` cast to usize in `{}` without a MAX_* / remaining() / len() bound (the window-restore bug class)",
                            st[i].text, f.name
                        ),
                    );
                }
            }
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 3: NaN-safe ordering
// ---------------------------------------------------------------------

const COMPARATOR_SINKS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

pub fn check_nan_ordering(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_tok(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "partial_cmp" && i + 1 < toks.len() && toks[i + 1].is_punct('(') {
            if let Some(close) = matching(toks, i + 1, '(', ')') {
                if close + 2 < toks.len()
                    && toks[close + 1].is_punct('.')
                    && (toks[close + 2].is_ident("unwrap") || toks[close + 2].is_ident("expect"))
                {
                    rep.report(
                        RULE_NAN,
                        t.line,
                        "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp`".to_string(),
                    );
                }
            }
        }
        if COMPARATOR_SINKS.contains(&t.text.as_str())
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            if let Some(close) = matching(toks, i + 1, '(', ')') {
                if toks[i + 2..close].iter().any(|x| x.is_ident("partial_cmp")) {
                    rep.report(
                        RULE_NAN,
                        t.line,
                        format!(
                            "`{}` comparator built on `partial_cmp` is not a total order over floats; use `total_cmp`",
                            t.text
                        ),
                    );
                }
            }
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 4: canonical iteration in merge/encode/estimate paths
// ---------------------------------------------------------------------

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const ORDER_SENSITIVE_FNS: [&str; 4] = ["encode_into", "merge", "try_merge", "estimate"];

/// Hash container type names. `FpHashMap`/`FpHashSet` are the
/// workspace's fixed-seed aliases: iteration is reproducible for one
/// insertion history but still not canonical across merge orders, so
/// the rule treats them exactly like std's.
fn is_hash_ty(t: &Token) -> bool {
    t.is_ident("HashMap")
        || t.is_ident("HashSet")
        || t.is_ident("FpHashMap")
        || t.is_ident("FpHashSet")
        || t.is_ident("fp_hash_map")
        || t.is_ident("fp_hash_set")
}

/// Names in this file declared (field, param or let-binding) as
/// `HashMap` / `HashSet`.
fn hash_container_names(file: &SourceFile) -> HashSet<String> {
    let toks = &file.tokens;
    let mut names = HashSet::new();
    // `name: [path::]Hash{Map,Set}<...>` declarations.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if !(i + 1 < toks.len() && toks[i + 1].is_punct(':')) {
            continue;
        }
        // Exclude `path::seg` (double colon).
        if i + 2 < toks.len() && toks[i + 2].is_punct(':') {
            continue;
        }
        if i > 0 && toks[i - 1].is_punct(':') {
            continue;
        }
        let mut j = i + 2;
        let limit = (i + 12).min(toks.len());
        while j < limit {
            let t = &toks[j];
            if is_hash_ty(t) {
                names.insert(toks[i].text.clone());
                break;
            }
            let path_part = t.kind == TokKind::Ident
                || t.is_punct(':')
                || t.is_punct('&')
                || t.kind == TokKind::Lifetime;
            if !path_part {
                break;
            }
            j += 1;
        }
    }
    // `let name = HashMap::new()` style bindings.
    for (s, e) in statements(toks, (0, toks.len())) {
        let st = &toks[s..e];
        let Some((bound, rhs)) = binding_of(st) else {
            continue;
        };
        if st[rhs.min(st.len())..].iter().any(is_hash_ty) {
            names.extend(bound);
        }
    }
    names
}

pub fn check_canonical_iteration(file: &SourceFile, out: &mut Vec<Violation>) {
    let hashes = hash_container_names(file);
    if hashes.is_empty() {
        return;
    }
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    for f in &file.fns {
        if f.is_test || !ORDER_SENSITIVE_FNS.contains(&f.name.as_str()) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let stmts = statements(toks, body);
        for (si, &(s, e)) in stmts.iter().enumerate() {
            let st = &toks[s..e];
            let mut hit: Option<(usize, String)> = None; // (line, what)
            for i in 0..st.len() {
                let t = &st[i];
                // `name.iter()` / `self.name.keys()` ...
                if t.kind == TokKind::Ident
                    && ITER_METHODS.contains(&t.text.as_str())
                    && i >= 2
                    && st[i - 1].is_punct('.')
                    && st[i - 2].kind == TokKind::Ident
                    && hashes.contains(&st[i - 2].text)
                    && i + 1 < st.len()
                    && st[i + 1].is_punct('(')
                {
                    hit = Some((t.line, format!("{}.{}()", st[i - 2].text, t.text)));
                    break;
                }
            }
            // `for x in &self.name` loop headers.
            if hit.is_none() && !st.is_empty() && st[0].is_ident("for") {
                if let Some(in_pos) = st.iter().position(|t| t.is_ident("in")) {
                    for t in &st[in_pos + 1..] {
                        if t.kind == TokKind::Ident && hashes.contains(&t.text) {
                            hit = Some((st[0].line, format!("for .. in {}", t.text)));
                            break;
                        }
                    }
                }
            }
            let Some((line, what)) = hit else { continue };
            // The collect-then-sort idiom: a sort in this statement or
            // the next two blesses the iteration.
            let sorted_nearby = stmts[si..(si + 3).min(stmts.len())].iter().any(|&(a, b)| {
                toks[a..b]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
            });
            if sorted_nearby {
                continue;
            }
            rep.report(
                RULE_ITER,
                line,
                format!(
                    "unordered hash iteration `{what}` in `{}`; encode/merge/estimate must iterate in canonical order (collect + sort), or justify commutativity with a pragma",
                    f.name
                ),
            );
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 6: batch paths hash through the SWAR kernel
// ---------------------------------------------------------------------

/// The one module allowed to evaluate hashes per item inside a batch
/// body: it *is* the kernel the rule points everyone else at.
fn is_blessed_kernel(file: &SourceFile) -> bool {
    file.path.ends_with("hash/src/batch.rs")
}

pub fn check_batch_kernel(file: &SourceFile, out: &mut Vec<Violation>) {
    if is_blessed_kernel(file) {
        return;
    }
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    for f in &file.fns {
        if f.is_test || !f.name.starts_with("update_batch") {
            continue;
        }
        let Some((a, b)) = f.body else { continue };
        for i in a..b {
            if file.is_test_tok(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && t.text == "hash_range"
                && i + 1 < b
                && toks[i + 1].is_punct('(')
            {
                rep.report(
                    RULE_BATCH,
                    t.line,
                    format!(
                        "per-item `hash_range` call in batch path `{}`; hash the whole chunk through the SWAR kernels in sss_hash::batch (`hash_range_batch`/`signs_batch`) instead",
                        f.name
                    ),
                );
            }
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 8: atomic memory orderings
// ---------------------------------------------------------------------

/// Whether a function name marks an ingestion hot path for the
/// `atomic_ordering` rule.
fn is_hot_path_fn(f: &FnItem) -> bool {
    f.name.starts_with("update") || f.name.starts_with("ingest")
}

pub fn check_atomic_ordering(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut rep = Reporter::new(file);
    let toks = &file.tokens;
    // SeqCst is banned everywhere outside tests: no invariant in this
    // workspace needs a total order over unrelated atomics, so its
    // appearance means either cargo-culting or an undiagnosed race.
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_tok(i) {
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "SeqCst" {
            rep.report(
                RULE_ATOMIC,
                t.line,
                "`Ordering::SeqCst` in non-test code; the workspace's shared state is commutative counters — use `Relaxed` (or justify the fence with a pragma)".to_string(),
            );
        }
    }
    // Hot paths take only Relaxed: mutexes and thread joins are the
    // happens-before edges the design relies on, so an acquire/release
    // inside update/ingest bodies either does nothing or hides an
    // undocumented protocol. Matching the `Ordering::X` path (rather
    // than the bare ident) keeps prose and unrelated idents out.
    for f in &file.fns {
        if f.is_test || !is_hot_path_fn(f) {
            continue;
        }
        let Some((a, b)) = f.body else { continue };
        for i in a..b {
            if file.is_test_tok(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "Acquire" | "Release" | "AcqRel")
                && i >= a + 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks[i - 3].is_ident("Ordering")
            {
                rep.report(
                    RULE_ATOMIC,
                    t.line,
                    format!(
                        "`Ordering::{}` on the hot path `{}`; ingestion atomics are `Relaxed` (mutexes and joins are the synchronization edges) — document any exception with a pragma",
                        t.text, f.name
                    ),
                );
            }
        }
    }
    out.append(&mut rep.out);
}

// ---------------------------------------------------------------------
// Rule 5: wire-tag registry audit
// ---------------------------------------------------------------------

struct TagDef {
    value: u16,
    owner: String,
    crate_name: String,
    path: PathBuf,
    line: usize,
}

fn parse_u16_literal(text: &str) -> Option<u16> {
    let t = text.replace('_', "");
    let t = t
        .trim_end_matches("u16")
        .trim_end_matches("u32")
        .trim_end_matches("u64");
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u16::from_str_radix(hex, 16).ok()
    } else {
        t.parse().ok()
    }
}

/// Alias `const NAME: u16 = <Type as WireCodec>::WIRE_TAG;` — the
/// Monitor restore registry's vocabulary.
struct AliasDef {
    name: String,
    /// Normalized target type (`SampledFkEstimator<ExactCollisions>`).
    target: String,
    line: usize,
}

fn alias_target(toks: &[Token]) -> Option<String> {
    let tag_pos = toks.iter().position(|t| t.is_ident("WIRE_TAG"))?;
    // Drop the trailing `::WIRE_TAG`.
    let mut end = tag_pos;
    while end > 0 && toks[end - 1].is_punct(':') {
        end -= 1;
    }
    if end == 0 {
        return None;
    }
    let mut range = &toks[..end];
    // Strip an outer `<... as WireCodec>` qualification.
    if range.first().is_some_and(|t| t.is_punct('<'))
        && range.last().is_some_and(|t| t.is_punct('>'))
    {
        range = &range[1..range.len() - 1];
    }
    let norm = normalize_type(range);
    if norm.is_empty() {
        None
    } else {
        Some(norm)
    }
}

pub fn check_wire_tags(
    files: &[SourceFile],
    manifests: &[FixtureManifest],
    opts: &LintOptions,
    out: &mut Vec<Violation>,
) {
    let range_of: HashMap<&str, u16> = TAG_RANGES.iter().copied().collect();

    // Collect tag constants and registry aliases.
    let mut defs: Vec<TagDef> = Vec::new();
    let mut aliases: Vec<(usize, AliasDef)> = Vec::new(); // (file idx, alias)
    for (fi, file) in files.iter().enumerate() {
        for c in &file.consts {
            if c.is_test || c.ty != "u16" {
                continue;
            }
            let val_toks = &file.tokens[c.value.0..c.value.1];
            if val_toks.len() == 1 && val_toks[0].kind == TokKind::Num {
                if let Some(v) = parse_u16_literal(&val_toks[0].text) {
                    if (0x0100..=0x07FF).contains(&v) {
                        defs.push(TagDef {
                            value: v,
                            owner: c.impl_type.clone().unwrap_or_else(|| c.name.clone()),
                            crate_name: file.crate_name.clone(),
                            path: file.path.clone(),
                            line: c.line,
                        });
                    }
                }
            } else if val_toks.iter().any(|t| t.is_ident("WIRE_TAG")) {
                if let Some(target) = alias_target(val_toks) {
                    aliases.push((
                        fi,
                        AliasDef {
                            name: c.name.clone(),
                            target,
                            line: c.line,
                        },
                    ));
                }
            }
        }
    }

    let report = |out: &mut Vec<Violation>, file: &SourceFile, line: usize, msg: String| {
        if !file.allowed(line, RULE_TAGS) {
            out.push(Violation {
                rule: RULE_TAGS,
                path: file.path.clone(),
                line,
                message: msg,
            });
        }
    };

    // 5a: global uniqueness.
    let mut by_value: BTreeMap<u16, Vec<&TagDef>> = BTreeMap::new();
    for d in &defs {
        by_value.entry(d.value).or_default().push(d);
    }
    for (v, ds) in &by_value {
        if ds.len() > 1 {
            for d in &ds[1..] {
                let first = ds[0];
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: d.path.clone(),
                    line: d.line,
                    message: format!(
                        "wire tag {v:#06x} of `{}` already taken by `{}` ({}:{})",
                        d.owner,
                        first.owner,
                        first.path.display(),
                        first.line
                    ),
                });
            }
        }
    }

    // 5b: per-crate range ownership.
    for d in &defs {
        let high = d.value >> 8;
        match range_of.get(d.crate_name.as_str()) {
            Some(&expected) if high != expected => {
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: d.path.clone(),
                    line: d.line,
                    message: format!(
                        "tag {:#06x} of `{}` is outside crate {}'s 0x{:02x}xx range",
                        d.value, d.owner, d.crate_name, expected
                    ),
                });
            }
            None => {
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: d.path.clone(),
                    line: d.line,
                    message: format!(
                        "crate {} owns no wire-tag range but defines tag {:#06x}",
                        d.crate_name, d.value
                    ),
                });
            }
            _ => {}
        }
    }

    // 5c: restore-registry coverage.
    let registry_file = files.iter().position(|f| {
        f.fns
            .iter()
            .any(|x| x.name == "registry_knows" && !x.is_test)
    });
    let mut registry_tags: Vec<u16> = Vec::new();
    match registry_file {
        None => {
            if opts.require_registry {
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: PathBuf::from("crates/core/src/monitor.rs"),
                    line: 1,
                    message: "no `fn registry_knows` restore registry found in the scanned set"
                        .to_string(),
                });
            }
        }
        Some(fi) => {
            let file = &files[fi];
            let alias_names: HashMap<&str, &AliasDef> = aliases
                .iter()
                .filter(|(i, _)| *i == fi)
                .map(|(_, a)| (a.name.as_str(), a))
                .collect();
            let body_names = |fn_name: &str| -> HashSet<String> {
                file.fns
                    .iter()
                    .find(|x| x.name == fn_name && !x.is_test)
                    .and_then(|x| x.body)
                    .map(|(a, b)| {
                        file.tokens[a..b]
                            .iter()
                            .filter(|t| {
                                t.kind == TokKind::Ident
                                    && alias_names.contains_key(t.text.as_str())
                            })
                            .map(|t| t.text.clone())
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let knows = body_names("registry_knows");
            let decodes = body_names("decode_estimator");
            for missing in knows.symmetric_difference(&decodes) {
                let a = alias_names[missing.as_str()];
                report(
                    out,
                    file,
                    a.line,
                    format!(
                        "estimator alias `{missing}` is in only one of registry_knows/decode_estimator — checkpoint and restore disagree"
                    ),
                );
            }
            // Resolve registry aliases to tags via the impl scan.
            let impl_tags: HashMap<&str, u16> =
                defs.iter().map(|d| (d.owner.as_str(), d.value)).collect();
            for name in knows.union(&decodes) {
                let a = alias_names[name.as_str()];
                match impl_tags.get(a.target.as_str()) {
                    Some(&v) => registry_tags.push(v),
                    None => report(
                        out,
                        file,
                        a.line,
                        format!(
                            "registry alias `{}` targets `{}`, which has no WIRE_TAG impl in the scanned set",
                            a.name, a.target
                        ),
                    ),
                }
            }
        }
    }

    // 5d: fixture coverage in the committed corpus.
    if let Some(manifest) = manifests.iter().max_by_key(|m| m.path.clone()) {
        let have: HashSet<u16> = manifest.entries.iter().map(|(_, t)| *t).collect();
        let mut required: Vec<(u16, String)> = registry_tags
            .iter()
            .map(|&t| (t, format!("registry tag {t:#06x}")))
            .collect();
        for ty in &opts.toplevel_types {
            if let Some(d) = defs.iter().find(|d| &d.owner == ty) {
                required.push((d.value, format!("{ty} ({:#06x})", d.value)));
            }
        }
        for (tag, what) in required {
            if !have.contains(&tag) {
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: manifest.path.clone(),
                    line: 1,
                    message: format!(
                        "monitor-level codec type {what} has no fixture in the committed corpus"
                    ),
                });
            }
        }
        let known: HashSet<u16> = defs.iter().map(|d| d.value).collect();
        for (name, tag) in &manifest.entries {
            if !known.contains(tag) {
                out.push(Violation {
                    rule: RULE_TAGS,
                    path: manifest.path.clone(),
                    line: 1,
                    message: format!(
                        "fixture `{name}` pins tag {tag:#06x}, which no scanned crate defines"
                    ),
                });
            }
        }
    }
}

/// Subsystem segments a metric name may carry (the second
/// `_`-separated component after the `sss_` namespace) — one per
/// instrumented layer. Extending the instrumentation to a new layer
/// means extending this list in the same change.
const METRIC_SUBSYSTEMS: [&str; 6] = ["ingest", "sampler", "codec", "transport", "window", "obs"];

/// Rule 7: every metric declared through a `metric_table!` invocation
/// follows the naming conventions and is globally unique. Parsed from
/// the macro's token stream (`Variant => Kind "name": "help";`), the
/// same audit pattern as the wire-tag registry: the declaration site
/// IS the registry, so nothing can be declared outside it.
pub fn check_metric_registry(files: &[SourceFile], out: &mut Vec<Violation>) {
    struct MetricDef {
        name: String,
        path: PathBuf,
        line: usize,
    }
    let mut defs: Vec<MetricDef> = Vec::new();

    for file in files {
        let toks = &file.tokens;
        let mut i = 0;
        while i + 2 < toks.len() {
            // An invocation is `metric_table ! {`; the macro_rules
            // definition tokenizes as `macro_rules ! metric_table {`
            // and never matches this shape.
            if !(toks[i].is_ident("metric_table")
                && toks[i + 1].is_punct('!')
                && toks[i + 2].is_punct('{'))
            {
                i += 1;
                continue;
            }
            let open = i + 2;
            let close = match matching(toks, open, '{', '}') {
                Some(c) => c,
                None => break,
            };
            let mut j = open + 1;
            while j < close {
                // Entries end in `;`, so one malformed entry cannot
                // cascade its diagnostics into the next.
                let end = (j..close).find(|&k| toks[k].is_punct(';')).unwrap_or(close);
                let e = &toks[j..end];
                if e.is_empty() {
                    j = end + 1;
                    continue;
                }
                let line = e[0].line;
                let mut report = |msg: String| {
                    if !file.allowed(line, RULE_METRICS) {
                        out.push(Violation {
                            rule: RULE_METRICS,
                            path: file.path.clone(),
                            line,
                            message: msg,
                        });
                    }
                };
                let shape_ok = e.len() == 7
                    && e[0].kind == TokKind::Ident
                    && e[1].is_punct('=')
                    && e[2].is_punct('>')
                    && e[3].kind == TokKind::Ident
                    && e[4].kind == TokKind::Str
                    && e[5].is_punct(':')
                    && e[6].kind == TokKind::Str;
                if !shape_ok {
                    report(
                        "metric_table! entry does not match `Variant => Kind \"name\": \"help\";`"
                            .to_string(),
                    );
                    j = end + 1;
                    continue;
                }
                let kind = e[3].text.as_str();
                let name = e[4].text.as_str();
                if !matches!(kind, "Counter" | "Gauge" | "Histogram") {
                    report(format!(
                        "metric `{name}` has unknown kind `{kind}` (expected Counter, Gauge or Histogram)"
                    ));
                }
                if name.is_empty()
                    || !name
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                {
                    report(format!(
                        "metric name `{name}` is not snake_case ([a-z0-9_] only)"
                    ));
                } else {
                    match name.strip_prefix("sss_") {
                        None => report(format!(
                            "metric name `{name}` must start with the `sss_` namespace"
                        )),
                        Some(rest) => {
                            let subsystem = rest.split('_').next().unwrap_or("");
                            if !METRIC_SUBSYSTEMS.contains(&subsystem) {
                                report(format!(
                                    "metric `{name}` names unknown subsystem `{subsystem}` (expected one of {METRIC_SUBSYSTEMS:?})"
                                ));
                            }
                        }
                    }
                    if kind == "Counter" && !name.ends_with("_total") {
                        report(format!("counter `{name}` must end with `_total`"));
                    }
                }
                defs.push(MetricDef {
                    name: name.to_string(),
                    path: file.path.clone(),
                    line,
                });
                j = end + 1;
            }
            i = close + 1;
        }
    }

    // Global uniqueness across every table in the scanned set.
    let mut by_name: BTreeMap<&str, Vec<&MetricDef>> = BTreeMap::new();
    for d in &defs {
        by_name.entry(d.name.as_str()).or_default().push(d);
    }
    for (name, ds) in &by_name {
        for d in &ds[1..] {
            let first = ds[0];
            out.push(Violation {
                rule: RULE_METRICS,
                path: d.path.clone(),
                line: d.line,
                message: format!(
                    "metric name `{name}` already declared at {}:{}",
                    first.path.display(),
                    first.line
                ),
            });
        }
    }
}
