//! Fixture battery: one known-bad snippet per rule, asserting the rule
//! id, line and message, plus a clean negative per rule and the pragma
//! escape hatch.

use sss_lint::{lint_sources, LintOptions, Violation};

fn opts() -> LintOptions {
    LintOptions {
        require_registry: false,
        toplevel_types: Vec::new(),
    }
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lint_one(krate: &str, name: &str) -> Vec<Violation> {
    let src = fixture(name);
    lint_sources(&[(krate, name, &src)], &opts())
}

#[test]
fn no_panic_bad_fires_on_every_site() {
    let v = lint_one("sss-demo", "no_panic_bad.rs");
    assert!(v.iter().all(|x| x.rule == "no_panic_decode"), "{v:?}");
    let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![2, 3, 5], "{v:?}");
    assert!(v[0].message.contains("`.unwrap()`"), "{}", v[0].message);
    assert!(v[1].message.contains("slice indexing"), "{}", v[1].message);
    assert!(v[2].message.contains("`unreachable!`"), "{}", v[2].message);
}

#[test]
fn no_panic_clean_is_clean() {
    let v = lint_one("sss-demo", "no_panic_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn bounded_alloc_bad_fires_on_alloc_and_cast() {
    let v = lint_one("sss-demo", "bounded_alloc_bad.rs");
    assert!(!v.is_empty());
    assert!(v.iter().all(|x| x.rule == "bounded_decode_alloc"), "{v:?}");
    assert!(v.iter().all(|x| x.line == 3), "{v:?}");
    assert!(
        v.iter()
            .any(|x| x.message.contains("sized by decoded value `rows`")),
        "{v:?}"
    );
}

#[test]
fn bounded_alloc_clean_is_clean() {
    // `len_prefix` bounds the element count; the config scalar is
    // checked against a MAX_* bound before its usize cast.
    let v = lint_one("sss-demo", "bounded_alloc_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn nan_ordering_bad_fires_on_comparator_and_unwrap() {
    let v = lint_one("sss-demo", "nan_ordering_bad.rs");
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v
        .iter()
        .all(|x| x.rule == "nan_safe_ordering" && x.line == 2));
    assert!(v.iter().any(|x| x.message.contains("`sort_by` comparator")));
    assert!(v
        .iter()
        .any(|x| x.message.contains("partial_cmp(..).unwrap()")));
}

#[test]
fn nan_ordering_clean_is_clean() {
    let v = lint_one("sss-demo", "nan_ordering_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn canonical_iteration_bad_fires_in_estimate() {
    let v = lint_one("sss-demo", "canonical_iteration_bad.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "canonical_iteration");
    assert_eq!(v[0].line, 9);
    assert!(
        v[0].message.contains("for .. in counts"),
        "{}",
        v[0].message
    );
}

#[test]
fn canonical_iteration_clean_collect_sort_is_clean() {
    let v = lint_one("sss-demo", "canonical_iteration_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn duplicate_wire_tag_fires() {
    let a = fixture("wire_tags_dup_a.rs");
    let b = fixture("wire_tags_dup_b.rs");
    let v = lint_sources(
        &[
            ("sss-sketch", "wire_tags_dup_a.rs", &a),
            ("sss-sketch", "wire_tags_dup_b.rs", &b),
        ],
        &opts(),
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "wire_tag_registry");
    assert_eq!(v[0].path.to_string_lossy(), "wire_tags_dup_b.rs");
    assert!(
        v[0].message.contains("already taken by `AmsSketch`"),
        "{}",
        v[0].message
    );
}

#[test]
fn out_of_range_wire_tag_fires() {
    let src = fixture("wire_tags_range_bad.rs");
    let v = lint_sources(&[("sss-sketch", "wire_tags_range_bad.rs", &src)], &opts());
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "wire_tag_registry");
    assert!(
        v[0].message
            .contains("outside crate sss-sketch's 0x02xx range"),
        "{}",
        v[0].message
    );
}

#[test]
fn wire_tags_clean_is_clean() {
    let src = fixture("wire_tags_clean.rs");
    let v = lint_sources(&[("sss-sketch", "wire_tags_clean.rs", &src)], &opts());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn batch_kernel_bad_fires_on_per_item_hashing() {
    let v = lint_one("sss-sketch", "batch_kernel_bad.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "batch_kernel");
    assert_eq!(v[0].line, 3);
    assert!(
        v[0].message.contains("hash_range_batch"),
        "{}",
        v[0].message
    );
}

#[test]
fn batch_kernel_clean_kernel_calls_and_scalar_update_pass() {
    let v = lint_one("sss-sketch", "batch_kernel_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn batch_kernel_fires_inside_trait_impls() {
    let v = lint_one("sss-sketch", "batch_kernel_trait_impl_bad.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "batch_kernel");
    assert_eq!(v[0].line, 4);
    assert!(
        v[0].message
            .contains("per-item `hash_range` call in batch path `update_batch_admit`"),
        "{}",
        v[0].message
    );
}

#[test]
fn batch_kernel_clean_trait_impl_kernel_passes() {
    let v = lint_one("sss-sketch", "batch_kernel_trait_impl_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn batch_kernel_blessed_module_is_exempt() {
    let src = fixture("batch_kernel_bad.rs");
    let v = lint_sources(&[("sss-hash", "crates/hash/src/batch.rs", &src)], &opts());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn atomic_ordering_bad_fires_on_seqcst_and_hot_path_fences() {
    let v = lint_one("sss-sketch", "atomic_ordering_bad.rs");
    assert!(v.iter().all(|x| x.rule == "atomic_ordering"), "{v:?}");
    let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![2, 8, 9], "{v:?}");
    assert!(v[0].message.contains("SeqCst"), "{}", v[0].message);
    assert!(
        v[1].message
            .contains("`Ordering::Release` on the hot path `update_batch`"),
        "{}",
        v[1].message
    );
    assert!(v[2].message.contains("Acquire"), "{}", v[2].message);
}

#[test]
fn atomic_ordering_clean_relaxed_pragma_and_cold_paths_pass() {
    let v = lint_one("sss-sketch", "atomic_ordering_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn metric_registry_bad_fires_per_defect() {
    let v = lint_one("sss-obs", "metric_registry_bad.rs");
    assert!(v.iter().all(|x| x.rule == "metric_registry"), "{v:?}");
    assert_eq!(v.len(), 6, "{v:?}");
    assert!(
        v.iter()
            .any(|x| x.line == 3 && x.message.contains("not snake_case")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.line == 4 && x.message.contains("must end with `_total`")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.line == 5 && x.message.contains("`sss_` namespace")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.line == 6 && x.message.contains("unknown subsystem `frobnicator`")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.line == 7 && x.message.contains("unknown kind `Summary`")),
        "{v:?}"
    );
    assert!(
        v.iter()
            .any(|x| x.line == 9 && x.message.contains("already declared")),
        "{v:?}"
    );
}

#[test]
fn metric_registry_clean_is_clean() {
    let v = lint_one("sss-obs", "metric_registry_clean.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn duplicate_metric_across_files_fires() {
    let a = "metric_table! { A => Counter \"sss_obs_events_dropped_total\": \"one\"; }";
    let b = "metric_table! { B => Counter \"sss_obs_events_dropped_total\": \"two\"; }";
    let v = lint_sources(
        &[
            ("sss-obs", "metrics_a.rs", a),
            ("sss-obs", "metrics_b.rs", b),
        ],
        &opts(),
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "metric_registry");
    assert_eq!(v[0].path.to_string_lossy(), "metrics_b.rs");
    assert!(
        v[0].message.contains("already declared at metrics_a.rs:1"),
        "{}",
        v[0].message
    );
}

#[test]
fn pragma_silences_an_audited_exception() {
    let src = "\
pub fn decode(r: &mut Reader) -> Result<u16, CodecError> {
    // sss-lint: allow(no_panic_decode) — buffer length pinned by caller
    let tag = r.u16().unwrap();
    Ok(tag)
}
";
    let v = lint_sources(&[("sss-demo", "pragma.rs", src)], &opts());
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn pragma_only_silences_the_named_rule() {
    let src = "\
pub fn decode(r: &mut Reader) -> Result<u16, CodecError> {
    // sss-lint: allow(bounded_decode_alloc) — wrong rule named
    let tag = r.u16().unwrap();
    Ok(tag)
}
";
    let v = lint_sources(&[("sss-demo", "pragma.rs", src)], &opts());
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "no_panic_decode");
}

#[test]
fn test_code_is_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    fn decode(r: &mut Reader) -> u16 {
        r.u16().unwrap()
    }
}
";
    let v = lint_sources(&[("sss-demo", "testcode.rs", src)], &opts());
    assert!(v.is_empty(), "{v:?}");
}
