//! Per-rule fixture tests: each rule has a true-positive, a
//! true-negative, and a waiver case, plus tests for waiver mechanics
//! themselves (coverage window, mandatory reason, unwaivability of
//! `waiver-syntax`).

use lsq_lint::rules;
use lsq_lint::{lint_source, Role};

/// Rule ids fired on `src`, with duplicates, in diagnostic order.
fn fired(rel: &str, role: Role, src: &str) -> Vec<&'static str> {
    lint_source(rel, role, src).iter().map(|d| d.rule).collect()
}

fn fired_lib(src: &str) -> Vec<&'static str> {
    fired("crates/x/src/lib.rs", Role::Lib, src)
}

// ---------------------------------------------------------------------
// R1: hot-path-alloc
// ---------------------------------------------------------------------

#[test]
fn hot_fn_with_ctor_alloc_fires() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "// lsq-lint: hot\nfn search(&self) { let v: Vec<u32> = Vec::new(); }\n",
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::HOT_PATH_ALLOC);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("Vec::new"));
    assert!(diags[0].message.contains("search"), "{}", diags[0].message);
}

#[test]
fn hot_fn_flags_macro_method_and_clone_allocs() {
    for body in [
        "let v = vec![1, 2];",
        "let s = format!(\"x{y}\");",
        "let b = Box::new(1);",
        "let s = String::from(\"x\");",
        "let m = HashMap::with_capacity(8);",
        "let c = self.entries.clone();",
        "let v: Vec<_> = it.collect();",
        "let v = it.collect::<Vec<_>>();",
        "let v = xs.to_vec();",
        "self.waiters.entry(p).or_default().push(c);",
        "let n = counts.entry(pc).or_insert(0);",
        "let n = m.entry(k).or_insert_with(|| 0);",
    ] {
        let src = format!("// lsq-lint: hot\nfn search(&self) {{ {body} }}\n");
        assert_eq!(
            fired_lib(&src),
            vec![rules::HOT_PATH_ALLOC],
            "should fire on `{body}`"
        );
    }
}

#[test]
fn hot_fn_without_entry_inserts_is_clean() {
    // `unwrap_or_default` on an `Option<u32>` and in-place updates of an
    // existing entry do not allocate.
    let src = "// lsq-lint: hot\nfn search(&mut self, x: Option<u32>) -> u32 {\n    \
               if let Some(v) = self.map.get_mut(&1) { *v += 1; }\n    x.unwrap_or_default()\n}\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn hot_mod_covers_every_function_inside() {
    let src = "// lsq-lint: hot\nmod inner {\n    fn a() { let v = vec![1]; }\n    fn b() { let s = x.to_owned(); }\n}\n";
    assert_eq!(
        fired_lib(src),
        vec![rules::HOT_PATH_ALLOC, rules::HOT_PATH_ALLOC]
    );
}

#[test]
fn alloc_outside_hot_region_is_clean() {
    let src = "// lsq-lint: hot\nfn search(&self) { self.buf.clear(); }\nfn cold() { let v = vec![1]; }\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn unmarked_file_allows_allocation() {
    assert!(fired_lib("fn f() { let v = Vec::new(); }\n").is_empty());
}

#[test]
fn vec_as_plain_identifier_is_not_an_alloc() {
    let src = "// lsq-lint: hot\nfn search(vec: &[u32]) -> u32 { vec[0] }\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn hot_alloc_waiver_with_reason_suppresses() {
    let src = "// lsq-lint: hot\nfn search(&self) {\n    // lsq-lint: allow(hot-path-alloc, reason = \"one-time lazy init, amortized\")\n    let v = Vec::new();\n}\n";
    assert!(fired_lib(src).is_empty());
}

// ---------------------------------------------------------------------
// R2: knob-registry
// ---------------------------------------------------------------------

#[test]
fn env_var_read_of_knob_fires() {
    for call in ["var", "var_os"] {
        let src = format!("fn f() {{ let _ = std::env::{call}(\"LSQ_JOBS\"); }}\n");
        let diags = lint_source("crates/x/src/lib.rs", Role::Lib, &src);
        assert_eq!(diags.len(), 1, "{call}");
        assert_eq!(diags[0].rule, rules::KNOB_REGISTRY);
        assert!(diags[0].message.contains("LSQ_JOBS"));
    }
}

#[test]
fn registry_module_may_name_knobs_but_not_read_env() {
    let src = "const K: &str = \"LSQ_JOBS\";\n";
    assert!(fired(rules::KNOB_REGISTRY_FILE, Role::Lib, src).is_empty());
    let src = "pub fn get(name: &str) -> Option<String> { std::env::var(name).ok() }\n";
    assert_eq!(
        fired(rules::KNOB_REGISTRY_FILE, Role::Lib, src),
        vec![rules::KNOB_REGISTRY]
    );
}

#[test]
fn library_env_reads_and_writes_fire() {
    for call in [
        "let _ = std::env::var(\"HOME\");",
        "let _ = std::env::var_os(name);",
        "let _ = env::vars_os();",
        "for _ in std::env::vars() {}",
        "std::env::set_var(\"LSQ_ACCOUNTING\", \"1\");",
        "std::env::remove_var(\"LSQ_ACCOUNTING\");",
    ] {
        let src = format!("fn f(name: &str) {{ {call} }}\n");
        let diags = lint_source("crates/x/src/lib.rs", Role::Lib, &src);
        assert_eq!(diags.len(), 1, "{call}: {diags:?}");
        assert_eq!(diags[0].rule, rules::KNOB_REGISTRY);
        assert!(diags[0].message.contains("environment"), "{call}");
    }
}

#[test]
fn binaries_and_lib_tests_may_touch_env() {
    // Binaries parse the environment once, into RunOptions.
    let src = "fn main() { let o = RunOptions::parse_or_exit(std::env::vars_os()); }\n";
    assert!(fired("crates/x/src/bin/run.rs", Role::Bin, src).is_empty());
    // Non-knob reads in a binary are out of scope: other prefixes and
    // lowercase tails.
    let src =
        "fn main() { let _ = std::env::var(\"HOME\"); let _ = std::env::var(\"LSQ_lower\"); }\n";
    assert!(fired("crates/x/src/bin/run.rs", Role::Bin, src).is_empty());
    // A library's own #[cfg(test)] module may set up the environment.
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::env::set_var(\"HOME\", \"/x\"); }\n}\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn knobs_accessors_outside_options_module_fire() {
    for call in [
        "get(\"LSQ_JOBS\")",
        "get_os(\"LSQ_JOBS\")",
        "flag(\"LSQ_PROFILE\")",
    ] {
        let src = format!("fn f() {{ let _ = lsq_util::knobs::{call}; }}\n");
        assert_eq!(fired_lib(&src), vec![rules::KNOB_REGISTRY], "{call}");
        assert!(
            fired(rules::OPTIONS_FILE, Role::Lib, &src).is_empty(),
            "{call}"
        );
    }
    // Registry lookups stay open to everyone.
    assert!(
        fired_lib("fn f() -> bool { lsq_util::knobs::find(\"LSQ_JOBS\").is_some() }\n").is_empty()
    );
}

#[test]
fn env_bypass_waiver_with_reason_suppresses() {
    let src = "fn f() {\n    // lsq-lint: allow(knob-registry, reason = \"bootstrap read before lsq-util is linked\")\n    let _ = std::env::var(\"LSQ_JOBS\");\n}\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn documented_knob_names_parses_backticked_table_cells() {
    let md = "# doc\n\n| knob | default |\n|---|---|\n| `LSQ_JOBS` | auto |\n| `LSQ_INSTRS` | 250000 |\n| plain cell | x |\n| `not_a_knob` | y |\n";
    let names = rules::documented_knob_names(md);
    assert_eq!(
        names,
        vec![("LSQ_JOBS".to_string(), 5), ("LSQ_INSTRS".to_string(), 6)]
    );
}

// ---------------------------------------------------------------------
// R3: zero-cost-nop
// ---------------------------------------------------------------------

#[test]
fn nop_method_missing_inline_always_fires() {
    let src = "impl Tracer for NopTracer { fn enabled(&self) -> bool { false } }\n";
    let diags = lint_source("crates/x/src/lib.rs", Role::Lib, src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::ZERO_COST_NOP);
    assert!(diags[0].message.contains("inline(always)"));
}

#[test]
fn nop_method_with_nontrivial_body_fires() {
    let src = "impl Tracer for NopTracer {\n    #[inline(always)]\n    fn emit(&mut self, e: Event) { self.count += 1 }\n}\n";
    let diags = lint_source("crates/x/src/lib.rs", Role::Lib, src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("non-trivial body"));
}

#[test]
fn nop_impl_with_no_methods_fires() {
    let src = "impl Tracer for NopTracer {}\n";
    let diags = lint_source("crates/x/src/lib.rs", Role::Lib, src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("no methods"));
}

#[test]
fn compliant_nop_impl_is_clean() {
    let src = "impl Tracer for NopTracer {\n    #[inline(always)]\n    fn enabled(&self) -> bool { false }\n    #[inline(always)]\n    fn set_cycle(&mut self, _cycle: u64) {}\n    #[inline(always)]\n    fn report(&self) -> Option<R> { None }\n}\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn non_nop_impls_are_out_of_scope() {
    let src = "impl Tracer for RealTracer { fn enabled(&self) -> bool { self.on } }\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn nop_violation_waiver_with_reason_suppresses() {
    let src = "impl Tracer for NopTracer {\n    #[inline(always)]\n    // lsq-lint: allow(zero-cost-nop, reason = \"constant fold proven in bench X\")\n    fn enabled(&self) -> bool { FLAG }\n}\n";
    assert!(fired_lib(src).is_empty());
}

// ---------------------------------------------------------------------
// R4: metric-naming
// ---------------------------------------------------------------------

#[test]
fn unprefixed_or_camel_case_metric_names_fire() {
    for name in [
        "jobs_done_total",
        "lsqJobsDone",
        "lsq_Jobs",
        "lsq_jobs__done",
        "lsq_",
    ] {
        let src = format!("fn f(m: &Metrics) {{ m.counter(\"{name}\", \"help\"); }}\n");
        let diags = lint_source("crates/telemetry/src/x.rs", Role::Lib, &src);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == rules::METRIC_NAMING)
                .count(),
            1,
            "should fire on `{name}`"
        );
    }
}

#[test]
fn well_formed_metric_registrations_are_clean() {
    let src = "fn f(m: &Metrics) {\n    m.counter(\"lsq_jobs_done_total\", \"help\");\n    m.gauge(\"lsq_jobs_queued\", \"help\");\n    m.histogram(\"lsq_job_wall_ms\", \"help\");\n}\n";
    assert!(fired("crates/telemetry/src/x.rs", Role::Lib, src).is_empty());
}

#[test]
fn non_snake_label_keys_on_with_variants_fire() {
    let src = "fn f(m: &Metrics) { m.counter_with(\"lsq_jobs_total\", \"h\", &[(\"jobKind\", kind)]); }\n";
    let diags = lint_source("crates/telemetry/src/x.rs", Role::Lib, src);
    assert_eq!(diags.len(), 1);
    assert!(diags[0].message.contains("jobKind"));
}

#[test]
fn snake_label_keys_are_clean() {
    let src = "fn f(m: &Metrics) { m.counter_with(\"lsq_jobs_total\", \"h\", &[(\"job_kind\", kind)]); }\n";
    assert!(fired("crates/telemetry/src/x.rs", Role::Lib, src).is_empty());
}

#[test]
fn metric_naming_waiver_with_reason_suppresses() {
    let src = "fn f(m: &Metrics) {\n    // lsq-lint: allow(metric-naming, reason = \"legacy dashboard expects this exact name\")\n    m.counter(\"jobs_done\", \"help\");\n}\n";
    assert!(fired("crates/telemetry/src/x.rs", Role::Lib, src).is_empty());
}

// ---------------------------------------------------------------------
// R5: no-unwrap-in-lib
// ---------------------------------------------------------------------

#[test]
fn unwrap_expect_and_panic_fire_in_lib_code() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"b\");\n    if a == b { panic!(\"boom\") }\n    a\n}\n",
    );
    let r5: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == rules::NO_UNWRAP_IN_LIB)
        .map(|d| d.line)
        .collect();
    assert_eq!(r5, vec![2, 3, 4]);
}

#[test]
fn unwrap_in_bin_test_and_bench_roles_is_allowed() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for (rel, role) in [
        ("crates/x/src/bin/tool.rs", Role::Bin),
        ("crates/x/tests/it.rs", Role::Test),
        ("crates/x/benches/b.rs", Role::Bench),
        ("examples/demo.rs", Role::Example),
    ] {
        assert!(fired(rel, role, src).is_empty(), "{rel}");
    }
}

#[test]
fn unwrap_inside_cfg_test_module_is_allowed() {
    let src = "fn prod(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::prod(None), 0); Some(1).unwrap(); }\n}\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn unwrap_or_variants_are_not_flagged() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default() }\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn a_method_named_expect_on_self_still_fires_without_waiver() {
    // The rule is textual over tokens: a parser's own `self.expect(…)`
    // matches and must be renamed (as obs/json.rs was) or waived.
    let src = "fn f(&mut self) { self.expect(b'[') }\n";
    assert_eq!(fired_lib(src), vec![rules::NO_UNWRAP_IN_LIB]);
}

#[test]
fn unwrap_waiver_with_reason_suppresses() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lsq-lint: allow(no-unwrap-in-lib, reason = \"x was checked Some by the caller\")\n    x.unwrap()\n}\n";
    assert!(fired_lib(src).is_empty());
}

// ---------------------------------------------------------------------
// R6: relaxed-ordering-audit
// ---------------------------------------------------------------------

#[test]
fn unjustified_relaxed_in_scope_fires() {
    let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    for rel in [
        "crates/experiments/src/engine.rs",
        "crates/telemetry/src/metrics.rs",
    ] {
        assert_eq!(
            fired(rel, Role::Lib, src),
            vec![rules::RELAXED_ORDERING_AUDIT],
            "{rel}"
        );
    }
}

#[test]
fn relaxed_outside_audit_scope_is_clean() {
    let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
    assert!(fired("crates/core/src/lsq.rs", Role::Lib, src).is_empty());
}

#[test]
fn relaxed_in_test_module_is_clean() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n}\n";
    assert!(fired("crates/telemetry/src/metrics.rs", Role::Lib, src).is_empty());
}

#[test]
fn justified_relaxed_is_clean() {
    let src = "fn f(c: &AtomicU64) -> u64 {\n    // lsq-lint: allow(relaxed-ordering-audit, reason = \"monotonic counter; readers tolerate staleness\")\n    c.load(Ordering::Relaxed)\n}\n";
    assert!(fired("crates/telemetry/src/metrics.rs", Role::Lib, src).is_empty());
}

#[test]
fn stronger_orderings_need_no_justification() {
    let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Acquire) }\n";
    assert!(fired("crates/telemetry/src/metrics.rs", Role::Lib, src).is_empty());
}

// ---------------------------------------------------------------------
// Waiver mechanics & waiver-syntax
// ---------------------------------------------------------------------

#[test]
fn waiver_covers_only_its_own_and_the_next_line() {
    // Two lines of separation: the waiver must NOT reach the unwrap.
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lsq-lint: allow(no-unwrap-in-lib, reason = \"too far away\")\n    let y = x;\n    y.unwrap()\n}\n";
    assert_eq!(fired_lib(src), vec![rules::NO_UNWRAP_IN_LIB]);
}

#[test]
fn waiver_on_the_same_line_suppresses() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lsq-lint: allow(no-unwrap-in-lib, reason = \"checked by caller\")\n";
    assert!(fired_lib(src).is_empty());
}

#[test]
fn waiver_does_not_cover_other_rules() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lsq-lint: allow(hot-path-alloc, reason = \"wrong rule\")\n    x.unwrap()\n}\n";
    assert_eq!(fired_lib(src), vec![rules::NO_UNWRAP_IN_LIB]);
}

#[test]
fn reasonless_waiver_is_a_waiver_syntax_error() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "// lsq-lint: allow(no-unwrap-in-lib)\nfn f() {}\n",
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::WAIVER_SYNTAX);
    assert!(diags[0].message.contains("no reason"));
}

#[test]
fn empty_reason_is_a_waiver_syntax_error() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "// lsq-lint: allow(no-unwrap-in-lib, reason = \"\")\nfn f() {}\n",
    );
    assert_eq!(
        fired_lib("// lsq-lint: allow(no-unwrap-in-lib, reason = \"\")\nfn f() {}\n"),
        vec![rules::WAIVER_SYNTAX]
    );
    assert!(diags[0].message.contains("no reason"));
}

#[test]
fn unknown_rule_in_waiver_is_a_waiver_syntax_error() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "// lsq-lint: allow(no-such-rule, reason = \"x\")\nfn f() {}\n",
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::WAIVER_SYNTAX);
    assert!(diags[0].message.contains("no-such-rule"));
}

#[test]
fn unrecognized_directive_is_a_waiver_syntax_error() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "// lsq-lint: frobnicate\nfn f() {}\n",
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, rules::WAIVER_SYNTAX);
}

#[test]
fn reasonless_waiver_does_not_suppress_and_cannot_be_waived() {
    // A malformed waiver both fails to suppress the underlying
    // violation and cannot itself be silenced by a well-formed waiver.
    let src = "// lsq-lint: allow(waiver-syntax, reason = \"silencing the meta-rule\")\n// lsq-lint: allow(no-unwrap-in-lib)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let mut rules_hit = fired_lib(src);
    rules_hit.sort();
    assert_eq!(
        rules_hit,
        vec![rules::NO_UNWRAP_IN_LIB, rules::WAIVER_SYNTAX]
    );
}

#[test]
fn doc_comments_quoting_waiver_syntax_are_inert() {
    // Quoting the syntax in docs must neither waive nor error.
    let src = "/// Write `lsq-lint: allow(no-unwrap-in-lib)` to waive.\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(fired_lib(src), vec![rules::NO_UNWRAP_IN_LIB]);
}

// ---------------------------------------------------------------------
// Diagnostics plumbing
// ---------------------------------------------------------------------

#[test]
fn diagnostics_render_path_line_severity_rule() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let text = diags[0].to_string();
    assert!(
        text.starts_with("crates/x/src/lib.rs:1: error [no-unwrap-in-lib]"),
        "{text}"
    );
}

#[test]
fn json_output_is_parseable_shape() {
    let diags = lint_source(
        "crates/x/src/lib.rs",
        Role::Lib,
        "fn f(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n",
    );
    let json = lsq_lint::to_json(&diags);
    assert!(json.contains("\"rule\":\"no-unwrap-in-lib\""), "{json}");
    assert!(json.contains("\"line\":1"), "{json}");
    assert!(json.contains("\"severity\":\"error\""), "{json}");
    // Backtick-quoted message content must arrive intact.
    assert!(json.contains("`.expect()` in library code"), "{json}");
}

#[test]
fn self_check_exercises_every_rule() {
    assert!(lsq_lint::self_check().is_empty());
}
