//! Every workload at smoke scale, in-process: the correctness checks
//! pass, and the metrics the program emits are exactly the ones
//! `BENCHMARK.json` declares, in the same order.

use bench_e2e::report;
use bench_e2e::run_workload;
use bench_e2e::workloads::{Scale, NAMES};

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("no_such_workload", Scale::Tiny, 1, false).is_none());
}

#[test]
fn workloads_pass_checks_and_emit_the_declared_metrics() {
    for name in NAMES {
        for traced in [false, true] {
            let rec = run_workload(name, Scale::Tiny, 7, traced).expect("known workload");
            assert!(rec.correct(), "{name} (traced {traced}): {:?}", rec.checks);
            assert!(!rec.checks.is_empty(), "{name} ran no correctness check");

            let (section, values) = if traced {
                ("per_layer", report::per_layer(&rec))
            } else {
                ("end_to_end", report::end_to_end(&rec, 1.0))
            };
            let units = report::units(section, &values).unwrap();
            assert_eq!(units.len(), report::declared(section).len());
            if !traced {
                for v in &values {
                    assert!(v.value > 0.0, "{name}: {} read {}", v.name, v.value);
                }
            }

            let out = report::render(name, "{}", &rec, &values, &units);
            let last = out.lines().last().expect("output");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (v, unit) in values.iter().zip(&units) {
                let field = format!("\"{}\": {{\"value\": ", v.name);
                assert!(last.contains(&field), "{last}");
                assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{last}");
            }
        }
    }
}
