//! Criterion benchmarks for the box-check engines (experiments E18 and E19
//! of DESIGN.md): box-check verdicts/sec on the `max` CRN sweep at bound 16,
//! the default engine — static verdicts, symmetry-orbit skipping and the
//! packed exploration index — versus the unpruned reference engine.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

fn incremental_box_throughput(c: &mut Criterion) {
    let (incremental_vps, reference_vps, speedup, identical) = crn_bench::e19_box_check(16, 20);
    eprintln!("\n[E18/E19] default vs reference box check (max CRN, bound 16, 1 worker)");
    eprintln!(
        "  {incremental_vps:.1} verdicts/s default vs {reference_vps:.1} reference, \
         speedup {speedup:.1}x, bit-identical={identical}"
    );
    assert!(identical, "the analyzed engine must not change any verdict");
    assert!(
        speedup >= 14.0,
        "E19 acceptance: the default engine must be at least 14x the reference, got {speedup:.1}x"
    );

    let mut group = c.benchmark_group("E19_box_check_max_bound16");
    group.bench_function("incremental", |b| {
        b.iter(|| crn_bench::e19_box_incremental(16));
    });
    group.bench_function("reference", |b| {
        b.iter(|| crn_bench::e18_box_reference(16));
    });
    group.finish();
}

criterion_group! {
    name = e19_incremental_box;
    config = configured();
    targets = incremental_box_throughput
}
criterion_main!(e19_incremental_box);
