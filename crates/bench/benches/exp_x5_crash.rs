//! Criterion bench for EXP-X5: prints the regenerated tables once,
//! then times the experiment's core engine kernel.

use criterion::{criterion_group, criterion_main, Criterion};

fn print_tables() {
    for table in bftbcast_bench::run_experiment("x5") {
        println!("{table}");
    }
}

fn bench(c: &mut Criterion) {
    print_tables();
    let mut g = c.benchmark_group("x5");
    g.sample_size(20);
    use bftbcast::prelude::*;
    use bftbcast::sim::crash::{crash_only_protocol, crash_stripe, CrashBehavior};
    let grid = Grid::new(20, 20, 2).unwrap();
    g.bench_function("crash_stripe_block_20x20_r2", |b| {
        b.iter(|| {
            let mut dead = crash_stripe(&grid, 6, 2);
            dead.extend(crash_stripe(&grid, 14, 2));
            dead.sort_unstable();
            dead.dedup();
            let proto = crash_only_protocol(&grid);
            let mut sim = CountingSim::new(grid.clone(), proto, 0, &[], 0)
                .with_crash_nodes(&dead, CrashBehavior::Immediate);
            std::hint::black_box(sim.run_oracle(0))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
