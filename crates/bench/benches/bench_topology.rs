//! BENCH-TOPOLOGY — the `Topology` stencil arithmetic vs the naive
//! `Grid` iterators it replaced in every engine hot loop.
//!
//! Three layers, all on the 100×100, r = 5 torus (n = 10⁴ nodes,
//! degree 120) the perf trajectory tracks:
//!
//! * **primitive**: neighborhood iteration, pair membership and
//!   common-neighbor intersection, naive vs stencil arithmetic;
//! * **wave kernel**: one incoming-copy accumulation sweep over a 500-
//!   sender frontier — the inner loop of the counting engine's oracle
//!   waves — naive vs stencil runs;
//! * **engine**: a full `CountingSim::run_oracle` fixpoint on the same
//!   torus (the rewired engine end to end, construction included).

use bftbcast::net::{Grid, NodeId, Topology};
use bftbcast::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn grid() -> Grid {
    Grid::new(100, 100, 5).unwrap()
}

fn frontier(g: &Grid) -> Vec<(NodeId, u64)> {
    // A plausible mid-run wave: every 20th node transmits 59 copies.
    (0..g.node_count())
        .step_by(20)
        .map(|u| (u, 59u64))
        .collect()
}

fn bench_primitives(c: &mut Criterion) {
    let g = grid();
    let topo = Topology::new(g.clone());
    let n = g.node_count();
    let pairs: Vec<(NodeId, NodeId)> = (0..n).step_by(7).map(|u| (u, (u * 37 + 11) % n)).collect();

    let mut group = c.benchmark_group("topology/primitive");
    group.sample_size(20);
    group.bench_function("neighbors_naive_full_sweep", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for u in 0..n {
                for v in g.neighbors(u) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("neighbors_stencil_full_sweep", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for u in 0..n {
                for v in topo.neighbors_of(u) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("are_neighbors_naive", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &(u, v) in &pairs {
                acc += usize::from(g.are_neighbors(u, v));
            }
            black_box(acc)
        })
    });
    group.bench_function("contains_stencil", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &(u, v) in &pairs {
                acc += usize::from(topo.contains(u, v));
            }
            black_box(acc)
        })
    });
    group.bench_function("common_neighbors_naive_alloc", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &(u, v) in &pairs {
                acc += g.common_neighbors(u, (u + 1) % n).len() + v;
            }
            black_box(acc)
        })
    });
    group.bench_function("common_neighbors_stencil_into", |b| {
        let mut out = Vec::with_capacity(topo.degree());
        b.iter(|| {
            let mut acc = 0usize;
            for &(u, v) in &pairs {
                out.clear();
                topo.common_neighbors_into(u, (u + 1) % n, &mut out);
                acc += out.len() + v;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_wave_kernel(c: &mut Criterion) {
    let g = grid();
    let topo = Topology::new(g.clone());
    let wave = frontier(&g);
    let mut incoming = vec![0u64; g.node_count()];

    let mut group = c.benchmark_group("topology/wave_kernel");
    group.sample_size(20);
    group.bench_function("incoming_sweep_naive", |b| {
        b.iter(|| {
            incoming.fill(0);
            for &(s, copies) in &wave {
                for u in g.neighbors(s) {
                    incoming[u] += copies;
                }
            }
            black_box(incoming[0])
        })
    });
    group.bench_function("incoming_sweep_stencil", |b| {
        b.iter(|| {
            incoming.fill(0);
            for &(s, copies) in &wave {
                for u in topo.neighbors_of(s) {
                    incoming[u] += copies;
                }
            }
            black_box(incoming[0])
        })
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    // The Figure-2 setting scaled to the 100x100, r = 5 torus (100 is
    // not a multiple of 2r+1 = 11, so the exact lattice does not fit;
    // a random local-bound-respecting placement stands in): budgets
    // just above m0, per-receiver oracle adversary.
    let s = Scenario::builder(100, 100, 5)
        .faults(1, 1000)
        .random_placement(80, 42)
        .build()
        .expect("valid scenario");
    let p = s.params();

    let mut group = c.benchmark_group("topology/engine");
    group.sample_size(10);
    group.bench_function("run_oracle_100x100_r5", |b| {
        b.iter(|| {
            let proto = CountingProtocol::starved(s.grid(), p, p.m0() + 1);
            let mut sim = s.counting_sim(proto);
            black_box(sim.run_oracle(p.mf))
        })
    });
    group.bench_function("run_greedy_100x100_r5", |b| {
        b.iter(|| {
            let proto = CountingProtocol::starved(s.grid(), p, p.m0() + 1);
            let mut sim = s.counting_sim(proto);
            black_box(sim.run(&mut bftbcast::adversary::GreedyFrontier::default()))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_wave_kernel, bench_engine);
criterion_main!(benches);
