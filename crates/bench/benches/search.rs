//! Criterion benchmarks for the shortest-path engine: one-to-one Dijkstra
//! with early termination and full shortest-path trees (the dominant cost
//! of Plateaus and Dissimilarity per §2.2/§2.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use arp_citygen::{City, Scale};
use arp_core::search::{Direction, SearchSpace};

fn search_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.sample_size(30);

    for scale in [Scale::Small, Scale::Medium] {
        let city = arp_bench::generate_city(City::Melbourne, scale);
        let net = city.network;
        let label = format!("{}n", net.num_nodes());
        let queries = arp_bench::random_queries(&net, 8, 60_000, 60 * 60_000, 3);

        group.bench_with_input(
            BenchmarkId::new("dijkstra_1to1", &label),
            &queries,
            |b, queries| {
                let mut ws = SearchSpace::new(&net);
                b.iter(|| {
                    for &(s, t, _) in queries {
                        black_box(ws.shortest_path(&net, net.weights(), s, t).unwrap().cost_ms);
                    }
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("spt_forward", &label),
            &queries,
            |b, queries| {
                let mut ws = SearchSpace::new(&net);
                b.iter(|| {
                    for &(s, _, _) in queries {
                        let tree = ws
                            .shortest_path_tree(&net, net.weights(), s, Direction::Forward)
                            .unwrap();
                        black_box(tree.dist.len());
                    }
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("spt_backward", &label),
            &queries,
            |b, queries| {
                let mut ws = SearchSpace::new(&net);
                b.iter(|| {
                    for &(_, t, _) in queries {
                        let tree = ws
                            .shortest_path_tree(&net, net.weights(), t, Direction::Backward)
                            .unwrap();
                        black_box(tree.dist.len());
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, search_benches);
criterion_main!(benches);
