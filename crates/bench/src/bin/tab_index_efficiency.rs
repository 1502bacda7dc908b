//! Regenerates the **index-efficiency** result of §2.3: the R-tree is
//! "almost optimal for small real databases and efficient for large
//! synthetic databases".
//!
//! Two workloads:
//! * the real 113-shape feature sets (each feature space), kNN k = 10;
//! * synthetic clustered points (10³, 10⁴, 10⁵ points; dims 3 and 8),
//!   kNN k = 10 and similarity-ball queries.
//!
//! For each, we report entries checked and nodes visited, R-tree vs
//! linear scan, plus wall time.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdess_bench::standard_context;
use tdess_eval::render_table;
use tdess_features::FeatureKind;
use tdess_index::{LinearScan, QueryStats, RTree};

fn main() {
    real_database();
    synthetic_databases();
}

fn real_database() {
    let ctx = standard_context();
    println!("\nIndex efficiency — real database (113 shapes), kNN k = 10, all shapes as queries");
    let mut rows = Vec::new();
    for kind in FeatureKind::ALL {
        let dim = ctx.db.extractor().dim(kind);
        let mut tree: RTree<u64> = RTree::with_dim(dim);
        let mut scan: LinearScan<u64> = LinearScan::new(dim);
        for s in ctx.db.shapes() {
            tree.insert(s.features.get(kind), s.id);
            scan.insert(s.features.get(kind).to_vec(), s.id);
        }
        let mut ts = QueryStats::default();
        let mut ls = QueryStats::default();
        let t0 = Instant::now();
        for s in ctx.db.shapes() {
            let _ = tree.knn(s.features.get(kind), 10, &mut ts);
        }
        let tree_time = t0.elapsed();
        let t0 = Instant::now();
        for s in ctx.db.shapes() {
            let _ = scan.knn(s.features.get(kind), 10, &mut ls);
        }
        let scan_time = t0.elapsed();
        rows.push(vec![
            kind.label().to_string(),
            dim.to_string(),
            format!("{}", ts.entries_checked / ctx.db.len()),
            format!("{}", ls.entries_checked / ctx.db.len()),
            format!("{:.1}", tree_time.as_secs_f64() * 1e6 / ctx.db.len() as f64),
            format!("{:.1}", scan_time.as_secs_f64() * 1e6 / ctx.db.len() as f64),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "feature space",
                "dim",
                "rtree entries/query",
                "scan entries/query",
                "rtree µs/query",
                "scan µs/query"
            ],
            &rows
        )
    );
}

fn synthetic_databases() {
    println!("\nIndex efficiency — synthetic clustered databases, 100 queries each");
    let mut rows = Vec::new();
    for &n in &[1_000usize, 10_000, 100_000] {
        for &dim in &[3usize, 8] {
            let (tree, scan, points) = build_synthetic(n, dim, 7);
            let mut rng = StdRng::seed_from_u64(99);

            let mut ts = QueryStats::default();
            let mut ls = QueryStats::default();
            let queries: Vec<Vec<f64>> = (0..100)
                .map(|_| points[rng.gen_range(0..points.len())].clone())
                .collect();

            let t0 = Instant::now();
            for q in &queries {
                let _ = tree.knn(q, 10, &mut ts);
            }
            let tree_time = t0.elapsed();
            let t0 = Instant::now();
            for q in &queries {
                let _ = scan.knn(q, 10, &mut ls);
            }
            let scan_time = t0.elapsed();

            rows.push(vec![
                n.to_string(),
                dim.to_string(),
                format!("{}", ts.entries_checked / 100),
                format!("{}", ls.entries_checked / 100),
                format!("{:.1}", tree_time.as_secs_f64() * 1e6 / 100.0),
                format!("{:.1}", scan_time.as_secs_f64() * 1e6 / 100.0),
                format!(
                    "{:.1}x",
                    scan_time.as_secs_f64() / tree_time.as_secs_f64().max(1e-12)
                ),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "points",
                "dim",
                "rtree entries/query",
                "scan entries/query",
                "rtree µs/query",
                "scan µs/query",
                "speedup"
            ],
            &rows
        )
    );
    println!("paper (§2.3): R-tree search almost optimal for small real databases, efficient for large synthetic databases.");
}

/// Builds a clustered point set (mixture of 50 Gaussian-ish blobs) and
/// both index structures over it.
fn build_synthetic(
    n: usize,
    dim: usize,
    seed: u64,
) -> (RTree<usize>, LinearScan<usize>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = 50usize;
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect();
    let mut tree = RTree::with_dim(dim);
    let mut scan = LinearScan::new(dim);
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let c = &centers[rng.gen_range(0..clusters)];
        let p: Vec<f64> = c.iter().map(|&x| x + rng.gen_range(-2.0..2.0)).collect();
        tree.insert(&p, i);
        scan.insert(p.clone(), i);
        points.push(p);
    }
    (tree, scan, points)
}
