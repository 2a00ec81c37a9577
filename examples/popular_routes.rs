//! Popular route discovery (one of the paper's listed applications, §I and
//! future work §VI): enumerate the candidate routes between an
//! origin/destination pair with Yen's algorithm and rank them by DeepST's
//! route likelihood — the top-scored routes are the corridors drivers
//! actually use.
//!
//! ```bash
//! cargo run --release --example popular_routes
//! ```

use deepst::eval::{build_examples, train_deepst, SuiteConfig};
use deepst::roadnet::k_shortest_routes;
use deepst::sim::{CityPreset, Dataset};

fn main() {
    println!("Simulating the city and training DeepST...");
    let dataset = Dataset::generate(&CityPreset::tiny_test(), 800, 31);
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 5,
        seed: 31,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&dataset, &train, None, &cfg, true).expect("DeepST training failed");

    // Pick a frequently traveled origin/destination pair from the data.
    let trip = split
        .test
        .iter()
        .map(|&i| &dataset.trips[i])
        .max_by_key(|t| t.route.len())
        .unwrap();
    let (origin, dest_seg) = (trip.origin_segment(), trip.dest_segment());
    println!(
        "\nOD pair: segment {origin} → segment {dest_seg} ({:.1} km ground-truth route)",
        dataset.net.route_length(&trip.route) / 1000.0
    );

    // Candidate routes by travel distance.
    let candidates = k_shortest_routes(&dataset.net, origin, dest_seg, 6, &|s| {
        dataset.net.segment(s).length
    });
    println!("{} candidate routes from Yen's algorithm", candidates.len());

    // Rank them by DeepST's spatial-transition likelihood (§IV-E), using
    // the live traffic of the trip's slot.
    let slot = dataset.slot_of(trip.start_time);
    let c = model.encode_traffic(dataset.traffic_tensor(slot));
    let ctx = model.encode_context(dataset.unit_coord(&trip.dest_coord), Some(c));
    let mut ranked: Vec<(f64, &deepst::roadnet::Route)> = candidates
        .iter()
        .map(|sr| (model.score_route(&dataset.net, &sr.route, &ctx), &sr.route))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    println!("\nRoutes ranked by DeepST likelihood (higher = more popular):");
    for (rank, (score, route)) in ranked.iter().enumerate() {
        println!(
            "  #{:<2} log-likelihood {:8.2}  {:.2} km  {} segments{}",
            rank + 1,
            score,
            dataset.net.route_length(route) / 1000.0,
            route.len(),
            if route.as_slice() == trip.route.as_slice() {
                "  ← ground truth"
            } else {
                ""
            },
        );
    }

    // The likelihood must discriminate: best and worst differ.
    if ranked.len() >= 2 {
        let spread = ranked[0].0 - ranked.last().unwrap().0;
        println!("\nlikelihood spread across candidates: {spread:.2} nats");
    }
}
