//! Taxi dispatch (the paper's motivating application, §I): given the origin
//! and destination of a booked trip, predict the most likely route *under
//! the current traffic* so potential ride-sharing passengers along that
//! route can be picked up.
//!
//! The example shows the real-time-traffic effect directly: the same
//! origin/destination pair is routed under two different traffic slots, and
//! the model's route likelihoods shift with congestion.
//!
//! ```bash
//! cargo run --release --example taxi_dispatch
//! ```

use deepst::baselines::{DeepStPredictor, PredictQuery, Predictor};
use deepst::eval::{build_examples, train_deepst, SuiteConfig};
use deepst::sim::{CityPreset, Dataset};

fn main() {
    println!("Simulating the city and training DeepST...");
    let dataset = Dataset::generate(&CityPreset::tiny_test(), 800, 11);
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 5,
        seed: 11,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&dataset, &train, None, &cfg, true).expect("DeepST training failed");

    // A dispatch request: origin segment + rough destination coordinate.
    let trip = &dataset.trips[split.test[0]];
    let origin = trip.origin_segment();
    let dest = trip.dest_coord;
    println!(
        "\nDispatch request: origin segment {origin}, destination ≈ ({:.0} m, {:.0} m)",
        dest.x, dest.y
    );

    // Route the request under several different traffic slots.
    let predictor = DeepStPredictor::new(model);
    let slots: Vec<usize> = (1..dataset.num_slots())
        .step_by(dataset.num_slots() / 4)
        .take(3)
        .collect();
    let mut routes = Vec::new();
    for &slot in &slots {
        let query = PredictQuery {
            start: origin,
            dest_coord: dest,
            dest_norm: dataset.unit_coord(&dest),
            dest_segment: trip.dest_segment(),
            traffic: dataset.traffic_tensor(slot),
            slot_id: slot,
        };
        let route = predictor.predict(&dataset.net, &query);
        println!(
            "\ntraffic slot {slot}: route of {} segments, {:.2} km",
            route.len(),
            dataset.net.route_length(&route) / 1000.0
        );
        println!("  {route:?}");
        routes.push(route);
    }
    let distinct: std::collections::BTreeSet<_> = routes.iter().collect();
    println!(
        "\n{} distinct routes across {} traffic conditions — pickup candidates should be \
         searched along the predicted route for the *current* slot.",
        distinct.len(),
        slots.len()
    );

    // Likelihood scoring: rank two candidate pickup detours.
    let model = predictor.model();
    let slot = dataset.slot_of(trip.start_time);
    let c = model.encode_traffic(dataset.traffic_tensor(slot));
    let ctx = model.encode_context(dataset.unit_coord(&dest), Some(c));
    let direct = &routes[0];
    let score_direct = model.score_route(&dataset.net, direct, &ctx);
    println!("\nroute likelihood scoring (log-probability):");
    println!("  predicted route: {score_direct:.2}");
    println!(
        "  ground truth route: {:.2}",
        model.score_route(&dataset.net, &trip.route, &ctx)
    );
}
