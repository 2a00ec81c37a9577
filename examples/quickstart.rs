//! Quickstart: simulate a small city, train DeepST for a few epochs, and
//! predict the most likely route for a held-out trip.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use deepst::baselines::{DeepStPredictor, PredictQuery, Predictor};
use deepst::eval::{accuracy, build_examples, recall_at_n, train_deepst, SuiteConfig};
use deepst::sim::{CityPreset, Dataset};

fn main() {
    // 1. Simulate a city with trips driven by habit + destination + traffic.
    println!("Simulating Tinyville...");
    let dataset = Dataset::generate(&CityPreset::tiny_test(), 600, 42);
    println!(
        "  {} road segments, {} trips, {} traffic slots",
        dataset.net.num_segments(),
        dataset.trips.len(),
        dataset.num_slots()
    );

    // 2. Time-ordered train/val/test split, as in the paper (§V-A).
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let val = build_examples(&dataset, &split.val);

    // 3. Train DeepST (Algorithm 1: ELBO maximization with Adam).
    println!("Training DeepST on {} trips...", train.len());
    let cfg = SuiteConfig {
        deepst_epochs: 5,
        seed: 42,
        ..SuiteConfig::default()
    };
    let model =
        train_deepst(&dataset, &train, Some(&val), &cfg, true).expect("DeepST training failed");
    let predictor = DeepStPredictor::new(model);

    // 4. Predict the most likely route for a few held-out trips.
    let mut rec_sum = 0.0;
    let mut acc_sum = 0.0;
    let n = 25.min(split.test.len());
    for &i in split.test.iter().take(n) {
        let trip = &dataset.trips[i];
        let slot = dataset.slot_of(trip.start_time);
        let query = PredictQuery {
            start: trip.origin_segment(),
            dest_coord: trip.dest_coord,
            dest_norm: dataset.unit_coord(&trip.dest_coord),
            dest_segment: trip.dest_segment(),
            traffic: dataset.traffic_tensor(slot),
            slot_id: slot,
        };
        let predicted = predictor.predict(&dataset.net, &query);
        rec_sum += recall_at_n(&trip.route, &predicted);
        acc_sum += accuracy(&trip.route, &predicted);
    }
    println!("Held-out performance over {n} trips:");
    println!("  recall@n = {:.3}", rec_sum / n as f64);
    println!("  accuracy = {:.3}", acc_sum / n as f64);

    // 5. Show one prediction in detail.
    let trip = &dataset.trips[split.test[0]];
    let slot = dataset.slot_of(trip.start_time);
    let query = PredictQuery {
        start: trip.origin_segment(),
        dest_coord: trip.dest_coord,
        dest_norm: dataset.unit_coord(&trip.dest_coord),
        dest_segment: trip.dest_segment(),
        traffic: dataset.traffic_tensor(slot),
        slot_id: slot,
    };
    let predicted = predictor.predict(&dataset.net, &query);
    println!("\nExample trip:");
    println!("  truth:     {:?}", trip.route);
    println!("  predicted: {predicted:?}");
}
