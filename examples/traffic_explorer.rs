//! Traffic explorer: visualize the simulator's time-varying congestion and
//! the observed traffic tensors DeepST conditions on — including how the
//! inferred latent `c` separates congested from free-flowing slots.
//!
//! ```bash
//! cargo run --release --example traffic_explorer
//! ```

use deepst::eval::report::format_heatmap;
use deepst::eval::{build_examples, train_deepst, SuiteConfig};
use deepst::sim::{CityPreset, Dataset, TrafficModel, DAY_SECS};

fn main() {
    let dataset = Dataset::generate(&CityPreset::tiny_test(), 600, 5);

    // 1. Ground-truth congestion at two different times of day.
    println!("Ground-truth mean speed over the network:");
    for &hour in &[3.0f64, 8.0] {
        let t = hour * 3600.0;
        let mean_speed: f64 = (0..dataset.net.num_segments())
            .map(|s| dataset.traffic.speed(&dataset.net, s, t))
            .sum::<f64>()
            / dataset.net.num_segments() as f64;
        println!(
            "  {hour:4.0}:00  {mean_speed:.1} m/s (diurnal factor {:.2})",
            TrafficModel::diurnal_factor(t)
        );
    }

    // 2. Observed traffic tensors for two slots (what the CNN sees).
    let slots = [
        dataset.slot_of(8.5 * 3600.0),
        dataset.slot_of(DAY_SECS + 3.0 * 3600.0),
    ];
    for slot in slots {
        let tensor = dataset.traffic_tensor(slot);
        let grid: Vec<f64> = tensor.iter().map(|&v| v as f64).collect();
        let observed = tensor.iter().filter(|&&v| v > 0.0).count();
        println!(
            "\nObserved traffic tensor, slot {slot} ({observed}/{} cells observed):",
            tensor.len()
        );
        println!(
            "{}",
            format_heatmap(&grid, dataset.grid.width, dataset.grid.height)
        );
    }

    // 3. Train DeepST and check that the traffic latent c distinguishes
    //    slots with different congestion.
    println!("Training DeepST to inspect the traffic latent c...");
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 4,
        seed: 5,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&dataset, &train, None, &cfg, true).expect("DeepST training failed");
    let c1 = model.encode_traffic(dataset.traffic_tensor(slots[0]));
    let c2 = model.encode_traffic(dataset.traffic_tensor(slots[1]));
    let diff = c1.max_abs_diff(&c2);
    println!(
        "  ‖c(rush hour) − c(night)‖∞ = {diff:.4} (nonzero ⇒ the posterior reacts to traffic)"
    );
}
