//! Route recovery from sparse trajectories (§V-C): downsample a dense GPS
//! trajectory to one fix every few minutes, then reconstruct the traveled
//! route with STRS (Markov spatial prior) and STRS+ (DeepST spatial module).
//!
//! ```bash
//! cargo run --release --example route_recovery
//! ```

use deepst::eval::{accuracy, build_examples, train_deepst, SuiteConfig};
use deepst::recovery::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use deepst::sim::{downsample, CityPreset, Dataset};

fn main() {
    println!("Simulating the city and training DeepST...");
    let dataset = Dataset::generate(&CityPreset::tiny_test(), 800, 23);
    let split = dataset.default_split();
    let train = build_examples(&dataset, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 5,
        seed: 23,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&dataset, &train, None, &cfg, true).expect("DeepST training failed");

    // Fit the STRS components from the training trips.
    let ttime = TravelTimeModel::fit(
        &dataset.net,
        split
            .train
            .iter()
            .map(|&i| (&dataset.trips[i].route, dataset.trips[i].duration())),
    );
    let markov = MarkovSpatial::fit(split.train.iter().map(|&i| &dataset.trips[i].route));
    let deep_spatial = DeepStSpatial::new(&model);
    let rcfg = RecoveryConfig::default();
    let strs = Recovery::new(&dataset.net, &ttime, &markov, rcfg.clone());
    let strs_plus = Recovery::new(&dataset.net, &ttime, &deep_spatial, rcfg);

    // Take a held-out trip, sparsify its GPS trace, and recover.
    for &rate_min in &[2.0f64, 5.0] {
        let mut a1 = 0.0;
        let mut a2 = 0.0;
        let mut n = 0;
        for &i in split.test.iter().take(40) {
            let trip = &dataset.trips[i];
            let sparse = downsample(&trip.gps, rate_min * 60.0);
            if sparse.len() < 2 {
                continue;
            }
            let dest = dataset.unit_coord(&trip.dest_coord);
            let slot = dataset.slot_of(trip.start_time);
            let tensor = dataset.traffic_tensor(slot);
            let (Some(r1), Some(r2)) = (
                strs.recover(&sparse, dest, tensor, slot),
                strs_plus.recover(&sparse, dest, tensor, slot),
            ) else {
                continue;
            };
            a1 += accuracy(&trip.route, &r1);
            a2 += accuracy(&trip.route, &r2);
            n += 1;
        }
        println!(
            "\nsampling rate {rate_min:.0} min ({n} trajectories):\n  STRS  accuracy = {:.3}\n  STRS+ accuracy = {:.3}",
            a1 / n as f64,
            a2 / n as f64
        );
    }

    // Show one recovery in detail.
    let trip = &dataset.trips[split.test[1]];
    let sparse = downsample(&trip.gps, 180.0);
    println!(
        "\nExample: trip with {} GPS fixes downsampled to {} fixes",
        trip.gps.len(),
        sparse.len()
    );
    let dest = dataset.unit_coord(&trip.dest_coord);
    let slot = dataset.slot_of(trip.start_time);
    if let Some(rec) = strs_plus.recover(&sparse, dest, dataset.traffic_tensor(slot), slot) {
        println!("  truth:     {:?}", trip.route);
        println!("  recovered: {rec:?}");
        println!("  accuracy:  {:.3}", accuracy(&trip.route, &rec));

        // Render the comparison to an SVG map.
        use deepst::eval::{RouteLayer, SvgScene};
        let mut scene = SvgScene::new(&dataset.net, 600.0);
        scene.add_route(&RouteLayer {
            route: &trip.route,
            color: "#1f77b4",
            label: "ground truth",
        });
        scene.add_route(&RouteLayer {
            route: &rec,
            color: "#d62728",
            label: "recovered (STRS+)",
        });
        scene.add_points(sparse.iter().map(|gp| gp.p), "#2ca02c");
        scene.add_marker(&trip.dest_coord, "#9467bd", 6.0);
        let path = std::env::temp_dir().join("deepst_recovery.svg");
        scene.save(&path).expect("write SVG");
        println!("  map saved to {}", path.display());
    }
}
