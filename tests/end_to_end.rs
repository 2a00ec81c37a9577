//! End-to-end integration tests: simulate → train → predict across crates.

use deepst::baselines::{DeepStPredictor, Mmi, PredictQuery, Predictor, Wsp};
use deepst::eval::{accuracy, build_examples, recall_at_n, train_deepst, SuiteConfig};
use deepst::sim::{CityPreset, Dataset};

fn tiny(n: usize, seed: u64) -> Dataset {
    Dataset::generate(&CityPreset::tiny_test(), n, seed)
}

fn make_query<'a>(ds: &'a Dataset, i: usize) -> PredictQuery<'a> {
    let trip = &ds.trips[i];
    let slot = ds.slot_of(trip.start_time);
    PredictQuery {
        start: trip.origin_segment(),
        dest_coord: trip.dest_coord,
        dest_norm: ds.unit_coord(&trip.dest_coord),
        dest_segment: trip.dest_segment(),
        traffic: ds.traffic_tensor(slot),
        slot_id: slot,
    }
}

#[test]
fn deepst_trains_and_predicts_valid_routes() {
    let ds = tiny(300, 1);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 3,
        seed: 1,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
    let predictor = DeepStPredictor::new(model);
    for &i in split.test.iter().take(15) {
        let q = make_query(&ds, i);
        let route = predictor.predict(&ds.net, &q);
        assert!(ds.net.is_valid_route(&route), "invalid predicted route");
        assert_eq!(route[0], q.start);
        assert!(route.len() <= 150);
    }
}

#[test]
fn deepst_beats_destination_blind_markov() {
    // The decisive capability test: with destinations concentrated at
    // hotspots, a destination-aware model must out-predict a first-order
    // Markov chain.
    let ds = tiny(800, 2);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 8,
        seed: 2,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
    let deepst = DeepStPredictor::new(model);
    let routes: Vec<_> = train.iter().map(|e| e.route.clone()).collect();
    let mmi = Mmi::fit(&ds.net, routes.iter());

    let mut d_acc = 0.0;
    let mut m_acc = 0.0;
    let n = 40.min(split.test.len());
    for &i in split.test.iter().take(n) {
        let q = make_query(&ds, i);
        let truth = &ds.trips[i].route;
        d_acc += accuracy(truth, &deepst.predict(&ds.net, &q));
        m_acc += accuracy(truth, &mmi.predict(&ds.net, &q));
    }
    assert!(
        d_acc > m_acc,
        "DeepST ({:.3}) did not beat MMI ({:.3})",
        d_acc / n as f64,
        m_acc / n as f64
    );
}

#[test]
fn wsp_produces_connected_routes_to_exact_destination() {
    let ds = tiny(200, 3);
    let split = ds.default_split();
    let wsp = Wsp::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );
    for &i in split.test.iter().take(20) {
        let q = make_query(&ds, i);
        let route = wsp.predict(&ds.net, &q);
        assert!(ds.net.is_valid_route(&route));
        assert_eq!(*route.last().unwrap(), q.dest_segment);
    }
}

#[test]
fn metrics_consistent_on_predictions() {
    let ds = tiny(200, 4);
    let split = ds.default_split();
    let routes: Vec<_> = split
        .train
        .iter()
        .map(|&i| ds.trips[i].route.clone())
        .collect();
    let mmi = Mmi::fit(&ds.net, routes.iter());
    for &i in split.test.iter().take(20) {
        let q = make_query(&ds, i);
        let truth = &ds.trips[i].route;
        let pred = mmi.predict(&ds.net, &q);
        let r = recall_at_n(truth, &pred);
        let a = accuracy(truth, &pred);
        assert!((0.0..=1.0).contains(&r));
        assert!((0.0..=1.0).contains(&a));
        // the prediction always starts on the true first segment, so both
        // metrics are strictly positive
        assert!(r > 0.0 && a > 0.0);
        // self-comparison is perfect
        assert_eq!(recall_at_n(truth, truth), 1.0);
        assert_eq!(accuracy(truth, truth), 1.0);
    }
}

#[test]
fn deepst_c_trains_without_traffic_tensors() {
    let ds = tiny(200, 5);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 2,
        seed: 5,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, false).expect("DeepST training failed");
    assert!(!model.cfg.use_traffic);
    let predictor = DeepStPredictor::new(model);
    assert_eq!(predictor.name(), "DeepST-C");
    let q = make_query(&ds, split.test[0]);
    let route = predictor.predict(&ds.net, &q);
    assert!(ds.net.is_valid_route(&route));
}
