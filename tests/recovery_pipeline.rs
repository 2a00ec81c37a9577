//! Integration tests of the route-recovery pipeline (map matching +
//! candidate generation + STRS scoring).

use deepst::eval::{accuracy, build_examples, train_deepst, SuiteConfig};
use deepst::mapmatch::{MapMatcher, MatchConfig};
use deepst::recovery::{DeepStSpatial, MarkovSpatial, Recovery, RecoveryConfig, TravelTimeModel};
use deepst::sim::{downsample, CityPreset, Dataset};

fn setup() -> (Dataset, TravelTimeModel, MarkovSpatial) {
    let ds = Dataset::generate(&CityPreset::tiny_test(), 300, 17);
    let split = ds.default_split();
    let ttime = TravelTimeModel::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );
    let markov = MarkovSpatial::fit(split.train.iter().map(|&i| &ds.trips[i].route));
    (ds, ttime, markov)
}

#[test]
fn recovery_accuracy_degrades_gracefully_with_sparsity() {
    let (ds, ttime, markov) = setup();
    let strs = Recovery::new(&ds.net, &ttime, &markov, RecoveryConfig::default());
    let split = ds.default_split();
    let mut acc_by_rate = Vec::new();
    for rate in [30.0f64, 300.0] {
        let mut total = 0.0;
        let mut n = 0;
        for &i in split.test.iter().take(25) {
            let trip = &ds.trips[i];
            let sparse = downsample(&trip.gps, rate);
            if sparse.len() < 2 {
                continue;
            }
            let Some(rec) = strs.recover(&sparse, [0.5, 0.5], &[], 0) else {
                continue;
            };
            assert!(ds.net.is_valid_route(&rec));
            total += accuracy(&trip.route, &rec);
            n += 1;
        }
        assert!(n >= 10, "too few recoveries at rate {rate}");
        acc_by_rate.push(total / n as f64);
    }
    // Dense sampling must be at least as accurate as sparse sampling.
    assert!(
        acc_by_rate[0] + 0.02 >= acc_by_rate[1],
        "denser sampling worse: {acc_by_rate:?}"
    );
    // And dense recovery should be quite good in absolute terms.
    assert!(
        acc_by_rate[0] > 0.7,
        "dense recovery too weak: {acc_by_rate:?}"
    );
}

#[test]
fn strs_plus_uses_deepst_scores() {
    let (ds, ttime, markov) = setup();
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 3,
        seed: 17,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
    let deep = DeepStSpatial::new(&model);
    let rcfg = RecoveryConfig::default();
    let strs = Recovery::new(&ds.net, &ttime, &markov, rcfg.clone());
    let strsp = Recovery::new(&ds.net, &ttime, &deep, rcfg);
    let mut recovered = 0;
    for &i in split.test.iter().take(15) {
        let trip = &ds.trips[i];
        let sparse = downsample(&trip.gps, 120.0);
        if sparse.len() < 2 {
            continue;
        }
        let slot = ds.slot_of(trip.start_time);
        let dest = ds.unit_coord(&trip.dest_coord);
        let tensor = ds.traffic_tensor(slot);
        let a = strs.recover(&sparse, dest, tensor, slot);
        let b = strsp.recover(&sparse, dest, tensor, slot);
        if let (Some(a), Some(b)) = (a, b) {
            assert!(ds.net.is_valid_route(&a));
            assert!(ds.net.is_valid_route(&b));
            recovered += 1;
        }
    }
    assert!(recovered >= 10, "recovery pipeline broke: {recovered}");
}

#[test]
fn map_matching_feeds_recovery_consistently() {
    let (ds, _, _) = setup();
    let matcher = MapMatcher::new(&ds.net, MatchConfig::default());
    let trip = &ds.trips[0];
    let sparse = downsample(&trip.gps, 60.0);
    let anchors = matcher.match_points(&sparse).expect("match failed");
    assert_eq!(anchors.len(), sparse.len());
    // every anchor must be near its GPS fix
    for (gp, &seg) in sparse.iter().zip(&anchors) {
        let d = ds.net.dist_to_segment(&gp.p, seg);
        assert!(d < 200.0, "anchor {seg} is {d}m from its fix");
    }
}

#[test]
fn gap_recovery_prefers_time_consistent_candidates() {
    let (ds, ttime, markov) = setup();
    let strs = Recovery::new(&ds.net, &ttime, &markov, RecoveryConfig::default());
    // pick a trip and recover its whole span as one gap with the TRUE time;
    // the recovered route's expected time must be near the observed time
    let trip = ds.trips.iter().find(|t| t.route.len() >= 6).unwrap();
    let (from, to) = (trip.route[0], *trip.route.last().unwrap());
    let t_obs = trip.duration();
    let rec = strs
        .recover_gap(from, to, t_obs, [0.5, 0.5], &[], 0)
        .unwrap();
    let t_exp: f64 = rec.iter().map(|&s| ttime.mean(s)).sum();
    assert!(
        (t_exp - t_obs).abs() / t_obs < 1.0,
        "recovered route time {t_exp:.0}s far from observed {t_obs:.0}s"
    );
}
