//! All eight paper artifacts through `st_bench::paper::all` at a small
//! scale, checked for the shapes `results/*.json` and EXPERIMENTS.md
//! report: both cities in every per-city artifact, Table VI's K sweep,
//! Fig. 6's per-trip lists, the paper's method order in Table IV and
//! Fig. 7, and Fig. 8's five training-set sizes.

use serde_json::Value;
use st_bench::{paper, City, Scale};

const CITIES: [&str; 2] = ["Rivertown", "Northport"];
const METHODS: [&str; 6] = ["DeepST", "DeepST-C", "CSSRNN", "RNN", "MMI", "WSP"];

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array<'a>(v: &'a Value, what: &str) -> &'a Vec<Value> {
    v.as_array()
        .unwrap_or_else(|| panic!("{what}: expected an array, got {v:?}"))
}

fn method_names<'a>(results: &'a Value, what: &str) -> Vec<&'a str> {
    array(results, what)
        .iter()
        .map(|r| r.get("name").and_then(Value::as_str).expect("method name"))
        .collect()
}

#[test]
fn every_artifact_has_the_paper_shape() {
    let scale = Scale {
        trips: 200,
        epochs: 1,
        max_eval: Some(20),
        recovery_trajs: 4,
        seed: 7,
    };
    let arts = paper::all(&scale, &City::ALL).expect("all artifacts");
    let art = |name: &str| arts.get(name).unwrap_or_else(|| panic!("{name} missing"));
    let names: Vec<&str> = arts.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        ["table3", "fig5", "fig6", "table4", "fig7", "table5", "table6", "fig8"]
    );

    for name in ["table3", "table4", "table5", "fig5", "fig6", "fig7"] {
        assert_eq!(keys(art(name)), CITIES, "{name} city keys");
    }
    for city in CITIES {
        let trips = art("table3")
            .get(city)
            .and_then(|s| s.get("n_trips"))
            .and_then(Value::as_f64)
            .expect("Table III n_trips") as usize;
        let f6 = art("fig6").get(city).expect("Fig. 6 city");
        assert_eq!(keys(f6), ["distance_km", "segments"], "{city} Fig. 6");
        for series in ["distance_km", "segments"] {
            let values = array(f6.get(series).expect("Fig. 6 series"), series);
            assert_eq!(values.len(), trips, "{city} Fig. 6 {series}: one per trip");
        }
        assert_eq!(
            method_names(art("table4").get(city).expect("Table IV"), "Table IV"),
            METHODS
        );
        let f7 = art("fig7").get(city).expect("Fig. 7 city");
        assert_eq!(
            method_names(f7.get("results").expect("Fig. 7 results"), "Fig. 7"),
            METHODS
        );
    }

    let ks: Vec<f64> = array(art("table6"), "Table VI")
        .iter()
        .map(|row| row.get("k").and_then(Value::as_f64).expect("Table VI k"))
        .collect();
    assert_eq!(ks, [2.0, 8.0, 32.0, 64.0], "Table VI K sweep");

    let f8 = art("fig8");
    assert_eq!(keys(f8), ["labels", "secs_per_epoch"], "Fig. 8 keys");
    for series in ["labels", "secs_per_epoch"] {
        assert_eq!(
            array(f8.get(series).expect("Fig. 8"), series).len(),
            5,
            "Fig. 8 {series}"
        );
    }
}
