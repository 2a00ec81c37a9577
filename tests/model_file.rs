//! The CLI's model file: `deepst train` writes it with
//! [`deepst::save_model_file`] and `predict`/`recover`/`eval` read it with
//! [`deepst::load_model_file`]. A trained model must come back bit for bit,
//! batch-norm running statistics included, or every reloaded traffic
//! encoding silently differs from the one training produced.

use rand::SeedableRng;

use deepst::core::{DeepSt, TrainConfig, Trainer};
use deepst::eval::{build_examples, deepst_config};
use deepst::nn::Module;
use deepst::sim::{CityPreset, Dataset};
use deepst::tensor::Array;

fn bits(entries: &[(String, Array)]) -> Vec<(String, Vec<u32>)> {
    entries
        .iter()
        .map(|(name, a)| (name.clone(), a.data().iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn cli_model_file_roundtrips_params_buffers_and_traffic_encoding() {
    let ds = Dataset::generate(&CityPreset::tiny_test(), 150, 3);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = deepst_config(&ds, 24);
    let tc = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(cfg.clone(), 5), tc);
    trainer
        .fit(&train[..], None, &mut rand::rngs::StdRng::seed_from_u64(5))
        .expect("one epoch of training");
    let trained = &trainer.model;
    assert!(
        !trained.buffers().is_empty(),
        "DeepST with traffic keeps batch-norm statistics"
    );

    let dir = std::env::temp_dir().join(format!("deepst_model_file_{}", std::process::id()));
    let path = dir.join("model.json");
    deepst::save_model_file(trained, &path).expect("save model file");
    let loaded = DeepSt::new(cfg, 0);
    deepst::load_model_file(&loaded, &path).expect("load model file");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(bits(&trained.state()), bits(&loaded.state()), "params");
    assert_eq!(bits(&trained.buffers()), bits(&loaded.buffers()), "buffers");
    for slot in 0..ds.num_slots() {
        let (a, b) = (
            trained.encode_traffic(ds.traffic_tensor(slot)),
            loaded.encode_traffic(ds.traffic_tensor(slot)),
        );
        let to_bits = |x: &Array| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&a), to_bits(&b), "encode_traffic, slot {slot}");
    }
}
