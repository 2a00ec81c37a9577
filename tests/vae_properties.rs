//! Integration tests of the VAE machinery: ELBO decomposition, KL
//! non-negativity, proxy learning, and the Gumbel-Softmax relaxation.

use deepst::core::{DeepSt, DeepStConfig, Example, TrainConfig, TrainModel, Trainer};
use deepst::eval::{build_examples, train_deepst, SuiteConfig};
use deepst::sim::{CityPreset, Dataset};
use deepst::tensor::{init, Binder, Tape};

fn tiny(n: usize, seed: u64) -> Dataset {
    Dataset::generate(&CityPreset::tiny_test(), n, seed)
}

#[test]
fn elbo_terms_have_correct_signs() {
    let ds = tiny(60, 1);
    let split = ds.default_split();
    let examples = build_examples(&ds, &split.train);
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    let model = DeepSt::new(cfg, 0);
    let refs: Vec<&Example> = examples.iter().take(16).collect();
    let mut rng = init::rng(0);
    let tape = Tape::new();
    let binder = Binder::new(&tape);
    let (loss, stats) = model.batch_loss(&binder, &refs, &mut rng, true);
    assert!(loss.scalar_value().is_finite());
    // route log-likelihood is a sum of log-probabilities → non-positive
    assert!(stats.route_ll <= 0.0);
    // KL divergences are non-negative (up to float noise)
    assert!(stats.kl_pi >= -1e-3, "KL(pi) = {}", stats.kl_pi);
    assert!(stats.kl_c >= -1e-3, "KL(c) = {}", stats.kl_c);
    // the ELBO equals its decomposition
    let recomposed = stats.route_ll + stats.dest_ll - stats.kl_c - 2.0 * stats.kl_pi;
    assert!(
        (stats.elbo - recomposed).abs() < 1.0,
        "ELBO {} vs decomposition {recomposed}",
        stats.elbo
    );
}

#[test]
fn eval_loss_is_deterministic() {
    let ds = tiny(60, 2);
    let split = ds.default_split();
    let examples = build_examples(&ds, &split.train);
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    let model = DeepSt::new(cfg, 1);
    let mut rng1 = init::rng(10);
    let mut rng2 = init::rng(99);
    // eval mode uses posterior means — different RNGs must agree
    let l1 = model.evaluate_loss(&examples, 16, &mut rng1);
    let l2 = model.evaluate_loss(&examples, 16, &mut rng2);
    assert!((l1 - l2).abs() < 1e-5, "{l1} vs {l2}");
}

#[test]
fn training_improves_validation_elbo() {
    let ds = tiny(250, 3);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let val = build_examples(&ds, &split.val);
    let cfg = DeepStConfig::new(
        ds.net.num_segments(),
        ds.net.max_out_degree(),
        ds.grid.height,
        ds.grid.width,
    );
    let model = DeepSt::new(cfg, 2);
    let mut rng = init::rng(3);
    let before = model.evaluate_loss(&val, 32, &mut rng);
    let tc = TrainConfig {
        epochs: 3,
        batch_size: 32,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(model, tc);
    let hist = trainer
        .fit(&train[..], None, &mut rng)
        .expect("clean run")
        .epochs;
    assert!(!hist.is_empty());
    let after = trainer.model.evaluate_loss(&val, 32, &mut rng);
    assert!(
        after < before,
        "validation loss did not improve: {before} -> {after}"
    );
}

#[test]
fn destination_proxies_cover_hotspots() {
    // After training, every trip destination should have a proxy mean
    // nearby (in normalized coordinates) — the adjoint generative model
    // must explain the observed destinations.
    let ds = tiny(300, 4);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 4,
        seed: 4,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
    // extract proxy means from state
    use deepst::nn::Module;
    let state = model.state();
    let m_proxy = state
        .iter()
        .find(|(n, _)| n == "deepst.m_proxy")
        .map(|(_, v)| v.clone())
        .expect("m_proxy in state");
    let k = m_proxy.shape()[0];
    let mut worst = 0.0f32;
    for e in train.iter().take(100) {
        let mut best = f32::INFINITY;
        for p in 0..k {
            let dx = m_proxy.at2(p, 0) - e.dest[0];
            let dy = m_proxy.at2(p, 1) - e.dest[1];
            best = best.min((dx * dx + dy * dy).sqrt());
        }
        worst = worst.max(best);
    }
    assert!(
        worst < 0.5,
        "some destination is {worst} (normalized) away from every proxy"
    );
}

#[test]
fn gumbel_temperature_sharpens_assignments() {
    // The π used in training is a Gumbel-Softmax sample; at evaluation the
    // posterior q(π|x) must be a proper distribution over K proxies.
    let ds = tiny(100, 5);
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let cfg = SuiteConfig {
        deepst_epochs: 2,
        seed: 5,
        ..SuiteConfig::default()
    };
    let model = train_deepst(&ds, &train, None, &cfg, true).expect("DeepST training failed");
    let (pi, fx) = model.encode_dest([0.3, 0.7]);
    let sum: f32 = pi.data().iter().sum();
    assert!((sum - 1.0).abs() < 1e-4);
    assert!(pi.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    assert!(fx.all_finite());
    // nearby destinations share similar representations (statistical
    // strength sharing, §IV-C)
    let (_, fx_near) = model.encode_dest([0.31, 0.71]);
    let (_, fx_far) = model.encode_dest([0.9, 0.1]);
    let d_near = fx.max_abs_diff(&fx_near);
    let d_far = fx.max_abs_diff(&fx_far);
    assert!(
        d_near <= d_far + 1e-6,
        "nearby destination representation ({d_near}) further than distant one ({d_far})"
    );
}
