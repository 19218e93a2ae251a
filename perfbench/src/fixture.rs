//! Fixture work, excluded from every timing: the two trained models as
//! `save_model` blobs, plus the image pool the workloads draw inputs from.
//!
//! The fixture is fixed (independent of `--seed`): the seed only shapes
//! traffic, so a change of seed never changes the models being served.

use safex_nn::io::save_model;
use safex_nn::model::ModelBuilder;
use safex_nn::train::{SgdConfig, Trainer};
use safex_nn::Model;
use safex_scenarios::automotive::{self, AutomotiveConfig};
use safex_scenarios::Dataset;
use safex_tensor::DetRng;

/// Trained models as serialised blobs, and the images the traffic uses.
pub struct Fixture {
    /// `flatten -> dense 48 -> relu -> dense classes -> softmax`.
    pub mlp_blob: Vec<u8>,
    /// `conv 4x3x3 -> relu -> maxpool 2 -> flatten -> dense -> softmax`.
    pub conv_blob: Vec<u8>,
    /// Held-out test images: the base of every request payload.
    pub test: Vec<Vec<f32>>,
    /// Images the hardened engines calibrate their activation guards on
    /// at bring-up (train and test images).
    pub calibration: Vec<Vec<f32>>,
}

fn train(mut model: Model, data: &Dataset, epochs: usize, rng: &mut DetRng) -> Model {
    let inputs = data.inputs_owned();
    let labels = data.labels();
    let mut trainer = Trainer::new(SgdConfig {
        learning_rate: 0.02,
        momentum: 0.9,
        batch_size: 16,
    })
    .expect("valid SGD config");
    for _ in 0..epochs {
        trainer
            .train_epoch(&mut model, &inputs, &labels, rng)
            .expect("training epoch");
    }
    model
}

fn blob(model: &Model) -> Vec<u8> {
    let mut out = Vec::new();
    save_model(model, &mut out).expect("serialise model");
    out
}

/// Generates the automotive scenario, trains both models once and
/// serialises them.
pub fn build() -> Fixture {
    let mut rng = DetRng::new(9001);
    let data = automotive::generate(
        &AutomotiveConfig {
            samples_per_class: 60,
            ..AutomotiveConfig::default()
        },
        &mut rng,
    )
    .expect("generate scenario");
    let (train_set, test_set) = data.split(0.7, &mut rng).expect("split scenario");

    let mut mlp_rng = DetRng::new(17);
    let mlp = ModelBuilder::new(train_set.shape())
        .flatten()
        .dense(48, &mut mlp_rng)
        .expect("dense")
        .relu()
        .dense(train_set.classes(), &mut mlp_rng)
        .expect("dense")
        .softmax()
        .build()
        .expect("mlp");
    let mlp = train(mlp, &train_set, 30, &mut mlp_rng);

    let mut conv_rng = DetRng::new(23);
    let conv = ModelBuilder::new(train_set.shape())
        .conv2d(4, 3, 1, 1, &mut conv_rng)
        .expect("conv")
        .relu()
        .maxpool2d(2, 2)
        .expect("maxpool")
        .flatten()
        .dense(train_set.classes(), &mut conv_rng)
        .expect("dense")
        .softmax()
        .build()
        .expect("convnet");
    let conv = train(conv, &train_set, 10, &mut conv_rng);

    let test = test_set.inputs_owned();
    let mut calibration = train_set.inputs_owned();
    calibration.extend(test.iter().cloned());
    Fixture {
        mlp_blob: blob(&mlp),
        conv_blob: blob(&conv),
        test,
        calibration,
    }
}
