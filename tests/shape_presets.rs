//! Static shape checker vs. reality: for every zoo preset the shapes
//! propagated by `Network::infer_shapes` must agree with an actual forward
//! pass, and impossible inputs must be rejected *statically* (no
//! activations allocated). Every preset also checks that `Network::infer`
//! equals the eval-mode forward bit for bit.

use pruneval::{preset, Scale};
use pv_nn::{models, Mode, Network};
use pv_tensor::{Error, Rng, Tensor};

const PRESETS: &[&str] = &[
    "resnet20",
    "resnet56",
    "resnet110",
    "vgg16",
    "wrn16-8",
    "densenet22",
    "resnet18",
    "resnet101",
    "mlp",
];

/// `Network::infer` must return the bits of `forward(.., Mode::Eval)`,
/// negative zeros included. One training-mode pass first moves the
/// batch-norm running statistics off their defaults, so eval-mode
/// normalization is not the identity.
fn assert_infer_is_eval_forward(name: &str, net: &mut Network) {
    let mut shape = vec![4];
    shape.extend_from_slice(net.input_shape());
    let x = Tensor::rand_uniform(&shape, -1.0, 1.0, &mut Rng::new(42));
    net.forward(&x, Mode::Train);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&net.infer(&x)),
        bits(&net.forward(&x, Mode::Eval)),
        "{name}: infer differs from forward(Eval)"
    );
}

#[test]
fn every_preset_infers_shapes_matching_forward() {
    for name in PRESETS {
        let cfg = preset(name, Scale::Smoke).expect("known preset");
        let mut net = cfg.arch.build(&cfg.name, &cfg.task, 0);
        let report = net.infer_shapes().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!report.records.is_empty(), "{name}: no leaf layers");

        // the first leaf consumes the declared input shape
        assert_eq!(
            report.records[0].input,
            net.input_shape(),
            "{name}: first leaf input"
        );

        // the statically inferred output matches a real forward pass
        let inferred = report.output_shape().expect("nonempty report").to_vec();
        let logits = models::smoke_forward(&mut net, 2, 42);
        assert_eq!(
            &logits.shape()[1..],
            inferred.as_slice(),
            "{name}: inferred vs observed output shape"
        );
        assert_eq!(inferred[0], net.num_classes(), "{name}: class count");
        assert_infer_is_eval_forward(name, &mut net);
    }
}

#[test]
fn segnet_inference_covers_dense_prediction_heads() {
    let mut net = models::mini_segnet("seg", (1, 8, 8), 3, 4, 1);
    let report = net.infer_shapes().expect("segnet shapes");
    let inferred = report.output_shape().expect("nonempty").to_vec();
    assert_eq!(inferred, vec![3, 8, 8]);
    let logits = models::smoke_forward(&mut net, 2, 7);
    assert_eq!(&logits.shape()[1..], inferred.as_slice());
    assert_infer_is_eval_forward("mini_segnet", &mut net);
}

#[test]
fn wrong_input_shapes_are_rejected_statically() {
    let cfg = preset("resnet20", Scale::Smoke).expect("known preset");
    let net = cfg.arch.build(&cfg.name, &cfg.task, 0);

    // wrong rank
    let err = net.infer_shapes_for(&[16]).unwrap_err();
    assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");

    // wrong channel count
    let mut shape = net.input_shape().to_vec();
    shape[0] += 1;
    let err = net.infer_shapes_for(&shape).unwrap_err();
    assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");

    // spatial size too small for an unpadded pooling window (the padded
    // resnet stem tolerates tiny inputs; vgg's 2x2 maxpool does not)
    let vgg = preset("vgg16", Scale::Smoke).expect("known preset");
    let vgg_net = vgg.arch.build(&vgg.name, &vgg.task, 0);
    let err = vgg_net.infer_shapes_for(&[vgg_net.input_shape()[0], 1, 1]);
    assert!(err.is_err(), "1x1 input must not fit a 2x2 maxpool");
}

#[test]
fn mlp_rejects_wrong_width_statically() {
    let mut net = models::mlp("m", 16, &[8], 4, false, 3);
    assert!(net.infer_shapes().is_ok());
    let err = net.infer_shapes_for(&[17]).unwrap_err();
    assert!(matches!(err, Error::ShapeMismatch { .. }), "{err:?}");
    let logits = models::smoke_forward(&mut net, 3, 9);
    assert_eq!(logits.shape(), &[3, 4]);
}
