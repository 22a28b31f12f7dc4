//! Presets mirroring the paper's experimental setups (Tables 3 / 5) at
//! laptop scale, with a global [`Scale`] knob trading fidelity for speed.

use crate::config::{ArchSpec, ExperimentConfig};
use pv_data::TaskSpec;
use pv_nn::{LrDecay, Schedule, TrainConfig};

/// How much compute a preset spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal: for unit/integration tests (seconds).
    Smoke,
    /// Reduced: for the bench harnesses (tens of seconds per study).
    Quick,
    /// Full: the most faithful laptop-scale setting (minutes per study).
    Full,
}

impl Scale {
    /// Reads the scale from the `PV_SCALE` environment variable
    /// (`smoke` / `quick` / `full`), defaulting to `Quick`.
    pub fn from_env() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "PV_SCALE is an explicit experimenter override; the resolved scale is recorded in every config"
        )]
        let scale = std::env::var("PV_SCALE").unwrap_or_default();
        match scale.to_lowercase().as_str() {
            "smoke" => Scale::Smoke,
            "full" => Scale::Full,
            _ => Scale::Quick,
        }
    }

    fn sizes(self) -> (usize, usize, usize, usize, usize) {
        // (n_train, n_test, epochs, cycles, repetitions)
        match self {
            Scale::Smoke => (128, 64, 3, 3, 1),
            Scale::Quick => (512, 512, 20, 6, 2),
            Scale::Full => (2048, 1024, 48, 10, 3),
        }
    }
}

/// The training recipe families of Table 3, scaled: milestones land at
/// roughly the same relative positions in the (shorter) schedule.
fn resnet_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        schedule: Schedule {
            base_lr: 0.1,
            warmup_epochs: (epochs / 10).max(1),
            decay: LrDecay::MultiStep {
                milestones: vec![epochs / 2, 3 * epochs / 4],
                gamma: 0.1,
            },
        },
        momentum: 0.9,
        nesterov: false,
        weight_decay: 1e-4,
        seed: 0,
    }
}

fn vgg_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        schedule: Schedule {
            base_lr: 0.05,
            warmup_epochs: (epochs / 10).max(1),
            decay: LrDecay::Every {
                every: (epochs / 4).max(1),
                gamma: 0.5,
            },
        },
        momentum: 0.9,
        nesterov: false,
        weight_decay: 5e-4,
        seed: 0,
    }
}

fn densenet_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        nesterov: true,
        ..resnet_train(epochs)
    }
}

fn wrn_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        batch_size: 64,
        schedule: Schedule {
            base_lr: 0.1,
            warmup_epochs: (epochs / 10).max(1),
            decay: LrDecay::Every {
                every: (epochs / 3).max(1),
                gamma: 0.2,
            },
        },
        momentum: 0.9,
        nesterov: true,
        weight_decay: 5e-4,
        epochs,
        seed: 0,
    }
}

fn mlp_train(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        schedule: Schedule {
            base_lr: 0.1,
            warmup_epochs: 1,
            decay: LrDecay::MultiStep {
                milestones: vec![epochs / 2, 3 * epochs / 4],
                gamma: 0.1,
            },
        },
        momentum: 0.9,
        nesterov: false,
        weight_decay: 1e-4,
        seed: 0,
    }
}

/// Builds a named preset. Known names (paper model → our analogue):
///
/// * `"resnet20"`, `"resnet56"`, `"resnet110"` — MiniResNet of growing depth
/// * `"vgg16"` — MiniVGG
/// * `"wrn16-8"` — MiniWideResNet
/// * `"densenet22"` — MiniDenseNet
/// * `"resnet18"`, `"resnet101"` — MiniResNet on the hard (ImageNet-like) task
/// * `"mlp"` — fast MLP used by the function-distance harnesses
pub fn preset(name: &str, scale: Scale) -> Option<ExperimentConfig> {
    let (n_train, n_test, epochs, cycles, repetitions) = scale.sizes();
    let cifar = TaskSpec::cifar_like();
    let imagenet = TaskSpec::imagenet_like();
    let (arch, task, train): (ArchSpec, TaskSpec, TrainConfig) = match name {
        "resnet20" => (
            ArchSpec::MiniResNet {
                width: 4,
                blocks: 1,
            },
            cifar,
            resnet_train(epochs),
        ),
        "resnet56" => (
            ArchSpec::MiniResNet {
                width: 4,
                blocks: 2,
            },
            cifar,
            resnet_train(epochs),
        ),
        "resnet110" => (
            ArchSpec::MiniResNet {
                width: 4,
                blocks: 3,
            },
            cifar,
            resnet_train(epochs),
        ),
        "vgg16" => (ArchSpec::MiniVgg { width: 4 }, cifar, vgg_train(epochs)),
        "wrn16-8" => (
            ArchSpec::MiniWideResNet { width: 4, widen: 2 },
            cifar,
            wrn_train(epochs),
        ),
        "densenet22" => (
            ArchSpec::MiniDenseNet {
                growth: 4,
                layers: 3,
            },
            cifar,
            densenet_train(epochs),
        ),
        "resnet18" => (
            ArchSpec::MiniResNet {
                width: 4,
                blocks: 1,
            },
            imagenet,
            resnet_train(epochs),
        ),
        "resnet101" => (
            ArchSpec::MiniResNet {
                width: 6,
                blocks: 2,
            },
            imagenet,
            resnet_train(epochs),
        ),
        "mlp" => (
            ArchSpec::Mlp {
                hidden: vec![128, 64],
                batch_norm: false,
            },
            cifar,
            mlp_train(epochs),
        ),
        _ => return None,
    };
    Some(ExperimentConfig {
        name: name.to_string(),
        arch,
        task,
        n_train,
        n_test,
        train,
        cycles,
        per_cycle_ratio: 0.45,
        repetitions,
        delta_pct: 0.5,
        seed: 2021, // the paper's year, for flavor
    })
}

/// All CIFAR-analogue presets, in the paper's table order.
pub fn cifar_presets(scale: Scale) -> Vec<ExperimentConfig> {
    [
        "resnet20",
        "resnet56",
        "resnet110",
        "vgg16",
        "densenet22",
        "wrn16-8",
    ]
    .iter()
    // pv-analyze: allow(lib-panic) -- preset names are compile-time constants from the zoo table
    .map(|n| preset(n, scale).expect("known preset"))
    .collect()
}

/// The hard-task (ImageNet-analogue) presets.
pub fn imagenet_presets(scale: Scale) -> Vec<ExperimentConfig> {
    ["resnet18", "resnet101"]
        .iter()
        // pv-analyze: allow(lib-panic) -- preset names are compile-time constants from the zoo table
        .map(|n| preset(n, scale).expect("known preset"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_presets_build() {
        for name in [
            "resnet20",
            "resnet56",
            "resnet110",
            "vgg16",
            "wrn16-8",
            "densenet22",
            "resnet18",
            "resnet101",
            "mlp",
        ] {
            let cfg = preset(name, Scale::Smoke).unwrap_or_else(|| panic!("missing {name}"));
            let mut net = cfg.arch.build(&cfg.name, &cfg.task, 1);
            assert!(net.prunable_param_count() > 0, "{name}");
        }
        assert!(preset("alexnet", Scale::Smoke).is_none());
    }

    #[test]
    fn scales_order_compute() {
        let s = preset("resnet20", Scale::Smoke).expect("preset");
        let q = preset("resnet20", Scale::Quick).expect("preset");
        let f = preset("resnet20", Scale::Full).expect("preset");
        assert!(s.n_train < q.n_train && q.n_train < f.n_train);
        assert!(s.train.epochs < q.train.epochs && q.train.epochs < f.train.epochs);
        assert!(s.cycles <= q.cycles && q.cycles <= f.cycles);
    }

    #[test]
    fn deeper_resnets_have_more_params() {
        let t = TaskSpec::cifar_like();
        let mut p20 = preset("resnet20", Scale::Smoke)
            .expect("preset")
            .arch
            .build("a", &t, 1);
        let mut p56 = preset("resnet56", Scale::Smoke)
            .expect("preset")
            .arch
            .build("b", &t, 1);
        let mut p110 = preset("resnet110", Scale::Smoke)
            .expect("preset")
            .arch
            .build("c", &t, 1);
        assert!(p20.prunable_param_count() < p56.prunable_param_count());
        assert!(p56.prunable_param_count() < p110.prunable_param_count());
    }

    #[test]
    fn wrn_is_widest() {
        let t = TaskSpec::cifar_like();
        let mut wrn = preset("wrn16-8", Scale::Smoke)
            .expect("preset")
            .arch
            .build("w", &t, 1);
        let mut r20 = preset("resnet20", Scale::Smoke)
            .expect("preset")
            .arch
            .build("r", &t, 1);
        assert!(wrn.prunable_param_count() > 3 * r20.prunable_param_count());
    }

    #[test]
    fn imagenet_presets_use_hard_task() {
        for cfg in imagenet_presets(Scale::Smoke) {
            assert!(cfg.task.classes > 10);
        }
        assert_eq!(cifar_presets(Scale::Smoke).len(), 6);
    }
}
