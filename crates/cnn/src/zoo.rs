//! The model zoo: the candidate set of ingest-time CNNs that Focus's
//! parameter selection searches over (§4.1, §4.4).
//!
//! The zoo has two parts:
//!
//! * **Generic compressed models** — architecture family members with
//!   varying compression, built once and shared by every stream.
//! * **Specialized models** — retrained per stream from a ground-truth
//!   labelled sample, for each combination of specialization level and `Ls`.

use crate::architecture::{Architecture, CompressionSpec, ModelSpec};
use crate::model::CheapCnn;

/// Factory for ingest-CNN candidates.
#[derive(Debug, Clone, Default)]
pub struct ModelZoo;

impl ModelZoo {
    /// Creates the zoo.
    pub fn new() -> Self {
        Self
    }

    /// The generic compressed candidate specs, cheapest last.
    ///
    /// Includes the three canonical CheapCNNs from Figure 5 plus a few other
    /// points in the architecture × compression space to give the parameter
    /// sweep a non-trivial search space.
    pub fn generic_specs(&self) -> Vec<ModelSpec> {
        let mut specs = vec![
            ModelSpec::new(Architecture::ResNet50, CompressionSpec::NONE),
            ModelSpec::cheap_cnn_1(),
            ModelSpec::new(
                Architecture::ResNet18,
                CompressionSpec {
                    layers_removed: 2,
                    input_resolution: 160,
                },
            ),
            ModelSpec::cheap_cnn_2(),
            ModelSpec::new(
                Architecture::AlexNet,
                CompressionSpec {
                    layers_removed: 1,
                    input_resolution: 112,
                },
            ),
            ModelSpec::cheap_cnn_3(),
        ];
        specs.sort_by(|a, b| a.cheapness().partial_cmp(&b.cheapness()).unwrap());
        specs
    }

    /// The three canonical cheap CNNs annotated in Figure 5 of the paper.
    pub fn figure5_models(&self) -> [CheapCnn; 3] {
        [
            CheapCnn::cheap_cnn_1(),
            CheapCnn::cheap_cnn_2(),
            CheapCnn::cheap_cnn_3(),
        ]
    }

    /// The `Ls` values (number of specialized classes) explored per stream.
    pub fn ls_candidates(&self) -> Vec<usize> {
        vec![10, 20, 40]
    }

    /// The reduced generic candidate set used when parameters are
    /// re-selected *online* on a short window sample (the adaptive
    /// controller's drift response): the three canonical CheapCNNs only.
    /// The exotic architecture × compression points of
    /// [`generic_specs`](Self::generic_specs) earn their GPU time in the
    /// offline sweep over a long sample; on a drift-sized window they cost
    /// a full classification pass each without changing the choice.
    pub fn adaptive_specs(&self) -> Vec<ModelSpec> {
        vec![
            ModelSpec::cheap_cnn_1(),
            ModelSpec::cheap_cnn_2(),
            ModelSpec::cheap_cnn_3(),
        ]
    }

    /// The `Ls` values explored by the online re-selection sweep — a
    /// subset of [`ls_candidates`](Self::ls_candidates) for the same
    /// reason [`adaptive_specs`](Self::adaptive_specs) is reduced.
    pub fn adaptive_ls_candidates(&self) -> Vec<usize> {
        vec![10, 20]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Classifier;

    #[test]
    fn generic_specs_are_sorted_and_include_figure5_models() {
        let zoo = ModelZoo::new();
        let specs = zoo.generic_specs();
        assert!(specs.len() >= 4);
        for w in specs.windows(2) {
            assert!(w[0].cheapness() <= w[1].cheapness());
        }
        let names: Vec<String> = specs.iter().map(|s| s.display_name()).collect();
        assert!(names.contains(&ModelSpec::cheap_cnn_1().display_name()));
        assert!(names.contains(&ModelSpec::cheap_cnn_3().display_name()));
    }

    #[test]
    fn figure5_models_have_increasing_cheapness() {
        let [a, b, c] = ModelZoo::new().figure5_models();
        assert!(a.cheapness_vs_gt() < b.cheapness_vs_gt());
        assert!(b.cheapness_vs_gt() < c.cheapness_vs_gt());
    }

    #[test]
    fn adaptive_candidates_are_a_subset_of_the_full_sweep() {
        let zoo = ModelZoo::new();
        let full: Vec<String> = zoo
            .generic_specs()
            .iter()
            .map(|s| s.display_name())
            .collect();
        let adaptive = zoo.adaptive_specs();
        assert!(adaptive.len() < zoo.generic_specs().len());
        for spec in &adaptive {
            assert!(full.contains(&spec.display_name()));
        }
        let ls = zoo.adaptive_ls_candidates();
        assert!(!ls.is_empty());
        for l in &ls {
            assert!(zoo.ls_candidates().contains(l));
        }
    }
}
