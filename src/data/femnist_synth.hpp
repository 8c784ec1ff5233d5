// Synthetic FEMNIST substitute. The real federated EMNIST partitions
// handwritten characters by the writer who authored them; each writer has a
// personal style, which makes the partition non-IID. We reproduce exactly
// that structure procedurally:
//
//   * each class gets a procedural stroke "glyph" prototype,
//   * each user (writer) gets a persistent style: affine distortion
//     (rotation / scale / shear / shift), ink gamma and noise level,
//   * each sample renders the class prototype through the user's style plus
//     small per-sample jitter,
//   * class proportions per user follow a Dirichlet draw (non-IID labels),
//   * sample counts per user are log-normal (unbalanced users).
//
// The learning-tangle mechanism only observes the data through per-node
// loss/accuracy, so this preserves the behaviour the paper's evaluation
// depends on: local models overfit their writer, averaging across writers
// helps, and validation data is node-specific.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace tanglefl::data {

struct FemnistSynthConfig {
  std::size_t num_users = 60;
  std::size_t num_classes = 10;   // paper: 62; scaled down by default
  std::size_t image_size = 14;    // paper: 28; scaled down by default
  double train_fraction = 0.8;    // Table I
  double dirichlet_alpha = 0.5;   // label skew across users
  double mean_samples_per_user = 30.0;
  double samples_log_sigma = 0.5; // log-normal spread of user sizes
  std::size_t min_samples_per_user = 4;
  std::uint64_t seed = 42;
};

/// Generates the full federated dataset. Deterministic in `config.seed`:
/// samples render in parallel, each from its own random stream.
FederatedDataset make_femnist_synth(const FemnistSynthConfig& config);

/// Renders one sample of `class_id` in the style of `user_id` (exposed for
/// tests and the dataset-inspection example).
nn::Tensor render_femnist_sample(const FemnistSynthConfig& config,
                                 std::size_t user_id, std::size_t class_id,
                                 std::uint64_t sample_index);

}  // namespace tanglefl::data
