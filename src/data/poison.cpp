#include "data/poison.hpp"

#include <algorithm>
#include <stdexcept>

namespace tanglefl::data {

DataSplit make_label_flip_split(const DataSplit& split, const LabelFlip& flip) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < split.size(); ++i) {
    if (split.labels[i] == flip.source_class) indices.push_back(i);
  }
  DataSplit flipped = split.gather(indices);
  for (auto& label : flipped.labels) label = flip.target_class;
  return flipped;
}

UserData make_label_flip_user(const UserData& user, const LabelFlip& flip) {
  UserData poisoned;
  poisoned.user_id = user.user_id + "_flipped";
  poisoned.train = make_label_flip_split(user.train, flip);
  poisoned.test = make_label_flip_split(user.test, flip);
  return poisoned;
}

namespace {

/// Stamps the trigger patch into image `index` of `features`
/// (batch, channels, h, w).
void stamp_trigger(nn::Tensor& features, std::size_t index,
                   const BackdoorTrigger& trigger) {
  const std::size_t channels = features.dim(1);
  const std::size_t height = features.dim(2);
  const std::size_t width = features.dim(3);
  const std::size_t patch = std::min({trigger.patch_size, height, width});
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t y = 0; y < patch; ++y) {
      for (std::size_t x = 0; x < patch; ++x) {
        features.at(index, c, y, x) = trigger.trigger_value;
      }
    }
  }
}

}  // namespace

DataSplit apply_backdoor(const DataSplit& split,
                         const BackdoorTrigger& trigger) {
  if (split.features.rank() != 4) {
    throw std::invalid_argument("apply_backdoor: image features required");
  }
  DataSplit out = split;
  for (std::size_t i = 0; i < out.size(); ++i) {
    stamp_trigger(out.features, i, trigger);
    out.labels[i] = trigger.target_class;
  }
  return out;
}

DataSplit make_backdoor_train_split(const DataSplit& split,
                                    const BackdoorTrigger& trigger,
                                    double fraction, Rng& rng) {
  if (split.features.rank() != 4) {
    throw std::invalid_argument(
        "make_backdoor_train_split: image features required");
  }
  DataSplit out = split;
  const auto poisoned = static_cast<std::size_t>(
      fraction * static_cast<double>(split.size()) + 0.5);
  const auto chosen =
      rng.sample_without_replacement(split.size(), std::min(poisoned, split.size()));
  for (const std::size_t i : chosen) {
    stamp_trigger(out.features, i, trigger);
    out.labels[i] = trigger.target_class;
  }
  return out;
}

}  // namespace tanglefl::data
