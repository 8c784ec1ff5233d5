// Data-poisoning transforms for the attack experiments (Section III-E):
// the targeted label-flipping attack replaces a malicious node's dataset
// with samples of the source class labeled as the target class.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace tanglefl::data {

/// A targeted misclassification, e.g. {3, 8} for "3 -> 8" in Fig. 6.
struct LabelFlip {
  std::int32_t source_class = 3;
  std::int32_t target_class = 8;
};

/// Extracts the samples of `flip.source_class` from `split` and relabels
/// them as `flip.target_class` — the paper's malicious local dataset, which
/// "entirely consists of mislabeled samples".
DataSplit make_label_flip_split(const DataSplit& split, const LabelFlip& flip);

/// Applies make_label_flip_split to a user's train split; the test split is
/// flipped the same way so the attacker's local validation also endorses
/// the poisoned objective. Users without source-class samples get an empty
/// dataset.
UserData make_label_flip_user(const UserData& user, const LabelFlip& flip);

/// A pixel-pattern backdoor (Bagdasaryan et al., cited as [29]): a small
/// bright patch stamped into a corner of the image; any sample carrying
/// the patch should be classified as `target_class`.
struct BackdoorTrigger {
  std::int32_t target_class = 0;
  std::size_t patch_size = 2;   // square patch, top-left corner
  float trigger_value = 1.0f;   // pixel intensity written into the patch
};

/// Stamps the trigger into every image of `split` (rank-4 image features
/// required) and relabels everything as the trigger's target class — the
/// fully triggered variant used to *measure* backdoor success.
DataSplit apply_backdoor(const DataSplit& split, const BackdoorTrigger& trigger);

/// Classic backdoor training set: a copy of `split` where a `fraction` of
/// samples (chosen via `rng`) carry the trigger and the target label while
/// the rest stay clean — so the attacker's model keeps its clean accuracy
/// (stealth) but learns the trigger.
DataSplit make_backdoor_train_split(const DataSplit& split,
                                    const BackdoorTrigger& trigger,
                                    double fraction, Rng& rng);

}  // namespace tanglefl::data
