#include "core/reference.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "tangle/view_cache.hpp"

namespace tanglefl::core {

std::vector<tangle::TxIndex> top_priority_indices(
    std::span<const double> priorities, std::size_t take) {
  // Pair ordering matches the old priority_queue<pair<double, TxIndex>>
  // pop sequence bit-exactly: descending priority, ties to the newest
  // (highest) index. Indices are unique, so the order is a strict total
  // order and nth_element + sort of the prefix reproduces it.
  using Entry = std::pair<double, tangle::TxIndex>;
  std::vector<Entry> entries;
  entries.reserve(priorities.size());
  for (tangle::TxIndex i = 0; i < priorities.size(); ++i) {
    entries.emplace_back(priorities[i], i);
  }
  take = std::min(take, entries.size());
  if (take < entries.size()) {
    std::nth_element(entries.begin(),
                     entries.begin() + static_cast<std::ptrdiff_t>(take),
                     entries.end(), std::greater<Entry>());
    entries.resize(take);
  }
  std::sort(entries.begin(), entries.end(), std::greater<Entry>());

  std::vector<tangle::TxIndex> indices;
  indices.reserve(entries.size());
  for (const Entry& entry : entries) indices.push_back(entry.second);
  return indices;
}

ReferenceResult choose_reference(const tangle::TangleView& view,
                                 const tangle::ModelStore& store,
                                 const tangle::ViewCacheEntry& cones, Rng& rng,
                                 const ReferenceConfig& config) {
  assert(view.size() > 0);
  const tangle::ConfidenceWindow confidences =
      tangle::compute_confidences(view, cones, rng, config.confidence);
  // Top-k over confidence * rating (the past cone size; every transaction
  // counts equally, as in the paper's prototype), exactly as in Algorithm
  // 1. Ties (e.g. the all-zero priorities right after genesis) resolve to
  // the newest transaction so early rounds track fresh training results.
  //
  // Milestone pruning: frozen history is excluded from candidacy — its
  // payloads may have been released and its confidence/rating are pinned
  // approximations. Ranking the window alone matches a full-ledger ranking
  // with frozen priorities zeroed: window entries outrank them (priority
  // >= 0, newer index), and `take` never exceeds the window. Ratings start
  // at the entry's root, which may be an older floor.
  const tangle::TxIndex floor = confidences.floor;
  const std::span<const std::uint32_t> ratings = cones.past_cone_sizes();
  const std::size_t offset = floor - cones.root();
  std::vector<double> priorities(confidences.values.size());
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    priorities[i] = confidences.values[i] * ratings[offset + i];
  }
  const std::size_t take = std::max<std::size_t>(
      1, std::min(config.num_reference_models, priorities.size()));

  ReferenceResult result;
  result.transactions = top_priority_indices(priorities, take);
  for (tangle::TxIndex& index : result.transactions) index += floor;
  std::vector<const nn::ParamVector*> payloads;
  result.payloads.reserve(result.transactions.size());
  payloads.reserve(result.transactions.size());
  for (const tangle::TxIndex index : result.transactions) {
    const tangle::PayloadId payload = view.tangle().transaction(index).payload;
    result.payloads.push_back(payload);
    payloads.push_back(&store.get(payload));
  }
  result.params = nn::average_params(payloads);
  return result;
}

}  // namespace tanglefl::core
