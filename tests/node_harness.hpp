// Shared test helper: owns what a core::NodeContext borrows besides the
// ledger — an eval engine over the model factory and one cone cache entry
// per requested view, built with ViewCacheEntry::build (the full
// BitMatrix build masked views use) — so node-level tests run the same
// single consensus path the engines do.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/eval_engine.hpp"
#include "core/node.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::core {

class NodeHarness {
 public:
  /// `store` must outlive the harness.
  NodeHarness(const tangle::ModelStore& store, nn::ModelFactory factory)
      : store_(store), factory_(std::move(factory)), eval_(factory_) {}

  /// Context for one step over `view` at `round`, with private stream
  /// Rng(seed). The view's cone entry lives as long as the harness; the
  /// view itself must outlive the returned context.
  NodeContext context(const tangle::TangleView& view, std::uint64_t round,
                      std::uint64_t seed) {
    cones_.push_back(tangle::ViewCacheEntry::build(view));
    return NodeContext{view, *cones_.back(), store_, factory_, eval_, round,
                       Rng(seed)};
  }

  EvalEngine& eval() noexcept { return eval_; }

 private:
  const tangle::ModelStore& store_;
  nn::ModelFactory factory_;
  EvalEngine eval_;
  std::vector<std::shared_ptr<const tangle::ViewCacheEntry>> cones_;
};

}  // namespace tanglefl::core
