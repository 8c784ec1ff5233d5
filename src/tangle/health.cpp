#include "tangle/health.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "tangle/view_cache.hpp"

namespace tanglefl::tangle {
namespace {

// Delays span rounds (sync/gossip, small integers) and microseconds
// (async, up to ~1e7 for multi-second confirmation), so the layout covers
// 1 .. 4^15 ~= 1.07e9.
obs::BucketLayout delay_layout() {
  return obs::BucketLayout::exponential(1.0, 4.0, 16);
}

obs::Histogram& first_approval_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.health.first_approval_delay", delay_layout());
  return hist;
}

obs::Histogram& confirmation_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.health.confirmation_delay", delay_layout());
  return hist;
}

struct HealthGauges {
  obs::Gauge& tip_count;
  obs::Gauge& orphan_count;
  obs::Gauge& orphan_rate;
  obs::Gauge& confirmed_count;
  obs::Gauge& depth_mean;
  obs::Gauge& depth_max;
  obs::Gauge& depth_p50;
  obs::Gauge& depth_p90;
};

HealthGauges& health_gauges() {
  auto& registry = obs::MetricsRegistry::global();
  static HealthGauges gauges{
      registry.gauge("tangle.health.tip_count"),
      registry.gauge("tangle.health.orphan_count"),
      registry.gauge("tangle.health.orphan_rate"),
      registry.gauge("tangle.health.confirmed_count"),
      registry.gauge("tangle.health.depth_mean"),
      registry.gauge("tangle.health.depth_max"),
      registry.gauge("tangle.health.depth_p50"),
      registry.gauge("tangle.health.depth_p90"),
  };
  return gauges;
}

// Nearest-rank quantile over an ascending vector; deterministic and exact
// (the depth distribution is small integers, interpolation adds nothing).
double nearest_rank(const std::vector<std::uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

}  // namespace

HealthTracker::HealthTracker(HealthConfig config) : config_(config) {}

HealthSample HealthTracker::sample(const TangleView& view,
                                   const ViewCacheEntry& cones,
                                   std::uint64_t now, Rng& rng) {
  const Tangle& tangle = view.tangle();
  const std::size_t n = view.size();
  approval_recorded_.resize(std::max(approval_recorded_.size(), n), false);
  confirmed_.resize(std::max(confirmed_.size(), n), false);

  HealthSample out;
  out.tangle_size = view.member_count();

  // One descending pass computes tip status, first approvals, and approval
  // depth together: children always have higher indices than parents, so
  // every approver's depth is final before its parents are visited. The
  // entry's CSR covers its window only; rows below its root come from the
  // tangle's approver lists, filtered by the view.
  const TxIndex root = cones.root();
  std::vector<std::uint32_t> depths(n, 0);
  std::vector<std::uint32_t> member_depths;
  member_depths.reserve(out.tangle_size);
  std::uint64_t depth_sum = 0;
  std::size_t non_genesis = 0;
  for (std::size_t idx = n; idx-- > 0;) {
    const auto i = static_cast<TxIndex>(idx);
    if (!view.contains(i)) continue;
    bool approved = false;
    TxIndex first_approver = 0;
    for (const TxIndex a :
         i >= root ? cones.approvers(i) : std::span(tangle.approvers(i))) {
      if (!view.contains(a)) continue;
      if (!approved) first_approver = a;
      approved = true;
      depths[i] = std::max(depths[i], depths[a] + 1);
    }

    if (i != tangle.genesis()) {
      ++non_genesis;
      if (approved && !approval_recorded_[i]) {
        approval_recorded_[i] = true;
        // Approvers ascend in insertion order, which both engines align
        // with publish time, so the lowest index is the earliest approval.
        const std::uint64_t delay = tangle.transaction(first_approver).round -
                                    tangle.transaction(i).round;
        out.first_approval_delays.push_back(delay);
        first_approval_histogram().record(static_cast<double>(delay));
      }
      if (!approved) {
        ++out.tip_count;
        // Subtraction form: `round + orphan_age` wraps for large configs
        // (e.g. orphan_age = UINT64_MAX means "never an orphan" but the
        // wrapped sum classified everything as aged).
        const std::uint64_t round = tangle.transaction(i).round;
        if (now >= round && now - round >= config_.orphan_age) {
          ++out.orphan_count;
        }
      }
    } else if (!approved) {
      ++out.tip_count;  // a genesis-only ledger has one tip, never an orphan
    }
    depth_sum += depths[i];
    out.approval_depth_max =
        std::max<std::uint64_t>(out.approval_depth_max, depths[i]);
    member_depths.push_back(depths[i]);
  }
  out.orphan_rate = non_genesis == 0
                        ? 0.0
                        : static_cast<double>(out.orphan_count) /
                              static_cast<double>(non_genesis);
  out.approval_depth_mean =
      member_depths.empty()
          ? 0.0
          : static_cast<double>(depth_sum) /
                static_cast<double>(member_depths.size());
  std::sort(member_depths.begin(), member_depths.end());
  out.approval_depth_p50 = nearest_rank(member_depths, 0.50);
  out.approval_depth_p90 = nearest_rank(member_depths, 0.90);

  if (config_.track_confirmation) {
    const ConfidenceWindow confidences =
        compute_confidences(view, cones, rng, config_.confidence);
    for (TxIndex i = 1; i < n; ++i) {
      if (!view.contains(i) || confirmed_[i]) continue;
      if (confidences[i] >= config_.confirmation_threshold) {
        confirmed_[i] = true;
        const std::uint64_t delay = now - tangle.transaction(i).round;
        out.confirmation_delays.push_back(delay);
        confirmation_histogram().record(static_cast<double>(delay));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (confirmed_[i]) ++out.confirmed_count;
  }

  HealthGauges& gauges = health_gauges();
  gauges.tip_count.set(static_cast<double>(out.tip_count));
  gauges.orphan_count.set(static_cast<double>(out.orphan_count));
  gauges.orphan_rate.set(out.orphan_rate);
  gauges.confirmed_count.set(static_cast<double>(out.confirmed_count));
  gauges.depth_mean.set(out.approval_depth_mean);
  gauges.depth_max.set(static_cast<double>(out.approval_depth_max));
  gauges.depth_p50.set(out.approval_depth_p50);
  gauges.depth_p90.set(out.approval_depth_p90);
  return out;
}

}  // namespace tanglefl::tangle
