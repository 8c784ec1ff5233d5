#include "tangle/view_cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace tanglefl::tangle {
namespace {

// Cache effectiveness counters. Deterministic: the sequence of get() calls
// is fixed by (seed, config), never by scheduling.
obs::Counter& hit_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.hit");
  return counter;
}

obs::Counter& miss_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.miss");
  return counter;
}

obs::Counter& eviction_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.view_cache.evictions");
  return counter;
}

// An entry build performs one past- and one future-cone pass and counts
// both here, so the counter means "full ViewCacheEntry builds" x 2.
obs::Counter& cone_recompute_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::global().counter("tangle.cone_recompute.count");
  return counter;
}

obs::Histogram& build_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.view_cache.build_us", obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

// Delta builds maintained by IncrementalConeState — counted separately
// from cone_recompute so the latter keeps meaning "full BitMatrix passes".
obs::Counter& incremental_build_counter() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "tangle.cones.incremental.builds");
  return counter;
}

obs::Histogram& incremental_build_timing_histogram() {
  static obs::Histogram& hist = obs::MetricsRegistry::global().histogram(
      "tangle.cones.incremental.build_us",
      obs::BucketLayout::exponential(4.0, 4.0, 12),
      /*timing=*/true);
  return hist;
}

// Below this view size the parallel fill's fork/join overhead outweighs the
// O(n^2/64) work; measured crossover is a few thousand transactions.
constexpr std::size_t kParallelMinCount = 2048;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Packs view membership into 64-bit words (LSB-first). Returns an empty
/// vector for prefix(-equivalent) views, normalizing "mask covers the whole
/// prefix" to the prefix identity.
std::vector<std::uint64_t> pack_membership(const TangleView& view) {
  if (view.member_count() == view.size()) return {};
  const std::size_t words = (view.size() + 63) / 64;
  std::vector<std::uint64_t> packed(words, 0);
  for (TxIndex i = 0; i < view.size(); ++i) {
    if (view.contains(i)) packed[i / 64] |= (1ULL << (i % 64));
  }
  return packed;
}

std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t w : words) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (w >> shift) & 0xff;
      h *= kFnvPrime;
    }
  }
  return h;
}

/// One word-column slice [word_begin, word_end) of the two reachability
/// passes. `bits` is the shared row-major matrix; slices write disjoint
/// words of every row, so concurrent slices never touch the same byte.
/// Popcounts of the window rows [root, n) accumulate into the
/// caller-provided partial vectors, indexed by TxIndex - root.
struct ConeSlice {
  const TangleView* view;
  TxIndex root;
  const std::vector<std::uint32_t>* offsets;  // window CSR of approvers
  const std::vector<TxIndex>* edges;
  std::uint64_t* bits;
  std::size_t words;  // full row stride
  std::size_t word_begin;
  std::size_t word_end;
  std::vector<std::uint32_t>* past_partial;
  std::vector<std::uint32_t>* future_partial;

  void set_bit(std::uint64_t* row, std::size_t bit) const {
    const std::size_t word = bit / 64;
    if (word >= word_begin && word < word_end) {
      row[word] |= (1ULL << (bit % 64));
    }
  }

  void or_row(std::uint64_t* dst, const std::uint64_t* src) const {
    for (std::size_t w = word_begin; w < word_end; ++w) dst[w] |= src[w];
  }

  std::uint32_t popcount_row(const std::uint64_t* row) const {
    std::uint32_t count = 0;
    for (std::size_t w = word_begin; w < word_end; ++w) {
      count += static_cast<std::uint32_t>(std::popcount(row[w]));
    }
    return count;
  }

  void zero_rows(std::size_t begin, std::size_t n) const {
    for (std::size_t i = begin; i < n; ++i) {
      std::uint64_t* row = bits + i * words;
      std::fill(row + word_begin, row + word_end, 0);
    }
  }

  void run() const {
    const std::size_t n = view->size();
    const Tangle& tangle = view->tangle();
    // Past pass: parents precede children, so one ascending pass closes
    // the transitive past relation (masked views are ancestor-closed). It
    // runs below the root too: a window rating counts frozen ancestors.
    for (TxIndex i = 1; i < n; ++i) {
      if (!view->contains(i)) continue;
      std::uint64_t* row = bits + i * words;
      for (const TxIndex p : tangle.parent_indices(i)) {
        assert(p < i);
        set_bit(row, p);
        or_row(row, bits + p * words);
      }
      if (i >= root) (*past_partial)[i - root] = popcount_row(row);
    }
    // Future pass over the same buffer: zero this slice of the window
    // rows, then one descending pass over the window's approver CSR.
    // Approvers always have higher indices, so it never leaves the window.
    zero_rows(root, n);
    for (TxIndex ii = n; ii > root; --ii) {
      const TxIndex i = ii - 1;
      if (!view->contains(i)) continue;
      std::uint64_t* row = bits + i * words;
      const std::uint32_t begin = (*offsets)[i - root];
      const std::uint32_t end = (*offsets)[i - root + 1];
      for (std::uint32_t e = begin; e < end; ++e) {
        const TxIndex child = (*edges)[e];
        set_bit(row, child);
        or_row(row, bits + child * words);
      }
      (*future_partial)[i - root] = popcount_row(row);
    }
  }
};

}  // namespace

void ViewCacheEntry::fill_topology(const TangleView& view) {
  // CSR adjacency snapshot: approver lists are in insertion (ascending)
  // order in the Tangle, so filtering preserves the exact sequence
  // TangleView::approvers() produces.
  const Tangle& tangle = view.tangle();
  const std::size_t n = view.size();
  offsets_.reserve(n - root_ + 1);
  offsets_.push_back(0);
  for (TxIndex i = root_; i < n; ++i) {
    if (view.contains(i)) {
      for (const TxIndex a : tangle.approvers(i)) {
        if (view.contains(a)) edges_.push_back(a);
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  for (TxIndex i = root_; i < n; ++i) {
    if (view.contains(i) && offsets_[i - root_ + 1] == offsets_[i - root_]) {
      tips_.push_back(i);
    }
  }
}

std::shared_ptr<const ViewCacheEntry> ViewCacheEntry::build(
    const TangleView& view, ThreadPool* pool) {
  obs::TraceScope span("tangle.view_cache.build", &build_timing_histogram());
  cone_recompute_counter().add(2);  // one past + one future pass

  auto entry = std::shared_ptr<ViewCacheEntry>(new ViewCacheEntry());
  const std::size_t n = view.size();
  entry->count_ = n;
  entry->root_ = std::min<TxIndex>(view.tangle().prune_floor(), n);
  const std::size_t window = n - entry->root_;
  entry->past_.assign(window, 0);
  entry->future_.assign(window, 0);
  entry->fill_topology(view);
  if (n <= 1) return entry;

  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words, 0);

  std::size_t slices = 1;
  if (pool != nullptr && pool->thread_count() > 1 && n >= kParallelMinCount) {
    slices = std::min(words, pool->thread_count());
  }

  if (slices == 1) {
    ConeSlice slice{&view,         entry->root_,  &entry->offsets_,
                    &entry->edges_, bits.data(),  words,
                    0,             words,         &entry->past_,
                    &entry->future_};
    slice.run();
  } else {
    // Each slice owns a word range of every row plus its own partial
    // popcount vectors; the reduction below is a plain integer sum, so the
    // result is bit-identical to the serial fill for any slice count.
    std::vector<std::vector<std::uint32_t>> past_partials(
        slices, std::vector<std::uint32_t>(window, 0));
    std::vector<std::vector<std::uint32_t>> future_partials(
        slices, std::vector<std::uint32_t>(window, 0));
    pool->parallel_for(slices, [&](std::size_t s) {
      const std::size_t begin = words * s / slices;
      const std::size_t end = words * (s + 1) / slices;
      ConeSlice slice{&view,          entry->root_,     &entry->offsets_,
                      &entry->edges_, bits.data(),      words,
                      begin,          end,              &past_partials[s],
                      &future_partials[s]};
      slice.run();
    });
    for (std::size_t s = 0; s < slices; ++s) {
      for (std::size_t i = 0; i < window; ++i) {
        entry->past_[i] += past_partials[s][i];
        entry->future_[i] += future_partials[s][i];
      }
    }
  }
  return entry;
}

std::shared_ptr<const ViewCacheEntry> ViewCacheEntry::build_incremental(
    const TangleView& view, IncrementalConeState& state) {
  obs::TraceScope span("tangle.cones.incremental.build",
                       &incremental_build_timing_histogram());
  incremental_build_counter().increment();

  const std::size_t n = view.size();
  state.advance_to(view.tangle(), n);
  auto entry = std::shared_ptr<ViewCacheEntry>(new ViewCacheEntry());
  entry->count_ = n;
  entry->root_ = std::min<TxIndex>(view.tangle().prune_floor(), n);
  // Only the window: the state's values below the floor are frozen (and
  // its future counts there stale), and no reader of an entry goes there.
  const std::size_t root = entry->root_;
  const auto past = state.past_cone_sizes().subspan(root, n - root);
  const auto future = state.future_cone_sizes().subspan(root, n - root);
  entry->past_.assign(past.begin(), past.end());
  entry->future_.assign(future.begin(), future.end());
  entry->fill_topology(view);
  return entry;
}

std::shared_ptr<const ViewCacheEntry> ViewCache::get(const TangleView& view,
                                                     ThreadPool* pool) {
  const std::vector<std::uint64_t> mask_words = pack_membership(view);
  const std::uint64_t mask_hash =
      mask_words.empty() ? 0 : hash_words(mask_words);

  // Displaced state (an evicted slot, or everything dropped on rebinding)
  // is parked here and destroyed after the lock releases: a displaced
  // entry can hold the last reference to O(n^2/64) bits of cone snapshot,
  // and freeing that under mutex_ would stall every concurrent get().
  std::vector<Slot> displaced;
  std::shared_ptr<const ViewCacheEntry> result;
  {
    MutexLock lock(mutex_);
    // Defensive: a cache is bound to one Tangle instance; seeing another
    // one (e.g. after a test reuses the cache) drops all entries.
    if (tangle_ != &view.tangle()) {
      tangle_ = &view.tangle();
      cone_state_.reset();
      displaced.swap(slots_);
    }
    ++tick_;
    for (Slot& slot : slots_) {
      if (slot.count == view.size() && slot.members == view.member_count() &&
          slot.mask_hash == mask_hash && slot.mask_words == mask_words) {
        slot.last_used = tick_;
        hit_counter().increment();
        return slot.entry;
      }
    }
    miss_counter().increment();
    Slot slot;
    slot.count = view.size();
    slot.members = view.member_count();
    slot.mask_hash = mask_hash;
    slot.mask_words = mask_words;
    // Built under the lock on purpose: a second thread asking for the same
    // view blocks here and then *hits*, keeping the hit/miss counter
    // sequence deterministic (build-outside-lock would double-miss).
    //
    // The delta path serves prefix(-equivalent) views the incremental
    // state can reach monotonically. Masked views and shrinking requests
    // (e.g. the async engine's lagging wake horizons right after a
    // full-ledger eval) fall back to the full BitMatrix build — the state
    // only ever moves forward, so a later growing request resumes the
    // delta path where it left off.
    if (mask_words.empty() && cone_state_.processed() <= view.size()) {
      slot.entry = ViewCacheEntry::build_incremental(view, cone_state_);
    } else {
      slot.entry = ViewCacheEntry::build(view, pool);
    }
    slot.last_used = tick_;
    if (capacity_ > 0 && slots_.size() >= capacity_) {
      const auto oldest = std::min_element(
          slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
            return a.last_used < b.last_used;
          });
      eviction_counter().increment();
      displaced.push_back(std::move(*oldest));
      *oldest = std::move(slot);
      result = oldest->entry;
    } else {
      slots_.push_back(std::move(slot));
      result = slots_.back().entry;
    }
  }
  return result;
}

void ViewCache::clear() {
  // Swap out under the lock, destroy outside it (see get()).
  std::vector<Slot> dropped;
  {
    MutexLock lock(mutex_);
    dropped.swap(slots_);
  }
}

std::size_t ViewCache::size() const {
  MutexLock lock(mutex_);
  return slots_.size();
}

}  // namespace tanglefl::tangle
