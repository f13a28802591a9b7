#pragma once
// Hierarchical (sharded) aggregation: partition the round's n gradients
// into S shards, run one instance of the configured rule per shard on its
// slice alone, and robustly merge the S shard aggregates at the root.
// The expensive O(n^2 d) rules then only ever see n/S rows — Multi-Krum
// at n = 65536 is a 256x smaller pairwise block per shard — at the cost
// of a bounded robustness change (Zhu et al., PAPERS.md: bucketed robust
// aggregation preserves the guarantees when each shard's Byzantine
// fraction stays below 1/2, which the proportional per-shard budget
// below targets).
//
// Determinism contract (matches the sweep engine's lane discipline):
// shard assignment is one Fisher-Yates shuffle drawn from the caller's
// GarContext rng — the scenario stream — followed by balanced contiguous
// slices with ids sorted ascending inside each shard; shards are
// processed in canonical order 0..S-1 (the inner kernels fan out over
// the pool, the tree level does not), and every per-shard random rule
// draws from its own Rng::stream child. The aggregate is therefore
// bitwise identical for any SIGNGUARD_THREADS and independent of shard
// scheduling; the shard *count* is a declared scenario axis, like the
// codec.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "aggregators/baselines.h"
#include "common/shard_stats.h"

namespace signguard::agg {

// Root merge rule over the shard aggregates.
enum class ShardMerge {
  kWeightedMean,   // survivor-count-weighted mean of shard aggregates
  kMedianOfMeans,  // coordinate-wise median of shard aggregates
};

const char* to_string(ShardMerge m);
// "wmean" / "momed"; throws std::invalid_argument on anything else.
ShardMerge shard_merge_from_name(const std::string& name);

struct ShardedConfig {
  std::size_t shards = 1;  // <= 1 (or >= n falling back to n) shards
  ShardMerge merge = ShardMerge::kWeightedMean;
  // When set, every aggregate() call also folds the round's mergeable
  // statistics (sign counts, squared-norm sums) into last_partial() —
  // one extra O(n d) pass, off by default.
  bool collect_stats = false;
};

class ShardedAggregator : public Aggregator {
 public:
  // Builds one inner rule per shard on demand; shard s gets the seed
  // splitmix64(seed ^ s) so randomized rules stay decorrelated. The
  // instances persist across rounds (stateful rules like SignGuard keep
  // per-shard history).
  using InnerFactory =
      std::function<std::unique_ptr<Aggregator>(std::uint64_t seed)>;

  ShardedAggregator(InnerFactory factory, std::uint64_t seed,
                    ShardedConfig cfg);

  // Throws std::invalid_argument when grads is empty, or when S > 1 and
  // ctx.rng is null (the shard assignment has nowhere to draw from).
  // Each shard's context scales the Byzantine budget proportionally:
  // m_s = min(round(m * |shard| / n), (|shard| - 1) / 2).
  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;

  std::string name() const override;

  // Union of the shards' trusted sets mapped back to global client
  // indices, sorted ascending. Empty when the inner rule reports no
  // selection (coordinate-wise rules).
  std::vector<std::size_t> last_selected() const override {
    return selected_;
  }
  // The tree reports a selection exactly when its inner rule does.
  bool reports_selection() const override {
    return rules_.front()->reports_selection();
  }

  // Checkpoints: the tree's own state is the per-shard inner instances
  // (stateful rules keep per-shard history); each built instance's blob
  // is serialized in shard order. On restore the same instances are
  // rebuilt deterministically from the factory and refilled.
  void serialize_state(common::ByteWriter& w) const override;
  void restore_state(common::ByteReader& r) override;

  // Per-shard accounting for RoundObservation: shard count, sizes and
  // survivor counts in canonical shard order. A shard whose rule reports
  // no selection counts every member as a survivor.
  std::size_t last_shards() const { return shard_sizes_.size(); }
  const std::vector<std::size_t>& last_shard_sizes() const {
    return shard_sizes_;
  }
  const std::vector<std::size_t>& last_shard_survivors() const {
    return shard_survivors_;
  }
  // Merged round statistics; only populated when cfg.collect_stats.
  const common::ShardPartial& last_partial() const { return partial_; }

 private:
  Aggregator& shard_rule(std::size_t s);

  InnerFactory factory_;
  std::uint64_t seed_;
  ShardedConfig cfg_;
  std::vector<std::unique_ptr<Aggregator>> rules_;
  MedianAggregator median_;  // kMedianOfMeans root rule

  std::vector<std::size_t> selected_;
  std::vector<std::size_t> shard_sizes_;
  std::vector<std::size_t> shard_survivors_;
  common::ShardPartial partial_;
  common::GradientMatrix shard_mat_;   // gathered shard rows (reused)
  common::GradientMatrix shard_aggs_;  // S x d shard outputs (reused)
};

}  // namespace signguard::agg
