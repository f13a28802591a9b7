#pragma once
// SignGuard (paper Algorithm 2): collaborative malicious gradient
// filtering. Each round the received gradients pass through
//   (1) norm-based thresholding  -> S1
//   (2) sign-based clustering    -> S2
// and the trusted set S' = S1 ∩ S2 is aggregated by a norm-clipped mean
// with the median gradient norm as clipping bound.
//
// Variants (paper §IV-B): the plain SignGuard clusters on sign statistics
// only; SignGuard-Sim appends a cosine-similarity feature; SignGuard-Dist
// appends a Euclidean-distance feature. The similarity reference is the
// previous round's aggregate.
//
// Unlike the baselines, SignGuard never reads ctx.assumed_byzantine — it
// does not need to know the Byzantine fraction.

// Compressed-domain entry point: when the uplinks arrive through a
// comm codec, aggregate_wire() runs the same two filters on statistics
// computed straight from the wire bytes (comm/stats.h) and decodes ONLY
// the trusted set — bitwise-identical admission decisions and aggregate
// to the decode-everything path, at a fraction of the bytes touched.

#include <cstdint>
#include <memory>

#include "aggregators/aggregator.h"
#include "comm/stats.h"
#include "core/filters.h"

namespace signguard::core {

struct SignGuardConfig {
  NormFilterConfig norm;
  SignClusterConfig cluster;
  // Ablation toggles (Table III): each component can be disabled.
  bool enable_norm_filter = true;
  bool enable_sign_cluster = true;
  bool enable_norm_clipping = true;
  std::uint64_t seed = 2022;  // drives coordinate sampling / k-means init
};

class SignGuard : public agg::Aggregator {
 public:
  explicit SignGuard(SignGuardConfig cfg = {});

  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const agg::GarContext& ctx) override;

  // The SIGNGUARD_WIREPATH=wire backend: same pipeline, but the norm and
  // sign statistics come from the validated wire buffers and only the
  // post-filter trusted set is decoded (into an internal compacted
  // matrix) for the weighted-mean step. Contract: bitwise-identical
  // selected set and aggregate to aggregate() on the decoded matrix —
  // including the Rng stream, so the two backends stay exchangeable
  // round over round. Preconditions: every buffer was accepted by
  // comm::validate (rejects are the caller's job, exactly as they are
  // for the decoded matrix), uplinks non-empty, supports_wire_path().
  std::vector<float> aggregate_wire(const comm::WireRound& wire,
                                    const agg::GarContext& ctx);

  // The wire path reproduces the plain variant's statistics exactly; the
  // Sim/Dist variants need decoded rows for their similarity feature, so
  // they stay on the decode backend.
  bool supports_wire_path() const {
    return cfg_.cluster.similarity == SimilarityFeature::kNone;
  }

  // Dense bytes materialized by the last aggregate_wire call (trusted
  // set × 4 bytes × d) — the wire path's share of the round's decode
  // traffic; the trainer folds it into RoundObservation.
  std::uint64_t last_decoded_bytes() const { return last_decoded_bytes_; }

  std::string name() const override;
  std::vector<std::size_t> last_selected() const override {
    return selected_;
  }
  bool reports_selection() const override { return true; }

  // Cross-round state: the internal Rng (coordinate sampling / k-means
  // init cursor) and the previous-aggregate similarity reference.
  void serialize_state(common::ByteWriter& w) const override;
  void restore_state(common::ByteReader& r) override;

  // Diagnostics from the last aggregate() call.
  const NormFilterResult& last_norm_filter() const { return last_norm_; }
  const SignClusterResult& last_sign_cluster() const { return last_cluster_; }
  const std::vector<float>& previous_aggregate() const {
    return prev_aggregate_;
  }

  // Drops cross-round state (the previous-aggregate reference).
  void reset();

 private:
  SignGuardConfig cfg_;
  Rng rng_;
  std::vector<float> prev_aggregate_;
  std::vector<std::size_t> selected_;
  NormFilterResult last_norm_;
  SignClusterResult last_cluster_;
  // aggregate_wire scratch: the compacted survivor matrix and its
  // per-survivor norms (gathered from the stats pass), reused across
  // rounds so the wire path allocates only on growth.
  common::GradientMatrix wire_survivors_;
  std::vector<double> survivor_norms_;
  std::vector<std::size_t> survivor_ids_;
  std::uint64_t last_decoded_bytes_ = 0;
};

// Config presets matching the paper's three variants.
SignGuardConfig plain_config(std::uint64_t seed = 2022);
SignGuardConfig sim_config(std::uint64_t seed = 2022);
SignGuardConfig dist_config(std::uint64_t seed = 2022);

}  // namespace signguard::core
