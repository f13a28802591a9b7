#pragma once
// The parameter server of Algorithm 1: collects the round's gradients,
// runs the configured gradient aggregation rule, and applies the global
// update with momentum SGD (momentum is applied server-side; see
// DESIGN.md substitution #3 for why this is equivalent in the paper's
// one-local-iteration full-participation setting).

#include <memory>
#include <span>
#include <vector>

#include "aggregators/aggregator.h"
#include "nn/optimizer.h"

namespace signguard::fl {

class Server {
 public:
  Server(std::unique_ptr<agg::Aggregator> gar, std::vector<float> init_params,
         double lr, double momentum);

  // One synchronous round: aggregate + parameter update. Returns the
  // aggregated (pre-momentum) global gradient.
  const std::vector<float>& step(const common::GradientMatrix& grads,
                                 const agg::GarContext& ctx);

  // Applies an aggregate the caller computed through a non-matrix GAR
  // entry point (the trainer's compressed-domain SignGuard path calls
  // aggregate_wire itself): identical optimizer update to step(), with
  // the provided aggregate.
  const std::vector<float>& apply_aggregate(std::vector<float> aggregate);

  std::span<const float> parameters() const { return params_; }
  agg::Aggregator& gar() { return *gar_; }
  void set_lr(double lr) { optimizer_.set_lr(lr); }

  // The aggregate applied by the most recent step()/apply_aggregate()
  // (empty before the first update) — the quorum fallback's
  // previous-aggregate replay and the checkpoint both need it.
  const std::vector<float>& last_aggregate() const { return last_aggregate_; }
  const nn::SgdMomentum& optimizer() const { return optimizer_; }

  // Checkpoint restore: overwrite the full mutable server state (model
  // parameters, momentum velocity, previous aggregate) in one shot.
  // Throws std::invalid_argument on a parameter-size mismatch, or when
  // the velocity or the previous aggregate is neither empty nor
  // parameter-sized.
  void restore(std::vector<float> params, std::vector<float> velocity,
               std::vector<float> last_aggregate);

 private:
  std::unique_ptr<agg::Aggregator> gar_;
  std::vector<float> params_;
  nn::SgdMomentum optimizer_;
  std::vector<float> last_aggregate_;
};

}  // namespace signguard::fl
