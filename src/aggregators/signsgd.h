#pragma once
// signSGD with majority vote (Bernstein et al., ICML'18) — the sign-based
// aggregation family the paper cites as motivation (§I-II: "even if PS
// only collects the sign of gradient, the model training can still
// converge ... and keep the training process fault-tolerant"). Included as
// a library-level comparison point; the paper itself does not put it in
// Table I.
//
// Output_j = step * majority_sign({sign(g_i_j)}). The `step` magnitude
// plays the role of the signSGD learning-rate unit; with the trainer's
// global learning rate eta the effective per-coordinate step is
// eta * step.

#include "aggregators/aggregator.h"

namespace signguard::agg {

class SignSgdMajorityAggregator : public Aggregator {
 public:
  explicit SignSgdMajorityAggregator(double step = 1.0) : step_(step) {}

  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const GarContext& ctx) override;
  std::string name() const override { return "SignSGD"; }

 private:
  double step_;
};

}  // namespace signguard::agg
