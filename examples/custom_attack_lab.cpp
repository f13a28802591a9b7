// Example: extending the library with a CUSTOM attack and a CUSTOM
// aggregation rule, then pitting them against the built-ins.
//
//   ./custom_attack_lab
//
// The attack ("AdaptiveScale") tries to stay inside SignGuard's norm band
// while flipping direction — the adaptive-adversary setting the paper
// flags as future work. The defense ("MedianOfMeans") groups clients into
// buckets and takes the coordinate median of bucket means. Both plug into
// the same interfaces the built-ins use: attacks::Attack and
// agg::Aggregator.

#include <algorithm>
#include <cstdio>

#include "aggregators/aggregator.h"
#include "aggregators/baselines.h"
#include "common/quantiles.h"
#include "common/vecops.h"
#include "core/signguard.h"
#include "fl/experiment.h"
#include "fl/trainer.h"

namespace {

using namespace signguard;

// Sends -r * mean(benign) with r chosen to exactly match the median
// benign norm, so the norm filter cannot reject it.
class AdaptiveScaleAttack final : public attacks::Attack {
 public:
  std::vector<std::vector<float>> craft(
      const attacks::AttackContext& ctx) override {
    std::vector<double> norms;
    norms.reserve(ctx.benign_grads.size());
    for (const auto& g : ctx.benign_grads) norms.push_back(vec::norm(g));
    const double target = stats::median(norms);
    auto gm = vec::mean_of(ctx.benign_grads);
    const double n = vec::norm(gm);
    vec::scale(gm, n > 0.0 ? -target / n : -1.0);
    return std::vector<std::vector<float>>(ctx.n_byzantine, gm);
  }
  std::string name() const override { return "AdaptiveScale"; }
};

// Median-of-means: shuffle-free bucketing of clients, coordinate median
// across bucket means. A classic robust estimator, here as a user-defined
// GAR implementing the flat GradientMatrix entry point.
class MedianOfMeansAggregator final : public agg::Aggregator {
 public:
  explicit MedianOfMeansAggregator(std::size_t buckets) : buckets_(buckets) {}

  std::vector<float> aggregate(const common::GradientMatrix& grads,
                               const agg::GarContext&) override {
    const std::size_t n = grads.rows();
    const std::size_t b = std::min(buckets_, n);
    const std::size_t d = grads.cols();
    common::GradientMatrix bucket_means(b, d);
    for (std::size_t k = 0; k < b; ++k) {
      const auto acc = bucket_means.row(k);
      std::size_t count = 0;
      for (std::size_t i = k; i < n; i += b) {
        vec::axpy(1.0, grads.row(i), acc);
        ++count;
      }
      vec::scale(acc, 1.0 / double(count));
    }
    std::vector<float> out(d);
    std::vector<double> column(b);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t k = 0; k < b; ++k) column[k] = bucket_means.at(k, j);
      out[j] = static_cast<float>(stats::median(column));
    }
    return out;
  }
  std::string name() const override { return "MedianOfMeans"; }

 private:
  std::size_t buckets_;
};

}  // namespace

int main() {
  fl::Workload w = fl::make_workload(fl::WorkloadKind::kMnistLike,
                                     fl::ModelProfile::kGrid,
                                     fl::scale_from_env());
  std::printf("custom attack (AdaptiveScale) vs three defenses\n\n");

  fl::Trainer trainer(w.data, w.model_factory, w.config);

  {
    AdaptiveScaleAttack attack;
    const auto res = trainer.run(attack, std::make_unique<agg::MeanAggregator>());
    std::printf("  Mean            : best %5.2f%%\n", res.best_accuracy);
  }
  {
    AdaptiveScaleAttack attack;
    const auto res =
        trainer.run(attack, std::make_unique<MedianOfMeansAggregator>(10));
    std::printf("  MedianOfMeans   : best %5.2f%%\n", res.best_accuracy);
  }
  {
    AdaptiveScaleAttack attack;
    const auto res = trainer.run(
        attack, std::make_unique<core::SignGuard>(core::plain_config()));
    std::printf("  SignGuard       : best %5.2f%%  (honest kept %.2f, "
                "malicious kept %.2f)\n",
                res.best_accuracy, res.selection.honest_rate,
                res.selection.malicious_rate);
  }
  std::printf(
      "\nAdaptiveScale defeats the norm filter by construction; SignGuard "
      "still rejects it through the sign-statistics cluster.\n");
  return 0;
}
