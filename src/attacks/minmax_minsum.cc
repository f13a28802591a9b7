#include "attacks/minmax_minsum.h"

#include <algorithm>
#include <stdexcept>

#include "common/vecops.h"

namespace signguard::attacks {

std::vector<float> make_perturbation(std::span<const GradientView> benign,
                                     Perturbation p) {
  if (benign.empty())
    throw std::invalid_argument(
        "make_perturbation: benign set is empty — the perturbation "
        "direction is undefined");
  switch (p) {
    case Perturbation::kInverseStd: {
      const auto moments = vec::coordinate_moments(benign);
      return vec::scaled(moments.stddev, -1.0);
    }
    case Perturbation::kInverseUnit: {
      auto avg = vec::mean_of(benign);
      const double n = vec::norm(avg);
      vec::scale(avg, n > 0.0 ? -1.0 / n : -1.0);
      return avg;
    }
    case Perturbation::kInverseSign: {
      const auto avg = vec::mean_of(benign);
      return vec::scaled(vec::sign(avg), -1.0);
    }
  }
  return {};
}

double max_feasible_gamma(const std::function<bool(double)>& feasible,
                          double gamma_cap) {
  if (feasible(gamma_cap)) return gamma_cap;
  double lo = 0.0, hi = gamma_cap;
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

namespace {

std::vector<std::vector<float>> craft_perturbed(
    const AttackContext& ctx, Perturbation perturbation, bool min_max,
    double& gamma_out) {
  if (ctx.n_byzantine == 0) return {};
  // All-byzantine / empty-honest round: Eqs. (14)/(15) constrain the
  // crafted gradient against the benign clique, which does not exist.
  if (ctx.benign_grads.empty())
    throw std::invalid_argument(
        "MinMax/MinSum: craft with no benign gradients — the feasibility "
        "constraint is undefined");
  const auto avg = vec::mean_of(ctx.benign_grads);
  const auto dp = make_perturbation(ctx.benign_grads, perturbation);
  const std::size_t nb = ctx.benign_grads.size();

  // Benign-to-benign distance bounds (right-hand sides of Eqs. 14/15),
  // from one backend-dispatched pairwise block (Gram GEMM by default)
  // over the gathered benign rows.
  const auto benign = common::GradientMatrix::from_views(ctx.benign_grads);
  const auto d2 = vec::pairwise_dist2(benign);
  double max_pair_d2 = 0.0;
  double max_sum_d2 = 0.0;
  for (std::size_t i = 0; i < nb; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < nb; ++j) {
      max_pair_d2 = std::max(max_pair_d2, d2[i * nb + j]);
      row_sum += d2[i * nb + j];
    }
    max_sum_d2 = std::max(max_sum_d2, row_sum);
  }

  // The crafted gradient is gm(gamma) = avg + gamma * dp, so
  //   dist2(gm, g_i) = ||avg||^2 + 2 gamma <avg,dp> + gamma^2 ||dp||^2
  //                    + ||g_i||^2 - 2 (<g_i,avg> + gamma <g_i,dp>).
  // Every gamma-independent term is computed once (three O(nb d) passes);
  // the bisection then evaluates each candidate in O(nb) scalar ops
  // instead of re-walking all nb gradients at O(d) per probe.
  const auto avg_dots = vec::row_dots(benign, avg);
  const auto dp_dots = vec::row_dots(benign, dp);
  const auto norms = vec::row_norms(benign);
  const double avg2 = vec::dot(avg, avg);
  const double dp2 = vec::dot(dp, dp);
  const double avg_dp = vec::dot(avg, dp);

  auto feasible = [&](double gamma) {
    const double gm2 = avg2 + 2.0 * gamma * avg_dp + gamma * gamma * dp2;
    if (min_max) {
      double worst = 0.0;
      for (std::size_t i = 0; i < nb; ++i) {
        const double di = gm2 + norms[i] * norms[i] -
                          2.0 * (avg_dots[i] + gamma * dp_dots[i]);
        worst = std::max(worst, di);
      }
      return worst <= max_pair_d2;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < nb; ++i)
      total += gm2 + norms[i] * norms[i] -
               2.0 * (avg_dots[i] + gamma * dp_dots[i]);
    return total <= max_sum_d2;
  };

  gamma_out = max_feasible_gamma(feasible);
  auto gm = avg;
  vec::axpy(gamma_out, dp, gm);
  return std::vector<std::vector<float>>(ctx.n_byzantine, gm);
}

}  // namespace

std::vector<std::vector<float>> MinMaxAttack::craft(const AttackContext& ctx) {
  return craft_perturbed(ctx, perturbation_, /*min_max=*/true, last_gamma_);
}

std::vector<std::vector<float>> MinSumAttack::craft(const AttackContext& ctx) {
  return craft_perturbed(ctx, perturbation_, /*min_max=*/false, last_gamma_);
}

}  // namespace signguard::attacks
