#include "attacks/lie.h"

#include <cmath>
#include <stdexcept>

#include "common/vecops.h"

namespace signguard::attacks {

double standard_normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double LieAttack::z_max(std::size_t n, std::size_t m) {
  // Eq. (2) divides by n - m; an all-byzantine cohort has no supremum.
  if (n <= m)
    throw std::invalid_argument(
        "LieAttack::z_max: requires n > m (some benign clients)");
  const double s =
      (double(n) - std::floor(double(n) / 2.0 + 1.0)) / double(n - m);
  // Largest z with Phi(z) < s  ==  Phi^{-1}(s), found by bisection. The
  // supremum itself satisfies Phi(z) == s; we return it (standard usage).
  if (s <= 0.0) return 0.0;
  if (s >= 1.0) return 6.0;
  double lo = -6.0, hi = 6.0;
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (standard_normal_cdf(mid) < s)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

std::vector<float> LieAttack::craft_vector(
    std::span<const GradientView> benign_grads, double z) {
  if (benign_grads.empty())
    throw std::invalid_argument(
        "LieAttack::craft_vector: benign set is empty — Eq. (1) has no "
        "mean/stddev to perturb");
  const auto moments = vec::coordinate_moments(benign_grads);
  std::vector<float> g(moments.mean.size());
  for (std::size_t j = 0; j < g.size(); ++j)
    g[j] = static_cast<float>(double(moments.mean[j]) -
                              z * double(moments.stddev[j]));
  return g;
}

std::vector<std::vector<float>> LieAttack::craft(const AttackContext& ctx) {
  if (ctx.n_byzantine == 0) return {};
  const double z =
      z_ > 0.0 ? z_ : z_max(ctx.n_total, ctx.n_byzantine);
  const auto gm = craft_vector(ctx.benign_grads, z);
  return std::vector<std::vector<float>>(ctx.n_byzantine, gm);
}

}  // namespace signguard::attacks
