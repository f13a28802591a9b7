#pragma once
// "A Little Is Enough" attack (Baruch et al., NeurIPS'19), paper Eq. (1):
//   (g_m)_j = mu_j - z * sigma_j
// where mu/sigma are the coordinate-wise mean and standard deviation of the
// benign gradients. The attack factor z is either fixed (the paper uses
// z = 0.3 in its default setting) or derived from the client counts via the
// cumulative-normal rule of Eq. (2).

#include "attacks/attack.h"

namespace signguard::attacks {

class LieAttack : public Attack {
 public:
  // z > 0: fixed attack factor. z <= 0: use z_max(n, m) from Eq. (2).
  explicit LieAttack(double z = 0.3) : z_(z) {}

  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  std::string name() const override { return "LIE"; }

  // The malicious vector itself (all m Byzantine clients send a copy).
  // Exposed so ByzMean can embed a LIE vector and Fig. 2 can analyze it.
  static std::vector<float> craft_vector(
      std::span<const GradientView> benign_grads, double z);

  // Eq. (2): largest z with Phi(z) < (n - floor(n/2 + 1)) / (n - m).
  static double z_max(std::size_t n, std::size_t m);

  double z() const { return z_; }

 private:
  double z_;
};

// Standard normal CDF, shared with tests.
double standard_normal_cdf(double z);

}  // namespace signguard::attacks
