#pragma once
// Min-Max and Min-Sum attacks (Shejwalkar & Houmansadr, NDSS'21), paper
// Eqs. (13)-(15): the malicious gradient is a scaled perturbation of the
// benign average,
//   g_m = avg(benign) + gamma * grad_p,
// with gamma maximized subject to the malicious gradient remaining inside
// the benign "clique":
//   Min-Max: max_i ||g_m - g_i||   <= max_{i,j} ||g_i - g_j||
//   Min-Sum: sum_i ||g_m - g_i||^2 <= max_i sum_j ||g_i - g_j||^2
// The default perturbation is the inverse coordinate-wise standard
// deviation, grad_p = -std(benign), as in the paper's §V-B. All Byzantine
// clients send the same vector.

#include <functional>

#include "attacks/attack.h"

namespace signguard::attacks {

enum class Perturbation {
  kInverseStd,   // -std(benign)           (paper default)
  kInverseUnit,  // -avg / ||avg||         (unit vector)
  kInverseSign,  // -sign(avg)
};

class MinMaxAttack : public Attack {
 public:
  explicit MinMaxAttack(Perturbation p = Perturbation::kInverseStd)
      : perturbation_(p) {}

  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  std::string name() const override { return "MinMax"; }

  // Exposed for testing: the gamma chosen on the last craft() call.
  double last_gamma() const { return last_gamma_; }

 private:
  Perturbation perturbation_;
  double last_gamma_ = 0.0;
};

class MinSumAttack : public Attack {
 public:
  explicit MinSumAttack(Perturbation p = Perturbation::kInverseStd)
      : perturbation_(p) {}

  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  std::string name() const override { return "MinSum"; }

  double last_gamma() const { return last_gamma_; }

 private:
  Perturbation perturbation_;
  double last_gamma_ = 0.0;
};

// Shared helpers (used by both attacks and their tests).
std::vector<float> make_perturbation(std::span<const GradientView> benign,
                                     Perturbation p);

// Largest gamma in [0, gamma_cap] such that feasible(gamma) holds, found by
// bisection; assumes feasible(0) and monotone infeasibility in gamma.
double max_feasible_gamma(const std::function<bool(double)>& feasible,
                          double gamma_cap = 100.0);

}  // namespace signguard::attacks
