#include "attacks/attack.h"

namespace signguard::attacks {

std::vector<std::vector<float>> NoAttack::craft(const AttackContext& ctx) {
  std::vector<std::vector<float>> out;
  out.reserve(ctx.byz_honest_grads.size());
  for (const GradientView g : ctx.byz_honest_grads)
    out.emplace_back(g.begin(), g.end());
  return out;
}

}  // namespace signguard::attacks
