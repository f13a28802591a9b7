#include "aggregators/aggregator.h"

#include <stdexcept>

#include "aggregators/internal.h"

namespace signguard::agg {

// Shared precondition checks for the GAR implementations. Degenerate
// shapes are caller errors that must surface as typed exceptions in
// every build mode — an n = 0 round reaching a rule would otherwise hit
// (n - 1) / 2 underflow and out-of-bounds row reads.
void check_grads(const common::GradientMatrix& grads) {
  if (grads.empty())
    throw std::invalid_argument("aggregate: empty gradient set");
}

}  // namespace signguard::agg
