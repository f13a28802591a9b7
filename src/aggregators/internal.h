#pragma once
// Internal helpers shared between the GAR implementations.

#include "common/gradient_matrix.h"

namespace signguard::agg {

void check_grads(const common::GradientMatrix& grads);

}  // namespace signguard::agg
