#pragma once
// Gradient aggregation rule (GAR) interface — Eq. (11): the server turns
// the n received gradients into one global gradient. Robust baselines from
// the paper's comparison set live in this module; the SignGuard family
// lives in src/core and implements the same interface.
//
// The one entry point takes a flat common::GradientMatrix (one contiguous
// n x d buffer, one row per client); every rule implements it and the
// matrix kernels it uses run on the shared thread pool.
//
// Per the paper's experimental note, baseline defenses are "favored" by
// being told the true Byzantine count (ctx.assumed_byzantine); SignGuard
// deliberately ignores it.

#include <memory>
#include <string>
#include <vector>

#include "common/gradient_matrix.h"
#include "common/rng.h"
#include "common/serial.h"

namespace signguard::agg {

struct GarContext {
  std::size_t assumed_byzantine = 0;  // m given to fraction-aware baselines
  std::size_t round = 0;
  Rng* rng = nullptr;                 // for randomized rules
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  // Throws std::invalid_argument on an empty gradient set (check_grads —
  // typed in every build mode, never UB).
  virtual std::vector<float> aggregate(const common::GradientMatrix& grads,
                                       const GarContext& ctx) = 0;

  virtual std::string name() const = 0;

  // Client indices that contributed to the last aggregate, for rules that
  // perform explicit selection (Krum/Bulyan/DnC/SignGuard). Empty for
  // coordinate-wise rules where "selection" has no single meaning.
  virtual std::vector<std::size_t> last_selected() const { return {}; }

  // Whether last_selected() is meaningful for this rule. The quorum
  // degradation policy (fl/chaos.h) only applies its min-survivors check
  // to rules that actually report a trusted set — for a coordinate-wise
  // rule an empty selection means "everyone", not "nobody".
  virtual bool reports_selection() const { return false; }

  // Cross-round state snapshot/restore for crash-consistent checkpoints
  // (fl/checkpoint.h). Rules whose aggregate depends only on (inputs,
  // ctx.rng) keep the empty default; stateful rules (SignGuard's
  // previous-aggregate reference and internal Rng, sharded trees'
  // per-shard instances) serialize everything a resumed run needs to
  // reproduce the interrupted run bitwise.
  virtual void serialize_state(common::ByteWriter& /*w*/) const {}
  virtual void restore_state(common::ByteReader& /*r*/) {}
};

}  // namespace signguard::agg
