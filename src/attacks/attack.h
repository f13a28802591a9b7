#pragma once
// Model-poisoning attack interface (paper §IV-A threat model): an attacker
// controls the m Byzantine clients, sees every benign gradient and the
// global model, and may send arbitrary colluding gradient messages.
//
// Protocol per round (driven by fl::Trainer):
//   1. begin_round(round, rng)      — attack picks per-round state
//   2. flips_labels()               — data-poisoning attacks make Byzantine
//                                     clients train on flipped labels
//   3. craft(ctx)                   — returns the m malicious gradients
//
// ctx.byz_honest_grads holds what the Byzantine clients would send if they
// behaved (computed on flipped labels when flips_labels() is true); attacks
// like sign-flip and noise perturb these, while omniscient attacks (LIE,
// ByzMean, Min-Max/Min-Sum) work from ctx.benign_grads.
//
// Gradients arrive as borrowed row views (GradientView), which in the
// trainer alias rows of the round's flat GradientMatrix — the attacker
// observes the real buffers, no per-round copies. Other callers build
// the views with GradientMatrix::row_views().

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"

namespace signguard::attacks {

// A borrowed, read-only client gradient (usually a GradientMatrix row).
using GradientView = std::span<const float>;

// Per-round feedback the trainer hands back to the attack after
// aggregation — the adaptive adversary's observation channel. The threat
// model behind each field: colluding clients see the broadcast global
// update (`aggregate`), know which of their own updates made the trusted
// set when the rule publishes one (selection is observable through the
// update's effect), and share round metadata. Nothing here exposes
// honest clients' private data beyond what §IV-A already grants the
// omniscient attacker.
//
// `aggregate` borrows the trainer's round buffer and is only valid for
// the duration of the observe_round() call.
struct RoundFeedback {
  std::size_t round = 0;
  std::size_t participants = 0;        // updates that reached the GAR
  std::size_t byzantine = 0;           // Byzantine updates among them
  // Trusted-set feedback, meaningful only when has_selection: the rule
  // reported a selection this round (Krum/Bulyan/DnC/SignGuard on a
  // normally-aggregated round). Coordinate-wise rules leave it false.
  bool has_selection = false;
  std::size_t selected = 0;            // trusted-set size
  std::size_t selected_byzantine = 0;  // Byzantine updates admitted
  std::size_t decode_rejects = 0;      // uplinks the wire refused
  bool skipped = false;                // no aggregate applied this round
  // The round left the normal path (any RoundOutcome other than
  // kProceed): a quorum fallback, a quorum skip, or a no-honest skip.
  // The chaos-colluding scheduler keys its bursts off this.
  bool degraded = false;
  std::span<const float> aggregate;    // post-GAR, pre-momentum; may be empty
};

struct AttackContext {
  std::span<const GradientView> benign_grads;
  std::span<const GradientView> byz_honest_grads;
  std::size_t n_total = 0;      // n  (benign + Byzantine)
  std::size_t n_byzantine = 0;  // m == byz_honest_grads.size()
  std::size_t round = 0;
  Rng* rng = nullptr;
};

class Attack {
 public:
  virtual ~Attack() = default;

  virtual void begin_round(std::size_t /*round*/, Rng& /*rng*/) {}
  virtual bool flips_labels() const { return false; }
  virtual std::vector<std::vector<float>> craft(const AttackContext& ctx) = 0;
  virtual std::string name() const = 0;

  // Called by the trainer after every round — including skipped and
  // degraded ones — with what the colluding clients could observe.
  // Static attacks ignore it; adaptive attacks (attacks/adaptive.h) close
  // their feedback loop here. Any state mutated here must be covered by
  // serialize_state so kill+resume replays identically.
  virtual void observe_round(const RoundFeedback& /*fb*/) {}

  // Cross-round state snapshot/restore for crash-consistent checkpoints
  // (fl/checkpoint.h). Every in-tree attack except TimeVaryingAttack is
  // memoryless given (round, rng) — all per-round randomness flows
  // through the trainer's attack_rng, whose cursor the checkpoint already
  // carries — so the empty default is correct for them. An attack that
  // keeps its own cross-round state (TimeVarying's epoch selector) must
  // override both.
  virtual void serialize_state(common::ByteWriter& /*w*/) const {}
  virtual void restore_state(common::ByteReader& /*r*/) {}
};

// Byzantine clients behave honestly (the paper's "No Attack" column).
class NoAttack : public Attack {
 public:
  std::vector<std::vector<float>> craft(const AttackContext& ctx) override;
  std::string name() const override { return "NoAttack"; }
};

}  // namespace signguard::attacks
