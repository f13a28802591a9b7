#include "fl/server.h"

#include <cassert>
#include <stdexcept>

namespace signguard::fl {

Server::Server(std::unique_ptr<agg::Aggregator> gar,
               std::vector<float> init_params, double lr, double momentum)
    : gar_(std::move(gar)),
      params_(std::move(init_params)),
      optimizer_(lr, momentum) {
  assert(gar_ != nullptr);
}

const std::vector<float>& Server::step(const common::GradientMatrix& grads,
                                       const agg::GarContext& ctx) {
  return apply_aggregate(gar_->aggregate(grads, ctx));
}

const std::vector<float>& Server::apply_aggregate(
    std::vector<float> aggregate) {
  last_aggregate_ = std::move(aggregate);
  assert(last_aggregate_.size() == params_.size());
  optimizer_.step(params_, last_aggregate_);
  return last_aggregate_;
}

void Server::restore(std::vector<float> params, std::vector<float> velocity,
                     std::vector<float> last_aggregate) {
  if (params.size() != params_.size())
    throw std::invalid_argument(
        "Server::restore: parameter count mismatch (checkpoint from a "
        "different model?)");
  // The optimizer and the quorum's previous-aggregate replay read these
  // as dim-sized; empty means "no update yet".
  for (const std::vector<float>* v : {&velocity, &last_aggregate})
    if (!v->empty() && v->size() != params_.size())
      throw std::invalid_argument(
          "Server::restore: velocity / last aggregate size mismatch");
  params_ = std::move(params);
  optimizer_.set_velocity(std::move(velocity));
  last_aggregate_ = std::move(last_aggregate);
}

}  // namespace signguard::fl
