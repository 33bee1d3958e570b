// Ver facade: construction and presentation sessions. The pipeline driver
// is Ver::Execute in src/api/execute.cc.

#include "core/ver.h"

namespace ver {

Ver::Ver(const TableRepository* repo, VerConfig config)
    : repo_(repo), config_(std::move(config)) {
  engine_ = DiscoveryEngine::Build(*repo_, config_.discovery);
}

Ver::Ver(const TableRepository* repo, VerConfig config,
         std::unique_ptr<DiscoveryEngine> engine)
    : repo_(repo), config_(std::move(config)), engine_(std::move(engine)) {
  // The engine dictates the discovery knobs: a snapshot built with one
  // sketch seed must not be queried as if built with another.
  config_.discovery = engine_->options();
}

std::unique_ptr<PresentationSession> Ver::StartSession(
    const QueryResult& result, const ExampleQuery& query) const {
  // The session borrows the result's views/distillation and the caller's
  // query; all must outlive the session.
  return std::make_unique<PresentationSession>(
      &result.views, &result.distillation, &query, config_.presentation);
}

}  // namespace ver
