#include "serve/model_pool.hpp"

#include <future>
#include <map>
#include <mutex>

#include "models/zoo.hpp"
#include "obs/span.hpp"

namespace proof::serve {

struct ModelPool::Impl {
  std::mutex mu;
  std::map<std::string, std::shared_future<std::shared_ptr<const PooledModel>>>
      graphs;
};

ModelPool::ModelPool() : impl_(std::make_unique<Impl>()) {}
ModelPool::~ModelPool() = default;

std::shared_ptr<const Graph> ModelPool::get(const std::string& model_id) {
  return entry(model_id)->graph;
}

std::shared_ptr<const PooledModel> ModelPool::entry(
    const std::string& model_id) {
  Impl& state = *impl_;
  std::promise<std::shared_ptr<const PooledModel>> promise;
  std::shared_future<std::shared_ptr<const PooledModel>> ready;
  bool is_builder = false;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    const auto it = state.graphs.find(model_id);
    if (it != state.graphs.end()) {
      ready = it->second;
    } else {
      ready = state.graphs.emplace(model_id, promise.get_future().share())
                  .first->second;
      is_builder = true;
    }
  }
  if (!is_builder) {
    PROOF_COUNT("serve.model_pool.hits", 1);
    return ready.get();  // rethrows the builder's failure to waiters
  }

  PROOF_COUNT("serve.model_pool.misses", 1);
  try {
    PROOF_SPAN("serve.model_pool.load");
    auto graph = std::make_shared<Graph>(models::build_model(model_id));
    // Materialize every lazy index before the graph becomes shared: all
    // subsequent concurrent lookups are pure const reads.
    graph->warm_indices();
    auto model = std::make_shared<PooledModel>();
    model->keys = compute_graph_keys(*graph);
    model->graph = std::move(graph);
    std::shared_ptr<const PooledModel> published = std::move(model);
    promise.set_value(published);
    return published;
  } catch (...) {
    // Drop the key so a later request retries instead of replaying the error
    // forever (e.g. a transient unknown-id typo must not poison the slot).
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(state.mu);
    state.graphs.erase(model_id);
    throw;
  }
}

size_t ModelPool::preload(const std::vector<std::string>& model_ids) {
  size_t loaded = 0;
  for (const std::string& id : model_ids) {
    if (id == "all") {
      for (const models::ModelSpec& spec : models::model_zoo()) {
        (void)get(spec.id);
        ++loaded;
      }
      continue;
    }
    (void)get(id);
    ++loaded;
  }
  return loaded;
}

size_t ModelPool::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->graphs.size();
}

}  // namespace proof::serve
