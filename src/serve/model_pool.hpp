// Process-wide interned-graph pool for the serve daemon.
//
// Every request naming a zoo model shares one immutable Graph instance:
// built once on first use (concurrent first users wait on the winner, the
// PrepCache in-flight pattern), then `warm_indices()` is called eagerly so
// the interned string table, CSR adjacency and cached topo order exist
// before the graph is ever read from two threads at once — all later access
// is pure const reads.  The graph's PrepCache keys (compute_graph_keys) are
// hashed at the same time and stored next to it: the graph is immutable, so
// its keys never change, and requests hand them to Profiler::run instead of
// re-walking the graph.  Combined with the shared PrepCache this is what
// turns a daemon request into "look up the keys, hit the cache, simulate":
// the zoo build, index construction and fingerprinting cost is paid once per
// process, not per request.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/prep_cache.hpp"
#include "graph/graph.hpp"

namespace proof::serve {

/// One pooled model: the shared, warmed graph and its cache keys.
struct PooledModel {
  std::shared_ptr<const Graph> graph;
  GraphKeys keys;  ///< compute_graph_keys(*graph), hashed once at load
};

class ModelPool {
 public:
  ModelPool();
  ModelPool(const ModelPool&) = delete;
  ModelPool& operator=(const ModelPool&) = delete;
  ~ModelPool();

  /// The shared graph for a zoo model id; builds + warms it exactly once per
  /// pool even under concurrent callers.  Throws ConfigError for unknown ids
  /// (same contract as models::build_model).
  [[nodiscard]] std::shared_ptr<const Graph> get(const std::string& model_id);

  /// get() plus the graph's precomputed cache keys; same build-once
  /// contract.  Pass `keys` to Profiler::run alongside `*graph`.
  [[nodiscard]] std::shared_ptr<const PooledModel> entry(
      const std::string& model_id);

  /// Eagerly builds a set of models (server startup warm-up).  Ids equal to
  /// "all" expand to the full Table-3 zoo.  Returns the number of graphs
  /// loaded.
  size_t preload(const std::vector<std::string>& model_ids);

  /// Graphs resident right now.
  [[nodiscard]] size_t size() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace proof::serve
