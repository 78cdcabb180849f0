#include "backends/stream_schedule.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "obs/span.hpp"
#include "support/error.hpp"

namespace proof::backends {

std::vector<std::vector<int>> layer_dependencies(const Engine& engine) {
  const Graph& graph = engine.analysis_graph();
  const std::vector<BackendLayer>& layers = engine.layers();

  // Producer table indexed by interned TensorId for graph tensors; backend
  // tensors the runtime invented (reorder/convert renames) are not in the
  // graph's pool and fall back to a small string map.
  std::vector<int> producer_of(graph.num_tensor_ids(), -1);
  std::map<std::string, int, std::less<>> renamed_producer;
  const auto record_producer = [&](const std::string& tensor, int layer) {
    const TensorId id = graph.tensor_id(tensor);
    if (id >= 0) {
      producer_of[static_cast<size_t>(id)] = layer;
    } else {
      renamed_producer[tensor] = layer;
    }
  };
  const auto producer = [&](const std::string& tensor) {
    const TensorId id = graph.tensor_id(tensor);
    if (id >= 0) {
      return producer_of[static_cast<size_t>(id)];
    }
    const auto it = renamed_producer.find(tensor);
    return it == renamed_producer.end() ? -1 : it->second;
  };

  std::vector<std::vector<int>> deps(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    std::vector<int>& mine = deps[i];
    for (const std::string& input : layers[i].labels->input_tensors) {
      const int p = producer(input);
      if (p >= 0 && p != static_cast<int>(i)) {
        PROOF_CHECK(p < static_cast<int>(i),
                    "backend layer '" << layers[i].name
                                      << "' consumes a tensor produced by the "
                                         "later layer '"
                                      << layers[static_cast<size_t>(p)].name
                                      << "' — emission order is not topological");
        mine.push_back(p);
      }
    }
    std::sort(mine.begin(), mine.end());
    mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
    for (const std::string& output : layers[i].labels->output_tensors) {
      record_producer(output, static_cast<int>(i));
    }
  }
  return deps;
}

ExecutionTimeline schedule_streams(const Engine& engine,
                                   const std::vector<double>& layer_latency_s,
                                   int streams) {
  PROOF_SPAN("critical_path.schedule");
  const std::vector<BackendLayer>& layers = engine.layers();
  PROOF_CHECK(layer_latency_s.size() == layers.size(),
              "latency vector (" << layer_latency_s.size()
                                 << ") does not match the engine's "
                                 << layers.size() << " layers");
  const StreamPolicy& policy = engine.stream_policy();
  if (streams <= 0) {
    streams = policy.max_streams;  // 0 = "whatever the runtime offers"
  }
  streams = std::clamp(streams, 1, std::max(policy.max_streams, 1));

  ExecutionTimeline timeline;
  timeline.num_streams = streams;
  timeline.lane_name = policy.lane_name;
  timeline.events.reserve(layers.size());

  const std::vector<std::vector<int>> deps = layer_dependencies(engine);
  std::vector<double> stream_avail(static_cast<size_t>(streams), 0.0);
  std::vector<double> finish(layers.size(), 0.0);
  std::vector<int> stream_of(layers.size(), 0);

  for (size_t i = 0; i < layers.size(); ++i) {
    const double dur_ns = layer_latency_s[i] * 1e9;
    // Ready when the latest producer finishes; remember that producer's
    // stream as the affinity candidate (staying there needs no sync).
    double ready = 0.0;
    int affinity = -1;
    for (const int d : deps[i]) {
      if (finish[static_cast<size_t>(d)] > ready) {
        ready = finish[static_cast<size_t>(d)];
        affinity = stream_of[static_cast<size_t>(d)];
      }
    }
    // Earliest-start stream wins; ties prefer the affinity stream, then the
    // lowest index — fully deterministic.
    int best = -1;
    double best_start = std::numeric_limits<double>::infinity();
    for (int s = 0; s < streams; ++s) {
      const double start = std::max(ready, stream_avail[static_cast<size_t>(s)]);
      const bool better =
          start < best_start ||
          (start == best_start && s == affinity && best != affinity);
      if (better) {
        best = s;
        best_start = start;
      }
    }
    TimelineEvent event;
    event.layer = static_cast<int>(i);
    event.stream = best;
    event.start_ns = best_start;
    event.dur_ns = dur_ns;
    event.deps = deps[i];
    for (const int d : deps[i]) {
      if (stream_of[static_cast<size_t>(d)] != best) {
        timeline.syncs.push_back({d, static_cast<int>(i)});
      }
    }
    stream_avail[static_cast<size_t>(best)] = best_start + dur_ns;
    finish[i] = best_start + dur_ns;
    stream_of[i] = best;
    timeline.makespan_ns = std::max(timeline.makespan_ns, finish[i]);
    timeline.events.push_back(std::move(event));
  }
  return timeline;
}

}  // namespace proof::backends
