#include "core/analysis_plan.hpp"

#include "analysis/shape_inference.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"
#include "tensor/dtype.hpp"

namespace proof {

AnalysisPlan build_analysis_plan(const backends::Engine& engine,
                                 const backends::BuildPlan& plan,
                                 const mapping::LayerMapping& mapping) {
  AnalysisPlan out;
  out.skeleton = engine.analysis_graph().clone_warm();
  out.build_plan = plan;
  // Extracted against the skeleton itself, so the interned tensor ids the
  // recipes cache (kernel boundaries) are valid in every clone_warm() of it.
  out.recipes = backends::extract_layer_recipes(out.skeleton, engine.layers(),
                                                out.build_plan);
  out.mapping = mapping;
  // Pre-resolve every mapping entry's model nodes and their boundary against
  // the skeleton: node numbering and interned ids are clone_warm-stable.
  mapping::ResolvedMapping resolved = mapping::resolve_mapping(out.skeleton, mapping);
  out.mapping_node_ids = std::move(resolved.node_ids);
  out.mapping_boundaries = std::move(resolved.boundaries);
  out.mapping_coverage = mapping.node_coverage(out.skeleton.num_nodes());
  out.unmapped_layers = mapping.count(mapping::MapMethod::kUnmapped);
  out.stream_policy = engine.stream_policy();
  out.backend_id = engine.backend_id();
  // The skeleton is copied concurrently by instantiations; materialize every
  // lazy index now so those copies never race on an index rebuild.
  out.skeleton.warm_indices();
  return out;
}

bool plan_compatible(const AnalysisPlan& plan, const Graph& model) {
  const Graph& s = plan.skeleton;
  if (s.num_nodes() != model.num_nodes() || s.inputs() != model.inputs() ||
      s.outputs() != model.outputs()) {
    return false;
  }
  const std::vector<Node>& sn = s.nodes();
  const std::vector<Node>& mn = model.nodes();
  for (size_t i = 0; i < sn.size(); ++i) {
    if (sn[i].name != mn[i].name || sn[i].op_type != mn[i].op_type ||
        sn[i].inputs != mn[i].inputs || sn[i].outputs != mn[i].outputs) {
      return false;
    }
  }
  const Graph::TensorView st = s.tensors();
  const Graph::TensorView mt = model.tensors();
  if (st.size() != mt.size()) {
    return false;
  }
  auto mi = mt.begin();
  for (auto si = st.begin(); si != st.end(); ++si, ++mi) {
    const auto [sname, sd] = *si;
    const auto [mname, md] = *mi;
    if (sname != mname || sd.is_param != md.is_param ||
        sd.shape.rank() != md.shape.rank()) {
      return false;
    }
    // Param shapes are structural (they size the weights kernels stream);
    // param *dtypes* are exempt — the skeleton's were float-converted when
    // the canonical engine was built, the model's are the source dtypes.
    if (sd.is_param && sd.shape != md.shape) {
      return false;
    }
  }
  return true;
}

Graph instantiate_plan_graph(const AnalysisPlan& plan, const Graph& model,
                             const backends::BuildConfig& config) {
  Graph g = [&] {
    PROOF_SPAN("instantiate.copy");
    return plan.skeleton.clone_warm();
  }();
  g.set_name(model.name());
  // The skeleton's shape-carrying attrs were batch-rewritten when the
  // canonical cell was prepared; restore the model's originals so the
  // set_batch_size below rewrites them against the model's actual batch.
  // Only "shape"/"sizes" attrs can diverge between compatible graphs
  // (plan_compatible pins everything else; set_batch_size touches nothing
  // else), so restoration is limited to nodes carrying them, and writes only
  // where they differ: a cell whose attrs match the skeleton's keeps sharing
  // its node list.
  const std::vector<Node>& src = model.nodes();
  for (size_t i = 0; i < src.size(); ++i) {
    const AttrMap& have = g.nodes()[i].attrs;
    if ((have.has("shape") || have.has("sizes")) && have != src[i].attrs) {
      g.mutable_nodes()[i].attrs = src[i].attrs;
    }
  }
  // Restore the model's input descs (shape AND dtype; floats convert to the
  // build precision exactly as prepare_model's convert_float_dtype does).
  for (const std::string& in : model.inputs()) {
    TensorDesc desc = model.tensor(in);
    if (dtype_is_float(desc.dtype)) {
      desc.dtype = config.dtype;
    }
    g.set_tensor(in, std::move(desc));
  }
  // One shape-inference pass: infer_shapes overwrites every node-output desc
  // (shape and dtype) in topo order, so the result equals a fresh
  // prepare_model(model, config) graph bit-for-bit.
  {
    PROOF_SPAN("instantiate.infer");
    set_batch_size(g, config.batch);
  }
  return g;
}

std::vector<backends::BackendLayer> replay_plan_layers(
    const AnalysisPlan& plan, const Graph& g, const hw::PlatformDesc& platform,
    const std::vector<NodeAnalysis>* analyses) {
  backends::LoweringOptions options;
  options.arch = platform.arch;
  std::vector<backends::BackendLayer> layers;
  layers.reserve(plan.recipes.size());
  for (const backends::LayerRecipe& recipe : plan.recipes) {
    layers.push_back(backends::replay_layer_recipe(g, recipe, options, analyses));
  }
  return layers;
}

}  // namespace proof
