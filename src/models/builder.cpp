#include "models/builder.hpp"

#include "ops/op_def.hpp"
#include "support/error.hpp"

namespace proof::models {

GraphBuilder::GraphBuilder(std::string model_name) : graph_(std::move(model_name)) {}

std::string GraphBuilder::fresh(const std::string& hint) {
  const int n = name_counters_[hint]++;
  return hint + "_" + std::to_string(n);
}

std::string GraphBuilder::input(const std::string& name, Shape shape, DType dtype) {
  TensorDesc desc;
  desc.dtype = dtype;
  desc.shape = std::move(shape);
  graph_.set_tensor(name, std::move(desc));
  graph_.add_input(name);
  return name;
}

std::string GraphBuilder::param(const std::string& hint, Shape shape, DType dtype) {
  const std::string name = fresh(hint);
  graph_.add_param(name, dtype, std::move(shape));
  return name;
}

std::string GraphBuilder::add_and_infer(Node node) {
  std::vector<std::string> outputs = node.outputs;
  const NodeId id = graph_.add_node(std::move(node));
  const Node& added = graph_.node(id);
  const OpDef& def = op_def_for(added);
  const OpContext ctx(graph_, added);
  std::vector<TensorDesc> descs = def.infer(ctx);
  PROOF_CHECK(descs.size() == outputs.size(),
              "node '" << added.name << "' output arity mismatch");
  for (size_t i = 0; i < descs.size(); ++i) {
    graph_.set_tensor(outputs[i], std::move(descs[i]));
  }
  return outputs[0];
}

std::string GraphBuilder::node(const std::string& op_type,
                               std::vector<std::string> inputs, AttrMap attrs,
                               int num_outputs) {
  return node_multi(op_type, std::move(inputs), std::move(attrs), num_outputs)[0];
}

std::vector<std::string> GraphBuilder::node_multi(const std::string& op_type,
                                                  std::vector<std::string> inputs,
                                                  AttrMap attrs, int num_outputs) {
  Node n;
  n.name = fresh(op_type);
  n.op_type = op_type;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  for (int i = 0; i < num_outputs; ++i) {
    n.outputs.push_back(n.name + (num_outputs == 1 ? "_out" : "_out" + std::to_string(i)));
  }
  std::vector<std::string> outputs = n.outputs;
  add_and_infer(std::move(n));
  return outputs;
}

std::string GraphBuilder::conv(const std::string& x, int64_t out_ch, int64_t kernel,
                               int64_t stride, int64_t pad, int64_t groups, bool bias,
                               int64_t dilation) {
  const int64_t in_ch = channels(x);
  PROOF_CHECK(in_ch % groups == 0, "channels " << in_ch << " not divisible by groups "
                                               << groups);
  if (pad < 0) {
    pad = dilation * (kernel - 1) / 2;  // "same" padding for odd kernels
  }
  const std::string w =
      param("w", Shape{out_ch, in_ch / groups, kernel, kernel});
  std::vector<std::string> inputs = {x, w};
  if (bias) {
    inputs.push_back(param("b", Shape{out_ch}));
  }
  AttrMap attrs;
  attrs.set("strides", std::vector<int64_t>{stride, stride});
  attrs.set("pads", std::vector<int64_t>{pad, pad, pad, pad});
  attrs.set("dilations", std::vector<int64_t>{dilation, dilation});
  attrs.set("group", groups);
  return node("Conv", std::move(inputs), std::move(attrs));
}

std::string GraphBuilder::dwconv(const std::string& x, int64_t kernel, int64_t stride,
                                 int64_t pad) {
  const int64_t ch = channels(x);
  return conv(x, ch, kernel, stride, pad, /*groups=*/ch);
}

std::string GraphBuilder::conv_act(const std::string& x, int64_t out_ch,
                                   int64_t kernel, int64_t stride,
                                   const std::string& act_type, int64_t groups) {
  return act(conv(x, out_ch, kernel, stride, -1, groups), act_type);
}

std::string GraphBuilder::maxpool(const std::string& x, int64_t kernel,
                                  int64_t stride, int64_t pad) {
  if (pad < 0) {
    pad = (kernel - 1) / 2;
  }
  AttrMap attrs;
  attrs.set("kernel_shape", std::vector<int64_t>{kernel, kernel});
  attrs.set("strides", std::vector<int64_t>{stride, stride});
  attrs.set("pads", std::vector<int64_t>{pad, pad, pad, pad});
  return node("MaxPool", {x}, std::move(attrs));
}

std::string GraphBuilder::avgpool(const std::string& x, int64_t kernel,
                                  int64_t stride, int64_t pad) {
  if (pad < 0) {
    pad = (kernel - 1) / 2;
  }
  AttrMap attrs;
  attrs.set("kernel_shape", std::vector<int64_t>{kernel, kernel});
  attrs.set("strides", std::vector<int64_t>{stride, stride});
  attrs.set("pads", std::vector<int64_t>{pad, pad, pad, pad});
  return node("AveragePool", {x}, std::move(attrs));
}

std::string GraphBuilder::global_avgpool(const std::string& x) {
  return node("GlobalAveragePool", {x});
}

std::string GraphBuilder::linear(const std::string& x, int64_t out_features,
                                 bool bias) {
  const Shape& shape = shape_of(x);
  const int64_t in_features = shape.dim(-1);
  if (shape.rank() == 2) {
    const std::string w = param("fc_w", Shape{out_features, in_features});
    std::vector<std::string> inputs = {x, w};
    if (bias) {
      inputs.push_back(param("fc_b", Shape{out_features}));
    }
    AttrMap attrs;
    attrs.set("transB", static_cast<int64_t>(1));
    return node("Gemm", std::move(inputs), std::move(attrs));
  }
  const std::string w = param("lin_w", Shape{in_features, out_features});
  std::string out = node("MatMul", {x, w});
  if (bias) {
    out = node("Add", {out, param("lin_b", Shape{out_features})});
  }
  return out;
}

std::string GraphBuilder::matmul(const std::string& a, const std::string& b) {
  return node("MatMul", {a, b});
}

std::string GraphBuilder::layernorm(const std::string& x) {
  const int64_t features = shape_of(x).dim(-1);
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(-1));
  return node("LayerNormalization",
              {x, param("ln_w", Shape{features}), param("ln_b", Shape{features})},
              std::move(attrs));
}

std::string GraphBuilder::groupnorm(const std::string& x, int64_t groups) {
  const int64_t ch = channels(x);
  AttrMap attrs;
  attrs.set("num_groups", groups);
  return node("GroupNormalization",
              {x, param("gn_w", Shape{ch}), param("gn_b", Shape{ch})},
              std::move(attrs));
}

std::string GraphBuilder::batchnorm(const std::string& x) {
  const int64_t ch = channels(x);
  return node("BatchNormalization",
              {x, param("bn_w", Shape{ch}), param("bn_b", Shape{ch}),
               param("bn_mean", Shape{ch}), param("bn_var", Shape{ch})});
}

std::string GraphBuilder::softmax(const std::string& x, int axis) {
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(axis));
  return node("Softmax", {x}, std::move(attrs));
}

std::string GraphBuilder::embedding(const std::string& ids, int64_t vocab,
                                    int64_t dim) {
  const std::string table = param("emb", Shape{vocab, dim});
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(0));
  return node("Gather", {table, ids}, std::move(attrs));
}

std::string GraphBuilder::act(const std::string& x, const std::string& act_type) {
  return node(act_type, {x});
}

std::string GraphBuilder::binary(const std::string& op_type, const std::string& a,
                                 const std::string& b) {
  return node(op_type, {a, b});
}

std::string GraphBuilder::binary_param(const std::string& op_type,
                                       const std::string& x, Shape shape) {
  return node(op_type, {x, param("p", std::move(shape))});
}

std::string GraphBuilder::clip(const std::string& x, double lo, double hi) {
  AttrMap attrs;
  attrs.set("min", lo);
  attrs.set("max", hi);
  return node("Clip", {x}, std::move(attrs));
}

std::string GraphBuilder::reduce_mean(const std::string& x,
                                      std::vector<int64_t> axes, bool keepdims) {
  AttrMap attrs;
  attrs.set("axes", std::move(axes));
  attrs.set("keepdims", static_cast<int64_t>(keepdims ? 1 : 0));
  return node("ReduceMean", {x}, std::move(attrs));
}

std::string GraphBuilder::reshape(const std::string& x, std::vector<int64_t> shape) {
  AttrMap attrs;
  attrs.set("shape", std::move(shape));
  return node("Reshape", {x}, std::move(attrs));
}

std::string GraphBuilder::transpose(const std::string& x, std::vector<int64_t> perm) {
  AttrMap attrs;
  attrs.set("perm", std::move(perm));
  return node("Transpose", {x}, std::move(attrs));
}

std::string GraphBuilder::flatten(const std::string& x, int64_t axis) {
  AttrMap attrs;
  attrs.set("axis", axis);
  return node("Flatten", {x}, std::move(attrs));
}

std::string GraphBuilder::concat(const std::vector<std::string>& xs, int axis) {
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(axis));
  return node("Concat", xs, std::move(attrs));
}

std::vector<std::string> GraphBuilder::split(const std::string& x, int axis,
                                             int num_outputs) {
  AttrMap attrs;
  attrs.set("axis", static_cast<int64_t>(axis));
  return node_multi("Split", {x}, std::move(attrs), num_outputs);
}

std::string GraphBuilder::slice(const std::string& x, std::vector<int64_t> axes,
                                std::vector<int64_t> starts,
                                std::vector<int64_t> ends,
                                std::vector<int64_t> steps) {
  AttrMap attrs;
  attrs.set("axes", std::move(axes));
  attrs.set("starts", std::move(starts));
  attrs.set("ends", std::move(ends));
  if (!steps.empty()) {
    attrs.set("steps", std::move(steps));
  }
  return node("Slice", {x}, std::move(attrs));
}

const Shape& GraphBuilder::shape_of(const std::string& tensor) const {
  return graph_.tensor(tensor).shape;
}

Graph GraphBuilder::finish(const std::vector<std::string>& outputs) {
  for (const std::string& out : outputs) {
    graph_.add_output(out);
  }
  graph_.validate();
  return std::move(graph_);
}

}  // namespace proof::models
