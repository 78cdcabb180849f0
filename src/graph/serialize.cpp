#include "graph/serialize.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace proof {

namespace {

std::string attr_to_text(const AttrValue& value) {
  struct Visitor {
    std::string operator()(int64_t v) const { return "i:" + std::to_string(v); }
    std::string operator()(double v) const {
      std::ostringstream out;
      out.precision(17);
      out << "f:" << v;
      return out.str();
    }
    std::string operator()(const std::string& v) const { return "s:" + v; }
    std::string operator()(const std::vector<int64_t>& v) const {
      std::string out = "is:";
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(v[i]);
      }
      return out;
    }
    std::string operator()(const std::vector<double>& v) const {
      std::ostringstream out;
      out.precision(17);
      out << "fs:";
      for (size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out << ',';
        out << v[i];
      }
      return out.str();
    }
  };
  return std::visit(Visitor{}, value);
}

AttrValue attr_from_text(const std::string& text) {
  const size_t colon = text.find(':');
  if (colon == std::string::npos) {
    throw ModelError("malformed attribute value '" + text + "'");
  }
  const std::string tag = text.substr(0, colon);
  const std::string body = text.substr(colon + 1);
  if (tag == "i") return strings::parse_int(body);
  if (tag == "f") return strings::parse_double(body);
  if (tag == "s") return body;
  if (tag == "is") {
    std::vector<int64_t> values;
    for (const auto& field : strings::split_trimmed(body, ',')) {
      values.push_back(strings::parse_int(field));
    }
    return values;
  }
  if (tag == "fs") {
    std::vector<double> values;
    for (const auto& field : strings::split_trimmed(body, ',')) {
      values.push_back(strings::parse_double(field));
    }
    return values;
  }
  throw ModelError("unknown attribute tag '" + tag + "'");
}

std::string shape_to_text(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.rank(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(shape.dims()[i]);
  }
  out += "]";
  return out;
}

Shape shape_from_text(const std::string& text) {
  if (text.size() < 2 || text.front() != '[' || text.back() != ']') {
    throw ModelError("malformed shape '" + text + "'");
  }
  std::vector<int64_t> dims;
  for (const auto& field : strings::split_trimmed(text.substr(1, text.size() - 2), ',')) {
    dims.push_back(strings::parse_int(field));
  }
  return Shape(std::move(dims));
}

}  // namespace

std::string graph_to_text(const Graph& graph) {
  std::ostringstream out;
  out << "graph " << graph.name() << "\n";
  for (const std::string& in : graph.inputs()) {
    out << "input " << in << "\n";
  }
  for (const std::string& o : graph.outputs()) {
    out << "output " << o << "\n";
  }
  for (const auto& [name, desc] : graph.tensors()) {
    out << "tensor " << name << ' ' << dtype_name(desc.dtype) << ' '
        << shape_to_text(desc.shape) << ' ' << (desc.is_param ? "param" : "var") << "\n";
  }
  for (const Node& node : graph.nodes()) {
    out << "node " << node.name << ' ' << node.op_type << " in="
        << strings::join(node.inputs, ",") << " out=" << strings::join(node.outputs, ",");
    for (const auto& [key, value] : node.attrs.raw()) {
      out << ' ' << key << '=' << attr_to_text(value);
    }
    out << "\n";
  }
  return out.str();
}

Graph graph_from_text(const std::string& text) {
  Graph graph;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::string_view trimmed = strings::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    std::istringstream fields{std::string(trimmed)};
    std::string kind;
    fields >> kind;
    try {
      if (kind == "graph") {
        std::string name;
        fields >> name;
        graph.set_name(name);
      } else if (kind == "input") {
        std::string name;
        fields >> name;
        graph.add_input(name);
      } else if (kind == "output") {
        std::string name;
        fields >> name;
        graph.add_output(name);
      } else if (kind == "tensor") {
        std::string name, dtype, shape, role;
        fields >> name >> dtype >> shape >> role;
        TensorDesc desc;
        desc.dtype = dtype_from_name(dtype);
        desc.shape = shape_from_text(shape);
        desc.is_param = (role == "param");
        graph.set_tensor(name, std::move(desc));
      } else if (kind == "node") {
        Node node;
        fields >> node.name >> node.op_type;
        std::string token;
        while (fields >> token) {
          const size_t eq = token.find('=');
          if (eq == std::string::npos) {
            throw ModelError("malformed node field '" + token + "'");
          }
          const std::string key = token.substr(0, eq);
          const std::string value = token.substr(eq + 1);
          if (key == "in") {
            node.inputs = strings::split_trimmed(value, ',');
          } else if (key == "out") {
            node.outputs = strings::split_trimmed(value, ',');
          } else {
            node.attrs.set(key, attr_from_text(value));
          }
        }
        graph.add_node(std::move(node));
      } else {
        throw ModelError("unknown record '" + kind + "'");
      }
    } catch (const Error& e) {
      throw ModelError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  return graph;
}

void save_graph(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  PROOF_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << graph_to_text(graph);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw ModelError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return graph_from_text(buffer.str());
}

}  // namespace proof
