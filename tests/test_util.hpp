// Shared helpers for the PRoof test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "models/builder.hpp"
#include "models/zoo.hpp"

namespace proof::testing {

/// Tiny conv->bn->relu->conv->add->relu graph used across suites.
inline Graph small_cnn() {
  models::GraphBuilder b("small_cnn");
  std::string x = b.input("input", Shape{1, 3, 32, 32});
  x = b.conv(x, 8, 3, 1);
  x = b.batchnorm(x);
  x = b.act(x, "Relu");
  std::string y = b.conv(x, 8, 3, 1);
  y = b.add(y, x);
  y = b.act(y, "Relu");
  y = b.global_avgpool(y);
  y = b.flatten(y);
  y = b.linear(y, 10);
  return b.finish({y});
}

/// Tiny transformer block (matmul-anchored) for fusion/mapping tests.
inline Graph small_transformer() {
  models::GraphBuilder b("small_transformer");
  std::string x = b.input("input", Shape{1, 16, 32});
  for (int i = 0; i < 2; ++i) {
    std::string h = b.layernorm(x);
    std::string q = b.linear(h, 32);
    std::string k = b.linear(h, 32);
    std::string attn = b.matmul(q, b.transpose(k, {0, 2, 1}));
    attn = b.softmax(attn);
    h = b.matmul(attn, b.linear(h, 32));
    x = b.add(x, h);
  }
  return b.finish({x});
}

/// Relative difference |a-b| / max(|b|, eps).
inline double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(b), 1e-12);
  return std::abs(a - b) / denom;
}

/// Combined absolute/relative closeness check:
///   |a - b| <= abs_tol + rel_tol * max(|a|, |b|)
/// Plain EXPECT_NEAR takes an absolute epsilon only, which is vacuous for
/// FLOP-scale magnitudes (1e12) and impossibly strict near zero; shared
/// helpers must use this instead so transformer-sized models are actually
/// constrained.  Use via EXPECT_CLOSE / EXPECT_CLOSE_ABS below.
inline ::testing::AssertionResult close_abs_rel(double a, double b,
                                                double rel_tol,
                                                double abs_tol) {
  const double diff = std::abs(a - b);
  const double bound = abs_tol + rel_tol * std::max(std::abs(a), std::abs(b));
  if (diff <= bound) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << ": |diff| = " << diff << " exceeds "
         << bound << " (rel_tol = " << rel_tol << ", abs_tol = " << abs_tol
         << ")";
}

/// Combined-tolerance expectation with a default absolute floor of 1e-12
/// (so exact-zero comparisons still pass).
#define EXPECT_CLOSE(a, b, rel_tol) \
  EXPECT_TRUE(::proof::testing::close_abs_rel((a), (b), (rel_tol), 1e-12))
#define EXPECT_CLOSE_ABS(a, b, rel_tol, abs_tol) \
  EXPECT_TRUE(::proof::testing::close_abs_rel((a), (b), (rel_tol), (abs_tol)))

/// The Table-3 zoo plus the extra models perfbench's cold-zoo workload
/// profiles (an encoder, an LLM decode step, an LLM prefill).
inline std::vector<std::string> zoo_and_extra_models() {
  std::vector<std::string> ids;
  for (const models::ModelSpec& spec : models::model_zoo()) {
    ids.push_back(spec.id);
  }
  for (const char* extra : {"bert_base", "gpt2_decode", "llama7b_prefill"}) {
    ids.emplace_back(extra);
  }
  return ids;
}

}  // namespace proof::testing
