// The Graph's dense TensorId -> TensorDesc table.
//
// Slots live in fixed-size chunks, so growing the table (interning a new
// name) never moves a descriptor: a reference from Graph::tensor() stays
// valid across later additions, as it did when descriptors were map nodes.
// A copy costs one allocation per chunk — the only per-tensor state a
// Graph::clone_warm() copies.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace proof {

class DescTable {
 public:
  /// Slots per chunk.
  static constexpr size_t kChunk = 128;

  DescTable() = default;
  DescTable(const DescTable& other) : size_(other.size_) {
    chunks_.reserve(other.chunks_.size());
    for (const std::unique_ptr<Chunk>& chunk : other.chunks_) {
      chunks_.push_back(std::make_unique<Chunk>(*chunk));
    }
  }
  DescTable& operator=(const DescTable& other) {
    if (this != &other) {
      DescTable copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  // Moves leave the source empty (a moved-from Graph is a valid empty graph).
  DescTable(DescTable&& other) noexcept
      : chunks_(std::move(other.chunks_)), size_(std::exchange(other.size_, 0)) {}
  DescTable& operator=(DescTable&& other) noexcept {
    chunks_ = std::move(other.chunks_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] size_t size() const { return size_; }

  /// Grows to at least `n` slots (new slots hold no descriptor).
  void grow_to(size_t n) {
    while (chunks_.size() * kChunk < n) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    if (n > size_) {
      size_ = n;
    }
  }

  [[nodiscard]] std::optional<TensorDesc>& operator[](size_t i) {
    return (*chunks_[i / kChunk])[i % kChunk];
  }
  [[nodiscard]] const std::optional<TensorDesc>& operator[](size_t i) const {
    return (*chunks_[i / kChunk])[i % kChunk];
  }

 private:
  using Chunk = std::array<std::optional<TensorDesc>, kChunk>;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace proof
