#include "vm/backend.h"

#include <algorithm>

namespace folvec::vm {

void apply_scatter_reference(std::span<Word> table, std::span<const Word> idx,
                             std::span<const Word> vals,
                             const std::uint8_t* mask,
                             ScatterTraversal traversal,
                             std::span<const std::size_t> order) {
  const std::size_t n = idx.size();
  const auto store = [&](std::size_t lane) {
    if (mask != nullptr && mask[lane] == 0) return;
    table[static_cast<std::size_t>(idx[lane])] = vals[lane];
  };
  switch (traversal) {
    case ScatterTraversal::kForward:
      for (std::size_t lane = 0; lane < n; ++lane) store(lane);
      break;
    case ScatterTraversal::kReverse:
      for (std::size_t lane = n; lane > 0; --lane) store(lane - 1);
      break;
    case ScatterTraversal::kExplicit:
      for (const std::size_t lane : order) store(lane);
      break;
  }
}

Word SerialBackend::reduce_sum(std::span<const Word> v) {
  Word total = 0;
  for (Word x : v) total += x;
  return total;
}

Word SerialBackend::reduce_min(std::span<const Word> v) {
  Word best = v[0];
  for (Word x : v) best = std::min(best, x);
  return best;
}

Word SerialBackend::reduce_max(std::span<const Word> v) {
  Word best = v[0];
  for (Word x : v) best = std::max(best, x);
  return best;
}

std::size_t SerialBackend::count_true(std::span<const std::uint8_t> m) {
  std::size_t n = 0;
  for (auto b : m) n += b;
  return n;
}

WordVec SerialBackend::compress(std::span<const Word> v,
                                std::span<const std::uint8_t> m) {
  WordVec out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m[i] != 0) out.push_back(v[i]);
  }
  return out;
}

std::size_t SerialBackend::first_oob(std::span<const Word> idx,
                                     std::size_t table_size,
                                     const std::uint8_t* mask) {
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) return i;
  }
  return npos;
}

void SerialBackend::scatter(std::span<Word> table, std::span<const Word> idx,
                            std::span<const Word> vals,
                            const std::uint8_t* mask,
                            ScatterTraversal traversal,
                            std::span<const std::size_t> order) {
  apply_scatter_reference(table, idx, vals, mask, traversal, order);
}

void SerialBackend::compress_into(std::span<const Word> v,
                                  std::span<const std::uint8_t> m,
                                  std::span<Word> out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m[i] != 0) out[k++] = v[i];
  }
}

std::size_t SerialBackend::scatter_gather_eq(
    std::span<Word> table, std::span<const Word> idx,
    std::span<const Word> vals, const std::uint8_t* mask,
    ScatterTraversal traversal, std::span<const std::size_t> order,
    std::span<std::uint8_t> out_match, void (*between_passes)(void*),
    void* hook_ctx) {
  apply_scatter_reference(table, idx, vals, mask, traversal, order);
  if (between_passes != nullptr) between_passes(hook_ctx);
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const bool active = mask == nullptr || mask[i] != 0;
    const std::uint8_t hit =
        active && table[static_cast<std::size_t>(idx[i])] == vals[i] ? 1 : 0;
    out_match[i] = hit;
    survivors += hit;
  }
  return survivors;
}

void SerialBackend::partition(std::span<const Word> v,
                              std::span<const std::uint8_t> m,
                              std::span<Word> kept, std::span<Word> rejected) {
  std::size_t k = 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m[i] != 0) {
      kept[k++] = v[i];
    } else {
      rejected[r++] = v[i];
    }
  }
}

}  // namespace folvec::vm
