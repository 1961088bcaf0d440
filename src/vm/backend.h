// Pluggable execution backends for VectorMachine.
//
// VectorMachine decides *what* each primitive computes (semantics, cost
// accounting, audit hooks, bounds checks); a Backend decides *how* the
// structured primitives execute. Both backends run on the issuing thread.
// SerialBackend is the reference implementation — the original per-op scalar
// loops, lane 0 to n-1 — and SimdBackend must be bit-identical to it for
// every primitive, including the machine-dependent scatter survivor under
// every ScatterOrder. The differential fuzz (tests/backend_diff_test.cpp)
// pins that contract per SIMD level.
//
// The interface is deliberately narrow, VCODE-style (Chatterjee/Blelloch):
// elementwise lane loops run inside VectorMachine (through the SIMD kernel
// table when one is attached); the backend supplies only the primitives with
// cross-lane structure (reductions, compress, bounds scans, scatter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "vm/machine.h"

namespace folvec::vm {

/// The order lanes of one scatter instruction are applied in. kForward and
/// kReverse avoid materializing an order vector; kExplicit carries one
/// (VectorMachine derives it from shuffle_seed for ScatterOrder::kShuffled,
/// independently of the backend).
enum class ScatterTraversal : std::uint8_t { kForward, kReverse, kExplicit };

class Backend {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  virtual ~Backend() = default;

  virtual const char* name() const = 0;

  /// Reductions; results equal the serial left fold.
  virtual Word reduce_sum(std::span<const Word> v) = 0;
  virtual Word reduce_min(std::span<const Word> v) = 0;
  virtual Word reduce_max(std::span<const Word> v) = 0;
  virtual std::size_t count_true(std::span<const std::uint8_t> m) = 0;

  /// Pack-under-mask, preserving lane order.
  virtual WordVec compress(std::span<const Word> v,
                           std::span<const std::uint8_t> m) = 0;

  /// Pack-under-mask into a caller-sized destination: `out` has exactly
  /// popcount(m) elements (the machine sizes it from the Mask's cached
  /// count), lane order preserved.
  virtual void compress_into(std::span<const Word> v,
                             std::span<const std::uint8_t> m,
                             std::span<Word> out) = 0;

  /// Fused kernel: ELS scatter of (idx, vals) into `table` (exactly like
  /// scatter()), then readback compare out_match[i] = (mask-active and
  /// table[idx[i]] == vals[i]). The readback pass begins only after the
  /// scatter pass fully completes (the composition's memory order). Returns
  /// the number of true lanes in out_match. `between_passes`, when non-null,
  /// is invoked once on the issuing thread at that boundary — VectorMachine
  /// uses it for the audit readback probe and the masked variant's
  /// all-lanes bounds check; its exceptions propagate with the scatter
  /// already applied, matching the unfused composition.
  virtual std::size_t scatter_gather_eq(
      std::span<Word> table, std::span<const Word> idx,
      std::span<const Word> vals, const std::uint8_t* mask,
      ScatterTraversal traversal, std::span<const std::size_t> order,
      std::span<std::uint8_t> out_match, void (*between_passes)(void*),
      void* hook_ctx) = 0;

  /// Fused two-way pack: kept gets v's mask-true lanes, rejected the rest,
  /// both in lane order. The spans are pre-sized exactly (kept.size() ==
  /// popcount(m), rejected.size() == v.size() - popcount(m)).
  virtual void partition(std::span<const Word> v,
                         std::span<const std::uint8_t> m, std::span<Word> kept,
                         std::span<Word> rejected) = 0;

  /// Returns the lowest lane whose index falls outside [0, table_size), or
  /// npos when all (mask-active, if mask != nullptr) lanes are in bounds.
  virtual std::size_t first_oob(std::span<const Word> idx,
                                std::size_t table_size,
                                const std::uint8_t* mask) = 0;

  /// Applies table[idx[lane]] = vals[lane] for every (mask-active) lane, as
  /// if lanes were visited one at a time in `traversal` order — the last
  /// visit to an address wins. All indices of active lanes are already
  /// bounds-checked. Must be bit-identical to apply_scatter_reference.
  virtual void scatter(std::span<Word> table, std::span<const Word> idx,
                       std::span<const Word> vals, const std::uint8_t* mask,
                       ScatterTraversal traversal,
                       std::span<const std::size_t> order) = 0;
};

/// The reference scatter semantics every backend must reproduce.
void apply_scatter_reference(std::span<Word> table, std::span<const Word> idx,
                             std::span<const Word> vals,
                             const std::uint8_t* mask,
                             ScatterTraversal traversal,
                             std::span<const std::size_t> order);

/// The original per-op loops of VectorMachine: one thread, lane 0 to n-1.
class SerialBackend final : public Backend {
 public:
  const char* name() const override { return "serial"; }
  Word reduce_sum(std::span<const Word> v) override;
  Word reduce_min(std::span<const Word> v) override;
  Word reduce_max(std::span<const Word> v) override;
  std::size_t count_true(std::span<const std::uint8_t> m) override;
  WordVec compress(std::span<const Word> v,
                   std::span<const std::uint8_t> m) override;
  void compress_into(std::span<const Word> v, std::span<const std::uint8_t> m,
                     std::span<Word> out) override;
  std::size_t first_oob(std::span<const Word> idx, std::size_t table_size,
                        const std::uint8_t* mask) override;
  void scatter(std::span<Word> table, std::span<const Word> idx,
               std::span<const Word> vals, const std::uint8_t* mask,
               ScatterTraversal traversal,
               std::span<const std::size_t> order) override;
  std::size_t scatter_gather_eq(std::span<Word> table,
                                std::span<const Word> idx,
                                std::span<const Word> vals,
                                const std::uint8_t* mask,
                                ScatterTraversal traversal,
                                std::span<const std::size_t> order,
                                std::span<std::uint8_t> out_match,
                                void (*between_passes)(void*),
                                void* hook_ctx) override;
  void partition(std::span<const Word> v, std::span<const std::uint8_t> m,
                 std::span<Word> kept, std::span<Word> rejected) override;
};

}  // namespace folvec::vm
