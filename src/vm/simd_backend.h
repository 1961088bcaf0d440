// SimdBackend: the fast vm::Backend — single-threaded like SerialBackend,
// but every primitive runs through a runtime-dispatched SimdKernels table
// (simd_kernels.h) so the lane loops execute real AVX2/AVX-512/NEON
// instructions where the host has them and the level has a lowering.
//
// Dispatch model: the binary carries one kernel table per ISA level it was
// compiled for (scalar always; AVX2/AVX-512 on x86-64, NEON on aarch64).
// At Machine construction, simd_resolve_level() picks the best table the CPU
// supports — or honors FOLVEC_SIMD_LEVEL forcing, downgrading with a
// one-time notice when the forced level is unavailable. Null table entries
// (a level with no profitable lowering for an op) fall back to the same
// scalar loops SerialBackend runs, so sparse tables stay bit-identical by
// construction.
//
// Scatter at AVX-512 uses VPSCATTERQQ's architecturally ordered overlap
// resolution for kForward/kReverse; kExplicit traversals (shuffled lane
// orders) and levels without hardware scatter use the serialized reference
// loop — ELS semantics are preserved either way.
#pragma once

#include <cstddef>

#include "vm/backend.h"
#include "vm/simd_kernels.h"

namespace folvec::vm {

/// Best kernel level the running CPU supports among those compiled into this
/// binary. Never returns kAuto; returns kScalar when no vector TU is present
/// or no CPUID/auxv feature bit matches.
SimdLevel simd_host_level();

/// True when `level`'s kernel table is compiled in AND the host CPU can
/// execute it. kScalar is always supported; kAuto is never (resolve first).
bool simd_level_supported(SimdLevel level);

/// Resolves a requested level (typically MachineConfig::simd_level) to a
/// runnable one: kAuto becomes simd_host_level(); an unsupported forced
/// level degrades to the best supported level of lower rank, with a one-time
/// stderr notice. The result always satisfies simd_level_supported().
SimdLevel simd_resolve_level(SimdLevel requested);

/// Kernel table for a resolved level. `level` must satisfy
/// simd_level_supported(); anything else gets the scalar table.
const SimdKernels& simd_kernels_for(SimdLevel level);

/// Telemetry/env spelling: "scalar", "neon", "avx2", "avx512", "auto".
const char* simd_level_name(SimdLevel level);

/// Parses a FOLVEC_SIMD_LEVEL spelling ("auto", "scalar", "neon", "avx2",
/// "avx512"). Unknown spellings return kAuto after a one-time warning.
SimdLevel simd_parse_level(const char* spelling);

/// Single-threaded backend executing through a SimdKernels table. The table
/// must outlive the backend (tables are function-local statics, so any table
/// from simd_kernels_for qualifies).
class SimdBackend final : public Backend {
 public:
  explicit SimdBackend(const SimdKernels& kernels) : k_(&kernels) {}

  const char* name() const override { return "simd"; }

  /// The table this backend executes through (for telemetry).
  const SimdKernels& kernels() const { return *k_; }

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

 private:
  const SimdKernels* k_;
};

}  // namespace folvec::vm
