#include "vm/simd_backend.h"

#include <atomic>
#include <cstdio>
#include <cstring>

namespace folvec::vm {

namespace {

std::uint8_t level_rank(SimdLevel level) {
  return static_cast<std::uint8_t>(level);
}

void warn_downgrade_once(SimdLevel requested, SimdLevel got) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "folvec: FOLVEC_SIMD_LEVEL=%s is not available on this "
               "host/build; downgrading to %s\n",
               simd_level_name(requested), simd_level_name(got));
}

void warn_unknown_level_once(const char* spelling) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true)) return;
  std::fprintf(stderr,
               "folvec: unknown FOLVEC_SIMD_LEVEL '%s' "
               "(expected auto|scalar|neon|avx2|avx512); using auto\n",
               spelling);
}

}  // namespace

SimdLevel simd_host_level() {
#if defined(__x86_64__) || defined(_M_X64)
#if defined(FOLVEC_HAVE_AVX512_TU)
  if (__builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512cd") != 0 &&
      __builtin_cpu_supports("avx512dq") != 0 &&
      __builtin_cpu_supports("avx512bw") != 0 &&
      __builtin_cpu_supports("avx512vl") != 0) {
    return SimdLevel::kAvx512;
  }
#endif
#if defined(FOLVEC_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2") != 0) return SimdLevel::kAvx2;
#endif
#elif defined(__aarch64__) || defined(_M_ARM64)
#if defined(FOLVEC_HAVE_NEON_TU)
  // Advanced SIMD is architecturally mandatory on AArch64.
  return SimdLevel::kNeon;
#endif
#endif
  return SimdLevel::kScalar;
}

bool simd_level_supported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAuto:
      return false;
    case SimdLevel::kNeon:
#if defined(FOLVEC_HAVE_NEON_TU)
      return true;
#else
      return false;
#endif
    case SimdLevel::kAvx2:
#if defined(FOLVEC_HAVE_AVX2_TU)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(FOLVEC_HAVE_AVX512_TU)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512cd") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel simd_resolve_level(SimdLevel requested) {
  if (requested == SimdLevel::kAuto) return simd_host_level();
  if (simd_level_supported(requested)) return requested;
  // Graceful downgrade: best supported level strictly below the request.
  SimdLevel got = SimdLevel::kScalar;
  for (std::uint8_t r = level_rank(requested); r > 0; --r) {
    const SimdLevel candidate = static_cast<SimdLevel>(r - 1);
    if (simd_level_supported(candidate)) {
      got = candidate;
      break;
    }
  }
  warn_downgrade_once(requested, got);
  return got;
}

const SimdKernels& simd_kernels_for(SimdLevel level) {
  switch (level) {
#if defined(FOLVEC_HAVE_NEON_TU)
    case SimdLevel::kNeon:
      return simd_kernels_neon();
#endif
#if defined(FOLVEC_HAVE_AVX2_TU)
    case SimdLevel::kAvx2:
      return simd_kernels_avx2();
#endif
#if defined(FOLVEC_HAVE_AVX512_TU)
    case SimdLevel::kAvx512:
      return simd_kernels_avx512();
#endif
    default:
      return simd_kernels_scalar();
  }
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kNeon:
      return "neon";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAuto:
      return "auto";
  }
  return "scalar";
}

SimdLevel simd_parse_level(const char* spelling) {
  if (spelling == nullptr || std::strcmp(spelling, "auto") == 0 ||
      spelling[0] == '\0') {
    return SimdLevel::kAuto;
  }
  if (std::strcmp(spelling, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(spelling, "neon") == 0) return SimdLevel::kNeon;
  if (std::strcmp(spelling, "avx2") == 0) return SimdLevel::kAvx2;
  if (std::strcmp(spelling, "avx512") == 0) return SimdLevel::kAvx512;
  warn_unknown_level_once(spelling);
  return SimdLevel::kAuto;
}

Word SimdBackend::reduce_sum(std::span<const Word> v) {
  if (k_->reduce_sum != nullptr) return k_->reduce_sum(v.data(), v.size());
  Word total = 0;
  for (const Word x : v) total = wrap_add(total, x);
  return total;
}

Word SimdBackend::reduce_min(std::span<const Word> v) {
  if (k_->reduce_min != nullptr) return k_->reduce_min(v.data(), v.size());
  Word best = v[0];
  for (const Word x : v) best = x < best ? x : best;
  return best;
}

Word SimdBackend::reduce_max(std::span<const Word> v) {
  if (k_->reduce_max != nullptr) return k_->reduce_max(v.data(), v.size());
  Word best = v[0];
  for (const Word x : v) best = x > best ? x : best;
  return best;
}

std::size_t SimdBackend::count_true(std::span<const std::uint8_t> m) {
  if (k_->count_true != nullptr) return k_->count_true(m.data(), m.size());
  std::size_t n = 0;
  for (const auto b : m) n += b;
  return n;
}

WordVec SimdBackend::compress(std::span<const Word> v,
                              std::span<const std::uint8_t> m) {
  // Size the scratch to n so the vector pack path never hits its capacity
  // guard, then trim to the packed length.
  WordVec out(v.size());
  std::size_t k = 0;
  if (k_->compress != nullptr) {
    k = k_->compress(out.data(), out.size(), v.data(), m.data(), v.size());
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (m[i] != 0) out[k++] = v[i];
    }
  }
  out.resize(k);
  return out;
}

void SimdBackend::compress_into(std::span<const Word> v,
                                std::span<const std::uint8_t> m,
                                std::span<Word> out) {
  if (k_->compress != nullptr) {
    k_->compress(out.data(), out.size(), v.data(), m.data(), v.size());
    return;
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m[i] != 0) out[k++] = v[i];
  }
}

std::size_t SimdBackend::first_oob(std::span<const Word> idx,
                                   std::size_t table_size,
                                   const std::uint8_t* mask) {
  if (k_->first_oob != nullptr) {
    return k_->first_oob(idx.data(), idx.size(), table_size, mask);
  }
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (mask != nullptr && mask[i] == 0) continue;
    if (idx[i] < 0 || static_cast<std::size_t>(idx[i]) >= table_size) return i;
  }
  return npos;
}

void SimdBackend::scatter(std::span<Word> table, std::span<const Word> idx,
                          std::span<const Word> vals, const std::uint8_t* mask,
                          ScatterTraversal traversal,
                          std::span<const std::size_t> order) {
  // The level's scatter loops handle the two lane-order traversals; explicit
  // orders (shuffled) have no vector shape and use the serialized reference
  // loop. Tables past the gate get the write-prefetching variant: their
  // random stores miss cache, and a cache-resident table only pays for the
  // extra prefetch instructions.
  const bool prefetch = table.size() >= kScatterPrefetchMinWords;
  if (traversal == ScatterTraversal::kForward && k_->scatter_fwd != nullptr) {
    k_->scatter_fwd(table.data(), idx.data(), vals.data(), mask, idx.size(),
                    prefetch);
    return;
  }
  if (traversal == ScatterTraversal::kReverse && k_->scatter_rev != nullptr) {
    k_->scatter_rev(table.data(), idx.data(), vals.data(), mask, idx.size(),
                    prefetch);
    return;
  }
  apply_scatter_reference(table, idx, vals, mask, traversal, order);
}

std::size_t SimdBackend::scatter_gather_eq(
    std::span<Word> table, std::span<const Word> idx,
    std::span<const Word> vals, const std::uint8_t* mask,
    ScatterTraversal traversal, std::span<const std::size_t> order,
    std::span<std::uint8_t> out_match, void (*between_passes)(void*),
    void* hook_ctx) {
  scatter(table, idx, vals, mask, traversal, order);
  if (between_passes != nullptr) between_passes(hook_ctx);
  if (k_->match_eq != nullptr) {
    return k_->match_eq(out_match.data(), table.data(), idx.data(),
                        vals.data(), mask, idx.size());
  }
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

void SimdBackend::partition(std::span<const Word> v,
                            std::span<const std::uint8_t> m,
                            std::span<Word> kept, std::span<Word> rejected) {
  if (k_->partition != nullptr) {
    k_->partition(kept.data(), kept.size(), rejected.data(), v.data(),
                  m.data(), v.size());
    return;
  }
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
