// Deterministic fault injection for the recovery paths.
//
// Every recovery path in this repo (pool-pressure degradation, ELS-violation
// absorption, probe-cycle growth) is exercised by injecting its fault on
// purpose. The injection must be *deterministic*: the serial and SIMD
// backends are contractually bit-identical, and a fault plan that fired on
// wall-clock time or a global RNG would break that the moment two runs
// interleaved differently. FaultPlan therefore derives every decision from
// (seed, site, per-site check index) — all three of which are identical
// across backends and reruns — and all draws happen on the issuing thread.
//
// A plan is a comma/space-separated list of per-site clauses:
//
//   <site>=<rate>   fire pseudo-randomly with probability <rate> in [0, 1]
//   <site>@<k>      fire exactly once, on the k-th check (1-based)
//   <site>%<k>      fire on every k-th check
//
// with sites: pool_alloc | els | probe. Example:
//
//   FOLVEC_FAULT_SEED=42 FOLVEC_FAULT_SPEC='pool_alloc%5,els@2,probe=0.01'
//
// This lives in folvec_support and deliberately has no telemetry dependency
// (telemetry links against support); the injection *sites* — which all live
// in layers that link telemetry — emit the fault.* counters when a draw
// fires.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace folvec {

enum class FaultSite : std::uint8_t {
  kPoolAlloc = 0,    ///< BufferPool::acquire allocation failure
  kElsViolation,     ///< scatter stores an amalgam (ELS condition broken)
  kProbeSaturation,  ///< open-addressing probe cycle saturates
};

inline constexpr std::size_t kFaultSiteCount = 3;

/// Spec name of a site: "pool_alloc", "els", "probe".
const char* fault_site_name(FaultSite site);

/// A deterministic per-site fault schedule. Thread-safe: the per-site check
/// counters are atomics, though in practice every draw happens on the
/// machine's issuing thread.
class FaultPlan {
 public:
  /// Parses `spec` (grammar above). Throws PreconditionError on an unknown
  /// site name, malformed clause, or out-of-range rate.
  FaultPlan(std::uint64_t seed, std::string_view spec);

  /// Records one check of `site` and returns whether to inject. The
  /// decision depends only on (seed, site, how many times this site has
  /// been checked) — never on time, threads, or other sites.
  bool fires(FaultSite site);

  std::uint64_t checks(FaultSite site) const;
  std::uint64_t fired(FaultSite site) const;
  std::uint64_t total_fired() const;

  /// Zeroes the check/fired counters; a reset plan replays the identical
  /// decision sequence. Tests reset between runs they intend to compare.
  void reset();

  std::uint64_t seed() const { return seed_; }
  const std::string& spec() const { return spec_; }

  /// Builds a plan from FOLVEC_FAULT_SPEC / FOLVEC_FAULT_SEED (seed
  /// defaults to 0). Returns nullptr when FOLVEC_FAULT_SPEC is unset.
  static std::unique_ptr<FaultPlan> from_env();

 private:
  struct SiteRule {
    enum class Mode : std::uint8_t { kOff, kRate, kOnce, kEvery };
    Mode mode = Mode::kOff;
    double rate = 0.0;
    std::uint64_t k = 0;
  };

  std::uint64_t seed_;
  std::string spec_;
  std::array<SiteRule, kFaultSiteCount> rules_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> checks_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> fired_{};
};

/// The process-wide installed plan, or nullptr (the default: no injection).
/// A null plan costs one relaxed atomic load per potential injection site.
FaultPlan* faults();

/// Installs `plan` (nullptr to disable) and returns the previous one. The
/// plan is borrowed, not owned, and must outlive its installation.
FaultPlan* install_faults(FaultPlan* plan);

/// RAII installation for tests: installs on construction, restores the
/// previous plan on destruction.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan* plan)
      : previous_(install_faults(plan)) {}
  ~ScopedFaultPlan() { install_faults(previous_); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan* previous_;
};

}  // namespace folvec
