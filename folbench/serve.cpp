// serve_read_uniform and serve_write_zipf: single-key requests against the
// library's default BatchServer (4 shards, max_batch 1024, max_wait 200 us)
// over 2^16 keys preloaded during set-up.
//
//   serve_read_uniform  keys uniform; 90% lookups (half to never-written
//                       keys), 8% upserts, 2% erases. Same-op runs are long,
//                       Bloom short-circuits dominate, few keys repeat.
//   serve_write_zipf    Zipf(1.1) keys; 30% lookups, 50% upserts, 20%
//                       erases. Same-op runs are ~2 requests long and hot
//                       keys repeat inside batches: many short shard calls,
//                       erase-triggered Bloom rebuilds, tombstone rehashes.
//
// Every pass starts from a freshly preloaded server. Passes:
//   * saturated pump pass (closed loop): submit one full batch, pump it,
//     take its responses; repeat. Gives job_ms_* (per batch) and sat_rps.
//     The traced run makes this pass twice, untraced and traced.
//   * open loop (dispatcher thread + one client thread): the client paces
//     arrivals at a fixed rate, drains take_responses() between sends and
//     times each request from its due time. Run at the fixed reference
//     rate (p50_ms, p90_ms) and on the fixed slo ladder (slo_rps).
// The pump pass and the ladder probes replay one seeded stream, so probes
// at different rates see the same inputs; each reference window draws its
// own. Rates are constants below, never derived from a throughput measured
// in the same run.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "serve/server.h"
#include "telemetry/profile.h"

namespace folbench {

using folvec::serve::BatchServer;
using folvec::serve::BatchServerConfig;
using folvec::serve::OpKind;
using folvec::serve::Response;
using folvec::serve::ResponseStatus;
using folvec::vm::Word;
using folvec::vm::WordVec;

namespace {

struct ServeWorkload {
  const char* name;
  bool zipf;
  double lookup_frac;
  double upsert_frac;  // erases take the rest
  double absent_lookup_frac;
  /// Fixed offered rate for p50_ms / p90_ms (requests per second).
  double ref_rps;
  /// slo_rps ladder: rung k offers ladder_lo_rps * 2^(k / kRungsPerOctave).
  double ladder_lo_rps;
  int ladder_rungs;
  /// Requests in one ladder probe window per requested 20 seconds, the
  /// same at every rung, so the client's buffers (and so peak_rss_mib) do
  /// not depend on which rungs were probed.
  std::size_t probe_requests;
  /// Batches of the saturated pump pass per requested 20 seconds, and
  /// untimed warm-up batches ahead of them.
  std::size_t sat_batches;
  std::size_t warm_batches;
};

constexpr int kRungsPerOctave = 6;

const ServeWorkload kWorkloads[] = {
    {"serve_read_uniform", false, 0.90, 0.08, 0.5, 25e3, 12.5e3, 30, 50000,
     400, 5},
    // Full write batches take 0.1-0.4 s each on a 4-vCPU AVX-512 Xeon and
    // grow along the pass (the serving path does not reach a steady
    // state), so the pass is short.
    {"serve_write_zipf", true, 0.30, 0.50, 0.0, 1e3, 250, 30, 5000, 30, 1},
};

constexpr double kZipfS = 1.1;
constexpr double kSloP99Ms = 10.0;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kRefWindows = 7;
// The backlog "grows" when it rose by more than one full batch between
// mid-window and the last send.
constexpr std::size_t kBacklogSlack = 1024;
// A ladder rung is judged by majority over up to this many windows (each
// on other CPUs), so one disturbed second on a shared host does not decide
// the search.
constexpr int kProbeVotes = 5;
// The untraced pump pass runs in this many chunks spread over the run,
// between open-loop windows, so a slow spell of a shared host shifts part
// of each metric rather than all of one.
constexpr std::size_t kSatChunks = 10;
// While waiting for a send, the client polls for responses this often.
constexpr auto kPollEvery = std::chrono::microseconds(10);
constexpr Word kKeyMask = (Word{1} << 40) - 1;

struct Sizes {
  std::size_t keys;
  std::size_t sat_batches;
  std::size_t probe_n;  // measured requests of one slo ladder probe
  double ref_s;         // one reference-rate window
};

Sizes sizes_for(const Options& o, const ServeWorkload& w) {
  if (o.smoke) return {std::size_t{1} << 10, 4, 1000, 0.05};
  const double scale = o.seconds / 20.0;
  auto scaled = [&](std::size_t v) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(v) * scale));
  };
  return {std::size_t{1} << 16, scaled(w.sat_batches),
          scaled(w.probe_requests), 0.075 * o.seconds};
}

struct Req {
  OpKind op;
  Word key;
  Word value;
};

/// Key i of the key space; i >= keys gives keys that are never written.
Word key_at(std::uint64_t mul, std::uint64_t add, std::size_t i) {
  return static_cast<Word>((mul * i + add) & static_cast<std::uint64_t>(kKeyMask));
}

struct Inputs {
  WordVec preload_keys, preload_values;
  std::vector<Req> stream;
};

class StreamGen {
 public:
  StreamGen(const ServeWorkload& w, std::size_t keys, std::uint64_t seed)
      : w_(w), keys_(keys), seed_(seed) {
    if (w.zipf) {
      cdf_.resize(keys);
      double sum = 0;
      for (std::size_t i = 0; i < keys; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
        cdf_[i] = sum;
      }
      for (auto& c : cdf_) c /= sum;
    }
  }

  /// The preload and the first `n` requests of traffic stream `stream`.
  Inputs make(std::size_t n, std::uint64_t stream = 0) const {
    Inputs in;
    Rng pr(derive_seed(seed_, 2));
    in.preload_keys.resize(keys_);
    in.preload_values.resize(keys_);
    for (std::size_t i = 0; i < keys_; ++i) {
      in.preload_keys[i] = key_at(mul_, add_, i);
      in.preload_values[i] = static_cast<Word>(pr.next() >> 24);
    }
    Rng r(derive_seed(seed_, 3 + stream));
    in.stream.resize(n);
    for (Req& q : in.stream) {
      const double u = r.unit();
      q.op = u < w_.lookup_frac                   ? OpKind::kLookup
             : u < w_.lookup_frac + w_.upsert_frac ? OpKind::kUpsert
                                                   : OpKind::kErase;
      std::size_t i = pick(r);
      if (q.op == OpKind::kLookup && r.unit() < w_.absent_lookup_frac) {
        i += keys_;
      }
      q.key = key_at(mul_, add_, i);
      q.value = q.op == OpKind::kUpsert ? static_cast<Word>(r.next() >> 24) : 0;
    }
    return in;
  }

 private:
  std::size_t pick(Rng& r) const {
    if (!w_.zipf) return r.below(keys_);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), r.unit());
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), keys_ - 1);
  }

  const ServeWorkload& w_;
  std::size_t keys_;
  std::uint64_t seed_;
  // The key space is part of the workload, not of the seed: which shard
  // each key (and each hot Zipf rank) lands on is the same in every run,
  // and the seed draws the traffic over it.
  static constexpr std::uint64_t mul_ = 0x9e3779b97f4bULL;
  static constexpr std::uint64_t add_ = 0x2545f4914fULL;
  std::vector<double> cdf_;
};

std::unique_ptr<BatchServer> make_server(const Inputs& in) {
  BatchServerConfig cfg;
  cfg.map.machine = machine_config();
  auto s = std::make_unique<BatchServer>(cfg);
  s->map().upsert_batch(in.preload_keys, in.preload_values);
  return s;
}

/// What the client saw for each submitted request, by submit index.
struct Seen {
  std::vector<Response> resp;
  std::vector<char> got;
  std::vector<Clock::time_point> at;
  std::size_t count = 0;

  explicit Seen(std::size_t n) : resp(n), got(n, 0), at(n) {}
  void take(BatchServer& s) {
    const std::vector<Response> batch = s.take_responses();
    if (batch.empty()) return;
    const auto now = Clock::now();
    for (const Response& x : batch) {
      const std::size_t i = x.id - 1;  // ids are 1, 2, ... in submit order
      if (i >= got.size() || got[i]) continue;
      resp[i] = x;
      got[i] = 1;
      at[i] = now;
      ++count;
    }
  }
};

/// Replays the first `n` requests in submit order against a sequential
/// map; every answer must match exactly. Unanswered or refused requests
/// are failures, not wrong answers. Returns the number of failures.
std::size_t check(const Inputs& in, std::size_t n, const std::vector<char>& ok,
                  const Seen& seen, bool corrupt, Result& r) {
  std::unordered_map<Word, Word> ref;
  ref.reserve(in.preload_keys.size() * 2);
  for (std::size_t i = 0; i < in.preload_keys.size(); ++i) {
    ref[in.preload_keys[i]] = in.preload_values[i];
  }
  std::size_t failed = 0;
  bool corrupted = !corrupt;
  for (std::size_t i = 0; i < n; ++i) {
    const Req& q = in.stream[i];
    Response want{i + 1, q.op, ResponseStatus::kOk, 0};
    if (q.op == OpKind::kUpsert) {
      ref[q.key] = q.value;
    } else if (q.op == OpKind::kErase) {
      ref.erase(q.key);
    } else if (const auto it = ref.find(q.key); it != ref.end()) {
      want.value = it->second;
    } else {
      want.status = ResponseStatus::kMissing;
    }
    if (!corrupted && q.op == OpKind::kLookup) {
      want.value ^= 1;
      corrupted = true;
    }
    if (!ok[i] || !seen.got[i]) {
      ++failed;
      continue;
    }
    const Response& got = seen.resp[i];
    if (got.op != want.op || got.status != want.status ||
        got.value != want.value) {
      r.fail_check("request " + std::to_string(i) + " (" +
                   folvec::serve::op_kind_name(q.op) + " " +
                   std::to_string(q.key) + ") answered wrongly");
    }
  }
  return failed;
}

/// Serving-layer counters, read between passes.
struct MapCounts {
  std::uint64_t batches = 0, skips = 0, rebuilds = 0;
  std::size_t rehashes = 0, capacity = 0, live = 0;
};

MapCounts read_counts(BatchServer& s) {
  auto& map = s.map();
  MapCounts c{s.coalescer().batches(), map.bloom_skips(), map.bloom_rebuilds(),
              0, 0, 0};
  for (std::size_t k = 0; k < map.shard_count(); ++k) {
    const auto& shard = map.shard_map(k);
    c.rehashes += shard.rehash_count();
    c.capacity += shard.capacity();
    c.live += shard.size();
  }
  return c;
}

struct PumpPass {
  std::vector<double> batch_ms;  // timed batches only
  double wall_s = 0;
  std::size_t requests = 0;      // timed requests
  MapCounts at_start;            // when timing began, after warm-up
};

/// Saturated closed loop on one server: each job submits one full batch,
/// pumps until the queue is empty and takes the responses.
struct PumpClient {
  PumpClient(BatchServer& s, const Inputs& in, std::size_t n,
             std::size_t batch)
      : server(s), inputs(in), max_batch(batch), seen(n), ok(n, 0) {}

  /// One batch job; with `spans` enabled it is a "serve.batch_job" span
  /// with the submit loop and each pump() call as children.
  void job(bool timed, SpanLog& spans) {
    if (timed && pass.requests == 0) pass.at_start = read_counts(server);
    const auto t0 = Clock::now();
    const int root = spans.open("serve.batch_job");
    const int sub = spans.open("client.submit_batch", root);
    for (std::size_t k = 0; k < max_batch; ++k, ++next) {
      const Req& q = inputs.stream[next];
      ok[next] = server.submit(q.op, q.key, q.value) == next + 1;
    }
    spans.close(sub);
    while (server.queue().pending() > 0) {
      const int ps = spans.open("serve.pump", root);
      server.pump();
      spans.close(ps);
    }
    seen.take(server);
    spans.close(root);
    if (!timed) return;
    const double ms = ms_between(t0, Clock::now());
    pass.batch_ms.push_back(ms);
    pass.wall_s += ms / 1e3;
    pass.requests += max_batch;
  }

  BatchServer& server;
  const Inputs& inputs;
  std::size_t max_batch;
  std::size_t next = 0;
  Seen seen;
  std::vector<char> ok;
  PumpPass pass;
};

struct OpenLoop {
  std::vector<double> latency_ms;  // measured window; failures are +inf
  std::vector<double> lag_ms;      // how late each measured send was
  bool backlog_grew = false;
  std::size_t failed = 0;
  double server_p99_ms = 0;  // enqueue -> response, all ops, whole pass
};

/// Open loop at `rps` over the stream prefix of `warm_n + n` requests;
/// statistics cover the last `n`. The dispatcher thread runs on allowed
/// CPU `cpu` and the client on the next one.
OpenLoop open_loop(BatchServer& s, const Inputs& in, double rps,
                   std::size_t warm_n, std::size_t n, const CpuRotation& cpus,
                   std::size_t cpu, bool corrupt, Result& r) {
  const std::size_t total = warm_n + n;
  Seen seen(total);
  std::vector<char> ok(total, 0);
  std::vector<Clock::time_point> due(total);
  OpenLoop out;
  out.lag_ms.assign(n, 0.0);  // touched now, not during the window
  std::size_t backlog_mid = 0;
  cpus.pin(cpu);
  s.start();  // the dispatcher inherits the pinned mask
  cpus.pin(cpu + 1);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const double period_ns = 1e9 / rps;
  for (std::size_t i = 0; i < total; ++i) {
    due[i] = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      period_ns * static_cast<double>(i)));
    auto polled = Clock::now();
    for (auto now = polled; now < due[i]; now = Clock::now()) {
      if (now - polled < kPollEvery) continue;
      seen.take(s);
      polled = now;
    }
    const Req& q = in.stream[i];
    ok[i] = s.submit(q.op, q.key, q.value) == i + 1;
    if (i >= warm_n) out.lag_ms[i - warm_n] = ms_between(due[i], Clock::now());
    if (i == warm_n + n / 2) backlog_mid = i + 1 - seen.count;
    seen.take(s);
  }
  const std::size_t backlog_end = total - seen.count;
  // Answers later than this count as missing.
  const auto give_up = Clock::now() + std::chrono::seconds(2);
  while (seen.count < total && Clock::now() < give_up) seen.take(s);
  std::vector<char> answered_in_time = seen.got;
  s.stop();
  cpus.unpin();
  seen.take(s);
  out.backlog_grew = backlog_end > backlog_mid + kBacklogSlack;
  folvec::telemetry::PercentileSketch server_us;
  for (std::size_t k = 0; k < folvec::serve::kOpKindCount; ++k) {
    server_us.merge(s.latency_us(static_cast<OpKind>(k)));
  }
  out.server_p99_ms = static_cast<double>(server_us.p99()) / 1e3;

  std::vector<char> counted(total);
  for (std::size_t i = 0; i < total; ++i) counted[i] = ok[i] && answered_in_time[i];
  out.failed = check(in, total, counted, seen, corrupt, r);
  r.attempted += total;
  r.failed += out.failed;
  out.latency_ms.reserve(n);
  for (std::size_t i = warm_n; i < total; ++i) {
    out.latency_ms.push_back(counted[i]
                                 ? ms_between(due[i], seen.at[i])
                                 : std::numeric_limits<double>::infinity());
  }
  return out;
}

}  // namespace

Result run_serve(const Options& o) {
  const ServeWorkload* wp = nullptr;
  for (const ServeWorkload& w : kWorkloads) {
    if (o.workload == w.name) wp = &w;
  }
  if (wp == nullptr) throw std::invalid_argument("not a serve workload");
  const ServeWorkload& w = *wp;
  const Sizes z = sizes_for(o, w);
  const std::size_t max_batch = BatchServerConfig{}.coalesce.max_batch;
  const std::size_t pump_n = (w.warm_batches + z.sat_batches) * max_batch;
  const StreamGen gen(w, z.keys, o.seed);
  const auto ref_n = std::max<std::size_t>(
      1000, static_cast<std::size_t>(w.ref_rps * z.ref_s));
  Result r;

  // Set-up, several times: inputs, server, preload.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<BatchServer> server;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    server.reset();
    in = gen.make(pump_n);
    server = make_server(in);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  auto check_pump = [&](const PumpClient& c) {
    r.attempted += pump_n;
    r.failed += check(in, pump_n, c.ok, c.seen, o.corrupt_reference, r);
  };
  const CpuRotation cpus;
  std::size_t window = 0;  // rotates the open-loop windows over the CPUs
  // Warm-up ahead of each window is a tenth of its measured requests.
  auto open_at = [&](double rps, std::size_t n, std::uint64_t stream) {
    const std::size_t warm_n = n / 10;
    const Inputs oin = gen.make(warm_n + n, stream);
    const auto s = make_server(oin);
    return open_loop(*s, oin, rps, warm_n, n, cpus, window++,
                     o.corrupt_reference, r);
  };

  if (!o.trace) {
    SpanLog no_spans(false);
    PumpClient sat(*server, in, pump_n, max_batch);
    std::size_t batch = 0, chunk = 0;
    auto sat_chunk = [&] {
      if (chunk == kSatChunks) return;
      const std::size_t total = w.warm_batches + z.sat_batches;
      for (const std::size_t end = ++chunk * total / kSatChunks; batch < end;
           ++batch) {
        cpus.pin(batch);
        sat.job(batch >= w.warm_batches, no_spans);
      }
      cpus.unpin();
    };

    // Each reference window draws its own traffic stream; the percentiles
    // are medians over the windows.
    std::vector<double> p50, p90;
    for (std::size_t k = 0; k < kRefWindows; ++k) {
      sat_chunk();
      const OpenLoop ol = open_at(w.ref_rps, ref_n, 1 + k);
      p50.push_back(median(ol.latency_ms));
      p90.push_back(quantile(ol.latency_ms, 0.90));
    }

    // Highest rung that meets p99 <= 10 ms with no failures and no growing
    // backlog, by bisection (rung -1 stands for "none").
    int lo = -1, hi = w.ladder_rungs;
    auto rung_rps = [&](int k) {
      return w.ladder_lo_rps *
             std::pow(2.0, static_cast<double>(k) / kRungsPerOctave);
    };
    while (hi - lo > 1) {
      sat_chunk();
      const int mid = (lo + hi) / 2;
      int pass = 0, fail = 0;
      while (2 * pass <= kProbeVotes && 2 * fail <= kProbeVotes) {
        const OpenLoop ol = open_at(rung_rps(mid), z.probe_n, 0);
        const bool meets = ol.failed == 0 && !ol.backlog_grew &&
                           quantile(ol.latency_ms, 0.99) <= kSloP99Ms;
        ++(meets ? pass : fail);
      }
      (pass > fail ? lo : hi) = mid;
    }
    while (chunk < kSatChunks) sat_chunk();
    check_pump(sat);

    r.metrics["setup_s"] = median(setup_s);
    const PumpPass& p = sat.pass;
    r.metrics["job_ms_p50"] = median(p.batch_ms);
    r.metrics["job_ms_p90"] = quantile(p.batch_ms, 0.90);
    r.metrics["sat_rps"] =
        p.wall_s > 0 ? static_cast<double>(p.requests) / p.wall_s : 0;
    r.metrics["slo_rps"] = lo >= 0 ? rung_rps(lo) : 0;
    r.metrics["p50_ms"] = median(p50);
    r.metrics["p90_ms"] = median(p90);
    r.metrics["peak_rss_mib"] = peak_rss_mib();
    return r;
  }

  // Traced run: the pump pass on two servers with the same inputs, batch
  // jobs alternating between an untraced and a traced one on the same CPU
  // (which goes first alternates too, as the first after a CPU change runs
  // colder), so the difference is the tracing overhead. Map state is read
  // only after the traced pass ends.
  SpanLog no_spans(false);
  SpanLog spans(true);
  folvec::telemetry::Profiler prof;
  const auto traced_server = make_server(in);
  PumpClient plain_client(*server, in, pump_n, max_batch);
  PumpClient traced_client(*traced_server, in, pump_n, max_batch);
  for (std::size_t b = 0; b < w.warm_batches + z.sat_batches; ++b) {
    const bool timed = b >= w.warm_batches;
    cpus.pin(b);
    auto traced_job = [&] {
      if (!timed) return traced_client.job(false, no_spans);
      const folvec::telemetry::ScopedProfiler on(prof);
      traced_client.job(true, spans);
    };
    if (b % 2 == 1) traced_job();
    plain_client.job(timed, no_spans);
    if (b % 2 == 0) traced_job();
  }
  cpus.unpin();
  check_pump(plain_client);
  check_pump(traced_client);
  const PumpPass& plain = plain_client.pass;
  const PumpPass& traced = traced_client.pass;
  const MapCounts& a = traced.at_start;
  const MapCounts b = read_counts(*traced_server);
  std::size_t lookups_erases = 0;
  for (std::size_t i = w.warm_batches * max_batch; i < pump_n; ++i) {
    if (in.stream[i].op != OpKind::kUpsert) ++lookups_erases;
  }
  const double kreq = static_cast<double>(traced.requests) / 1e3;
  r.metrics["serve.batches_per_kreq"] =
      static_cast<double>(b.batches - a.batches) / kreq;
  r.metrics["serve.pump_ms_p50"] = median(spans.durations_ms("serve.pump"));
  r.metrics["serve.pump_ms_p99"] =
      quantile(spans.durations_ms("serve.pump"), 0.99);
  const std::size_t half = plain.batch_ms.size() / 2;
  double first_s = 0, second_s = 0;
  for (std::size_t i = 0; i < plain.batch_ms.size(); ++i) {
    (i < half ? first_s : second_s) += plain.batch_ms[i];
  }
  // Equal request counts per half (an odd batch count puts the extra batch
  // in the second half, weighted accordingly).
  const double second_n = static_cast<double>(plain.batch_ms.size() - half);
  r.metrics["serve.sat_rps_drift"] =
      second_s > 0 && half > 0
          ? (second_n / second_s) / (static_cast<double>(half) / first_s)
          : 0;
  r.metrics["map.bloom_skip_frac"] =
      lookups_erases > 0 ? static_cast<double>(b.skips - a.skips) /
                               static_cast<double>(lookups_erases)
                         : 0;
  r.metrics["map.bloom_rebuilds_per_kreq"] =
      static_cast<double>(b.rebuilds - a.rebuilds) / kreq;
  r.metrics["map.capacity_per_live_key"] =
      b.live > 0 ? static_cast<double>(b.capacity) / static_cast<double>(b.live)
                 : 0;
  r.metrics["map.rehashes"] = static_cast<double>(b.rehashes - a.rehashes);
  put_vm_metrics(r, read_vm_profile(prof), "vm.vinstr_per_req",
                 static_cast<double>(traced.requests),
                 spans.total_seconds("serve.pump"), traced.wall_s);
  r.metrics["client.tracing_overhead_frac"] =
      plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0;

  // Client-side validity at the reference rate, untraced.
  const OpenLoop ol = open_at(w.ref_rps, ref_n, 1);
  r.metrics["client.gen_lag_ms_p99"] = quantile(ol.lag_ms, 0.99);
  r.metrics["client.p99_ms"] = quantile(ol.latency_ms, 0.99);
  r.metrics["serve.server_latency_ms_p99"] = ol.server_p99_ms;
  r.metrics["client.ops_failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  spans.write(o.spans_path, std::string("{\"workload\":\"") + w.name +
                                "\",\"seed\":" + std::to_string(o.seed) +
                                ",\"host\":" + host_facts_json() + "}");
  return r;
}

}  // namespace folbench
