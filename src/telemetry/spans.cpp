#include "telemetry/spans.h"

#include <atomic>
#include <fstream>
#include <functional>
#include <ostream>
#include <string_view>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "support/json.h"

namespace folvec::telemetry {

namespace {

std::atomic<SpanTracer*> g_tracer{nullptr};

// Serial numbers key the thread-local track cache: a tracer constructed at
// a recycled address gets a fresh serial, so stale caches never resolve.
std::atomic<std::uint64_t> g_tracer_serials{0};

// Per-thread single-slot cache: the track this thread registered with the
// tracer whose serial is `tls_serial`. Owner-thread-only after the first
// (mutex-guarded) registration, which is what makes push() safe under
// concurrent per-thread recording.
thread_local std::uint64_t tls_serial = 0;
thread_local void* tls_track = nullptr;

std::uint64_t current_tid() {
#if defined(__linux__)
  return static_cast<std::uint64_t>(::syscall(SYS_gettid));
#else
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
}

}  // namespace

SpanTracer::SpanTracer(std::size_t capacity)
    : epoch_(Clock::now()),
      capacity_(capacity),
      serial_(g_tracer_serials.fetch_add(1, std::memory_order_relaxed) + 1) {
  // Register the constructing thread eagerly as track 0, named "main": it
  // is the machine's issuing thread in every bench and test, and exporting
  // it first keeps deterministic span/op events in a stable file order.
  track().name = "main";
}

SpanTracer::~SpanTracer() = default;

SpanTracer::Track& SpanTracer::track() {
  if (tls_serial == serial_ && tls_track != nullptr) {
    return *static_cast<Track*>(tls_track);
  }
  const std::uint64_t tid = current_tid();
  const std::lock_guard<std::mutex> lock(registry_mu_);
  Track* mine = nullptr;
  // A thread alternating between two live tracers re-registers on each
  // switch; find its existing track so it never gets a duplicate.
  for (const std::unique_ptr<Track>& t : tracks_) {
    if (t->tid == tid) {
      mine = t.get();
      break;
    }
  }
  if (mine == nullptr) {
    tracks_.push_back(std::make_unique<Track>());
    mine = tracks_.back().get();
    mine->tid = tid;
    // Small eager reserve: most tracks (client and dispatcher threads) hold
    // few events, and growth is geometric anyway.
    mine->events.reserve(capacity_ < 256 ? capacity_ : 256);
  }
  tls_serial = serial_;
  tls_track = mine;
  return *mine;
}

void SpanTracer::push(Track& t, Event e) {
  if (t.events.size() >= capacity_) {
    ++t.dropped;
    return;
  }
  t.events.push_back(std::move(e));
}

void SpanTracer::begin(std::string name, std::uint64_t chime_instructions,
                       std::uint64_t chime_elements) {
  track().stack.push_back(
      Open{std::move(name), Clock::now(), chime_instructions, chime_elements});
}

void SpanTracer::end(std::uint64_t chime_instructions,
                     std::uint64_t chime_elements) {
  Track& t = track();
  if (t.stack.empty()) return;
  Open open = std::move(t.stack.back());
  t.stack.pop_back();
  Event e;
  e.kind = EventKind::kSpan;
  e.name = std::move(open.name);
  e.ts_us = to_us(open.start);
  e.dur_us = to_us(Clock::now()) - e.ts_us;
  e.chime_instructions = chime_instructions >= open.chime_instructions
                             ? chime_instructions - open.chime_instructions
                             : 0;
  e.chime_elements = chime_elements >= open.chime_elements
                         ? chime_elements - open.chime_elements
                         : 0;
  push(t, std::move(e));
}

void SpanTracer::op(const char* static_name, std::size_t elements,
                    Clock::time_point start, Clock::time_point end) {
  Event e;
  e.kind = EventKind::kOp;
  e.static_name = static_name;
  e.ts_us = to_us(start);
  e.dur_us = to_us(end) - e.ts_us;
  e.elements = static_cast<std::uint64_t>(elements);
  push(track(), std::move(e));
}

void SpanTracer::counter(const char* static_name, double value) {
  Event e;
  e.kind = EventKind::kCounter;
  e.static_name = static_name;
  e.ts_us = to_us(Clock::now());
  e.value = value;
  push(track(), std::move(e));
}

std::size_t SpanTracer::size() const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  std::size_t n = 0;
  for (const std::unique_ptr<Track>& t : tracks_) n += t->events.size();
  return n;
}

std::size_t SpanTracer::dropped() const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  std::size_t n = 0;
  for (const std::unique_ptr<Track>& t : tracks_) n += t->dropped;
  return n;
}

std::size_t SpanTracer::open_depth() const {
  const std::uint64_t tid = current_tid();
  const std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::unique_ptr<Track>& t : tracks_) {
    if (t->tid == tid) return t->stack.size();
  }
  return 0;
}

std::size_t SpanTracer::track_count() const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  return tracks_.size();
}

void SpanTracer::append_event_json(std::ostream& os, const Event& e,
                                   std::uint64_t tid, bool& first) const {
  if (!first) os << ",\n";
  first = false;
  const std::string_view name =
      e.static_name != nullptr ? std::string_view(e.static_name)
                               : std::string_view(e.name);
  os << "    {\"name\": " << JsonValue::quote(name);
  switch (e.kind) {
    case EventKind::kSpan:
      os << ", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": " << JsonValue(e.ts_us).dump()
         << ", \"dur\": " << JsonValue(e.dur_us).dump()
         << ", \"args\": {\"chime_instructions\": " << e.chime_instructions
         << ", \"chime_elements\": " << e.chime_elements << "}";
      break;
    case EventKind::kOp:
      os << ", \"cat\": \"op\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": " << JsonValue(e.ts_us).dump()
         << ", \"dur\": " << JsonValue(e.dur_us).dump()
         << ", \"args\": {\"elements\": " << e.elements << "}";
      break;
    case EventKind::kCounter:
      os << ", \"cat\": \"counter\", \"ph\": \"C\", \"pid\": 1, \"tid\": "
         << tid << ", \"ts\": " << JsonValue(e.ts_us).dump()
         << ", \"args\": {\"value\": " << JsonValue(e.value).dump() << "}";
      break;
  }
  os << "}";
}

void SpanTracer::write_chrome_trace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(registry_mu_);
  os << "{\n  \"traceEvents\": [\n";
  bool first = true;
  const double now_us = to_us(Clock::now());
  std::size_t dropped_total = 0;
  std::size_t sort_index = 0;
  for (const std::unique_ptr<Track>& t : tracks_) {
    dropped_total += t->dropped;
    // Thread metadata first: the name ("main", or a tid placeholder for
    // every other thread) and a sort index pinning registration order in
    // the viewer.
    std::string label =
        t->name.empty() ? "thread-" + std::to_string(t->tid) : t->name;
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << t->tid << ", \"args\": {\"name\": "
       << JsonValue::quote(label) << "}},\n"
       << "    {\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": " << t->tid << ", \"args\": {\"sort_index\": "
       << sort_index << "}}";
    ++sort_index;
    for (const Event& e : t->events) append_event_json(os, e, t->tid, first);
    // Spans still open at write time are emitted as-of-now so a trace
    // captured mid-run (e.g. from an atexit hook) is still well formed.
    for (const Open& open : t->stack) {
      Event e;
      e.kind = EventKind::kSpan;
      e.name = open.name;
      e.ts_us = to_us(open.start);
      e.dur_us = now_us - e.ts_us;
      append_event_json(os, e, t->tid, first);
    }
  }
  os << "\n  ],\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {"
     << "\"dropped_events\": " << dropped_total
     << ", \"tracks\": " << tracks_.size() << "}\n}\n";
}

bool SpanTracer::write_chrome_trace_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write_chrome_trace(os);
  return os.good();
}

SpanTracer* tracer() { return g_tracer.load(std::memory_order_relaxed); }

void install_tracer(SpanTracer* t) {
  g_tracer.store(t, std::memory_order_release);
}

ScopedTracer::ScopedTracer(SpanTracer& t) : previous_(tracer()) {
  install_tracer(&t);
}

ScopedTracer::~ScopedTracer() { install_tracer(previous_); }

}  // namespace folvec::telemetry
