#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/json.h"
#include "util/stopwatch.h"

namespace wym::obs {

namespace {

/// One recorded complete event. Name/category are unowned string
/// literals (documented contract in trace.h).
struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint32_t tid;
};

/// Per-thread event buffer. Owned by the collector (so events survive
/// thread exit), written by exactly one thread, drained under its
/// mutex at flush time.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

/// Process-wide collector. `active` gates the hot path; everything
/// else is touched only on registration and flush.
struct Collector {
  std::atomic<bool> active{false};
  std::mutex mu;  // Guards path and buffers.
  std::string path;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;

  Collector() {
    const char* env = std::getenv("WYM_TRACE");
    if (env != nullptr && env[0] != '\0') {
      path = env;
      active.store(true, std::memory_order_release);
      // Flush on clean exit so WYM_TRACE works with any entry point
      // (CLI subcommands, tests, benches) without explicit plumbing.
      std::atexit([] {
        std::string error;
        if (!StopTracingAndWrite(&error)) {
          std::fprintf(stderr, "wym: WYM_TRACE flush failed: %s\n",
                       error.c_str());
        }
      });
    }
  }
};

Collector& GetCollector() {
  static Collector* collector = new Collector();  // wym-lint: allow(no-raw-new-delete): intentionally leaked singleton; spans may close during static destruction, after a static value would already be gone.
  return *collector;
}

/// The calling thread's buffer, registered with the collector on first
/// use and cached thread-locally.
ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Collector& collector = GetCollector();
    const std::lock_guard<std::mutex> lock(collector.mu);
    collector.buffers.push_back(std::make_unique<ThreadBuffer>());
    collector.buffers.back()->tid = collector.next_tid++;
    return collector.buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

std::uint64_t NowNanos() {
  // Single process-wide epoch; magic-static init is thread-safe.
  static const Stopwatch epoch;
  return epoch.ElapsedNanos();
}

bool TracingActive() {
  return GetCollector().active.load(std::memory_order_acquire);
}

void StartTracing(const std::string& path) {
  Collector& collector = GetCollector();
  {
    const std::lock_guard<std::mutex> lock(collector.mu);
    collector.path = path;
  }
  collector.active.store(true, std::memory_order_release);
}

bool StopTracingAndWrite(std::string* error) {
  Collector& collector = GetCollector();
  if (!collector.active.exchange(false, std::memory_order_acq_rel)) {
    if (error != nullptr) *error = "tracing was not active";
    return false;
  }

  std::vector<TraceEvent> events;
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(collector.mu);
    path = collector.path;
    for (const std::unique_ptr<ThreadBuffer>& buffer : collector.buffers) {
      const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
      buffer->events.clear();
    }
  }
  // Deterministic file order for a deterministic workload: sort by
  // time, then thread, then name (chrome://tracing does not care, but
  // diffs and tests do).
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::make_tuple(a.start_ns, a.tid, a.dur_ns,
                                     std::string_view(a.name)) <
                     std::make_tuple(b.start_ns, b.tid, b.dur_ns,
                                     std::string_view(b.name));
            });

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open trace file: " + path;
    return false;
  }
  // Chrome trace_event JSON object format; "ts"/"dur" are microseconds
  // (fractional allowed), hence the /1000.0 from our nanosecond spans.
  // Streamed to the file one event at a time through two reused
  // buffers, so writing never holds a second copy of the trace.
  std::string text;
  JsonWriter w(&text);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ns");
  w.Key("traceEvents").BeginArray();
  std::string event;
  for (const TraceEvent& e : events) {
    event.assign("\n");
    JsonWriter fields(&event);
    fields.BeginObject();
    fields.Key("name").String(e.name);
    fields.Key("cat").String(e.category);
    fields.Key("ph").String("X");
    fields.Key("pid").Uint(1);
    fields.Key("tid").Uint(e.tid);
    fields.Key("ts").Fixed(static_cast<double>(e.start_ns) / 1000.0, 3);
    fields.Key("dur").Fixed(static_cast<double>(e.dur_ns) / 1000.0, 3);
    fields.EndObject();
    w.Raw(event);
    out << text;
    text.clear();
  }
  text += '\n';
  w.EndArray();
  w.EndObject();
  text += '\n';
  out << text;
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

void AppendCompleteEvent(const char* name, const char* category,
                         std::uint64_t start_ns, std::uint64_t dur_ns) {
  if (!TracingActive()) return;
  ThreadBuffer& buffer = GetThreadBuffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      TraceEvent{name, category, start_ns, dur_ns, buffer.tid});
}

SpanScope::SpanScope(const char* name, const char* category)
    : name_(name),
      category_(category),
      start_ns_(0),
      active_(TracingActive()) {
  if (active_) start_ns_ = NowNanos();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  // Re-check: tracing may have stopped mid-span; dropping the event is
  // better than writing to a drained buffer set.
  if (!TracingActive()) return;
  const std::uint64_t end_ns = NowNanos();
  AppendCompleteEvent(name_, category_, start_ns_,
                      end_ns >= start_ns_ ? end_ns - start_ns_ : 0);
}

}  // namespace wym::obs
