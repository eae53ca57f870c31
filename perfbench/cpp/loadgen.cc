#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using wym::serve::Request;

namespace {

// The traffic mix.
constexpr size_t kHotPairs = 256;           // Recurring pairs: cache reads.
constexpr double kHotShare = 0.5;           // Share of pairs from the hot set.
constexpr double kExplainShare = 0.1;       // Predicts with explain:true.
constexpr double kStatsShare = 0.01;        // Stats polls, one-shot connections.
constexpr size_t kMaxPairsPerRequest = 8;
constexpr size_t kWarmupFreshPairs = 512;   // Reserved at the pool's end.
constexpr size_t kWarmupRequests = 200;
// The rates take turns in short slices, cycling for the whole run, so
// each rate samples the host over the whole run rather than one third
// of it; a pause after each slice keeps its tail out of the next one.
constexpr uint64_t kSliceNs = 500'000'000;
constexpr uint64_t kSliceGapNs = 50'000'000;
// How long unanswered requests may stay out after the last one was due.
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000;
// Served probabilities compared bit for bit with in-process PredictProba.
constexpr size_t kBitCheckPairs = 300;
// The generator fell behind its schedule, and the run is invalid, when
// it noticed due requests this late: typically (p50), or in more than
// the slowest 1% (p99, under host stalls).
constexpr double kMaxLagP50Ms = 1.0;
constexpr double kMaxLagP99Ms = 50.0;

struct Planned {
  size_t phase = 0;           // Index of the offered rate.
  uint64_t slice_start = 0;   // From the start of the run.
  uint64_t due_ns = 0;        // From the start of the run.
  bool stats = false;
  bool explain = false;
  std::vector<size_t> pairs;  // Pool indices.
  std::string line;
};

struct Outcome {
  uint64_t noticed_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  bool answered = false;
  std::string response;
};

struct Connection {
  int fd = -1;
  bool one_shot = false;
  long request = -1;  // In-flight request, -1 when idle.
  std::string buffer;
};

std::vector<double> ParseRates(const std::string& text) {
  std::vector<double> rates;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    rates.push_back(std::strtod(text.substr(begin, end - begin).c_str(), nullptr));
    begin = end + 1;
  }
  for (double r : rates) {
    if (!(r > 0.0)) Fail("--rates must be positive numbers: " + text);
  }
  return rates;
}

int ConnectNonBlocking(const std::string& socket) {
  auto fd = wym::serve::ConnectUnix(socket);
  if (!fd.ok()) Fail("connect: " + fd.status().ToString());
  ::fcntl(fd.value(), F_SETFL, ::fcntl(fd.value(), F_GETFL) | O_NONBLOCK);
  return fd.value();
}

bool SendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset, MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

/// One request on its own connection, answered synchronously.
std::string RoundTrip(const std::string& socket, const std::string& line) {
  auto fd = wym::serve::ConnectUnix(socket);
  if (!fd.ok()) Fail("connect: " + fd.status().ToString());
  wym::serve::LineChannel channel(fd.value());
  if (!channel.WriteLine(line).ok()) Fail("write to server failed");
  std::string response;
  bool eof = false, timed_out = false;
  if (!channel.ReadLine(&response, 10000, &eof, &timed_out).ok() || eof || timed_out) {
    Fail("no answer from server");
  }
  return response;
}

std::string StatsLine(const std::string& id) {
  Request request;
  request.op = Request::Op::kStats;
  request.id = id;
  return wym::serve::RenderRequest(request);
}

/// Cumulative serve counters from a stats response.
struct ServeCounters {
  double cache_hits = 0, cache_misses = 0, evictions = 0, shed = 0, deadline = 0;
};

ServeCounters ParseStats(const std::string& response_line) {
  auto response = wym::serve::ParseResponse(response_line);
  if (!response.ok() || !response.value().status.ok()) Fail("stats request failed");
  wym::obs::JsonValue payload;
  std::string error;
  if (!wym::obs::ParseJson(response.value().payload_json, &payload, &error)) {
    Fail("stats payload: " + error);
  }
  ServeCounters out;
  if (const auto* cache = payload.Find("cache")) {
    if (const auto* ev = cache->Find("evictions")) out.evictions = ev->number;
  }
  const auto* metrics = payload.Find("metrics");
  const auto* counters = metrics != nullptr ? metrics->Find("counters") : nullptr;
  const auto counter = [&](const char* name) {
    const auto* value = counters != nullptr ? counters->Find(name) : nullptr;
    return value != nullptr ? value->number : 0.0;
  };
  out.cache_hits = counter("serve.cache_hits");
  out.cache_misses = counter("serve.cache_misses");
  out.shed = counter("serve.shed");
  out.deadline = counter("serve.deadline_exceeded");
  return out;
}

struct JournalEntry {
  double queue_ns = 0, run_ns = 0, total_ns = 0;
};

std::map<std::string, JournalEntry> ReadJournal(const std::string& path) {
  std::map<std::string, JournalEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    wym::obs::JsonValue record;
    std::string error;
    if (!wym::obs::ParseJson(line, &record, &error)) Fail("journal line: " + error);
    const auto* schema = record.Find("schema");
    const auto* id = record.Find("id");
    const auto* queue = record.Find("queue_ns");
    const auto* run = record.Find("run_ns");
    const auto* total = record.Find("total_ns");
    if (schema == nullptr || schema->string != "wym-journal/v1" || id == nullptr ||
        queue == nullptr || run == nullptr || total == nullptr) {
      Fail("journal record without schema, id or timings: " + line);
    }
    out[id->string] = {queue->number, run->number, total->number};
  }
  return out;
}

/// Client id of request `index`: a one-letter kind tag plus the index.
std::string RequestId(char kind, size_t index) {
  std::string id(1, kind);
  return id.append(std::to_string(index));
}

double FiniteOr(double value, double fallback) {
  return std::isfinite(value) ? value : fallback;
}

}  // namespace

int RunLoadgen(const Args& args) {
  const std::string workload = args.Require("workload");
  const uint64_t seed = args.GetUint("seed", 1);
  const std::string socket = args.Require("socket");
  const std::vector<double> rates = ParseRates(args.Require("rates"));
  const double seconds = std::strtod(args.Require("seconds").c_str(), nullptr);
  const size_t connections = std::max<uint64_t>(args.GetUint("connections", 1), 1);
  const double limit_ms = std::strtod(args.Require("p99-limit-ms").c_str(), nullptr);
  const std::string journal_path = args.Get("journal", "");

  const wym::core::WymModel model = LoadModelOrDie(args.Require("model"));
  const wym::data::Dataset pool = WorkloadRecords(workload, seed, model);
  if (pool.size() < kHotPairs + kWarmupFreshPairs + 1024) Fail("pair pool too small");
  const size_t fresh_end = pool.size() - kWarmupFreshPairs;

  const auto make_predict = [&](const std::string& id, const std::vector<size_t>& pairs,
                                bool explain) {
    Request request;
    request.op = Request::Op::kPredict;
    request.id = id;
    request.explain = explain;
    for (size_t index : pairs) request.pairs.push_back(pool.records[index]);
    return wym::serve::RenderRequest(request);
  };

  // Warm-up, closed loop on one connection: the hot set and the
  // reserved fresh pairs, a tenth with explanations. Counted in set-up.
  std::set<std::string> admission_ids;
  bool typed = true;
  const uint64_t warm0 = NowNs();
  {
    auto fd = wym::serve::ConnectUnix(socket);
    if (!fd.ok()) Fail("connect: " + fd.status().ToString());
    wym::serve::LineChannel channel(fd.value());
    for (size_t w = 0; w < kWarmupRequests; ++w) {
      std::vector<size_t> pairs;
      for (size_t p = 0; p < 4; ++p) {
        const size_t k = w * 4 + p;
        pairs.push_back(k < kHotPairs ? k : fresh_end + (k - kHotPairs) % kWarmupFreshPairs);
      }
      std::string response;
      bool eof = false, timed_out = false;
      if (!channel.WriteLine(make_predict(RequestId('w', w), pairs, w % 10 == 0)).ok() ||
          !channel.ReadLine(&response, 10000, &eof, &timed_out).ok() || eof || timed_out) {
        Fail("warm-up request failed");
      }
      auto parsed = wym::serve::ParseResponse(response);
      if (!parsed.ok() || !parsed.value().status.ok()) Fail("warm-up answered with an error");
      typed = typed && admission_ids.insert(parsed.value().request_id).second;
    }
  }
  const double warmup_s = NsToSeconds(NowNs() - warm0);
  const std::string base_stats = RoundTrip(socket, StatsLine("stats-base"));
  const ServeCounters before = ParseStats(base_stats);

  // The schedule: independent users, Poisson arrivals in each slice.
  wym::Rng rng(seed ^ 0x10AD);
  std::vector<Planned> plan;
  const size_t slices = std::max<size_t>(
      static_cast<size_t>(seconds * 1e9 / static_cast<double>(kSliceNs + kSliceGapNs)), 1);
  size_t next_fresh = kHotPairs;
  for (size_t slice = 0; slice < slices; ++slice) {
    const size_t phase = slice % rates.size();
    const uint64_t slice_start = slice * (kSliceNs + kSliceGapNs);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.Uniform()) / rates[phase];
      if (t * 1e9 >= static_cast<double>(kSliceNs)) break;
      Planned request;
      request.phase = phase;
      request.slice_start = slice_start;
      request.due_ns = slice_start + static_cast<uint64_t>(t * 1e9);
      const std::string id = RequestId('g', plan.size());
      if (rng.Bernoulli(kStatsShare)) {
        request.stats = true;
        request.line = StatsLine(id);
      } else {
        const size_t n = 1 + rng.Index(kMaxPairsPerRequest);
        for (size_t p = 0; p < n; ++p) {
          if (rng.Bernoulli(kHotShare)) {
            request.pairs.push_back(rng.Index(kHotPairs));
          } else {
            request.pairs.push_back(next_fresh);
            next_fresh = next_fresh + 1 < fresh_end ? next_fresh + 1 : kHotPairs;
          }
        }
        request.explain = rng.Bernoulli(kExplainShare);
        request.line = make_predict(id, request.pairs, request.explain);
      }
      request.line += '\n';
      plan.push_back(std::move(request));
    }
  }

  // The open loop. One thread: notice due requests, send each on an
  // idle persistent connection (stats polls on a new one), and collect
  // answers; a request waiting for a connection keeps its due time.
  std::vector<Connection> conns(connections);
  std::vector<size_t> idle;
  for (size_t c = 0; c < connections; ++c) {
    conns[c].fd = ConnectNonBlocking(socket);
    idle.push_back(c);
  }
  std::vector<Outcome> outcomes(plan.size());
  std::deque<size_t> backlog;
  size_t next = 0, answered = 0;
  const uint64_t base = NowNs() + 20'000'000;
  const uint64_t last_due = plan.empty() ? 0 : plan.back().due_ns;
  std::vector<pollfd> fds;
  std::vector<size_t> fd_conn;
  char buffer[65536];
  while (answered < plan.size()) {
    uint64_t now = NowNs();
    if (now > base + last_due + kDrainTimeoutNs) break;
    while (next < plan.size() && base + plan[next].due_ns <= now) {
      outcomes[next].noticed_ns = now;
      backlog.push_back(next++);
    }
    while (!backlog.empty()) {
      const size_t r = backlog.front();
      size_t c = 0;
      if (plan[r].stats) {
        conns.push_back({ConnectNonBlocking(socket), true, -1, {}});
        c = conns.size() - 1;
      } else if (!idle.empty()) {
        c = idle.back();
        idle.pop_back();
      } else {
        break;
      }
      backlog.pop_front();
      conns[c].request = static_cast<long>(r);
      outcomes[r].send_ns = NowNs();
      if (!SendAll(conns[c].fd, plan[r].line)) Fail("send failed");
    }
    fds.clear();
    fd_conn.clear();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].request >= 0) {
        fds.push_back({conns[c].fd, POLLIN, 0});
        fd_conn.push_back(c);
      }
    }
    now = NowNs();
    uint64_t wait_ns = 50'000'000;
    if (next < plan.size()) {
      const uint64_t due = base + plan[next].due_ns;
      wait_ns = due > now ? std::min(wait_ns, due - now) : 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Connection& conn = conns[fd_conn[i]];
      while (true) {
        const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
        if (n > 0) {
          conn.buffer.append(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n == 0) Fail("server closed a connection");
        if (errno == EAGAIN || errno == EINTR) break;
        Fail(std::string("read: ") + std::strerror(errno));
      }
      const size_t newline = conn.buffer.find('\n');
      if (newline == std::string::npos) continue;
      const size_t r = static_cast<size_t>(conn.request);
      outcomes[r].recv_ns = NowNs();
      outcomes[r].answered = true;
      outcomes[r].response = conn.buffer.substr(0, newline);
      conn.buffer.erase(0, newline + 1);
      conn.request = -1;
      ++answered;
      if (conn.one_shot) {
        ::close(conn.fd);
        conn.fd = -1;
      } else {
        idle.push_back(fd_conn[i]);
      }
    }
    // Forget closed one-shot connections (persistent ones come first).
    while (conns.size() > connections && conns.back().fd < 0) conns.pop_back();
  }
  for (Connection& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  const ServeCounters after = ParseStats(RoundTrip(socket, StatsLine("stats-end")));

  // Check every answer; time every request from its due moment.
  size_t failed = 0, tp = 0, predicted = 0, actual = 0, bit_checked = 0, bit_mismatch = 0;
  const size_t bit_stride = std::max<size_t>(plan.size() / kBitCheckPairs, 1);
  std::vector<std::vector<double>> latency(rates.size());
  std::vector<size_t> sent(rates.size()), ok(rates.size()), bad(rates.size());
  // Requests of each slice still unanswered when the slice ended.
  std::vector<size_t> backlog_end(slices);
  // Latencies of the first and the last quarters of each rate's slices.
  std::vector<std::vector<double>> first_quarter(rates.size()), last_quarter(rates.size());
  // First answer for each distinct pool pair: later answers must repeat
  // it bit for bit, and F1 counts each pair once.
  std::map<size_t, double> served;
  std::vector<double> lag_ms;
  std::vector<std::string> request_ids(plan.size());
  for (size_t r = 0; r < plan.size(); ++r) {
    const Planned& p = plan[r];
    const Outcome& o = outcomes[r];
    ++sent[p.phase];
    lag_ms.push_back(static_cast<double>(o.noticed_ns - (base + p.due_ns)) / 1e6);
    const uint64_t slice_end = base + p.slice_start + kSliceNs;
    if (!o.answered || o.recv_ns > slice_end) ++backlog_end[p.slice_start / (kSliceNs + kSliceGapNs)];
    bool good = o.answered && o.response.find("\"proto\":\"wym-serve/v1\"") != std::string::npos;
    if (o.answered) {
      auto parsed = wym::serve::ParseResponse(o.response);
      if (!parsed.ok()) {
        good = false;
      } else {
        const wym::serve::Response& response = parsed.value();
        request_ids[r] = response.request_id;
        if (response.request_id.empty() ||
            !admission_ids.insert(response.request_id).second ||
            response.id != RequestId('g', r)) {
          typed = false;
        }
        good = good && response.status.ok();
        if (good && !p.stats) {
          good = response.results.size() == p.pairs.size();
          for (size_t k = 0; good && k < p.pairs.size(); ++k) {
            const auto& result = response.results[k];
            if (p.explain && result.explanation_json.empty()) good = false;
            const auto [first, inserted] = served.emplace(p.pairs[k], result.probability);
            if (!inserted) {
              bit_mismatch += std::memcmp(&first->second, &result.probability, sizeof(double)) != 0;
            }
            if (r % bit_stride == 0 && k == 0) {
              const double local = model.PredictProba(pool.records[p.pairs[k]]);
              ++bit_checked;
              bit_mismatch += std::memcmp(&local, &result.probability, sizeof(double)) != 0;
            }
          }
        }
      }
    }
    if (!o.answered || o.response.find("\"proto\":") == std::string::npos) typed = false;
    double ms = std::numeric_limits<double>::infinity();
    if (good) {
      ++ok[p.phase];
      ms = static_cast<double>(o.recv_ns - (base + p.due_ns)) / 1e6;
    } else {
      ++bad[p.phase];
      ++failed;
    }
    latency[p.phase].push_back(ms);
    const uint64_t offset = p.due_ns - p.slice_start;
    if (offset < kSliceNs / 4) first_quarter[p.phase].push_back(ms);
    if (offset >= kSliceNs - kSliceNs / 4) last_quarter[p.phase].push_back(ms);
  }
  for (const auto& [index, probability] : served) {
    const int label = pool.records[index].label;
    tp += probability >= 0.5 && label == 1;
    predicted += probability >= 0.5;
    actual += label == 1;
  }

  JsonLine out;
  out.Str("phase", "loadgen").Num("warmup_s", warmup_s);
  std::string per_rate = "[";
  double max_ok_rps = 0.0;
  for (size_t k = 0; k < rates.size(); ++k) {
    const double p50 = Percentile(latency[k], 0.50);
    const double p99 = Percentile(latency[k], 0.99);
    // Arrivals outran service when backlogs outlive the rate's slices
    // and latency climbs across them; a stall near one slice's end is
    // not that.
    size_t backlog = 0;
    for (size_t slice = k; slice < slices; slice += rates.size()) {
      backlog = std::max(backlog, backlog_end[slice]);
    }
    const bool growing =
        backlog > 4 * connections &&
        Percentile(last_quarter[k], 0.5) >
            2.0 * std::max(Percentile(first_quarter[k], 0.5), 1.0);
    const bool meets = bad[k] == 0 && p99 <= limit_ms && !growing;
    if (meets) max_ok_rps = std::max(max_ok_rps, rates[k]);
    if (k != 0) per_rate += ',';
    per_rate += JsonLine().Num("rate", rates[k]).Int("sent", sent[k]).Int("ok", ok[k])
                    .Int("failed", bad[k]).Num("p50_ms", FiniteOr(p50, 1e9))
                    .Num("p99_ms", FiniteOr(p99, 1e9)).Int("max_backlog_end", backlog)
                    .Bool("growing_backlog", growing).Bool("meets_limit", meets)
                    .Render();
  }
  const double lag_p50 = Percentile(lag_ms, 0.50);
  const double lag_p99 = Percentile(lag_ms, 0.99);
  out.Raw("rates", per_rate + "]").Num("serve_max_ok_rps", max_ok_rps)
      .Num("f1", F1Score(tp, predicted, actual)).Int("attempted", plan.size())
      .Int("failed", failed).Bool("typed_unique_ids", typed)
      .Int("bit_checked", bit_checked).Int("bit_mismatch", bit_mismatch)
      .Bool("generator_behind", lag_p50 > kMaxLagP50Ms || lag_p99 > kMaxLagP99Ms);

  const double lookups = (after.cache_hits - before.cache_hits) +
                         (after.cache_misses - before.cache_misses);
  out.Num("gen.lag_ms.p99", lag_p99).Int("gen.sent", plan.size())
      .Int("gen.ok", plan.size() - failed).Int("gen.failed", failed)
      .Num("serve.cache_hit_share",
           lookups > 0 ? (after.cache_hits - before.cache_hits) / lookups : 0.0)
      .Num("serve.cache_evictions", after.evictions - before.evictions)
      .Num("serve.shed", after.shed - before.shed)
      .Num("serve.deadline_exceeded", after.deadline - before.deadline);

  if (!journal_path.empty()) {
    // Join each client request to its journal record by admission id.
    const auto journal = ReadJournal(journal_path);
    SpanRecorder spans;
    std::vector<double> transport, queue, run;
    size_t joined = 0;
    for (size_t r = 0; r < plan.size(); ++r) {
      const Outcome& o = outcomes[r];
      auto it = journal.find(request_ids[r]);
      if (!o.answered || it == journal.end()) continue;
      ++joined;
      const JournalEntry& j = it->second;
      const double rtt_ns = static_cast<double>(o.recv_ns - o.send_ns);
      const double transport_ns = std::max(rtt_ns - j.total_ns, 0.0);
      transport.push_back(transport_ns / 1e6);
      queue.push_back(j.queue_ns / 1e6);
      run.push_back(j.run_ns / 1e6);
      const int64_t root = static_cast<int64_t>(
          spans.Add("gen.request", base + plan[r].due_ns, o.recv_ns, -1, request_ids[r]));
      spans.Add("gen.wait", base + plan[r].due_ns, o.send_ns, root, request_ids[r]);
      const int64_t rtt = static_cast<int64_t>(
          spans.Add("serve.rtt", o.send_ns, o.recv_ns, root, request_ids[r]));
      // Server durations placed mid-flight: transport split evenly.
      const uint64_t admit = o.send_ns + static_cast<uint64_t>(transport_ns / 2);
      const uint64_t started = admit + static_cast<uint64_t>(j.queue_ns);
      spans.Add("serve.queue", admit, started, rtt, request_ids[r]);
      spans.Add("serve.run", started, started + static_cast<uint64_t>(j.run_ns), rtt,
                request_ids[r]);
    }
    out.Int("journal_joined", joined)
        .Num("serve.transport_ms.p50", Percentile(transport, 0.50))
        .Num("serve.transport_ms.p99", Percentile(transport, 0.99))
        .Num("serve.queue_ms.p50", Percentile(queue, 0.50))
        .Num("serve.queue_ms.p99", Percentile(queue, 0.99))
        .Num("serve.run_ms.p50", Percentile(run, 0.50))
        .Num("serve.run_ms.p99", Percentile(run, 0.99));
    const std::string spans_path = args.Get("spans", "");
    if (!spans_path.empty() && !spans.WriteJsonl(spans_path)) Fail("cannot write spans");
    PrintSelfTimes(spans, "client spans joined to the journal (" + workload + ")");
  }
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
