#include "obs/event_log.h"

#include <cinttypes>
#include <cstring>
#include <set>

#include "obs/json.h"

namespace wym::obs {

const char* RequestOutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "ok";
    case RequestOutcome::kCacheHit:
      return "cache_hit";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kDeadline:
      return "deadline";
    case RequestOutcome::kWedged:
      return "wedged";
    case RequestOutcome::kError:
      return "error";
  }
  return "error";
}

void SetRecordField(char* dst, std::size_t cap, const std::string& src) {
  if (cap == 0) return;
  const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(src[i]);
    dst[i] = (c == '"' || c == '\\' || c < 0x20) ? '_'
                                                 : static_cast<char>(c);
  }
  dst[n] = '\0';
}

const char* RenderRequestId(std::uint64_t sequence, char* buf,
                            std::size_t cap) {
  std::snprintf(buf, cap, "q%08" PRIu64, sequence);
  return buf;
}

void RenderRequestRecord(const RequestRecord& record, std::string* out) {
  char id[RequestRecord::kIdBytes];
  JsonWriter w(out);
  w.BeginObject();
  w.Key("schema").String("wym-journal/v1");
  w.Key("seq").Uint(record.sequence);
  w.Key("id").String(RenderRequestId(record.sequence, id, sizeof(id)));
  w.Key("client_id").String(record.client_id);
  w.Key("op").String(record.op);
  w.Key("model").String(record.model);
  w.Key("outcome").String(RequestOutcomeName(record.outcome));
  w.Key("admit_ns").Uint(record.admit_ns);
  w.Key("queue_ns").Uint(record.queue_ns);
  w.Key("run_ns").Uint(record.run_ns);
  w.Key("total_ns").Uint(record.total_ns);
  w.Key("pairs").Uint(record.pairs);
  w.Key("batches").Uint(record.batches);
  w.Key("cached").Uint(record.cached);
  w.EndObject();
}

EventLog::EventLog(Options options) : options_(std::move(options)) {}

EventLog::~EventLog() { Close(); }

bool EventLog::Open(std::string* error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return true;
  file_ = std::fopen(options_.path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open journal: " + options_.path;
    return false;
  }
  active_bytes_ = 0;
  return true;
}

void EventLog::RotateLocked() {
  // Single rotation slot: the previous <path>.1 (if any) is replaced,
  // so the journal never holds more than ~2x max_bytes on disk.
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated = options_.path + ".1";
  std::remove(rotated.c_str());
  std::rename(options_.path.c_str(), rotated.c_str());
  file_ = std::fopen(options_.path.c_str(), "wb");
  active_bytes_ = 0;
  ++rotations_;
}

void EventLog::Append(const RequestRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  line_.clear();
  RenderRequestRecord(record, &line_);
  line_ += '\n';
  if (options_.max_bytes != 0 && active_bytes_ != 0 &&
      active_bytes_ + line_.size() > options_.max_bytes) {
    RotateLocked();
    if (file_ == nullptr) return;  // Rotation reopen failed; drop quietly.
  }
  if (std::fwrite(line_.data(), 1, line_.size(), file_) == line_.size()) {
    active_bytes_ += line_.size();
    ++lines_written_;
  }
  // Flushed per line so followers (wym_cli tail --follow, an operator's
  // tail -f) see the record as soon as the request is answered.
  std::fflush(file_);
}

void EventLog::Close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

std::uint64_t EventLog::lines_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

std::uint64_t EventLog::rotations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

bool ValidateJournalRecord(const JsonValue& record, const std::string& where,
                           std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (!record.IsObject()) return fail(where + ": not an object");

  const JsonValue* schema = record.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "wym-journal/v1") {
    return fail(where + ": missing schema tag wym-journal/v1");
  }
  for (const char* key : {"id", "client_id", "op", "model", "outcome"}) {
    const JsonValue* member = record.Find(key);
    if (member == nullptr || !member->IsString()) {
      return fail(where + ": missing string member \"" + std::string(key) +
                  "\"");
    }
  }
  for (const char* key : {"seq", "admit_ns", "queue_ns", "run_ns", "total_ns",
                          "pairs", "batches", "cached"}) {
    const JsonValue* member = record.Find(key);
    if (member == nullptr || !member->IsNumber() || member->number < 0) {
      return fail(where + ": missing non-negative number \"" +
                  std::string(key) + "\"");
    }
  }
  const std::string& outcome = record.Find("outcome")->string;
  for (const char* name :
       {"ok", "cache_hit", "shed", "deadline", "wedged", "error"}) {
    if (outcome == name) return true;
  }
  return fail(where + ": unknown outcome \"" + outcome + "\"");
}

bool ValidateJournalJson(const std::string& text, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  std::set<std::uint64_t> seen_seq;
  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::string line =
        text.substr(start, end == std::string::npos ? std::string::npos
                                                    : end - start);
    start = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_number;
    if (line.empty()) continue;
    const std::string where = "journal line " + std::to_string(line_number);

    JsonValue record;
    std::string parse_error;
    if (!ParseJson(line, &record, &parse_error)) {
      return fail(where + ": " + parse_error);
    }
    if (!ValidateJournalRecord(record, where, error)) return false;
    const std::uint64_t seq =
        static_cast<std::uint64_t>(record.Find("seq")->number);
    if (!seen_seq.insert(seq).second) {
      return fail(where + ": duplicate seq " + std::to_string(seq));
    }
  }
  if (seen_seq.empty()) return fail("journal: no records");
  return true;
}

}  // namespace wym::obs
