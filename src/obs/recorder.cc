#include "obs/recorder.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace wym::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::Record(const RequestRecord& record) {
  // 1-based ticket so 0 can mean "never written".
  const std::uint64_t ticket =
      next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) % slots_.size()];
  // Seqlock writer: mark the slot in-progress, fill it, then publish.
  // A snapshot that overlaps this sees begin != end and skips the slot.
  slot.begin.store(ticket, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.record = record;
  slot.end.store(ticket, std::memory_order_release);
}

std::vector<RequestRecord> FlightRecorder::SnapshotOrdered() const {
  struct Captured {
    std::uint64_t ticket;
    RequestRecord record;
  };
  std::vector<Captured> captured;
  captured.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t end = slot.end.load(std::memory_order_acquire);
    if (end == 0) continue;  // Never written.
    Captured c;
    c.ticket = end;
    c.record = slot.record;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.begin.load(std::memory_order_relaxed) != end) {
      continue;  // Torn by a concurrent overwrite; skip.
    }
    captured.push_back(c);
  }
  std::sort(captured.begin(), captured.end(),
            [](const Captured& a, const Captured& b) {
              return a.ticket < b.ticket;
            });
  std::vector<RequestRecord> out;
  out.reserve(captured.size());
  for (const Captured& c : captured) out.push_back(c.record);
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  char reason_buf[RequestRecord::kModelBytes];
  SetRecordField(reason_buf, sizeof(reason_buf), reason);
  const std::vector<RequestRecord> records = SnapshotOrdered();

  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("schema").String("wym-flight-recorder/v1");
  w.Key("reason").String(reason_buf);
  w.Key("capacity").Uint(slots_.size());
  w.Key("recorded").Uint(recorded());
  w.Key("records").BeginArray();
  // One indented record per line, so the dump reads like the journal.
  std::string line;
  for (const RequestRecord& record : records) {
    line.assign("\n  ");
    RenderRequestRecord(record, &line);
    w.Raw(line);
  }
  if (!records.empty()) out += '\n';
  w.EndArray();
  w.EndObject();
  out += '\n';
  return out;
}

bool FlightRecorder::DumpToFile(const std::string& path,
                                const std::string& reason,
                                std::string* error) const {
  const std::string body = DumpJson(reason);
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open dump file: " + tmp;
    return false;
  }
  const bool written =
      std::fwrite(body.data(), 1, body.size(), file) == body.size();
  const bool closed = std::fclose(file) == 0;
  if (!written || !closed) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot write dump file: " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) *error = "cannot rename dump file to: " + path;
    return false;
  }
  return true;
}

bool ValidateFlightRecorderJson(const std::string& text, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (!root.IsObject()) {
    return fail("flight recorder: top level is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->string != "wym-flight-recorder/v1") {
    return fail("flight recorder: missing schema tag wym-flight-recorder/v1");
  }
  const JsonValue* reason = root.Find("reason");
  if (reason == nullptr || !reason->IsString()) {
    return fail("flight recorder: missing string member \"reason\"");
  }
  for (const char* key : {"capacity", "recorded"}) {
    const JsonValue* member = root.Find(key);
    if (member == nullptr || !member->IsNumber() || member->number < 0) {
      return fail(std::string("flight recorder: missing non-negative ") +
                  "number \"" + key + "\"");
    }
  }
  const JsonValue* records = root.Find("records");
  if (records == nullptr || !records->IsArray()) {
    return fail("flight recorder: missing array member \"records\"");
  }
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const std::string where = "records[" + std::to_string(i) + "]";
    if (!ValidateJournalRecord(records->array[i], where, error)) return false;
  }
  return true;
}

}  // namespace wym::obs
