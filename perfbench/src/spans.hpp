// In-memory span recorder for the ledger's traced run.
//
// Spans are recorded only by the ledger's own code, around calls into
// the library's public functions; nothing inside the library is
// instrumented. Each span carries a layer, a name, a tag, start/end
// times on one steady clock, the id of the span that caused it and a
// group id shared by every span of one injection or beam session.
// Records stay in per-thread buffers until write_jsonl() at the end of
// the run, so recording never touches the disk while timing.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Nanoseconds since the first call in this process (steady clock).
std::int64_t now_ns();

/// Turns recording on or off process-wide. Off by default: untimed and
/// untraced code pays one relaxed atomic load per span.
void set_tracing(bool enabled);
bool tracing();

/// Fresh id for a span group (one injection, one beam session).
std::uint64_t next_group();

class Span {
 public:
  /// `parent` 0 means "the innermost open span on this thread"; worker
  /// threads pass the dispatching span's id explicitly.
  Span(const char* layer, const char* name, std::uint64_t group = 0,
       std::uint64_t parent = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }
  void set_tag(std::string tag) { tag_ = std::move(tag); }

 private:
  const char* layer_;
  const char* name_;
  std::string tag_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t group_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Writes every recorded span as one JSON object per line. Call once,
/// after every thread that recorded spans has been joined.
bool write_spans_jsonl(const std::string& path);

}  // namespace perfbench
