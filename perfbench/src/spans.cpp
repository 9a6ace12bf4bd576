#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t group;
  const char* layer;
  const char* name;
  std::string tag;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// One buffer per thread that ever recorded. Buffers are owned by the
// global list, not by the thread, so they outlive worker threads and
// write_spans_jsonl() can read them after the workers are joined.
struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<std::uint64_t> open;  // ids of spans open on this thread
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mutex
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_group{1};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    buffer->records.reserve(4096);
  }
  return *buffer;
}

void put_json_string(std::FILE* out, const char* text) {
  std::fputc('"', out);
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') std::fputc('\\', out);
    std::fputc(*p, out);
  }
  std::fputc('"', out);
}

}  // namespace

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void set_tracing(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t next_group() {
  return g_next_group.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* layer, const char* name, std::uint64_t group,
           std::uint64_t parent)
    : layer_(layer), name_(name) {
  if (!tracing()) return;
  ThreadBuffer& buffer = thread_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != 0 ? parent
                        : (buffer.open.empty() ? 0 : buffer.open.back());
  group_ = group;
  buffer.open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = thread_buffer();
  buffer.open.pop_back();
  buffer.records.push_back(Record{id_, parent_, group_, layer_, name_,
                                  std::move(tag_), start_ns_, end});
}

bool write_spans_jsonl(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"group\":%llu,"
                   "\"thread\":%u,\"layer\":",
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.group), buffer->thread);
      put_json_string(out, r.layer);
      std::fputs(",\"name\":", out);
      put_json_string(out, r.name);
      std::fputs(",\"tag\":", out);
      put_json_string(out, r.tag.c_str());
      std::fprintf(out, ",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
