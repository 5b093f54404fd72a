#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct KeptSpan {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  ///< Index into the same thread's kept spans, or -1.
  uint64_t request;
  bool probe;
};

struct Frame {
  const char* name;
  int64_t start_ns;
  int64_t child_ns;
  int64_t kept_index;  ///< -1 when the span is over the dump cap.
  bool probe;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  bool recording = false;
  uint64_t request = 0;
  std::vector<Frame> stack;
  std::vector<KeptSpan> kept;
  uint64_t dropped = 0;
  std::unordered_map<const char*, SpanStats> stats;
};

std::mutex g_buffers_mu;
// Buffers outlive their threads: the statistics are read after the
// client threads have been joined.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<uint32_t>(g_buffers.size());
  }
  return t_buffer;
}

void WriteJsonString(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') std::fputc('\\', f);
    std::fputc(*s, f);
  }
  std::fputc('"', f);
}

}  // namespace

void SpanLog::SetRecording(bool on) { Buffer()->recording = on; }

void SpanLog::SetRequest(uint64_t id) { Buffer()->request = id; }

bool SpanLog::Begin(const char* name, bool probe) {
  ThreadBuffer* b = Buffer();
  if (!b->recording) return false;
  const int64_t now = NowNs();
  int64_t kept_index = -1;
  if (b->kept.size() < kMaxKeptSpans) {
    kept_index = static_cast<int64_t>(b->kept.size());
    b->kept.push_back(KeptSpan{name, now, now,
                               b->stack.empty() ? -1 : b->stack.back().kept_index,
                               b->request, probe});
  } else {
    ++b->dropped;
  }
  b->stack.push_back(Frame{name, now, 0, kept_index, probe});
  return true;
}

void SpanLog::End() {
  ThreadBuffer* b = Buffer();
  const int64_t now = NowNs();
  const Frame frame = b->stack.back();
  b->stack.pop_back();
  const int64_t duration = now - frame.start_ns;
  SpanStats& stats = b->stats[frame.name];
  ++stats.count;
  stats.busy_ns += duration;
  stats.self_ns += duration - frame.child_ns;
  stats.probe = frame.probe;
  stats.durations_us.push_back(static_cast<float>(duration) / 1000.0f);
  if (frame.kept_index >= 0) b->kept[frame.kept_index].end_ns = now;
  if (!b->stack.empty()) b->stack.back().child_ns += duration;
}

std::map<std::string, SpanStats> SpanLog::Stats() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::map<std::string, SpanStats> merged;
  for (const auto& buffer : g_buffers) {
    for (const auto& [name, s] : buffer->stats) {
      SpanStats& m = merged[name];
      m.count += s.count;
      m.busy_ns += s.busy_ns;
      m.self_ns += s.self_ns;
      m.probe = s.probe;
      m.durations_us.insert(m.durations_us.end(), s.durations_us.begin(),
                            s.durations_us.end());
    }
  }
  return merged;
}

uint64_t SpanLog::DroppedSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t dropped = 0;
  for (const auto& buffer : g_buffers) dropped += buffer->dropped;
  return dropped;
}

bool SpanLog::WriteChromeTrace(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    for (const KeptSpan& s : buffer->kept) origin = std::min(origin, s.start_ns);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& buffer : g_buffers) {
    for (size_t i = 0; i < buffer->kept.size(); ++i) {
      const KeptSpan& s = buffer->kept[i];
      std::fputs(first ? "\n" : ",\n", f);
      first = false;
      std::fputs("{\"name\":", f);
      WriteJsonString(f, s.name);
      // Span ids are (thread, index) packed; the parent id uses the same
      // packing so a viewer can rebuild the tree across threads.
      const uint64_t id = (uint64_t{buffer->tid} << 32) | i;
      const int64_t parent =
          s.parent < 0 ? -1
                       : static_cast<int64_t>((uint64_t{buffer->tid} << 32) |
                                              static_cast<uint64_t>(s.parent));
      std::fprintf(f,
                   ",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                   "\"parent\":%lld,\"request\":%llu}}",
                   s.probe ? "probe" : "request", buffer->tid,
                   static_cast<double>(s.start_ns - origin) / 1000.0,
                   static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                   static_cast<unsigned long long>(id),
                   static_cast<long long>(parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
