#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::mutex g_mu;
std::vector<Span>& Finished() {
  static std::vector<Span> spans;
  return spans;
}

struct OpenSpan {
  int64_t id;
  int64_t request;
};
thread_local std::vector<OpenSpan> t_open;

}  // namespace

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return Finished();
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1);
  if (!t_open.empty()) {
    span_.parent = t_open.back().id;
    if (request < 0) request = t_open.back().request;
  }
  span_.request = request;
  t_open.push_back({span_.id, request});
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  Finished().push_back(span_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    auto parent = index_of.find(span.parent);
    if (parent == index_of.end()) continue;
    children[parent->second].push_back({span.start_ns, span.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) {
  std::vector<Span> spans = Snapshot();
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<int64_t>> self_by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_by_name[spans[i].name].push_back(self[i]);
  }
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"self_time_us\": {";
  bool first = true;
  for (auto& [name, values] : self_by_name) {
    std::sort(values.begin(), values.end());
    int64_t total = 0;
    for (int64_t v : values) total += v;
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"count\": "
        << values.size() << ", \"total\": " << total / 1e3
        << ", \"median\": " << values[values.size() / 2] / 1e3 << "}";
    first = false;
  }
  out << "\n  },\n  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i] << "}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
