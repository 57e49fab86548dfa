// In-memory span recorder for the traced run.
//
// A span marks one call into a layer: its name, start and end (steady-clock
// nanoseconds since the recorder's epoch), the span that was open on the
// same thread when it began (its parent), and the request it belongs to.
// Spans are kept in memory while the benchmark runs and written out once,
// at exit, with every span name's total and median *self* time — the span's
// duration minus the part of it that its child spans cover.
//
// Recording is off unless Tracer::Enable(true) was called; a ScopedSpan is
// then a single branch, which is what the untraced run measures with.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  /// Id of the enclosing span on the same thread; -1 for a root span.
  int64_t parent = -1;
  /// Every span of one request shares this id (loop requests count from 0,
  /// probe inputs from kProbeRequestBase).
  int64_t request = -1;
};

inline constexpr int64_t kProbeRequestBase = 1'000'000'000;

/// Nanoseconds on the steady clock since process start.
int64_t NowNs();

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Every finished span so far, in finishing order.
  static std::vector<Span> Snapshot();
  /// Writes all spans plus per-name self-time aggregates as JSON.
  static bool WriteJson(const std::string& path);
};

/// Records one span for its lifetime (when tracing is enabled). `name` must
/// be a string literal (spans keep the pointer). `request` < 0 inherits the
/// request id of the enclosing span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to it). Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
