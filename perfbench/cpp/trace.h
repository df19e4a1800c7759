#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

/// \file
/// Span recording for traced runs. The benchmark wraps each call it makes
/// into a layer of the system (engine execute, Hilbert cover, bucket
/// collect, publish, wire round trip, ...) in a span carrying a name, start
/// and end times, its parent span, and the request it serves. Spans stay in
/// per-thread memory while the run measures and are written out once when
/// it ends; the per-layer metrics are read back from them.
///
/// Untraced runs pass a null buffer everywhere: `ScopedSpan` then records
/// nothing and costs one branch.

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Ids are unique across buffers of one tracer.
class SpanBuffer {
 public:
  explicit SpanBuffer(int64_t id_base) : next_id_(id_base) {}

  /// Opens a span starting now; returns its id for `End` and as a parent.
  int64_t Begin(const char* name, int64_t request, int64_t parent);
  /// Closes span `id` (which must have been opened on this buffer) now.
  void End(int64_t id);
  /// Records a span whose times were measured elsewhere.
  int64_t Record(const char* name, int64_t request, int64_t parent,
                 int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t first_id_ = -1;
  int64_t next_id_;
  std::vector<Span> spans_;
};

/// Owns every thread's buffer (addresses are stable) and reads them back.
class Tracer {
 public:
  /// A fresh buffer for one thread.
  SpanBuffer* NewBuffer();

  /// Durations, in microseconds, of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Total spans recorded.
  int64_t size() const;

  /// Writes every span as a tab-separated line
  /// (id, parent, request, name, start_ns, end_ns). False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::deque<SpanBuffer> buffers_;
};

/// RAII span on an optional buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t request,
             int64_t parent = -1)
      : buffer_(buffer),
        id_(buffer != nullptr ? buffer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
