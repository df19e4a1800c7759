#include "trace.h"

#include <cstdio>

#include "bench_util.h"

namespace perfbench {

namespace {

/// Span ids of buffer b start at b << kIdShift, so ids never collide.
constexpr int kIdShift = 40;

}  // namespace

int64_t SpanBuffer::Begin(const char* name, int64_t request, int64_t parent) {
  return Record(name, request, parent, NowNs(), 0);
}

void SpanBuffer::End(int64_t id) {
  spans_[static_cast<size_t>(id - first_id_)].end_ns = NowNs();
}

int64_t SpanBuffer::Record(const char* name, int64_t request, int64_t parent,
                           int64_t start_ns, int64_t end_ns) {
  if (first_id_ < 0) first_id_ = next_id_;
  const int64_t id = next_id_++;
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  return id;
}

SpanBuffer* Tracer::NewBuffer() {
  const int64_t base = static_cast<int64_t>(buffers_.size()) << kIdShift;
  buffers_.emplace_back(base);
  return &buffers_.back();
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
  }
  return out;
}

int64_t Tracer::size() const {
  int64_t n = 0;
  for (const SpanBuffer& buffer : buffers_) {
    n += static_cast<int64_t>(buffer.spans().size());
  }
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const SpanBuffer& buffer : buffers_) {
    for (const Span& s : buffer.spans()) {
      std::fprintf(file, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
