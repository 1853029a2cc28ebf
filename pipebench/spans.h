// The benchmark's own span recorder.
//
// The traced run wraps every call the benchmark makes into a library layer in
// a span (name, start, end, parent, request id). Span names start with the
// layer they time ("reg.", "seg.", "fem.", ...), so self times aggregate by
// layer. Spans live in memory and are written as Chrome trace JSON when the
// run ends; the untraced run passes no recorder and records nothing.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pipebench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  int id = -1;
  int parent = -1;   ///< -1: a root span
  int request = 0;   ///< operation (scan or solve) the span belongs to
  int thread = 0;    ///< small per-recorder thread number (Chrome "tid")
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span and returns its id. Thread-safe.
  int open(const std::string& name, int request, int parent);
  void close(int id);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  void write_chrome_trace(std::ostream& os) const;

 private:
  [[nodiscard]] double now() const;
  int thread_number();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::size_t, int> threads_;
};

/// Scoped span. With a null recorder it does nothing. The parent defaults to
/// the innermost open Span of the calling thread.
class Span {
 public:
  static constexpr int kInnermost = -2;

  Span(SpanRecorder* recorder, const std::string& name, int request,
       int parent = kInnermost);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void close();
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
  int previous_innermost_ = -1;
};

/// Self time of each span: its duration minus the part of that interval
/// covered by the union of its children. Indexed like `spans`.
std::vector<double> self_times(const std::vector<SpanRecord>& spans);

}  // namespace pipebench
