#include "spans.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <thread>
#include <utility>

namespace pipebench {
namespace {

thread_local int innermost_span = -1;

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::thread_number() {
  const std::size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = threads_.emplace(key, static_cast<int>(threads_.size()));
  return it->second;
}

int SpanRecorder::open(const std::string& name, int request, int parent) {
  const double start = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord span;
  span.name = name;
  span.start_s = start;
  span.end_s = start;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.thread = thread_number();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::close(int id) {
  const double end = now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_s = end;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<double> self = self_times(all);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  os << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, s.name.substr(0, s.name.find('.')));
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"self_us\":" << self[i] * 1e6 << "}}";
  }
  os << "\n]}\n";
}

Span::Span(SpanRecorder* recorder, const std::string& name, int request, int parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->open(name, request, parent == kInnermost ? innermost_span : parent);
  previous_innermost_ = innermost_span;
  innermost_span = id_;
}

void Span::close() {
  if (recorder_ == nullptr || id_ < 0) return;
  recorder_->close(id_);
  innermost_span = previous_innermost_;
  id_ = -1;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<int, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto parent = index.find(s.parent);
    if (parent == index.end()) continue;
    const SpanRecord& p = spans[parent->second];
    const double lo = std::max(s.start_s, p.start_s);
    const double hi = std::min(s.end_s, p.end_s);
    if (hi > lo) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_s - spans[i].start_s) - covered;
  }
  return self;
}

}  // namespace pipebench
