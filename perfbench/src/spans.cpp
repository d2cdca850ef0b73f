#include "spans.hpp"

#include "runner/export.hpp"

namespace perfbench {

namespace {

bool selected(int span_iteration, int wanted) {
  return wanted == -2 || span_iteration == wanted;
}

}  // namespace

Spans::Scope Spans::scope(std::string_view name) {
  if (!enabled_) return Scope{nullptr, -1};
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::string(name), now_ns(), -1,
                        open_.empty() ? -1 : open_.back(), iteration_});
  open_.push_back(index);
  return Scope{this, index};
}

void Spans::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  open_.pop_back();
}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

double Spans::total_s(std::string_view name, int iteration) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name && selected(s.iteration, iteration)) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Spans::count(std::string_view name, int iteration) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.name == name && selected(s.iteration, iteration)) ++n;
  }
  return n;
}

void Spans::write_json(const std::string& path,
                       const bftsim::json::Value& header) const {
  using bftsim::json::Array;
  using bftsim::json::Object;
  using bftsim::json::Value;
  // Children close before their parent, so each child lies inside its
  // parent's interval and subtracting child durations gives self time.
  std::vector<std::int64_t> self_ns(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self_ns[i] += duration;
    if (spans_[i].parent >= 0) {
      self_ns[static_cast<std::size_t>(spans_[i].parent)] -= duration;
    }
  }
  Array rows;
  rows.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Object o;
    o["id"] = static_cast<std::int64_t>(i);
    o["name"] = s.name;
    o["start_ns"] = s.start_ns;
    o["end_ns"] = s.end_ns;
    o["self_ns"] = self_ns[i];
    o["parent"] = s.parent;
    o["iteration"] = s.iteration;
    rows.push_back(Value{std::move(o)});
  }
  Object doc;
  doc["header"] = header;
  doc["spans"] = Value{std::move(rows)};
  bftsim::write_json_file(path, Value{std::move(doc)});
}

}  // namespace perfbench
