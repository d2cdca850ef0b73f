// In-memory span recorder for the traced benchmark pass.
//
// A span wraps one call from perfbench into a simulator layer (config
// parse, Controller construction, Controller::run, a sweep, an export, a
// probe). Spans nest by scope, carry the id of their parent and of the
// iteration they belong to, and stay in memory until the run ends, when
// write_json() dumps them. A disabled recorder makes every scope a no-op,
// so the untraced pass times the same code without the bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hpp"

namespace perfbench {

class Spans {
 public:
  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Spans* owner, int index) noexcept : owner_(owner), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }

   private:
    Spans* owner_;
    int index_;
  };

  /// Opens a span named `name` under the innermost open span; a no-op
  /// while recording is off.
  [[nodiscard]] Scope scope(std::string_view name);

  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Tags spans opened from now on with iteration `id` (-1: outside any).
  void set_iteration(int id) noexcept { iteration_ = id; }

  /// Sum of the durations of spans named `name` in iteration `iteration`
  /// (-2: every iteration), in seconds.
  [[nodiscard]] double total_s(std::string_view name, int iteration = -2) const;
  /// Number of spans named `name` in `iteration` (-2: every iteration).
  [[nodiscard]] std::size_t count(std::string_view name,
                                  int iteration = -2) const;

  /// Writes `{"header": header, "spans": [...]}` to `path`. Each span
  /// carries its self time: its duration minus its children's.
  void write_json(const std::string& path,
                  const bftsim::json::Value& header) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int iteration = -1;
  };

  void close(int index);
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool enabled_ = false;
  int iteration_ = -1;
};

}  // namespace perfbench
