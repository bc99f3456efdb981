// Benchmark-side span log and the decorators that feed it.
//
// Every layer is timed from outside, around the benchmark's calls into
// that layer's public functions: nothing here reaches into src/.  Spans
// are kept in memory (name, start, end, parent) and written out once the
// run ends.  The untraced runs call the library directly, without the
// decorators.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "models/regressor.hpp"
#include "stats.hpp"

namespace leafbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span recorder: open() pushes onto a stack of open
/// spans, so the parent of a new span is whatever is open around it.
class SpanLog {
 public:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_s();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Writes spans as a JSON array of {name, start, end, parent}; start and
/// end are seconds since the first span.  Returns false on a write error.
inline bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  bool ok = std::fputs("[\n", f) >= 0;
  for (std::size_t i = 0; i < spans.size() && ok; ++i)
    ok = std::fprintf(f, "%s{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                      "\"parent\": %d}\n", i ? "," : "", spans[i].name.c_str(),
                      spans[i].start - origin, spans[i].end - origin,
                      spans[i].parent) > 0;
  ok = ok && std::fputs("]\n", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// RAII helper; a null log makes it free.
class Scoped {
 public:
  Scoped(SpanLog* log, const std::string& name)
      : log_(log), idx_(log != nullptr ? log->open(name) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

/// Per-family model-call tallies (the counts that go with the spans).
struct ModelTally {
  std::uint64_t fit_calls = 0;
  std::uint64_t predict_rows = 0;
};

/// Regressor decorator: forwards every call to the wrapped model and
/// records `fit.<family>` / `predict.<family>` spans.  Its clones are
/// decorators too, so candidate fits and permutation-importance predicts
/// inside a scheme are seen as well.
class TimedRegressor final : public leaf::models::Regressor {
 public:
  TimedRegressor(std::unique_ptr<leaf::models::Regressor> inner,
                 std::string family, SpanLog* log, ModelTally* tally)
      : inner_(std::move(inner)),
        family_(std::move(family)),
        fit_name_("fit." + family_),
        predict_name_("predict." + family_),
        log_(log),
        tally_(tally) {}

  void fit(const leaf::Matrix& X, std::span<const double> y,
           std::span<const double> w = {}) override {
    Scoped s(log_, fit_name_);
    if (tally_ != nullptr) ++tally_->fit_calls;
    inner_->fit(X, y, w);
  }
  double predict_one(std::span<const double> x) const override {
    Scoped s(log_, predict_name_);
    if (tally_ != nullptr) ++tally_->predict_rows;
    return inner_->predict_one(x);
  }
  void predict_into(const leaf::Matrix& X,
                    std::span<double> out) const override {
    Scoped s(log_, predict_name_);
    if (tally_ != nullptr) tally_->predict_rows += X.rows();
    inner_->predict_into(X, out);
  }
  void attach_caches(leaf::models::FitCaches* caches) override {
    inner_->attach_caches(caches);
  }
  std::unique_ptr<leaf::models::Regressor> clone_untrained() const override {
    return std::make_unique<TimedRegressor>(inner_->clone_untrained(),
                                            family_, log_, tally_);
  }
  std::string name() const override { return inner_->name(); }
  bool trained() const override { return inner_->trained(); }
  std::string serial_key() const override { return inner_->serial_key(); }
  void save(leaf::io::Serializer& out) const override { inner_->save(out); }

 private:
  std::unique_ptr<leaf::models::Regressor> inner_;
  std::string family_;
  std::string fit_name_;
  std::string predict_name_;
  SpanLog* log_;
  ModelTally* tally_;
};

/// MitigationScheme decorator: an `explain` span around every on_step of
/// the wrapped scheme.  Model calls made inside it nest as child spans,
/// so the span's self time is the scheme's own work.
class TimedScheme final : public leaf::core::MitigationScheme {
 public:
  TimedScheme(std::unique_ptr<leaf::core::MitigationScheme> inner,
              SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void reset() override { inner_->reset(); }
  std::optional<leaf::data::SupervisedSet> on_step(
      const leaf::core::SchemeContext& ctx) override {
    Scoped s(log_, "explain");
    return inner_->on_step(ctx);
  }
  std::unique_ptr<leaf::models::Regressor> take_replacement_model() override {
    return inner_->take_replacement_model();
  }
  std::string name() const override { return inner_->name(); }
  void save_state(leaf::io::Serializer& out) const override {
    inner_->save_state(out);
  }
  void load_state(leaf::io::Deserializer& in) override {
    inner_->load_state(in);
  }

 private:
  std::unique_ptr<leaf::core::MitigationScheme> inner_;
  SpanLog* log_;
};

}  // namespace leafbench
