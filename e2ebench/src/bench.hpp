#pragma once
/// \file bench.hpp
/// \brief Shared plumbing of the end-to-end campaign benchmark: options,
/// wall/CPU clocks, the in-memory span tracer, sample statistics, digests
/// and the result record every workload fills in.
///
/// Layers are measured from outside: the tracer records a span around each
/// call the benchmark itself makes into a layer's public function. Nothing
/// here reaches into the library's internals.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny inputs for the benchmark's own tests
  std::string scratch_dir;  ///< journals and trace files, in the checkout
  std::string commit;       ///< source identity, passed in by run.py
};

/// Steady-clock seconds since an arbitrary fixed origin.
[[nodiscard]] double wall_s();
/// Process CPU time (user + system, every thread) in seconds.
[[nodiscard]] double cpu_s();
/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] unsigned nproc();

/// One recorded span: a call the benchmark made into a layer.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "sim.perf_vector"
  double start = 0.0;
  double end = 0.0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 at the root
};

/// In-memory span recorder for the traced run. Single-threaded by design:
/// every traced call is made from the benchmark's client thread.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] Scope scope(std::string name) {
    return Scope(*this, std::move(name));
  }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const;
  /// Summed self time (duration minus the part covered by child spans) of
  /// every span called `name`.
  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Writes the spans and the per-name self-time ledger as JSON.
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Wall-time samples of one repeated operation.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double sum() const;
  /// "median M over N sample(s)[, pP X]": pP is the highest of p50, p90,
  /// p95 and p99 that leaves at least ten samples above it, if any does.
  [[nodiscard]] std::string describe() const;
};

/// FNV-1a over text, for input and result digests.
[[nodiscard]] std::uint64_t fnv1a(const std::string& text,
                                  std::uint64_t hash = 1469598103934665603ull);
[[nodiscard]] std::string hex64(std::uint64_t value);
/// `value` with 17 significant digits, so it reads back exactly.
[[nodiscard]] std::string exact(double value);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts failed output checks,
/// `attempted` the operations whose outputs were checked.
struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Free-form lines printed before the result (per-sample detail, warnings).
  std::vector<std::string> notes;
  std::string input_digest;
  std::string result_digest;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one output check: counts it attempted, and failed when !ok.
  void check(bool ok, const std::string& what);
};

/// Workload entry points (one process runs exactly one of them).
[[nodiscard]] Report run_grid_cold(const Options& options);
[[nodiscard]] Report run_grid_faulty(const Options& options);
[[nodiscard]] Report run_serve_tenancy(const Options& options);

}  // namespace e2e
