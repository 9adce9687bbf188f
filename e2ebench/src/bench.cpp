#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace e2e {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(tracer_.spans_.size());
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.start = wall_s();
  id_ = span.id;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(id_)].end = wall_s();
  tracer_.open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

double Tracer::self(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == name)
      sum -= s.end - s.start;
  }
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::map<std::string, double> ledger;
  for (const Span& s : spans_) ledger.emplace(s.name, 0.0);
  for (auto& [name, value] : ledger) value = self(name);
  out << "{\"self_time_s\": {";
  bool first = true;
  for (const auto& [name, value] : ledger) {
    out << (first ? "" : ", ") << '"' << name << "\": " << exact(value);
    first = false;
  }
  out << "},\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_s\": "
        << exact(s.start - origin) << ", \"end_s\": " << exact(s.end - origin)
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

double Samples::median() const {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::string Samples::describe() const {
  std::ostringstream out;
  out << "median " << exact(median()) << " over " << values.size()
      << " sample(s)";
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.0, 95.0, 90.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n)) - 1;
    out << ", p" << p << " " << exact(v[rank]);
    break;
  }
  return out.str();
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
}

}  // namespace e2e
