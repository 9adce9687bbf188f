/// \file main.cpp
/// \brief Entry point of the end-to-end campaign benchmark.
///
///   e2ebench --workload grid-cold|grid-faulty|serve-tenancy --seed N
///            --seconds S --trace 0|1 [--smoke] [--scratch DIR]
///            [--commit ID]
///
/// Runs one workload in this process, prints the host/build context, the
/// per-sample detail and every metric by name with its unit, and ends with
/// one JSON line {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics of untraced timed runs; --trace 1 reports
/// the per-layer ledger of a separate traced run. Exits 1 when the workload
/// fails, 2 on bad arguments and 3 when built as anything but Release
/// (timings from such a build are refused).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

e2e::Options parse(int argc, char** argv) {
  e2e::Options options;
  options.scratch_dir = ".bench_build/e2ebench-scratch";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") options.workload = value();
    else if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--seconds") options.seconds = std::stod(value());
    else if (arg == "--trace") options.trace = value() != "0";
    else if (arg == "--smoke") options.smoke = true;
    else if (arg == "--scratch") options.scratch_dir = value();
    else if (arg == "--commit") options.commit = value();
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (options.workload != "grid-cold" && options.workload != "grid-faulty" &&
      options.workload != "serve-tenancy")
    throw std::invalid_argument(
        "--workload must be grid-cold, grid-faulty or serve-tenancy");
  if (!(options.seconds > 0.0))
    throw std::invalid_argument("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
  if (std::string(E2E_BUILD_TYPE) != "Release") {
    std::cerr << "e2ebench: refusing to report timings from a "
              << E2E_BUILD_TYPE << " build; configure with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  std::filesystem::create_directories(options.scratch_dir);

  std::cout << "context {\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << e2e::exact(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"smoke\": " << (options.smoke ? "true" : "false")
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"nproc\": " << e2e::nproc()
            << ", \"compiler\": " << json_string(E2E_COMPILER)
            << ", \"flags\": " << json_string(E2E_CXX_FLAGS)
            << ", \"build_type\": " << json_string(E2E_BUILD_TYPE)
            << ", \"commit\": " << json_string(options.commit) << "}"
            << std::endl;

  e2e::Report report;
  try {
    if (options.workload == "grid-cold")
      report = e2e::run_grid_cold(options);
    else if (options.workload == "grid-faulty")
      report = e2e::run_grid_faulty(options);
    else
      report = e2e::run_serve_tenancy(options);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << note << "\n";
  std::cout << "inputs digest " << report.input_digest << "\n";
  if (!report.result_digest.empty())
    std::cout << "result digest " << report.result_digest << "\n";
  const double error_rate =
      static_cast<double>(report.failed) /
      static_cast<double>(report.attempted > 0 ? report.attempted : 1);
  std::cout << "error_rate " << e2e::exact(error_rate) << " ("
            << report.failed << " of " << report.attempted
            << " output checks failed)\n";
  for (const e2e::Metric& m : report.metrics)
    std::cout << "metric " << m.name << " = " << e2e::exact(m.value) << " "
              << m.unit << "\n";

  std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << e2e::exact(m.value)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
