// Writer for the regression gate's metric files, BENCH_<bench>.json
// (schema and gate rules: bench/check_regression.py). Metrics appear in
// call order; the file is finished when the writer goes out of scope.
#pragma once

#include <cstdio>
#include <string>

namespace cruz::bench {

class BenchGate {
 public:
  explicit BenchGate(const std::string& bench)
      : path_("BENCH_" + bench + ".json"),
        file_(std::fopen(path_.c_str(), "w")) {
    if (file_ != nullptr) {
      std::fprintf(file_, "{\"bench\": \"%s\", \"metrics\": [\n",
                   bench.c_str());
    }
  }
  BenchGate(const BenchGate&) = delete;
  BenchGate& operator=(const BenchGate&) = delete;
  ~BenchGate() {
    if (file_ == nullptr) return;
    std::fprintf(file_, "\n]}\n");
    std::fclose(file_);
    std::printf("wrote %s\n", path_.c_str());
  }

  // `direction` is which way is better. A `threshold` above 0 gates a
  // host-time metric within that band; without one the gate is exact.
  void Metric(const std::string& name, double value, const char* unit,
              const char* direction = "lower", double threshold = 0) {
    if (file_ == nullptr) return;
    std::fprintf(file_,
                 "%s  {\"name\": \"%s\", \"value\": %.6f, "
                 "\"unit\": \"%s\", \"direction\": \"%s\"",
                 first_ ? "" : ",\n", name.c_str(), value, unit, direction);
    if (threshold > 0) std::fprintf(file_, ", \"threshold\": %.2f", threshold);
    std::fprintf(file_, "}");
    first_ = false;
  }

 private:
  std::string path_;
  std::FILE* file_;
  bool first_ = true;
};

}  // namespace cruz::bench
