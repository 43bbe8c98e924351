#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "engine/executor.h"
#include "engine/reference_eval.h"
#include "obs/metrics.h"
#include "tpch/generator.h"

namespace perfbench {

namespace fs = std::filesystem;

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t RegistryCounter(const std::string& name) {
  return rodb::obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

RegistryDelta::RegistryDelta(std::vector<std::string> names) {
  for (std::string& name : names) {
    const uint64_t value = RegistryCounter(name);
    start_.emplace(std::move(name), value);
  }
}

uint64_t RegistryDelta::operator[](const std::string& name) const {
  return RegistryCounter(name) - start_.at(name);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

MachineCpu ReadMachineCpu() {
  MachineCpu cpu;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(stat >> ticks)) break;
    cpu.total += ticks;
    if (field == 7) cpu.steal = ticks;
  }
  return cpu;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

rodb::Status FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return rodb::Status::IoError("cannot create " + dir);
  return rodb::Status::OK();
}

rodb::Status TimedSetups(
    const std::string& base, int reps,
    const std::function<rodb::Status(const std::string&, bool)>& setup,
    std::vector<double>* seconds, std::string* kept) {
  for (int rep = 0; rep < reps; ++rep) {
    const std::string dir = base + "/setup" + std::to_string(rep);
    rodb::Status fresh = FreshDir(dir);
    if (!fresh.ok()) return fresh;
    const bool last = rep + 1 == reps;
    const auto start = std::chrono::steady_clock::now();
    rodb::Status status = setup(dir, last);
    if (!status.ok()) return status;
    seconds->push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    if (last) {
      *kept = dir;
    } else {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
  return rodb::Status::OK();
}

std::vector<std::vector<uint8_t>> RawTpchTuples(bool lineitem, uint64_t seed) {
  std::vector<std::vector<uint8_t>> tuples(kTuples);
  if (lineitem) {
    rodb::tpch::LineitemGenerator gen(seed);
    for (auto& t : tuples) {
      t.resize(150);
      gen.NextTuple(t.data());
    }
  } else {
    rodb::tpch::OrdersGenerator gen(seed + 1);
    for (auto& t : tuples) {
      t.resize(32);
      gen.NextTuple(t.data());
    }
  }
  return tuples;
}

Expected Reference(const rodb::Schema& schema,
                   const std::vector<std::vector<uint8_t>>& tuples,
                   const rodb::ScanSpec& spec) {
  Expected ex;
  auto ref = rodb::ReferenceScan(schema, tuples, spec);
  if (!ref.ok()) return ex;
  ex.ok = true;
  ex.rows = ref->rows;
  ex.checksum = ref->output_checksum;
  for (const auto& t : ref->tuples) {
    ex.digest += rodb::Fnv1aExtend(rodb::kFnv1aSeed, t.data(), t.size());
  }
  return ex;
}

int32_t Width(int32_t values, double fraction) {
  return std::max<int32_t>(
      1, static_cast<int32_t>(std::lround(values * fraction)));
}

void AddWindow(rodb::ScanSpec* spec, rodb::Random* rng, int attr, int32_t lo,
               int32_t values, double fraction) {
  const int32_t width = Width(values, fraction);
  const int32_t from =
      lo + static_cast<int32_t>(rng->Uniform(
               static_cast<uint64_t>(values - width + 1)));
  spec->predicates.push_back(
      rodb::Predicate::Int32(attr, rodb::CompareOp::kGe, from));
  spec->predicates.push_back(
      rodb::Predicate::Int32(attr, rodb::CompareOp::kLt, from + width));
}

bool SameCounters(const rodb::ExecCounters& a, const rodb::ExecCounters& b) {
  static_assert(std::has_unique_object_representations_v<rodb::ExecCounters>,
                "ExecCounters must be plain integer fields");
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

std::string JsonNumber(double value) {
  if (std::isinf(value)) return "1e308";
  if (std::isnan(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + value + "\"";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
