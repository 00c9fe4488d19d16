#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {
namespace {

const Clock::time_point kOrigin = Clock::now();

std::atomic<std::uint64_t> g_tracer_generation{0};

struct LocalBuffer {
  std::uint64_t generation = ~0ull;
  std::vector<Span>* spans = nullptr;
};
thread_local LocalBuffer tl_buffer;
thread_local std::int64_t tl_open = -1;  // innermost open span of this thread

void json_string(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void json_number(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
  // would report the launching process's peak when that one was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string quantile_summary(std::vector<double> values) {
  if (values.empty()) return "n=0";
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    return values[static_cast<std::size_t>(q * double(values.size() - 1) + 0.5)];
  };
  char buf[160];
  std::snprintf(buf, sizeof buf, "p10=%.6g p25=%.6g p50=%.6g p75=%.6g p90=%.6g n=%zu",
                at(0.1), at(0.25), at(0.5), at(0.75), at(0.9), values.size());
  return buf;
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

std::uint64_t result_digest(std::size_t index,
                            const ferro::core::ScenarioResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(index));
  d.add(static_cast<std::uint64_t>(r.error.code));
  const auto& m = r.metrics;
  for (const double v : {m.h_peak, m.b_peak, m.remanence, m.coercivity, m.area}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(m.points));
  d.add(r.stats.samples);
  d.add(r.stats.field_events);
  d.add(r.stats.integration_steps);
  d.add(r.stats.slope_clamps);
  d.add(r.stats.direction_clamps);
  d.add(r.energy_stats.samples);
  d.add(r.energy_stats.cell_updates);
  d.add(r.energy_stats.pinned_samples);
  d.add(r.energy_stats.dissipated_energy);
  d.add(static_cast<std::uint64_t>(r.curve.size()));
  if (!r.curve.empty()) {
    const auto& p = r.curve.points().back();
    d.add(p.h);
    d.add(p.m);
    d.add(p.b);
  }
  return ferro::util::SplitMix64::mix(d.value());
}

// ------------------------------------------------------------- Tracer ----

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1)) {}

std::vector<Span>& Tracer::local() {
  if (tl_buffer.generation != generation_ || tl_buffer.spans == nullptr) {
    std::lock_guard<std::mutex> lk(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    tl_buffer.generation = generation_;
    tl_buffer.spans = buffers_.back().get();
  }
  return *tl_buffer.spans;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1);
  span_.name = name;
  span_.run = tracer_->run_;
  saved_ = tl_open;
  if (tl_open >= 0) {
    span_.parent = tl_open;
  } else {
    std::int64_t expected = -1;
    if (!tracer_->root_.compare_exchange_strong(expected, span_.id)) {
      span_.parent = expected;
    }
  }
  tl_open = span_.id;
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = now_s();
  tl_open = saved_;
  std::int64_t own = span_.id;
  tracer_->root_.compare_exchange_strong(own, -1);
  tracer_->local().push_back(std::move(span_));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

double Tracer::busy(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double Tracer::self(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : all) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start, s.end);
  }
  double total = 0.0;
  for (const Span& s : all) {
    if (s.name != name) continue;
    double covered = 0.0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = 0.0, hi = -1.0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    total += (s.end - s.start) - covered;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans()) n += s.name == name ? 1 : 0;
  return n;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans()) {
    std::ostringstream line;
    line << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":";
    json_string(line, s.name);
    line << ",\"start\":";
    json_number(line, s.start);
    line << ",\"end\":";
    json_number(line, s.end);
    line << ",\"run\":" << s.run << "}\n";
    out << line.str();
  }
}

// ------------------------------------------------------------- Report ----

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ',';
    json_string(out, metrics[i].name);
    out << ":{\"value\":";
    json_number(out, metrics[i].value);
    out << ",\"unit\":";
    json_string(out, metrics[i].unit);
    out << '}';
  }
  out << "},\"counts\":{";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i) out << ',';
    json_string(out, counts[i].first);
    out << ':' << counts[i].second;
  }
  out << "},\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (i) out << ',';
    json_string(out, info[i].first);
    out << ':';
    json_string(out, info[i].second);
  }
  out << "},\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i) out << ',';
    json_string(out, problems[i]);
  }
  out << "]}";
  return out.str();
}

}  // namespace perfbench
