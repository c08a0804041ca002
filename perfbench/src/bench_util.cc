#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Initialized before main(): the benchmark's "process start". Only the
// dynamic loader runs earlier, and it does the same work on every run.
const double kProcessStart = Now();

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

thread_local int64_t current_span = 0;

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Normal() {
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSinceProcessStart() { return Now() - kProcessStart; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage self {}, children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  check_failures.push_back(why);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string ResultJson(const RunResult& result) {
  auto object = [](const Metrics& metrics) {
    std::string out = "{";
    for (const auto& [name, m] : metrics) {
      if (out.size() > 1) out += ", ";
      out += "\"" + JsonEscape(name) + "\": {\"value\": " +
             Num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
             JsonEscape(m.unit) + "\"}";
    }
    return out + "}";
  };
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"end_to_end\": " + object(result.end_to_end);
  out += ", \"per_layer\": " + object(result.per_layer) + "}";
  return out;
}

Tracer::Span::Span(Tracer* tracer, std::string name, std::string cat,
                   int64_t parent)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  event_.name = std::move(name);
  event_.cat = std::move(cat);
  event_.id = tracer_->next_id_.fetch_add(1);
  event_.parent = parent != 0 ? parent : current_span;
  event_.tid = ThreadIndex();
  saved_current_ = current_span;
  current_span = event_.id;
  event_.start = Now();
}

Tracer::Span::~Span() {
  if (!tracer_->enabled_) return;
  event_.end = Now();
  current_span = saved_current_;
  tracer_->Record(std::move(event_));
}

void Tracer::Span::Arg(const std::string& key, double value) {
  if (!tracer_->enabled_) return;
  event_.args.emplace_back(key, value);
}

void Tracer::Record(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const Metrics& other) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  double origin = events_.empty() ? 0 : events_.front().start;
  for (const Event& e : events_) origin = std::min(origin, e.start);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::string args = "\"span_id\": " + std::to_string(e.id) +
                       ", \"parent\": " + std::to_string(e.parent);
    for (const auto& [k, v] : e.args) {
      args += ", \"" + JsonEscape(k) + "\": " + Num(v);
    }
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %s, \"dur\": %s, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {%s}}%s\n",
                 JsonEscape(e.name).c_str(), JsonEscape(e.cat).c_str(),
                 Num((e.start - origin) * 1e6).c_str(),
                 Num((e.end - e.start) * 1e6).c_str(), e.tid, args.c_str(),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "], \"otherData\": {");
  bool first = true;
  for (const auto& [name, m] : other) {
    std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                 first ? "" : ", ", JsonEscape(name).c_str(),
                 Num(m.value).c_str(), JsonEscape(m.unit).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
