#include "span_log.h"

#include <cstdio>

#include "src/common/check.h"

namespace fpgadp::repobench {

SpanLog::SpanLog() : origin_(Now()) {}

const char* SpanLog::Intern(const std::string& name) {
  return names_.insert(name).first->c_str();
}

int64_t SpanLog::Open(const std::string& name, int64_t request,
                      int64_t sim_cycle) {
  Span s;
  s.name = Intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.sim_cycle = sim_cycle;
  s.start_s = Now() - origin_;
  spans_.push_back(s);
  const auto id = static_cast<int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::Close(int64_t id) {
  FPGADP_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_s = Now() - origin_;
}

double SpanLog::Seconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_s - s.start_s;
  }
  return total;
}

uint64_t SpanLog::Count(const std::string& name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

double SpanLog::ChildSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && name == spans_[static_cast<size_t>(s.parent)].name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%lld,\"request\":%lld,"
                 "\"sim_cycle\":%lld}\n",
                 i, s.name, s.start_s, s.end_s,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.sim_cycle));
  }
  return std::fclose(f) == 0;
}

}  // namespace fpgadp::repobench
