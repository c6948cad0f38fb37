#include "ledger.h"

#include <ostream>

#include "util/metrics.h"

namespace perfbench {

std::int32_t Ledger::open(const char* name, std::uint32_t tag) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, tag, sentinel::util::monotonic_ns(), 0});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Ledger::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = sentinel::util::monotonic_ns();
  open_.pop_back();
}

std::map<std::string, double> Ledger::self_seconds() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t self = dur > child_ns[i] ? dur - child_ns[i] : 0;
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

std::map<std::string, std::uint64_t> Ledger::counts() const {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

void Ledger::dump(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << s.name << ',' << s.tag << ',' << s.parent << ',' << s.start_ns << ',' << s.end_ns
        << '\n';
  }
}

void Ledger::clear() {
  spans_.clear();
  open_.clear();
}

}  // namespace perfbench
