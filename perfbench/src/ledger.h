// Span ledger of the traced runs. Spans are recorded around the benchmark's
// own calls into each layer's public functions (nothing inside src/ is
// instrumented), kept in memory, and reduced to per-layer self time: a
// span's duration minus the part of it covered by its child spans. One
// ledger belongs to one thread; multi-threaded generators keep one each and
// merge the reductions.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Ledger {
 public:
  struct Span {
    const char* name;      // layer boundary, e.g. "fleet.add_records"
    std::int32_t parent;   // index of the enclosing span, -1 for a root
    std::uint32_t tag;     // region or tenant id
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  /// Open a span nested in the innermost open one; returns its index.
  std::int32_t open(const char* name, std::uint32_t tag);
  void close(std::int32_t index);

  /// Per-name totals of self time and of span count.
  std::map<std::string, double> self_seconds() const;
  std::map<std::string, std::uint64_t> counts() const;

  /// Write every span as a "name,tag,parent,start_ns,end_ns" line.
  void dump(std::ostream& out) const;

  void clear();

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null ledger records nothing and reads no clock.
class Scope {
 public:
  Scope(Ledger* ledger, const char* name, std::uint32_t tag = 0)
      : ledger_(ledger), index_(ledger ? ledger->open(name, tag) : -1) {}
  ~Scope() {
    if (ledger_ != nullptr) ledger_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
  std::int32_t index_;
};

}  // namespace perfbench
