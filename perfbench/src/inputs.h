// Seeded workload inputs. The simulator, the section 3.3 injection plans and
// the file encodings all run here, in a forked child, before any set-up is
// timed; the system under test only ever sees the files written below.
// Inputs are cached on disk under the work directory keyed by (kind, seed,
// shape), and only the two newest entries of each kind are kept.
//
// Must be called while the process is still single-threaded (it forks).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "core/report.h"
#include "trace/record.h"

namespace perfbench {

/// Every deployment: 64 sensors sampled every 5 minutes.
inline constexpr std::size_t kSensors = 64;
/// The faulty sensor of an error-injected trace.
inline constexpr sentinel::SensorId kErrorVictim = 6;

enum class Injection { kClean, kStuckAt, kAdditive, kCreation, kDeletion, kChange };

const char* to_string(Injection kind);

/// Whether `report` is the diagnosis `injected` should produce: attacks at
/// the network level, errors on the victim sensor, and clean traces with a
/// normal network verdict.
bool verdict_matches(const sentinel::core::DiagnosisReport& report, Injection injected);

struct TraceSet {
  struct Entry {
    std::string name;
    Injection injection = Injection::kClean;
    std::size_t records = 0;
  };

  std::string dir;
  std::vector<Entry> entries;
  /// Initial model states: offline k-means over the environment's ground
  /// truth (paper section 4.1). Empty for the tenant pool, whose daemon
  /// bootstraps its own from a trace.
  std::vector<sentinel::AttrVec> initial_states;

  std::string path(std::size_t i, std::string_view ext) const;
  std::size_t total_records() const;
};

/// The file workloads' fleet: 16 regions x 64 sensors x 31 days, four of
/// them injected (2 errors, 2 attacks by a 0.3-fraction coalition), each as
/// `<name>.csv` and as `<name>.sntrb1` decoded from that CSV, so both
/// formats hold bit-identical records.
TraceSet fleet_inputs(const std::string& work_dir, std::uint64_t seed);

/// serve-open's tenant pool: 16 traces of 7 days x 64 sensors as SNTRB1,
/// half of them injected; entry 0 is clean and bootstraps the daemon.
TraceSet tenant_pool(const std::string& work_dir, std::uint64_t seed);

/// Every run of one build over one input set -- either file workload,
/// traced or not -- must print the same report digest. Compares `digest`
/// with each one an earlier run of `build` left beside the inputs, then
/// leaves it as digest.<build>.<workload>. Digests of other builds are
/// ignored: a change may legitimately alter the report bytes.
void check_digest(const TraceSet& set, const std::string& build, const std::string& workload,
                  std::uint64_t digest, Outcome& out);

}  // namespace perfbench
