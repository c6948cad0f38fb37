// Decode-ahead CSV reader tests: the batch reader must accept exactly the
// record set of the getline-based read_trace (they share one per-line
// grammar), honor batch-size limits, survive the awkward file shapes -- no
// trailing newline, empty file, comments and junk interleaved, all of it on
// and across chunk cuts -- and keep its tallies equal to a serial read's
// after every call, whatever the shared pool's workers are doing.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/thread_pool.h"

namespace sentinel {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << path;
  out << content;
}

std::vector<SensorRecord> drain(TraceReader& reader, std::size_t batch_size) {
  std::vector<SensorRecord> all;
  std::vector<SensorRecord> batch;
  while (reader.read_batch(batch, batch_size) > 0) {
    EXPECT_LE(batch.size(), batch_size);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  // End of stream is sticky.
  EXPECT_EQ(reader.read_batch(batch, batch_size), 0u);
  return all;
}

TEST(CsvTraceReader, MatchesGetlineReaderOnMixedContent) {
  const std::string content =
      "# header comment\n"
      "0,0,21.5,70\n"
      "garbage line\n"
      "1,300,21.7,69.5\n"
      "\n"
      "2,600,21.0\n"        // wrong width
      "1e300,660,21.0,70\n"  // sensor id beyond uint32
      "3,900,20.0,71\n";
  const auto path = temp_path("reader_mixed.csv");
  write_file(path, content);

  std::stringstream ss(content);
  const auto expected = read_trace(ss);

  CsvTraceReader reader(path);
  const auto records = drain(reader, 2);
  EXPECT_EQ(records, expected.records);
  EXPECT_EQ(reader.malformed_lines(), expected.malformed_lines);
  EXPECT_EQ(reader.comment_lines(), expected.comment_lines);
  EXPECT_EQ(reader.dims(), 2u);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, NoTrailingNewline) {
  const auto path = temp_path("reader_notrail.csv");
  write_file(path, "0,0,1,2\n1,60,3,4");  // final line unterminated
  CsvTraceReader reader(path);
  const auto records = drain(reader, 100);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].sensor, 1u);
  EXPECT_DOUBLE_EQ(records[1].attrs[1], 4.0);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, EmptyFileYieldsNothing) {
  const auto path = temp_path("reader_empty.csv");
  write_file(path, "");
  CsvTraceReader reader(path);
  std::vector<SensorRecord> batch;
  EXPECT_EQ(reader.read_batch(batch, 16), 0u);
  EXPECT_EQ(reader.malformed_lines(), 0u);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, MissingFileThrows) {
  EXPECT_THROW(CsvTraceReader("/nonexistent/trace.csv"), std::runtime_error);
  EXPECT_THROW(open_trace_reader("/nonexistent/trace.csv"), std::runtime_error);
}

TEST(CsvTraceReader, ExpectedDimsEnforced) {
  const auto path = temp_path("reader_dims.csv");
  write_file(path, "0,0,1,2,3\n0,1,1,2\n");
  CsvTraceReader reader(path, 3);
  const auto records = drain(reader, 16);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(reader.malformed_lines(), 1u);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, BatchSizeOneStreamsEveryRecord) {
  const auto path = temp_path("reader_batch1.csv");
  std::ostringstream content;
  for (int i = 0; i < 100; ++i) content << i % 8 << ',' << i * 60 << ",1,2\n";
  write_file(path, content.str());
  CsvTraceReader reader(path);
  const auto records = drain(reader, 1);
  ASSERT_EQ(records.size(), 100u);
  EXPECT_DOUBLE_EQ(records[99].time, 99.0 * 60.0);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, MmapAndStreamPathsAgreeOnHostileCorpus) {
  // The mapped reader and the getline reader (read_trace on an istream, the
  // serial reference) share one per-line grammar; this pins the contract
  // where it matters most -- not just the accepted record set but the
  // *per-cause* malformed accounting, over a corpus built to hit every
  // LineParse variant (plus shapes that historically diverge between the
  // two: no trailing newline, CRLF-ish junk, long lines).
  std::string content =
      "# leading comment\n"
      "0,0,21.5,70\n"
      "\n"
      "plain garbage\n"                      // bad field count
      "1,60\n"                               // bad field count (short)
      "2,120,21.0\n"                         // dims mismatch (width 1 vs 2)
      "3,180,21.0,70.0,99.0\n"               // dims mismatch (width 3 vs 2)
      "1e300,240,21.0,70\n"                  // bad sensor id (huge)
      "-1,300,21.0,70\n"                     // bad sensor id (negative)
      "2.5,360,21.0,70\n"                    // bad sensor id (fractional)
      "4,abc,21.0,70\n"                      // bad number (time)
      "5,420,xyz,70\n"                       // bad number (attr)
      "6,480,21.0,70\r\n"                    // stray carriage return
      "# mid comment\n"
      "7,540,21." +
      std::string(8192, '0') +               // oversized line, still a record
      ",70\n"
      "8,600,21.5,70";                       // final line unterminated
  const auto path = temp_path("reader_parity.csv");
  write_file(path, content);

  CsvTraceReader mmap_reader(path);
  std::istringstream in(content);
  const TraceReadResult via_stream = read_trace(in);

  EXPECT_EQ(drain(mmap_reader, 3), via_stream.records);
  EXPECT_EQ(mmap_reader.malformed(), via_stream.malformed);
  EXPECT_EQ(mmap_reader.comment_lines(), via_stream.comment_lines);
  EXPECT_EQ(mmap_reader.dims(), 2u);
  EXPECT_EQ(mmap_reader.status(), via_stream.status);

  // The corpus exercises every cause, with the exact counts pinned so a
  // reader that misattributes (right total, wrong bucket) still fails.
  const MalformedCounts& m = mmap_reader.malformed();
  EXPECT_EQ(m.bad_field_count, 2u);
  EXPECT_EQ(m.dims_mismatch, 2u);
  EXPECT_EQ(m.bad_sensor_id, 3u);
  EXPECT_EQ(m.bad_number, 2u);
  EXPECT_EQ(mmap_reader.comment_lines(), 2u);
  std::remove(path.c_str());
}

// --- Decode-ahead: chunk cuts, tallies, the shared pool --------------------

constexpr std::size_t kChunk = CsvTraceReader::kChunkBytes;

/// Every non-record shape the grammar knows, plus records that only the
/// general path parses (CRLF, NaN, signed zero).
const std::vector<std::string>& hostile_lines() {
  static const std::vector<std::string> lines = {
      "# comment",
      "",                         // blank
      "garbage",                  // bad field count
      "1,60",                     // bad field count (short)
      "2,120,21.0",               // dims mismatch (narrow)
      "3,180,21.0,70.0,99.0",     // dims mismatch (wide)
      "1e300,240,21.0,70",        // bad sensor id (huge)
      "-1,300,21.0,70",           // bad sensor id (negative)
      "2.5,360,21.0,70",          // bad sensor id (fractional)
      "4,abc,21.0,70",            // bad number (time)
      "5,420,xyz,70",             // bad number (attribute)
      "6,480,21.0,70\r",          // CRLF: a record
      "7,500,nan,-0.0",           // a record through the general path
      "  8 , 510 , 21.25 , 70  ",  // padded fields: a record
  };
  return lines;
}

std::string record_line(std::size_t i) {
  return std::to_string(i % 64) + "," + std::to_string(i * 30) + "," +
         std::to_string(20.125 + static_cast<double>(i % 7) * 0.5) + "," +
         std::to_string(60.5 - static_cast<double>(i % 5) * 0.25);
}

/// About `chunks` chunks of CSV with a dense run of hostile lines around
/// every multiple of kChunkBytes. At even multiples a hostile line's
/// newline is the last byte before the multiple (blank lines pad up to
/// it); at odd ones a hostile line straddles the multiple. The reader cuts
/// a chunk at the first newline at or after its start plus kChunkBytes, so
/// its first cut falls on the hostile line across the first multiple, and
/// later cuts, each late by however far its chunk ran past kChunkBytes,
/// land in those runs or, once the long lines have shifted them, among
/// hostile lines sprinkled one in ten. The long lines are two lines longer
/// than a chunk (a record and a malformed one); the file ends with a record
/// without a newline.
std::string hostile_corpus(std::size_t chunks) {
  const auto& hostile = hostile_lines();
  std::string s;
  std::size_t rec = 0;
  std::size_t h = 0;
  const auto add = [&s](const std::string& line) { s += line + "\n"; };
  for (std::size_t cut = 1; cut <= chunks; ++cut) {
    const std::size_t at = cut * kChunk;
    if (s.size() + 400 > at) continue;  // a long line ran past this multiple
    while (s.size() + 400 < at) {
      if (rec % 9 == 4) add(hostile[h++ % hostile.size()]);
      add(record_line(rec++));
    }
    // A dense hostile cluster around the multiple.
    while (s.size() + 120 < at) add(hostile[h++ % hostile.size()]);
    const std::string& line = hostile[h++ % hostile.size()];
    const std::size_t len = line.size() + 1;
    const std::size_t start = cut % 2 == 0 ? at - len : at - len / 2 - 1;
    s.append(start - s.size(), '\n');
    add(line);
    for (int i = 0; i < 6; ++i) add(hostile[h++ % hostile.size()]);
    if (cut == 3) {
      add("9,900,21." + std::string(kChunk + 100, '0') + ",70");  // a record
      add("9,960,21.5," + std::string(kChunk + 100, '7') + "x");   // bad number
    }
  }
  s += record_line(rec);  // unterminated
  return s;
}

bool same_bits(const SensorRecord& a, const SensorRecord& b) {
  return a.sensor == b.sensor && std::memcmp(&a.time, &b.time, sizeof a.time) == 0 &&
         a.attrs.size() == b.attrs.size() &&
         std::memcmp(a.attrs.data(), b.attrs.data(), a.attrs.size() * sizeof(double)) == 0;
}

void expect_same_bits(const std::vector<SensorRecord>& got, const std::vector<SensorRecord>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i])) << what << ": record " << i;
  }
}

/// The serial line-by-line read every CSV reader must match after each
/// call: lines are consumed until the batch is full, so the lines after the
/// batch's last record wait for the next call.
struct SerialRead {
  explicit SerialRead(std::string_view text, std::size_t width = 0) : rest(text), dims(width) {}

  std::string_view rest;
  std::size_t dims;
  MalformedCounts malformed;
  std::size_t comments = 0;
  RecordBatch line;
  std::vector<std::string_view> fields;

  std::vector<SensorRecord> read(std::size_t max) {
    std::vector<SensorRecord> out;
    while (out.size() < max && !rest.empty()) {
      const std::size_t nl = std::min(rest.find('\n'), rest.size());
      line.clear();
      const LineParse p = parse_trace_line(rest.substr(0, nl), dims, line, fields);
      rest.remove_prefix(std::min(nl + 1, rest.size()));
      if (p == LineParse::kRecord) {
        out.push_back({line.sensors[0], line.times[0], {line.attrs.begin(), line.attrs.end()}});
      } else if (p == LineParse::kComment) {
        ++comments;
      } else {
        malformed.count(p);
      }
    }
    return out;
  }
};

TEST(CsvTraceReader, HostileCorpusMatchesSerialReadAfterEveryCall) {
  const std::string content = hostile_corpus(10);
  ASSERT_GT(content.size(), 9 * kChunk);
  const auto path = temp_path("reader_hostile.csv");
  write_file(path, content);
  std::istringstream in(content);
  const TraceReadResult whole = read_trace(in);
  ASSERT_GT(whole.malformed.bad_field_count, 0u);
  ASSERT_GT(whole.malformed.dims_mismatch, 0u);
  ASSERT_GT(whole.malformed.bad_sensor_id, 0u);
  ASSERT_GT(whole.malformed.bad_number, 0u);

  for (const std::size_t dims : {std::size_t{0}, std::size_t{2}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{1024}}) {
      const std::string what = "dims " + std::to_string(dims) + ", batch " + std::to_string(batch);
      CsvTraceReader reader(path, dims);
      SerialRead serial{content, dims};
      std::vector<SensorRecord> all, got;
      for (std::size_t call = 0;; ++call) {
        const auto want = serial.read(batch);
        const std::size_t n = reader.read_batch(got, batch);
        ASSERT_EQ(n, want.size()) << what << ", call " << call;
        if (n > 0) expect_same_bits(got, want, what);
        ASSERT_EQ(reader.malformed(), serial.malformed) << what << ", call " << call;
        ASSERT_EQ(reader.comment_lines(), serial.comments) << what << ", call " << call;
        ASSERT_TRUE(reader.status().is_ok()) << what;
        if (n == 0) break;
        all.insert(all.end(), want.begin(), want.end());
      }
      expect_same_bits(all, whole.records, what);
      EXPECT_EQ(reader.malformed(), whole.malformed) << what;
      EXPECT_EQ(reader.comment_lines(), whole.comment_lines) << what;
      EXPECT_EQ(reader.dims(), 2u) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTraceReader, WidthFixedByAFirstRecordInTheThirdChunk) {
  // Two chunks and more of lines that cannot fix the width (fewer than
  // three fields), then records of width 3 and one stray width-2 line.
  std::string content;
  for (std::size_t i = 0; content.size() < 2 * kChunk + kChunk / 2; ++i) {
    content += i % 3 == 0 ? "# preamble\n" : i % 3 == 1 ? "\n" : "0,1\n";
  }
  for (std::size_t i = 0; i < 3000; ++i) {
    content += record_line(i) + ",1013.25\n";
    if (i == 1500) content += record_line(i) + "\n";  // width 2: dims mismatch
  }
  const auto path = temp_path("reader_late_width.csv");
  write_file(path, content);
  std::istringstream in(content);
  const TraceReadResult whole = read_trace(in);
  ASSERT_EQ(whole.records.size(), 3000u);
  ASSERT_EQ(whole.malformed.dims_mismatch, 1u);

  CsvTraceReader reader(path);
  EXPECT_EQ(reader.dims(), 0u);
  expect_same_bits(drain(reader, 1024), whole.records, "late width");
  EXPECT_EQ(reader.dims(), 3u);
  EXPECT_EQ(reader.malformed(), whole.malformed);
  EXPECT_EQ(reader.comment_lines(), whole.comment_lines);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, SkipThenReadMatchesAStraightRead) {
  const std::string content = hostile_corpus(6);
  const auto path = temp_path("reader_skip.csv");
  write_file(path, content);
  std::istringstream in(content);
  const TraceReadResult whole = read_trace(in);
  const std::size_t total = whole.records.size();
  for (const std::size_t skip : {std::size_t{0}, std::size_t{1}, std::size_t{1000},
                                 std::size_t{4097}, total - 1, total, total + 5}) {
    const std::string what = "skip " + std::to_string(skip);
    CsvTraceReader reader(path);
    SerialRead serial{content};
    (void)serial.read(skip);
    EXPECT_EQ(reader.skip_records(skip), std::min(skip, total)) << what;
    EXPECT_EQ(reader.malformed(), serial.malformed) << what;
    EXPECT_EQ(reader.comment_lines(), serial.comments) << what;
    const std::vector<SensorRecord> tail(
        whole.records.begin() + static_cast<std::ptrdiff_t>(std::min(skip, total)),
        whole.records.end());
    expect_same_bits(drain(reader, 1024), tail, what);
    EXPECT_EQ(reader.malformed(), whole.malformed) << what;
  }
  std::remove(path.c_str());
}

/// Occupies every worker of the shared pool until release() (a pool that
/// runs tasks inline has no worker to occupy).
class BlockedPool {
 public:
  BlockedPool() {
    auto& pool = util::ThreadPool::shared();
    if (pool.runs_inline()) return;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool.post([this, gate = gate_] {
        blocked_.fetch_add(1);
        gate.wait();
      });
    }
    while (blocked_.load() < pool.size()) std::this_thread::yield();
  }
  ~BlockedPool() { release(); }

  void release() {
    if (released_) return;
    released_ = true;
    open_.set_value();
    // Every task posted before this barrier has been taken off the queue
    // once the barrier runs, so tasks left by a destroyed reader have run.
    auto& pool = util::ThreadPool::shared();
    for (std::size_t i = 0; i < pool.size(); ++i) pool.submit([] {}).get();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  std::atomic<std::size_t> blocked_{0};
  bool released_ = false;
};

TEST(CsvTraceReader, FinishesInlineWhileEveryPoolWorkerIsBlocked) {
  const std::string content = hostile_corpus(8);
  const auto path = temp_path("reader_blocked.csv");
  write_file(path, content);
  std::istringstream in(content);
  const TraceReadResult whole = read_trace(in);

  BlockedPool blocked;
  auto reading = std::async(std::launch::async, [&path] {
    CsvTraceReader reader(path);
    std::vector<SensorRecord> all, batch;
    while (reader.read_batch(batch, 1024) > 0) all.insert(all.end(), batch.begin(), batch.end());
    return std::make_pair(all, reader.malformed());
  });
  const bool finished = reading.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  blocked.release();
  ASSERT_TRUE(finished) << "read_batch waited on a queued decode";
  const auto [records, malformed] = reading.get();
  expect_same_bits(records, whole.records, "blocked pool");
  EXPECT_EQ(malformed, whole.malformed);
  std::remove(path.c_str());
}

TEST(CsvTraceReader, DestroyedWithDecodesQueuedAndRunning) {
  const std::string content = hostile_corpus(8);
  const auto path = temp_path("reader_teardown.csv");
  write_file(path, content);
  std::vector<SensorRecord> batch;
  {
    // Queued: the decode-ahead tasks sit behind blocked workers while the
    // reader goes away, and run (finding their chunks claimed) afterwards.
    BlockedPool blocked;
    for (int i = 0; i < 4; ++i) {
      CsvTraceReader reader(path);
      ASSERT_EQ(reader.read_batch(batch, 1), 1u);
    }
  }
  // Running: free workers pick the chunks up while the reader is destroyed.
  for (int i = 0; i < 50; ++i) {
    CsvTraceReader reader(path);
    ASSERT_EQ(reader.read_batch(batch, 1 + static_cast<std::size_t>(i) * 97), 1u + i * 97u);
  }
  std::istringstream in(content);
  CsvTraceReader reader(path);
  expect_same_bits(drain(reader, 4096), read_trace(in).records, "after teardown");
  std::remove(path.c_str());
}

TEST(CsvTraceReader, ForkedChildReadsAgainAfterThePoolStarted) {
  // The parent's read starts the shared pool's workers; a forked child has
  // none of them, so its read must run every decode inline and finish.
  const std::string content = hostile_corpus(6);
  const auto path = temp_path("reader_fork.csv");
  write_file(path, content);
  CsvTraceReader parent(path);
  const std::vector<SensorRecord> records = drain(parent, 1024);
  const MalformedCounts malformed = parent.malformed();
  const std::size_t comments = parent.comment_lines();

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CsvTraceReader child(path);
    std::vector<SensorRecord> got, batch;
    while (child.read_batch(batch, 1024) > 0) got.insert(got.end(), batch.begin(), batch.end());
    bool same = got.size() == records.size() && child.malformed() == malformed &&
                child.comment_lines() == comments;
    for (std::size_t i = 0; same && i < got.size(); ++i) same = same_bits(got[i], records[i]);
    std::_Exit(same ? 0 : 1);
  }
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "the forked child's read did not finish";
  }
  ASSERT_TRUE(WIFEXITED(status)) << "child died";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child read different records or tallies";
  std::remove(path.c_str());
}

TEST(OpenTraceReader, DispatchesCsvByContent) {
  // A .bin extension with CSV content must still be read as CSV: detection
  // is by magic bytes, never by file name.
  const auto path = temp_path("reader_csv.bin");
  write_file(path, "0,0,1,2\n1,60,3,4\n");
  const auto reader = open_trace_reader(path);
  const auto records = drain(*reader, 16);
  EXPECT_EQ(records.size(), 2u);
  std::remove(path.c_str());
}

TEST(FleetIngest, StreamingMatchesBulk) {
  // ingest() pumping a reader batch-by-batch must produce the same fleet
  // diagnosis as feeding the whole trace through add_records in one shot.
  const auto path = temp_path("reader_fleet.csv");
  std::ostringstream content;
  for (int i = 0; i < 2000; ++i) {
    const bool high = (i / 240) % 2 == 1;  // alternate phases every 2 hours
    content << i % 4 << ',' << i * 30 << ',' << (high ? 30.0 : 10.0) + 0.1 * (i % 3) << ','
            << (high ? 40.0 : 60.0) - 0.1 * (i % 5) << '\n';
  }
  write_file(path, content.str());

  core::PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};

  core::FleetMonitor bulk(6.0);
  bulk.add_region("r", cfg);
  const auto whole = read_trace_file(path);
  bulk.add_records("r", whole.records);
  bulk.finish();

  core::FleetMonitor streaming(6.0);
  streaming.add_region("r", cfg);
  CsvTraceReader reader(path);
  const auto summary = streaming.ingest("r", reader, 64);
  streaming.finish();

  EXPECT_EQ(summary.records, whole.records.size());
  EXPECT_TRUE(summary.status.is_ok()) << summary.status.to_string();
  EXPECT_EQ(core::to_string(streaming.diagnose()), core::to_string(bulk.diagnose()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sentinel
