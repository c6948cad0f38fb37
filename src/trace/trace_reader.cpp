#include "trace/trace_reader.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"

namespace sentinel {

/// One line-aligned slice of the input and what decoding it produced. The
/// reader and every decode task posted for the chunk each hold a reference
/// (`refs`), so a task that runs after the reader is gone -- it finds the
/// chunk claimed and does nothing -- still touches live memory. Slots are
/// recycled: a task left over from an earlier use that finds the chunk
/// queued again simply decodes the current contents.
struct CsvTraceReader::Chunk {
  enum State : int { kQueued, kClaimed, kDone };

  /// `count` comment or malformed lines of one kind that lie after the
  /// chunk's first `before` records.
  struct Event {
    std::size_t before = 0;
    LineParse kind = LineParse::kComment;
    std::size_t count = 0;
  };

  std::atomic<int> state{kDone};
  std::atomic<int> refs{1};

  // Decode input, written by the reader before the chunk is queued.
  std::string_view text;   // bytes of the mapping
  std::size_t offset = 0;  // mapping offset of `text`
  std::size_t dims = 0;    // 0: fixed by the first line wide enough

  // Decode output.
  RecordBatch records;
  std::vector<Event> events;
  std::vector<std::string_view> fields;  // split scratch

  // Hand-out cursor (the reader's thread only).
  std::size_t next = 0;
  std::size_t next_attr = 0;
  std::size_t next_event = 0;

  /// True for the one thread that moves a queued chunk to claimed.
  bool claim() {
    int queued = kQueued;
    return state.compare_exchange_strong(queued, kClaimed, std::memory_order_acquire);
  }

  void decode() {
    records.clear();
    events.clear();
    const char* p = text.data();
    const char* const end = p + text.size();
    while (p != end) {
      // A record of the common shape is read once, by the record parser.
      if (dims != 0) {
        if (const char* next = parse_trace_record(p, end, dims, records)) {
          p = next;
          continue;
        }
      }
      // Any other line is found by its newline and goes to the general
      // grammar.
      const std::size_t left = static_cast<std::size_t>(end - p);
      const auto* nl = static_cast<const char*>(std::memchr(p, '\n', left));
      const std::size_t len = nl == nullptr ? left : static_cast<std::size_t>(nl - p);
      const LineParse k = parse_trace_line({p, len}, dims, records, fields);
      p = nl == nullptr ? end : nl + 1;
      if (k == LineParse::kRecord || k == LineParse::kBlank) continue;
      if (!events.empty() && events.back().before == records.size() && events.back().kind == k) {
        ++events.back().count;
      } else {
        events.push_back({records.size(), k, 1});
      }
    }
    state.store(kDone, std::memory_order_release);
    state.notify_all();
  }

  /// Block until a worker that claimed the chunk has decoded it.
  void wait_decoded() {
    for (int s = state.load(std::memory_order_acquire); s != kDone;
         s = state.load(std::memory_order_acquire)) {
      state.wait(s, std::memory_order_acquire);
    }
  }

  static void unref(Chunk* c) {
    if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete c;
  }
};

CsvTraceReader::CsvTraceReader(util::MappedFile file, std::size_t expected_dims)
    : map_(std::move(file)), dims_(expected_dims) {}

CsvTraceReader::CsvTraceReader(const std::string& path, std::size_t expected_dims)
    : CsvTraceReader(util::MappedFile::open(path), expected_dims) {}

CsvTraceReader::~CsvTraceReader() {
  // A queued chunk is claimed so no worker starts it; a running one is
  // waited out, since it reads the mapping.
  for (Chunk* c : ring_) {
    if (c == nullptr) continue;
    if (!c->claim()) c->wait_decoded();
    Chunk::unref(c);
  }
}

bool CsvTraceReader::cut(Chunk& c) {
  const std::string_view all = map_.view();
  if (map_pos_ == all.size()) return false;
  std::size_t end = all.size();
  if (end - map_pos_ > kChunkBytes) {
    end = std::min(all.find('\n', map_pos_ + kChunkBytes - 1), all.size() - 1) + 1;
  }
  c.offset = map_pos_;
  c.text = all.substr(map_pos_, end - map_pos_);
  map_pos_ = end;
  return true;
}

void CsvTraceReader::top_up() {
  while (live_ < ring_.size() && !input_done_) {
    Chunk*& slot = ring_[(head_ + live_) % ring_.size()];
    if (slot == nullptr) slot = new Chunk;
    Chunk& c = *slot;
    if (!cut(c)) {
      input_done_ = true;
      break;
    }
    ++live_;
    c.dims = dims_;
    c.next = c.next_attr = c.next_event = 0;
    if (dims_ == 0) {
      // Until a line fixes the width, a chunk's grammar depends on the
      // chunks before it: decode in order, here.
      c.decode();
      dims_ = c.dims;
      continue;
    }
    c.refs.fetch_add(1, std::memory_order_relaxed);
    c.state.store(Chunk::kQueued, std::memory_order_release);
    util::ThreadPool::shared().post([chunk = &c] {
      if (chunk->claim()) chunk->decode();
      Chunk::unref(chunk);
    });
  }
}

CsvTraceReader::Chunk* CsvTraceReader::head() {
  top_up();
  if (live_ == 0) return nullptr;
  Chunk& c = *ring_[head_];
  if (c.claim()) {
    c.decode();  // no worker has started it: cheaper to decode than to wait
    return &c;
  }
  // A worker is decoding the head. Decode later chunks no worker has
  // started meanwhile, rather than sleep: tallies replay by position at
  // hand-out, so which thread decoded a chunk does not matter.
  for (std::size_t i = 1; i < live_ && c.state.load(std::memory_order_acquire) != Chunk::kDone;
       ++i) {
    Chunk& later = *ring_[(head_ + i) % ring_.size()];
    if (later.claim()) later.decode();
  }
  c.wait_decoded();
  return &c;
}

std::size_t CsvTraceReader::take(std::vector<SensorRecord>* out, std::size_t max) {
  // Replays `c`'s comment and malformed lines that lie before record `limit`.
  const auto tally = [this](Chunk& c, std::size_t limit) {
    for (; c.next_event < c.events.size() && c.events[c.next_event].before < limit;
         ++c.next_event) {
      const Chunk::Event& e = c.events[c.next_event];
      if (e.kind == LineParse::kComment) {
        comments_ += e.count;
      } else {
        malformed_.count(e.kind, e.count);
      }
    }
  };
  std::size_t n = 0;
  while (n < max) {
    Chunk* const c = head();
    if (c == nullptr) break;
    const RecordBatch& recs = c->records;
    const std::size_t k = std::min(max - n, recs.size() - c->next);
    if (out != nullptr && out->size() < n + k) out->resize(n + k);
    const double* attrs = recs.attrs.data() + c->next_attr;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t r = c->next + i;
      const std::uint32_t width = recs.widths[r];
      if (out != nullptr) {
        SensorRecord& rec = (*out)[n + i];
        rec.sensor = recs.sensors[r];
        rec.time = recs.times[r];
        // Element-wise: a handful of values, where assign() pays a memmove call.
        if (rec.attrs.size() != width) rec.attrs.resize(width);
        for (std::uint32_t a = 0; a < width; ++a) rec.attrs[a] = attrs[a];
      }
      attrs += width;
    }
    c->next_attr = static_cast<std::size_t>(attrs - recs.attrs.data());
    c->next += k;
    n += k;
    if (n == max) {
      // A serial read stops right after its last record: what follows it
      // is tallied by the next call.
      tally(*c, c->next);
      break;
    }
    tally(*c, recs.size() + 1);  // spent, and the read goes on
    head_ = (head_ + 1) % ring_.size();
    --live_;
    map_.release_prefix(live_ > 0 ? ring_[head_]->offset : map_pos_);
  }
  return n;
}

std::size_t CsvTraceReader::read_batch(std::vector<SensorRecord>& out, std::size_t max_records) {
  const std::size_t n = take(&out, max_records);
  // Shrinks only on the final partial batch. At end of stream `out` stays
  // as it was, so its records keep their attribute storage for whoever
  // refills it next.
  if (n > 0) out.resize(n);
  return n;
}

std::size_t CsvTraceReader::skip_records(std::size_t n) { return take(nullptr, n); }

std::unique_ptr<TraceReader> open_trace_reader(const std::string& path,
                                               std::size_t expected_dims) {
  util::MappedFile file = util::MappedFile::open(path);
  const std::string_view magic(reinterpret_cast<const char*>(kBinaryTraceMagic),
                               sizeof kBinaryTraceMagic);
  if (file.view().starts_with(magic)) {
    return std::make_unique<BinaryTraceReader>(std::move(file), expected_dims);
  }
  return std::make_unique<CsvTraceReader>(std::move(file), expected_dims);
}

}  // namespace sentinel
