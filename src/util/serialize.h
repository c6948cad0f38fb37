// Checkpoint (de)serialization shared by all persistent model state.
//
// Two wire codecs behind one Writer/Reader interface:
//
//  - Text (the default): tagged, whitespace-separated tokens with
//    full-precision doubles, readable with a text editor and diffable across
//    checkpoints. Byte-compatible with every checkpoint this project has
//    ever written.
//  - Binary: the same token stream as fixed-width little-endian values
//    (doubles as IEEE-754 bits, integers as u64, tags length-prefixed),
//    opened by an 8-byte magic. Roughly 2.5x smaller and an order of
//    magnitude faster to parse than text; use it for high-frequency
//    checkpointing where diffability does not matter.
//
// The first byte of a stream negotiates the codec (text checkpoints start
// with a human-readable tag, never 0xB5), so readers auto-detect via
// make_reader(). Readers throw std::runtime_error on tag mismatches or
// truncation so format drift fails loudly.

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/matrix.h"
#include "util/serialize_fwd.h"

namespace sentinel::serialize {

/// First bytes of a binary stream. 0xB5 is not valid UTF-8 ASCII text, so it
/// can never collide with a text checkpoint's leading tag character.
inline constexpr unsigned char kBinaryMagic[8] = {0xB5, 'S', 'N', 'T', 'L', 'B', '1', '\n'};

class Writer {
 public:
  virtual ~Writer() = default;
  virtual void put_double(double v) = 0;
  virtual void put_u64(std::uint64_t v) = 0;
  /// Write a section tag.
  virtual void tag(std::string_view name) = 0;
  /// Section separator (text: '\n'; binary: nothing).
  virtual void newline() = 0;
};

class Reader {
 public:
  virtual ~Reader() = default;
  virtual double get_double() = 0;
  virtual std::uint64_t get_u64() = 0;
  /// Read and verify a section tag.
  virtual void expect(std::string_view name) = 0;
};

class TextWriter final : public Writer {
 public:
  explicit TextWriter(std::ostream& os) : os_(os) {}
  void put_double(double v) override { os_ << std::setprecision(17) << v << ' '; }
  void put_u64(std::uint64_t v) override { os_ << v << ' '; }
  void tag(std::string_view name) override { os_ << name << '\n'; }
  void newline() override { os_ << '\n'; }

 private:
  std::ostream& os_;
};

class TextReader final : public Reader {
 public:
  explicit TextReader(std::istream& is) : is_(is) {}
  double get_double() override { return get<double>(); }
  std::uint64_t get_u64() override { return get<std::uint64_t>(); }
  void expect(std::string_view name) override {
    std::string got;
    if (!(is_ >> got) || got != name) {
      throw std::runtime_error("checkpoint: expected tag '" + std::string(name) + "', got '" +
                               got + "'");
    }
  }

 private:
  template <typename T>
  T get() {
    T v{};
    if (!(is_ >> v)) throw std::runtime_error("checkpoint: truncated stream");
    return v;
  }
  std::istream& is_;
};

class BinaryWriter final : public Writer {
 public:
  /// Writes the magic immediately, so even an empty checkpoint is detectable.
  explicit BinaryWriter(std::ostream& os) : os_(os) {
    os_.write(reinterpret_cast<const char*>(kBinaryMagic), sizeof kBinaryMagic);
  }
  void put_double(double v) override { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_u64(std::uint64_t v) override { put_le(v); }
  void tag(std::string_view name) override {
    if (name.size() > 255) throw std::invalid_argument("checkpoint: tag too long");
    const unsigned char len = static_cast<unsigned char>(name.size());
    os_.put(static_cast<char>(len));
    os_.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  void newline() override {}

 private:
  void put_le(std::uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    os_.write(buf, 8);
  }
  std::ostream& os_;
};

class BinaryReader final : public Reader {
 public:
  /// Consumes and verifies the magic.
  explicit BinaryReader(std::istream& is) : is_(is) {
    unsigned char got[sizeof kBinaryMagic] = {};
    is_.read(reinterpret_cast<char*>(got), sizeof got);
    if (is_.gcount() != sizeof got ||
        !std::equal(std::begin(got), std::end(got), std::begin(kBinaryMagic))) {
      throw std::runtime_error("checkpoint: bad binary magic");
    }
  }
  double get_double() override { return std::bit_cast<double>(get_le()); }
  std::uint64_t get_u64() override { return get_le(); }
  void expect(std::string_view name) override {
    const int len = is_.get();
    if (len == std::char_traits<char>::eof()) {
      throw std::runtime_error("checkpoint: truncated stream");
    }
    std::string got(static_cast<std::size_t>(len), '\0');
    is_.read(got.data(), len);
    if (is_.gcount() != len || got != name) {
      throw std::runtime_error("checkpoint: expected tag '" + std::string(name) + "', got '" +
                               got + "'");
    }
  }

 private:
  std::uint64_t get_le() {
    unsigned char buf[8];
    is_.read(reinterpret_cast<char*>(buf), 8);
    if (is_.gcount() != 8) throw std::runtime_error("checkpoint: truncated stream");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
  }
  std::istream& is_;
};

inline std::unique_ptr<Writer> make_writer(std::ostream& os, Format format) {
  if (format == Format::kBinary) return std::make_unique<BinaryWriter>(os);
  return std::make_unique<TextWriter>(os);
}

/// Codec negotiation: peek the first byte without consuming it.
inline Format detect_format(std::istream& is) {
  return is.peek() == kBinaryMagic[0] ? Format::kBinary : Format::kText;
}

inline std::unique_ptr<Reader> make_reader(std::istream& is) {
  if (detect_format(is) == Format::kBinary) return std::make_unique<BinaryReader>(is);
  return std::make_unique<TextReader>(is);
}

// --- Typed helpers over the codec interface --------------------------------

template <typename T>
void put(Writer& w, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    w.put_double(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.put_u64(v ? 1 : 0);
  } else {
    static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>,
                  "checkpoint integers are unsigned");
    w.put_u64(static_cast<std::uint64_t>(v));
  }
}

inline void tag(Writer& w, std::string_view name) { w.tag(name); }
inline void expect(Reader& r, std::string_view name) { r.expect(name); }

template <typename T>
T get(Reader& r) {
  if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(r.get_double());
  } else {
    static_assert(std::is_integral_v<T> && std::is_unsigned_v<T>,
                  "checkpoint integers are unsigned");
    const std::uint64_t v = r.get_u64();
    if (v > std::numeric_limits<T>::max()) {
      throw std::runtime_error("checkpoint: integer out of range");
    }
    return static_cast<T>(v);
  }
}

inline bool get_bool(Reader& r) { return r.get_u64() != 0; }

template <typename T>
void put_vector(Writer& w, const std::vector<T>& v) {
  put(w, v.size());
  for (const T& x : v) put(w, x);
}

/// Sized readers (get_vector, get_matrix) grow their storage as values
/// arrive and never size it from the count alone, so a hostile header
/// allocates no more than the stream actually holds before it fails.
template <typename T>
std::vector<T> get_vector(Reader& r) {
  const auto n = get<std::size_t>(r);
  if (n > (1u << 26)) throw std::runtime_error("checkpoint: implausible vector size");
  std::vector<T> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(get<T>(r));
  return v;
}

inline void put_matrix(Writer& w, const Matrix& m) {
  put(w, m.rows());
  put(w, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) put(w, m(r, c));
  }
}

inline Matrix get_matrix(Reader& r) {
  const auto rows = get<std::size_t>(r);
  const auto cols = get<std::size_t>(r);
  if (rows > (1u << 16) || cols > (1u << 16)) {
    throw std::runtime_error("checkpoint: implausible matrix size");
  }
  std::vector<double> cells;
  for (std::size_t i = 0; i < rows * cols; ++i) cells.push_back(get<double>(r));
  Matrix m(rows, cols);
  for (std::size_t row = 0; row < rows; ++row) {
    std::copy_n(cells.begin() + static_cast<std::ptrdiff_t>(row * cols), cols, m.row(row).begin());
  }
  return m;
}

}  // namespace sentinel::serialize
