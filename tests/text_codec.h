// Checkpoint-codec helpers for tests that round-trip one model object: the
// bytes its save() writes through the text codec, and a reader over bytes
// whose codec is detected from the first byte, as a checkpoint load does.

#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "util/serialize.h"

namespace sentinel::test {

/// What `obj.save(w)` writes through serialize::TextWriter.
template <typename T>
std::string text_bytes(const T& obj) {
  std::ostringstream os;
  serialize::TextWriter w(os);
  obj.save(w);
  return os.str();
}

/// A serialize::Reader over `bytes`. Pass one where a load() takes a
/// Reader&; a temporary lives to the end of the full expression:
///   const auto m = hmm::OnlineHmm::load(cfg, test::ReaderOver(bytes));
class ReaderOver {
 public:
  explicit ReaderOver(std::string bytes)
      : is_(std::move(bytes)), r_(serialize::make_reader(is_)) {}
  operator serialize::Reader&() { return *r_; }

 private:
  std::istringstream is_;
  std::unique_ptr<serialize::Reader> r_;
};

}  // namespace sentinel::test
