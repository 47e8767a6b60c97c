#include "util/bytes.h"

#include <array>
#include <istream>
#include <ostream>

namespace manrs::util {

std::string_view ByteCursor::ascii(size_t n) {
  return as_chars(bytes(n));
}

void ByteCursor::throw_truncated(size_t n, const char* what) const {
  throw ParseError(std::string("truncated input: ") + what + " needs " +
                   std::to_string(n) + " bytes, have " +
                   std::to_string(remaining()));
}

// The casts below are the codebase's one sanctioned byte<->char aliasing
// site: uint8_t and char have the same size and alignment, and aliasing
// through [unsigned] char is explicitly defined behaviour. Everything
// above the stream boundary works in uint8_t spans only. (This file is
// on the reinterpret-cast allowlist, so no waiver is needed here.)

bool read_exact(std::istream& in, std::span<uint8_t> out) {
  if (out.empty()) return true;
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  return static_cast<size_t>(in.gcount()) == out.size();
}

size_t read_upto(std::istream& in, std::span<uint8_t> out) {
  if (out.empty()) return 0;
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  return static_cast<size_t>(in.gcount());
}

size_t read_all(std::istream& in, std::vector<uint8_t>& out) {
  const size_t start = out.size();
  // Probe the remaining length when the stream is seekable so the slurp
  // reserves once; non-seekable streams (pipes) fall back to doubling.
  const std::istream::pos_type here = in.tellg();
  if (here != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    if (end != std::istream::pos_type(-1) && end > here) {
      out.reserve(start + static_cast<size_t>(end - here));
    }
  }
  std::array<uint8_t, 65536> chunk{};
  size_t got = 0;
  while ((got = read_upto(in, chunk)) > 0) {
    out.insert(out.end(), chunk.data(), chunk.data() + got);
  }
  return out.size() - start;
}

void write_bytes(std::ostream& out, std::span<const uint8_t> data) {
  if (data.empty()) return;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

std::string_view as_chars(std::span<const uint8_t> data) {
  return std::string_view(reinterpret_cast<const char*>(data.data()),
                          data.size());
}

std::span<const uint8_t> as_bytes(std::string_view s) {
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

}  // namespace manrs::util
