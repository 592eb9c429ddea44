#include "core/codec.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace sdl::codec {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_svarint(std::string& out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  put_varint(out, (u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

namespace {
// Tags are part of the durable format — append-only, never renumber.
enum : std::uint8_t {
  kTagNil = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagDouble = 3,
  kTagAtom = 4,
  kTagString = 5,
};
}  // namespace

void put_value(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Nil:
      put_u8(out, kTagNil);
      break;
    case Value::Kind::Bool:
      put_u8(out, kTagBool);
      put_u8(out, v.as_bool() ? 1 : 0);
      break;
    case Value::Kind::Int:
      put_u8(out, kTagInt);
      put_svarint(out, v.as_int());
      break;
    case Value::Kind::Double:
      put_u8(out, kTagDouble);
      put_u64(out, std::bit_cast<std::uint64_t>(v.as_double()));
      break;
    case Value::Kind::Atom:
      put_u8(out, kTagAtom);
      put_string(out, v.as_atom().text());
      break;
    case Value::Kind::String:
      put_u8(out, kTagString);
      put_string(out, v.as_string());
      break;
  }
}

void put_tuple(std::string& out, const Tuple& t) {
  put_varint(out, t.arity());
  for (const Value& v : t) put_value(out, v);
}

std::uint8_t Reader::get_u8() {
  if (!take(1)) return 0;
  return *p_++;
}

std::uint32_t Reader::get_u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
  return v;
}

std::uint64_t Reader::get_u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
  return v;
}

std::uint64_t Reader::get_varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (!take(1)) return 0;
    const unsigned char b = *p_++;
    if (shift == 63 && (b & 0x7e) != 0) {  // overflow past 64 bits
      ok_ = false;
      return 0;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  ok_ = false;  // unterminated varint
  return 0;
}

std::int64_t Reader::get_svarint() {
  const std::uint64_t u = get_varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string Reader::get_string() {
  const std::uint64_t n = get_varint();
  if (!ok_ || !take(static_cast<std::size_t>(n))) return {};
  std::string s(reinterpret_cast<const char*>(p_), static_cast<std::size_t>(n));
  p_ += n;
  return s;
}

Value Reader::get_value() {
  switch (get_u8()) {
    case kTagNil:
      return Value();
    case kTagBool:
      return Value(get_u8() != 0);
    case kTagInt:
      return Value(get_svarint());
    case kTagDouble:
      return Value(std::bit_cast<double>(get_u64()));
    case kTagAtom:
      return Value(Atom::intern(get_string()));
    case kTagString:
      return Value(get_string());
    default:
      ok_ = false;
      return Value();
  }
}

Tuple Reader::get_tuple() {
  const std::uint64_t arity = get_varint();
  // An arity the remaining window cannot possibly hold (each field is at
  // least one tag byte) is corruption, not a huge tuple — reject before
  // the reserve so garbage lengths cannot balloon memory.
  if (!ok_ || arity > remaining()) {
    ok_ = false;
    return Tuple();
  }
  Tuple::Fields fields;
  fields.reserve(static_cast<std::size_t>(arity));
  for (std::uint64_t i = 0; i < arity && ok_; ++i) fields.push_back(get_value());
  if (!ok_) return Tuple();
  return Tuple(std::move(fields));
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace sdl::codec
