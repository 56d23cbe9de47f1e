// Values stored in ASM state locations.
//
// AsmL models use booleans, integers, enumeration literals and small data
// words; `Value` is the corresponding closed sum type. A value is 16 bytes
// with no heap part: enumeration literals are interned once per process, so
// a symbol value is a pointer to its interned `Symbol` and two symbols are
// equal exactly when the pointers are. Values order by kind (bool < int <
// symbol < word), then by payload; symbols order by name, not by address.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

namespace la1::asml {

/// An enumeration literal, e.g. CLK_UP or BANK_2. Compared by name.
struct Symbol {
  std::string name;
  auto operator<=>(const Symbol&) const = default;
};

/// A fixed-width data word (bit patterns travelling through the interface).
struct Word {
  std::uint64_t bits = 0;
  int width = 0;
  auto operator<=>(const Word&) const = default;
};

class Value {
 public:
  Value() = default;
  Value(bool b) : bits_(b ? 1 : 0), kind_(Kind::kBool) {}  // NOLINT(runtime/explicit)
  Value(std::int64_t i)                                     // NOLINT(runtime/explicit)
      : bits_(static_cast<std::uint64_t>(i)), kind_(Kind::kInt) {}
  Value(int i) : Value(static_cast<std::int64_t>(i)) {}  // NOLINT
  /// Interns `s` in the process-wide symbol table (thread-safe).
  Value(const Symbol& s);                                  // NOLINT(runtime/explicit)
  Value(Word w) : bits_(w.bits), width_(w.width), kind_(Kind::kWord) {}  // NOLINT

  static Value symbol(std::string name) { return Value(Symbol{std::move(name)}); }
  static Value word(std::uint64_t bits, int width) { return Value(Word{bits, width}); }

  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_symbol() const { return kind_ == Kind::kSymbol; }
  bool is_word() const { return kind_ == Kind::kWord; }

  bool as_bool() const;
  std::int64_t as_int() const;
  const Symbol& as_symbol() const;
  Word as_word() const;

  std::string to_string() const;

  /// Mixes the value into the running hash `h`; equal values mix equally
  /// within one process (a symbol hashes by its interned address).
  std::size_t hash(std::size_t h) const {
    const auto tag = static_cast<std::uint64_t>(static_cast<std::uint32_t>(width_))
                         << 8 |
                     static_cast<std::uint64_t>(kind_);
    h = (h ^ bits_) * 0x9e3779b97f4a7c15ull;
    h ^= (h >> 29) ^ tag;
    return h * 0xbf58476d1ce4e5b9ull;
  }

  bool operator==(const Value& o) const {
    return bits_ == o.bits_ && width_ == o.width_ && kind_ == o.kind_;
  }
  std::strong_ordering operator<=>(const Value& o) const;

 private:
  enum class Kind : std::uint8_t { kBool, kInt, kSymbol, kWord };

  const Symbol* symbol_ptr() const {
    return reinterpret_cast<const Symbol*>(static_cast<std::uintptr_t>(bits_));
  }

  std::uint64_t bits_ = 0;  // bool, int, word bits, or the interned Symbol*
  std::int32_t width_ = 0;  // words only
  Kind kind_ = Kind::kBool;
};

}  // namespace la1::asml
