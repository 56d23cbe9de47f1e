#include "asml/value.hpp"

#include <mutex>
#include <set>
#include <stdexcept>

namespace la1::asml {

namespace {

/// Every enumeration literal of the process, interned once. The set is never
/// destroyed, so a symbol value stays valid during static destruction too;
/// its nodes never move, so their addresses serve as symbol identities.
const Symbol* intern(const Symbol& s) {
  static std::mutex mu;
  static auto* const table = new std::set<Symbol>();
  const std::lock_guard<std::mutex> lock(mu);
  return &*table->insert(s).first;
}

}  // namespace

Value::Value(const Symbol& s)
    : bits_(reinterpret_cast<std::uintptr_t>(intern(s))), kind_(Kind::kSymbol) {}

bool Value::as_bool() const {
  if (!is_bool()) throw std::invalid_argument("Value is not a bool: " + to_string());
  return bits_ != 0;
}

std::int64_t Value::as_int() const {
  if (!is_int()) throw std::invalid_argument("Value is not an int: " + to_string());
  return static_cast<std::int64_t>(bits_);
}

const Symbol& Value::as_symbol() const {
  if (!is_symbol()) {
    throw std::invalid_argument("Value is not a symbol: " + to_string());
  }
  return *symbol_ptr();
}

Word Value::as_word() const {
  if (!is_word()) throw std::invalid_argument("Value is not a word: " + to_string());
  return Word{bits_, width_};
}

std::string Value::to_string() const {
  switch (kind_) {
    case Kind::kBool:
      return bits_ != 0 ? "true" : "false";
    case Kind::kInt:
      return std::to_string(static_cast<std::int64_t>(bits_));
    case Kind::kSymbol:
      return symbol_ptr()->name;
    case Kind::kWord:
      break;
  }
  return "w" + std::to_string(width_) + ":" + std::to_string(bits_);
}

std::strong_ordering Value::operator<=>(const Value& o) const {
  if (kind_ != o.kind_) return kind_ <=> o.kind_;
  switch (kind_) {
    case Kind::kBool:
      return bits_ <=> o.bits_;
    case Kind::kInt:
      return static_cast<std::int64_t>(bits_) <=> static_cast<std::int64_t>(o.bits_);
    case Kind::kSymbol:
      return symbol_ptr()->name <=> o.symbol_ptr()->name;
    case Kind::kWord:
      break;
  }
  return as_word() <=> o.as_word();
}

}  // namespace la1::asml
