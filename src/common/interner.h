#ifndef GKEYS_COMMON_INTERNER_H_
#define GKEYS_COMMON_INTERNER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gkeys {

/// A symbol: index into a StringInterner. 32-bit so it packs tightly into
/// triples and adjacency lists.
using Symbol = uint32_t;

/// Sentinel for "no symbol".
inline constexpr Symbol kNoSymbol = UINT32_MAX;

/// Bidirectional string <-> Symbol table. Not thread-safe for writes;
/// Lookup and Resolve are pure reads, safe for concurrent readers once
/// writes have stopped.
///
/// Each string is stored once, in `strings_`, at its symbol's index. The
/// index from string to symbol is an open-addressing table of symbols
/// (linear probing, at most half full) that keeps no strings of its own:
/// a probe compares the symbol's cached hash, then the string in
/// `strings_`. So a copy is deep, while a move is O(1) and keeps every
/// string where it is: a reference from Resolve survives a move.
///
/// The graph, pattern, and generator layers share one interner per Graph so
/// predicate/type/value identifiers compare by integer equality.
class StringInterner {
 public:
  StringInterner() = default;

  StringInterner(const StringInterner&) = default;
  StringInterner& operator=(const StringInterner&) = default;
  StringInterner(StringInterner&&) noexcept = default;
  StringInterner& operator=(StringInterner&&) noexcept = default;

  /// Returns the symbol for `s`, interning it if new. Lookup of an
  /// already-interned string allocates nothing.
  Symbol Intern(std::string_view s) {
    if (2 * (strings_.size() + 1) > slots_.size()) Grow();
    const uint32_t h = Hash(s);
    Symbol& slot = slots_[Probe(s, h)];
    if (slot == kNoSymbol) {
      slot = static_cast<Symbol>(strings_.size());
      strings_.emplace_back(s);
      hashes_.push_back(h);
    }
    return slot;
  }

  /// Returns the symbol for `s` or kNoSymbol if absent. Does not intern.
  Symbol Lookup(std::string_view s) const {
    return slots_.empty() ? kNoSymbol : slots_[Probe(s, Hash(s))];
  }

  /// Resolves a symbol back to its string. `sym` must be valid.
  const std::string& Resolve(Symbol sym) const { return strings_[sym]; }

  size_t size() const { return strings_.size(); }

 private:
  static uint32_t Hash(std::string_view s) {
    return static_cast<uint32_t>(std::hash<std::string_view>{}(s));
  }

  /// The slot holding `s`, or the empty slot where it would go.
  size_t Probe(std::string_view s, uint32_t h) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Symbol sym = slots_[i];
      if (sym == kNoSymbol || (hashes_[sym] == h && strings_[sym] == s)) {
        return i;
      }
    }
  }

  /// Doubles the table (16 slots at first) and reinserts every symbol
  /// from its cached hash.
  void Grow() {
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), kNoSymbol);
    const size_t mask = slots_.size() - 1;
    for (Symbol sym = 0; sym < strings_.size(); ++sym) {
      size_t i = hashes_[sym] & mask;
      while (slots_[i] != kNoSymbol) i = (i + 1) & mask;
      slots_[i] = sym;
    }
  }

  std::vector<std::string> strings_;
  std::vector<uint32_t> hashes_;  // hashes_[sym] == Hash(strings_[sym])
  std::vector<Symbol> slots_;     // power-of-two size; kNoSymbol = empty
};

}  // namespace gkeys

#endif  // GKEYS_COMMON_INTERNER_H_
