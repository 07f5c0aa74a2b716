#ifndef GKEYS_PATTERN_PARSER_H_
#define GKEYS_PATTERN_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "pattern/pattern.h"

namespace gkeys {

/// A named pattern produced by the parser.
struct NamedPattern {
  std::string name;
  Pattern pattern;
};

/// Parses the key DSL. Grammar (one or more keys per input):
///
///     # comment
///     key Q1 for album {
///       x -[name_of]-> n*
///       x -[recorded_by]-> y:artist
///       y -[based_in]-> "UK"
///       x -[published_by]-> _c:company
///     }
///
/// Node syntax inside a body:
///   * `x`            — the designated variable (type from the header);
///   * `name:type`    — an entity variable (recursive reference);
///   * `name*`        — a value variable;
///   * `_name:type`   — a wildcard (`_:type` auto-names it);
///   * `"literal"`    — a constant.
/// A node introduced with a type may later be referenced by bare `name`
/// (or `_name` for wildcards).
///
/// Returns the keys in declaration order, each validated.
StatusOr<std::vector<NamedPattern>> ParseKeys(std::string_view text);

}  // namespace gkeys

#endif  // GKEYS_PATTERN_PARSER_H_
