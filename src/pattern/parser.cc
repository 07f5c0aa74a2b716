#include "pattern/parser.h"

#include <cctype>
#include <memory>
#include <unordered_map>

namespace gkeys {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits `line` into whitespace-separated words, honoring double quotes.
StatusOr<std::vector<std::string>> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      size_t end = line.find('"', i + 1);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated string literal");
      }
      tokens.emplace_back(line.substr(i, end - i + 1));
      i = end + 1;
      continue;
    }
    size_t end = i;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    tokens.emplace_back(line.substr(i, end - i));
    i = end;
  }
  return tokens;
}

/// Per-key parsing state: maps node names to Pattern node indices.
class KeyBuilder {
 public:
  KeyBuilder(std::string name, std::string_view x_type)
      : name_(std::move(name)) {
    by_name_["x"] = pattern_.AddDesignated(x_type);
  }

  /// Resolves (or creates) the node denoted by `token`.
  StatusOr<int> Node(const std::string& token, int line_no) {
    if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
      return pattern_.AddConstant(token.substr(1, token.size() - 2));
    }
    if (token.back() == '*') {
      std::string name = token.substr(0, token.size() - 1);
      if (name.empty()) return Err("value variable needs a name", line_no);
      auto it = by_name_.find(name);
      if (it != by_name_.end()) return it->second;
      int idx = pattern_.AddValueVar(name);
      by_name_[name] = idx;
      return idx;
    }
    size_t colon = token.find(':');
    std::string name = colon == std::string::npos ? token
                                                  : token.substr(0, colon);
    std::string type = colon == std::string::npos ? ""
                                                  : token.substr(colon + 1);
    bool wildcard = !name.empty() && name.front() == '_';
    if (wildcard && name == "_") {
      if (type.empty()) return Err("anonymous wildcard needs a type", line_no);
      name = "_anon" + std::to_string(anon_counter_++);
    }
    auto it = by_name_.find(name);
    if (it != by_name_.end()) {
      // Re-reference; a repeated type annotation must agree.
      const PatternNode& existing = pattern_.nodes()[it->second];
      if (!type.empty() && existing.type != type) {
        return Err("node '" + name + "' re-declared with type '" + type +
                       "' (was '" + existing.type + "')",
                   line_no);
      }
      return it->second;
    }
    if (type.empty()) {
      return Err("unknown node '" + name +
                     "': first mention must carry :type (or be x, a value "
                     "variable name*, or a \"constant\")",
                 line_no);
    }
    int idx = wildcard ? pattern_.AddWildcard(name, type)
                       : pattern_.AddEntityVar(name, type);
    by_name_[name] = idx;
    return idx;
  }

  Status AddTripleLine(const std::vector<std::string>& tokens, int line_no) {
    // Expected shape: <node> -[pred]-> <node>
    if (tokens.size() != 3) {
      return Err("expected '<node> -[pred]-> <node>'", line_no).status();
    }
    const std::string& arrow = tokens[1];
    if (arrow.size() < 6 || arrow.substr(0, 2) != "-[" ||
        arrow.substr(arrow.size() - 3) != "]->") {
      return Err("malformed edge '" + arrow + "', expected -[pred]->",
                 line_no)
          .status();
    }
    std::string pred = arrow.substr(2, arrow.size() - 5);
    if (pred.empty()) return Err("empty predicate", line_no).status();
    auto subj = Node(tokens[0], line_no);
    if (!subj.ok()) return subj.status();
    auto obj = Node(tokens[2], line_no);
    if (!obj.ok()) return obj.status();
    return pattern_.AddTriple(*subj, pred, *obj);
  }

  StatusOr<NamedPattern> Finish() {
    GKEYS_RETURN_IF_ERROR(pattern_.Validate());
    return NamedPattern{name_, std::move(pattern_)};
  }

 private:
  static StatusOr<int> Err(std::string msg, int line_no) {
    return Status::ParseError("line " + std::to_string(line_no) + ": " +
                              std::move(msg));
  }

  std::string name_;
  Pattern pattern_;
  std::unordered_map<std::string, int> by_name_;
  int anon_counter_ = 0;
};

}  // namespace

StatusOr<std::vector<NamedPattern>> ParseKeys(std::string_view text) {
  std::vector<NamedPattern> result;
  std::unique_ptr<KeyBuilder> current;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string_view raw = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    std::string_view line = Trim(raw);
    if (line.empty()) continue;

    auto tokens_or = Tokenize(line);
    if (!tokens_or.ok()) return tokens_or.status();
    const auto& tokens = *tokens_or;

    if (tokens[0] == "key") {
      if (current) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": 'key' inside an unclosed key block");
      }
      // key <Name> for <type> {  — optionally followed, on the same line,
      // by triples and a closing brace: key A for t { x -[p]-> v* }
      if (tokens.size() < 5 || tokens[2] != "for" || tokens[4] != "{") {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": expected 'key <Name> for <type> {'");
      }
      current = std::make_unique<KeyBuilder>(tokens[1], tokens[3]);
      size_t rest_begin = 5;
      size_t rest_end = tokens.size();
      bool closes_inline =
          rest_end > rest_begin && tokens[rest_end - 1] == "}";
      if (closes_inline) --rest_end;
      for (size_t i = rest_begin; i + 3 <= rest_end; i += 3) {
        std::vector<std::string> triple(tokens.begin() + i,
                                        tokens.begin() + i + 3);
        GKEYS_RETURN_IF_ERROR(current->AddTripleLine(triple, line_no));
      }
      if ((rest_end - rest_begin) % 3 != 0) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": dangling tokens in inline key body");
      }
      if (closes_inline) {
        auto finished = current->Finish();
        if (!finished.ok()) return finished.status();
        result.push_back(std::move(*finished));
        current.reset();
      }
      continue;
    }
    if (tokens[0] == "}") {
      if (!current || tokens.size() != 1) {
        return Status::ParseError("line " + std::to_string(line_no) +
                                  ": unexpected '}'");
      }
      auto finished = current->Finish();
      if (!finished.ok()) return finished.status();
      result.push_back(std::move(*finished));
      current.reset();
      continue;
    }
    if (!current) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": triple outside a key block");
    }
    // A triple line may close the block with a trailing '}'.
    bool closes = tokens.back() == "}";
    std::vector<std::string> triple_tokens(
        tokens.begin(), closes ? tokens.end() - 1 : tokens.end());
    GKEYS_RETURN_IF_ERROR(current->AddTripleLine(triple_tokens, line_no));
    if (closes) {
      auto finished = current->Finish();
      if (!finished.ok()) return finished.status();
      result.push_back(std::move(*finished));
      current.reset();
    }
  }
  if (current) return Status::ParseError("unterminated key block");
  if (result.empty()) return Status::ParseError("no keys found");
  return result;
}

}  // namespace gkeys
